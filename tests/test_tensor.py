"""Kernel-level checks for the dense math module."""

import math

import numpy as np
import pytest

from aalstm import tensor
from aalstm.tensor import sigmoid, tanh_v, uniform_init

from helpers import clipped_tanh, two_branch_sigmoid


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_tanh_at_zero(self):
        assert tanh_v(np.zeros(1))[0] == 0.0

    def test_sigmoid_deep_negative_is_tiny_not_nan(self):
        s = sigmoid(np.array([-1000.0]))[0]
        assert 0.0 < s <= 1e-12
        assert math.isfinite(s)

    def test_sigmoid_deep_positive_stays_inside_unit_interval(self):
        s = sigmoid(np.array([500.0]))[0]
        assert 0.0 < s < 1.0

    def test_sigmoid_moderate_range_matches_naive_formula(self):
        x = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)

    def test_sigmoid_complement_identity(self):
        x = tensor.make_rng(1).normal(scale=5.0, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, rtol=1e-12)

    def test_tanh_oddness(self):
        x = tensor.make_rng(2).normal(scale=5.0, size=1000)
        np.testing.assert_allclose(tanh_v(-x), -tanh_v(x), rtol=1e-12, atol=1e-15)

    def test_open_interval_for_huge_inputs(self):
        x = np.array([-500.0, -50.0, 0.0, 50.0, 500.0])
        s, t = sigmoid(x), tanh_v(x)
        assert np.all((s > 0.0) & (s < 1.0))
        assert np.all((t > -1.0) & (t < 1.0))

    def test_bitwise_equal_to_two_branch_forms(self):
        # 4e5 values over every scale up to |x| ~ 3000, plus the edge cases.
        rng = tensor.make_rng(3)
        x = np.concatenate([rng.normal(scale=s, size=100_000) for s in (1.0, 10.0, 40.0, 1000.0)]
                           + [np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                                        36.7, -36.7, 709.0, -709.0, 745.2, -745.2])])
        for got, want in ((sigmoid(x), two_branch_sigmoid(x)), (tanh_v(x), clipped_tanh(x))):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestUniformInit:
    def test_within_half_open_range(self):
        lo, hi = 0.5, 0.5 + 1e-9
        m = uniform_init(5, 5, lo, hi, seed=3)
        assert np.all((m >= lo) & (m < hi))

    def test_same_seed_is_bit_identical(self):
        a = uniform_init(7, 11, -0.1, 0.1, seed=42)
        b = uniform_init(7, 11, -0.1, 0.1, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = uniform_init(4, 4, -0.1, 0.1, seed=1)
        b = uniform_init(4, 4, -0.1, 0.1, seed=2)
        assert not np.array_equal(a, b)

    def test_sample_mean_near_center(self):
        m = uniform_init(100, 100, -0.1, 0.1, seed=9)
        assert abs(m.mean()) < 0.01

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            uniform_init(2, 2, 0.1, 0.1, seed=0)
        with pytest.raises(ValueError):
            uniform_init(2, 2, 0.2, -0.2, seed=0)

    def test_entries_finite(self):
        assert np.all(np.isfinite(uniform_init(20, 20, -1e6, 1e6, seed=5)))
