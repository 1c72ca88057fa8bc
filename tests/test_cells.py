"""Forward-pass checks for the classic and aspect-aware cells."""

import numpy as np
import pytest

from aalstm import tensor
from aalstm.cells import (
    AALstmParams,
    CellState,
    ClassicLstmParams,
    aa_lstm_step,
    classic_lstm_step,
    unroll,
    zero_state,
)
from aalstm.tensor import ShapeError

from helpers import core, filled, params_as_lists, scalar_aa_step, scalar_classic_step


def random_aa_params(rng, dx=3, dc=3, scale=0.5):
    p = AALstmParams.empty(dx, dc)
    return filled(p, {k: rng.normal(scale=scale, size=v.shape)
                      for k, v in p.to_arrays().items()})


def random_classic_params(rng, dx=3, dc=3, scale=0.5):
    p = ClassicLstmParams.empty(dx, dc)
    return filled(p, {k: rng.normal(scale=scale, size=v.shape)
                      for k, v in p.to_arrays().items()})


def random_state(rng, dc):
    return CellState(h=np.tanh(rng.normal(size=dc)), c=rng.normal(size=dc))


class TestAAStep:
    def test_zero_everything_gives_half_gates(self):
        p = AALstmParams.empty(2, 2)
        filled(p, dict.fromkeys(p.to_arrays(), 0.0))
        state, cache = aa_lstm_step(p, np.array([0.7, -0.3]), np.zeros(2), zero_state(2))
        for gate in (*cache.a_gates.reshape(3, -1), *cache.ifo.reshape(3, -1)):
            assert np.all(gate == 0.5)
        assert np.all(cache.c_cand == 0.0)
        assert np.all(state.c == 0.0)
        assert np.all(state.h == 0.0)

    def test_zero_aspect_reduces_to_classic(self):
        rng = tensor.make_rng(10)
        for _ in range(20):
            p = random_aa_params(rng)
            x = rng.normal(size=3)
            prev = random_state(rng, 3)
            aa_state, _ = aa_lstm_step(p, x, np.zeros(3), prev)
            cl_state, _ = classic_lstm_step(core(p), x, prev)
            np.testing.assert_allclose(aa_state.h, cl_state.h, atol=1e-12, rtol=0)
            np.testing.assert_allclose(aa_state.c, cl_state.c, atol=1e-12, rtol=0)

    def test_matches_scalar_oracle(self):
        rng = tensor.make_rng(11)
        for _ in range(100):
            dx, dc = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = random_aa_params(rng, dx=dx, dc=dc)
            x = rng.normal(size=dx)
            aspect = rng.normal(size=dc)
            prev = random_state(rng, dc)
            state, _ = aa_lstm_step(p, x, aspect, prev)
            h_ref, c_ref = scalar_aa_step(params_as_lists(p), x.tolist(), aspect.tolist(),
                                          prev.h.tolist(), prev.c.tolist())
            np.testing.assert_allclose(state.h, h_ref, atol=1e-12, rtol=0)
            np.testing.assert_allclose(state.c, c_ref, atol=1e-12, rtol=0)

    def test_candidate_ignores_aspect(self):
        rng = tensor.make_rng(12)
        p = random_aa_params(rng)
        x = rng.normal(size=3)
        prev = random_state(rng, 3)
        _, cache_a = aa_lstm_step(p, x, rng.normal(size=3), prev)
        _, cache_b = aa_lstm_step(p, x, rng.normal(size=3), prev)
        assert np.array_equal(cache_a.c_cand, cache_b.c_cand)

    def test_gate_ranges(self):
        rng = tensor.make_rng(13)
        for _ in range(200):
            dc = int(rng.integers(1, 8))
            p = random_aa_params(rng, dx=int(rng.integers(1, 8)), dc=dc, scale=2.0)
            x = rng.normal(scale=3.0, size=p.input_dim)
            aspect = rng.normal(scale=3.0, size=dc)
            state, cache = aa_lstm_step(p, x, aspect, random_state(rng, dc))
            for gate in (*cache.a_gates.reshape(3, -1), *cache.ifo.reshape(3, -1)):
                assert np.all((gate > 0.0) & (gate < 1.0))
            assert np.all((cache.c_cand > -1.0) & (cache.c_cand < 1.0))
            assert np.all((state.h > -1.0) & (state.h < 1.0))

    def test_shape_errors(self):
        p = AALstmParams.init(3, 4, seed=0)
        with pytest.raises(ShapeError):
            aa_lstm_step(p, np.zeros(2), np.zeros(4), zero_state(4))
        with pytest.raises(ShapeError):
            aa_lstm_step(p, np.zeros(3), np.zeros(5), zero_state(4))
        with pytest.raises(ShapeError):
            aa_lstm_step(p, np.zeros(3), np.zeros(4), zero_state(3))


class TestClassicStep:
    def test_zero_everything(self):
        p = ClassicLstmParams.empty(2, 2)
        filled(p, dict.fromkeys(p.to_arrays(), 0.0))
        state, _ = classic_lstm_step(p, np.array([1.0, 2.0]), zero_state(2))
        assert np.all(state.h == 0.0)

    def test_matches_scalar_oracle(self):
        rng = tensor.make_rng(14)
        for _ in range(50):
            p = random_classic_params(rng, dx=2, dc=2)
            x = rng.normal(size=2)
            prev = random_state(rng, 2)
            state, _ = classic_lstm_step(p, x, prev)
            h_ref, c_ref = scalar_classic_step(params_as_lists(p), x.tolist(),
                                               prev.h.tolist(), prev.c.tolist())
            np.testing.assert_allclose(state.h, h_ref, atol=1e-12, rtol=0)
            np.testing.assert_allclose(state.c, c_ref, atol=1e-12, rtol=0)


class TestUnroll:
    def test_single_step_equals_step_call(self):
        rng = tensor.make_rng(15)
        p = random_aa_params(rng)
        x = rng.normal(size=3)
        aspect = rng.normal(size=3)
        hs, caches = unroll(p, [x], aspect)
        state, _ = aa_lstm_step(p, x, aspect, zero_state(3))
        assert len(hs) == 1 and len(caches) == 1
        np.testing.assert_array_equal(hs[0], state.h)

    def test_zero_params_give_zero_outputs(self):
        p = ClassicLstmParams.empty(2, 3)
        filled(p, dict.fromkeys(p.to_arrays(), 0.0))
        hs, _ = unroll(p, [np.ones(2)] * 4)
        for h in hs:
            assert np.all(h == 0.0)

    def test_matches_manual_composition(self):
        rng = tensor.make_rng(16)
        p = random_aa_params(rng, dx=2, dc=4)
        xs = [rng.normal(size=2) for _ in range(5)]
        aspect = rng.normal(size=4)
        hs, _ = unroll(p, xs, aspect)
        state = zero_state(4)
        for t, x in enumerate(xs):
            state, _ = aa_lstm_step(p, x, aspect, state)
            np.testing.assert_array_equal(hs[t], state.h)

    def test_classic_matches_manual_composition_from_init(self):
        rng = tensor.make_rng(18)
        p = random_classic_params(rng, dx=3, dc=2)
        xs = [rng.normal(size=3) for _ in range(5)]
        init = random_state(rng, 2)
        hs, caches = unroll(p, xs, init=init)
        state = init
        for t, x in enumerate(xs):
            state, _ = classic_lstm_step(p, x, state)
            np.testing.assert_array_equal(hs[t], state.h)
            np.testing.assert_array_equal(caches.C[t + 1], state.c)

    def test_empty_sequence_rejected(self):
        p = ClassicLstmParams.init(2, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            unroll(p, [])

    def test_aspect_presence_enforced(self):
        aa = AALstmParams.init(2, 2, seed=0)
        cl = ClassicLstmParams.init(2, 2, seed=0)
        with pytest.raises(ValueError):
            unroll(aa, [np.zeros(2)])
        with pytest.raises(ValueError):
            unroll(cl, [np.zeros(2)], aspect=np.zeros(2))

    def test_deterministic(self):
        def run():
            rng = tensor.make_rng(17)
            p = random_aa_params(rng, dx=3, dc=3)
            xs = [rng.normal(size=3) for _ in range(6)]
            aspect = rng.normal(size=3)
            hs, _ = unroll(p, xs, aspect)
            return np.stack(hs)

        assert np.array_equal(run(), run())


class TestParamPlumbing:
    def test_core_extraction_shares_values(self):
        p = AALstmParams.init(3, 4, seed=5)
        classic = core(p)
        assert np.array_equal(classic.to_arrays()["W_i"], p.to_arrays()["W_i"])
        assert np.array_equal(classic.to_arrays()["b_o"], p.to_arrays()["b_o"])

    def test_named_fields_are_views_into_stacked_storage(self):
        # Writes through the names (optimizer, gradient check) reach the kernel.
        rng = tensor.make_rng(19)
        p = random_aa_params(rng, dx=2, dc=3)
        x, aspect, prev = rng.normal(size=2), rng.normal(size=3), random_state(rng, 3)
        before, _ = aa_lstm_step(p, x, aspect, prev)
        storage = (p.W_core, p.b_core, p.W_aspect, p.b_aspect)
        for name, arr in p.to_arrays().items():
            arr += 0.25
            assert any(np.shares_memory(arr, buf) for buf in storage), name
        after, _ = aa_lstm_step(p, x, aspect, prev)
        shifted = filled(AALstmParams.empty(2, 3), p.to_arrays())
        expected, _ = aa_lstm_step(shifted, x, aspect, prev)
        assert not np.array_equal(before.h, after.h)
        np.testing.assert_array_equal(after.h, expected.h)

    def test_arrays_round_trip(self):
        p = AALstmParams.init(3, 4, seed=6)
        q = filled(AALstmParams.empty(3, 4), p.to_arrays())
        for name, arr in p.to_arrays().items():
            assert np.array_equal(arr, q.to_arrays()[name])

    def test_init_is_deterministic_and_in_range(self):
        a = AALstmParams.init(3, 4, seed=7)
        b = AALstmParams.init(3, 4, seed=7)
        for name, arr in a.to_arrays().items():
            assert np.array_equal(arr, b.to_arrays()[name])
            if name.startswith("W"):
                assert np.all((arr >= -0.1) & (arr < 0.1))
            else:
                assert np.all(arr == 0.0)
