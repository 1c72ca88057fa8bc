"""Finite-difference verification of the hand-derived cell backward passes."""

import numpy as np

from aalstm import tensor
from aalstm.cells import aa_lstm_backward, classic_lstm_backward, unroll

from helpers import (fd_grad_of_array, gate_arrays, per_gate_aa_backward,
                     per_gate_classic_backward, sequence_view, worst_rel_err)
from test_cells import random_aa_params, random_classic_params, random_state

EPS = 1e-5
TOL = 1e-4


def sum_loss_aa(p, X, aspect):
    H, _ = unroll(p, X, aspect[None])
    return float(np.sum(H[-1]))


def sum_loss_classic(p, X):
    H, _ = unroll(p, X)
    return float(np.sum(H[-1]))


class TestAABackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = tensor.make_rng(20)
        p = random_aa_params(rng, dx=3, dc=3)
        xs = rng.normal(size=(4, 3))
        aspect = rng.normal(size=3)
        _, caches = unroll(p, xs, aspect[None])
        grads, dxs, d_aspect = aa_lstm_backward(p, caches, np.zeros((4, 3)))
        for g in grads.values():
            assert np.all(g == 0.0)
        for dx in dxs:
            assert np.all(dx == 0.0)
        assert np.all(d_aspect == 0.0)

    def test_param_grads_match_finite_differences(self):
        rng = tensor.make_rng(21)
        p = random_aa_params(rng, dx=3, dc=3)
        xs = rng.normal(size=(4, 3))
        aspect = rng.normal(size=3)
        _, caches = unroll(p, xs, aspect[None])
        dh = np.zeros((4, 3))
        dh[-1] = 1.0
        grads, _, _ = aa_lstm_backward(p, caches, dh)
        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(lambda: sum_loss_aa(p, xs, aspect), arr, EPS)
            assert worst_rel_err(grads[name], numeric) < TOL, name

    def test_input_and_aspect_grads_match_finite_differences(self):
        rng = tensor.make_rng(22)
        p = random_aa_params(rng, dx=2, dc=4)
        xs = rng.normal(size=(5, 2))
        aspect = rng.normal(size=4)
        _, caches = unroll(p, xs, aspect[None])
        dh = np.zeros((5, 4))
        dh[-1] = 1.0
        _, dxs, d_aspect = aa_lstm_backward(p, caches, dh)
        for t, x in enumerate(xs):
            numeric = fd_grad_of_array(lambda: sum_loss_aa(p, xs, aspect), x, EPS)
            assert worst_rel_err(dxs[t], numeric) < TOL, f"x[{t}]"
        numeric = fd_grad_of_array(lambda: sum_loss_aa(p, xs, aspect), aspect, EPS)
        assert worst_rel_err(d_aspect, numeric) < TOL

    def test_aspect_grad_nonzero_at_zero_aspect(self):
        # The aspect-gate paths read A directly, so dL/dA survives A = 0.
        rng = tensor.make_rng(23)
        p = random_aa_params(rng, dx=3, dc=3)
        xs = rng.normal(size=(3, 3))
        aspect = np.zeros(3)
        _, caches = unroll(p, xs, aspect[None])
        dh = np.zeros((3, 3))
        dh[-1] = 1.0
        _, _, d_aspect = aa_lstm_backward(p, caches, dh)
        numeric = fd_grad_of_array(lambda: sum_loss_aa(p, xs, aspect), aspect, EPS)
        assert worst_rel_err(d_aspect, numeric) < TOL
        assert np.max(np.abs(d_aspect)) > 1e-6

    def test_upstream_on_every_step(self):
        # Gradients flowing in at every time step, not just the last.
        rng = tensor.make_rng(24)
        p = random_aa_params(rng, dx=3, dc=3)
        xs = rng.normal(size=(4, 3))
        aspect = rng.normal(size=3)
        _, caches = unroll(p, xs, aspect[None])
        weights = rng.normal(size=(4, 3))
        grads, _, d_aspect = aa_lstm_backward(p, caches, weights)

        def loss():
            H, _ = unroll(p, xs, aspect[None])
            return float(np.sum(weights * H))

        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(loss, arr, EPS)
            assert worst_rel_err(grads[name], numeric) < TOL, name
        numeric = fd_grad_of_array(loss, aspect, EPS)
        assert worst_rel_err(d_aspect, numeric) < TOL


class TestClassicBackward:
    def test_param_and_input_grads_match_finite_differences(self):
        rng = tensor.make_rng(26)
        p = random_classic_params(rng, dx=2, dc=3)
        xs = rng.normal(size=(4, 2))
        _, caches = unroll(p, xs)
        dh = np.zeros((4, 3))
        dh[-1] = 1.0
        grads, dxs, d_aspect = classic_lstm_backward(p, caches, dh)
        assert d_aspect is None
        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(lambda: sum_loss_classic(p, xs), arr, EPS)
            assert worst_rel_err(grads[name], numeric) < TOL, name
        for t, x in enumerate(xs):
            numeric = fd_grad_of_array(lambda: sum_loss_classic(p, xs), x, EPS)
            assert worst_rel_err(dxs[t], numeric) < TOL, f"x[{t}]"

    def test_length_mismatch_rejected(self):
        rng = tensor.make_rng(27)
        p = random_classic_params(rng, dx=2, dc=3)
        _, caches = unroll(p, rng.normal(size=(3, 2)))
        try:
            classic_lstm_backward(p, caches, np.zeros((2, 3)))
        except ValueError as e:
            assert "3" in str(e) and "2" in str(e)
        else:
            raise AssertionError("length mismatch not rejected")


def per_gate(p, result):
    """A backward pass's result with its operand grads split per gate."""
    return (gate_arrays(type(p)(**result[0])), *result[1:])


def assert_grads_close(got, want, atol=1e-12):
    got_grads, got_dxs = got[0], got[1]
    want_grads, want_dxs = want[0], want[1]
    assert list(got_grads) == list(want_grads)
    for name in want_grads:
        np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0, atol=atol,
                                   err_msg=name)
    assert len(got_dxs) == len(want_dxs)
    for t, (a, b) in enumerate(zip(got_dxs, want_dxs)):
        np.testing.assert_allclose(a, b, rtol=0, atol=atol, err_msg=f"x[{t}]")


class TestFusedMatchesPerGateOracle:
    """The stacked-gate backward against the per-gate outer-product BPTT.

    Finite differences only certify 1e-4; a gate block sliced one row off
    can hide under that, not under 1e-12.
    """

    def cases(self, seed, n=40):
        rng = tensor.make_rng(seed)
        for k in range(n):
            dx, dc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            if k % 4 == 0:
                dx = dc + 1
            n_steps = 1 if k % 5 == 0 else int(rng.integers(2, 9))
            init = random_state(rng, dc) if k % 2 else None
            yield rng, dx, dc, n_steps, init

    def test_aa(self):
        for rng, dx, dc, n_steps, init in self.cases(40):
            p = random_aa_params(rng, dx=dx, dc=dc)
            xs = rng.normal(size=(n_steps, dx))
            aspect = rng.normal(size=dc)
            _, caches = unroll(p, xs, aspect[None], init=init)
            dh = rng.normal(size=(n_steps, dc))
            want = per_gate_aa_backward(p, sequence_view(caches, 0), dh)
            got = per_gate(p, aa_lstm_backward(p, caches, dh))
            assert_grads_close(got, want)
            np.testing.assert_allclose(got[2][0], want[2], rtol=0, atol=1e-12)

    def test_classic(self):
        for rng, dx, dc, n_steps, init in self.cases(42):
            p = random_classic_params(rng, dx=dx, dc=dc)
            xs = rng.normal(size=(n_steps, dx))
            _, caches = unroll(p, xs, init=init)
            dh = rng.normal(size=(n_steps, dc))
            want = per_gate_classic_backward(p, sequence_view(caches, 0), dh)
            assert_grads_close(per_gate(p, classic_lstm_backward(p, caches, dh)), want)
