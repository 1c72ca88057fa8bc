"""Forward-pass checks for the classic and aspect-aware cells."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm import tensor
from aalstm.cells import (
    AALstmParams,
    ClassicLstmParams,
    _bptt,
    unroll,
)
from aalstm.tensor import ShapeError

from helpers import (
    core,
    filled,
    gate_arrays,
    loop_run,
    params_as_lists,
    per_gate_init,
    scalar_aa_step,
    scalar_classic_step,
    sequence_bptt,
    sequence_view,
)


def random_aa_params(rng, dx=3, dc=3, scale=0.5):
    p = AALstmParams.empty(dx, dc)
    return filled(p, {k: rng.normal(scale=scale, size=v.shape)
                      for k, v in p.to_arrays().items()})


def random_classic_params(rng, dx=3, dc=3, scale=0.5):
    p = ClassicLstmParams.empty(dx, dc)
    return filled(p, {k: rng.normal(scale=scale, size=v.shape)
                      for k, v in p.to_arrays().items()})


def random_state(rng, dc):
    """A random (h, c) pair to start a run from."""
    return np.tanh(rng.normal(size=dc)), rng.normal(size=dc)


def zero_pair(dc):
    return np.zeros(dc), np.zeros(dc)


class TestAAStep:
    def test_zero_everything_gives_half_gates(self):
        p = AALstmParams.empty(2, 2)
        filled(p, dict.fromkeys(p.to_arrays(), 0.0))
        _, cache = unroll(p, np.array([[0.7, -0.3]]), np.zeros((1, 2)), init=zero_pair(2))
        for gate in (*cache.Z[:, 4:].reshape(3, -1), *cache.Z[:, :3].reshape(3, -1)):
            assert np.all(gate == 0.5)
        assert np.all(cache.Z[:, 3] == 0.0)
        assert np.all(cache.C[1, 0] == 0.0)
        assert np.all(cache.H[1, 0] == 0.0)

    def test_zero_aspect_reduces_to_classic(self):
        rng = tensor.make_rng(10)
        for _ in range(20):
            p = random_aa_params(rng)
            x = rng.normal(size=3)
            prev = random_state(rng, 3)
            _, aa = unroll(p, x[None], np.zeros((1, 3)), init=prev)
            _, cl = unroll(core(p), x[None], init=prev)
            np.testing.assert_allclose(aa.H[1, 0], cl.H[1, 0], atol=1e-12, rtol=0)
            np.testing.assert_allclose(aa.C[1, 0], cl.C[1, 0], atol=1e-12, rtol=0)

    def test_matches_scalar_oracle(self):
        rng = tensor.make_rng(11)
        for _ in range(100):
            dx, dc = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = random_aa_params(rng, dx=dx, dc=dc)
            x = rng.normal(size=dx)
            aspect = rng.normal(size=dc)
            prev = random_state(rng, dc)
            _, cache = unroll(p, x[None], aspect[None], init=prev)
            h_ref, c_ref = scalar_aa_step(params_as_lists(p), x.tolist(), aspect.tolist(),
                                          prev[0].tolist(), prev[1].tolist())
            np.testing.assert_allclose(cache.H[1, 0], h_ref, atol=1e-12, rtol=0)
            np.testing.assert_allclose(cache.C[1, 0], c_ref, atol=1e-12, rtol=0)

    def test_candidate_ignores_aspect(self):
        rng = tensor.make_rng(12)
        p = random_aa_params(rng)
        x = rng.normal(size=3)
        prev = random_state(rng, 3)
        _, cache_a = unroll(p, x[None], rng.normal(size=(1, 3)), init=prev)
        _, cache_b = unroll(p, x[None], rng.normal(size=(1, 3)), init=prev)
        assert np.array_equal(cache_a.Z[:, 3], cache_b.Z[:, 3])

    def test_gate_ranges(self):
        rng = tensor.make_rng(13)
        for _ in range(200):
            dc = int(rng.integers(1, 8))
            p = random_aa_params(rng, dx=int(rng.integers(1, 8)), dc=dc, scale=2.0)
            x = rng.normal(scale=3.0, size=p.input_dim)
            aspect = rng.normal(scale=3.0, size=dc)
            _, cache = unroll(p, x[None], aspect[None], init=random_state(rng, dc))
            for gate in (*cache.Z[:, 4:].reshape(3, -1), *cache.Z[:, :3].reshape(3, -1)):
                assert np.all((gate > 0.0) & (gate < 1.0))
            assert np.all((cache.Z[:, 3] > -1.0) & (cache.Z[:, 3] < 1.0))
            assert np.all((cache.H[1, 0] > -1.0) & (cache.H[1, 0] < 1.0))

    def test_shape_errors(self):
        p = AALstmParams.init(3, 4, seed=0)
        with pytest.raises(ShapeError):
            unroll(p, np.zeros((1, 2)), np.zeros((1, 4)), init=zero_pair(4))
        with pytest.raises(ShapeError):
            unroll(p, np.zeros((1, 3)), np.zeros((1, 5)), init=zero_pair(4))
        with pytest.raises(ShapeError):
            unroll(p, np.zeros((1, 3)), np.zeros((1, 4)), init=zero_pair(3))
        with pytest.raises(ShapeError):
            unroll(p, np.zeros((1, 3)), np.zeros((1, 4)), init=(np.zeros(4),))


class TestClassicStep:
    def test_zero_everything(self):
        p = ClassicLstmParams.empty(2, 2)
        filled(p, dict.fromkeys(p.to_arrays(), 0.0))
        _, cache = unroll(p, np.array([[1.0, 2.0]]), init=zero_pair(2))
        assert np.all(cache.H[1, 0] == 0.0)

    def test_matches_scalar_oracle(self):
        rng = tensor.make_rng(14)
        for _ in range(50):
            p = random_classic_params(rng, dx=2, dc=2)
            x = rng.normal(size=2)
            prev = random_state(rng, 2)
            _, cache = unroll(p, x[None], init=prev)
            h_ref, c_ref = scalar_classic_step(params_as_lists(p), x.tolist(),
                                               prev[0].tolist(), prev[1].tolist())
            np.testing.assert_allclose(cache.H[1, 0], h_ref, atol=1e-12, rtol=0)
            np.testing.assert_allclose(cache.C[1, 0], c_ref, atol=1e-12, rtol=0)


class TestUnroll:
    def test_single_step_equals_step_call(self):
        rng = tensor.make_rng(15)
        p = random_aa_params(rng)
        x = rng.normal(size=3)
        aspect = rng.normal(size=3)
        H, cache = unroll(p, x[None], aspect[None])
        _, step = unroll(p, x[None], aspect[None], init=zero_pair(3))
        assert H.shape == (1, 3) and cache.Z.shape[0] == cache.Z.shape[2] == 1
        np.testing.assert_array_equal(H[0], step.H[1, 0])

    def test_zero_params_give_zero_outputs(self):
        p = ClassicLstmParams.empty(2, 3)
        filled(p, dict.fromkeys(p.to_arrays(), 0.0))
        H, _ = unroll(p, np.ones((4, 2)))
        assert np.all(H == 0.0)

    def test_matches_manual_composition(self):
        rng = tensor.make_rng(16)
        p = random_aa_params(rng, dx=2, dc=4)
        X = rng.normal(size=(5, 2))
        aspect = rng.normal(size=4)
        H, _ = unroll(p, X, aspect[None])
        state = zero_pair(4)
        # A T-row input projection rounds differently from T one-row ones.
        for t, x in enumerate(X):
            _, step = unroll(p, x[None], aspect[None], init=state)
            state = step.H[1, 0], step.C[1, 0]
            np.testing.assert_allclose(H[t], state[0], atol=1e-12, rtol=0)

    def test_classic_matches_manual_composition_from_init(self):
        rng = tensor.make_rng(18)
        p = random_classic_params(rng, dx=3, dc=2)
        X = rng.normal(size=(5, 3))
        init = random_state(rng, 2)
        H, cache = unroll(p, X, init=init)
        state = init
        for t, x in enumerate(X):
            _, step = unroll(p, x[None], init=state)
            state = step.H[1, 0], step.C[1, 0]
            np.testing.assert_allclose(H[t], state[0], atol=1e-12, rtol=0)
            np.testing.assert_allclose(cache.C[t + 1, 0], state[1], atol=1e-12, rtol=0)

    def test_empty_sequence_rejected(self):
        p = ClassicLstmParams.init(2, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            unroll(p, np.zeros((0, 2)))

    def test_aspect_presence_enforced(self):
        aa = AALstmParams.init(2, 2, seed=0)
        cl = ClassicLstmParams.init(2, 2, seed=0)
        with pytest.raises(ValueError):
            unroll(aa, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            unroll(cl, np.zeros((1, 2)), aspect=np.zeros((1, 2)))

    def test_deterministic(self):
        def run():
            rng = tensor.make_rng(17)
            p = random_aa_params(rng, dx=3, dc=3)
            X = rng.normal(size=(6, 3))
            aspect = rng.normal(size=(1, 3))
            H, _ = unroll(p, X, aspect)
            return H

        assert np.array_equal(run(), run())


def _random_run(rng, lengths, dx, dc, aware):
    """Random weights of the chosen cell, inputs of the given lengths one
    after another, one aspect row per sequence (None for the classic cell)
    and (N, dc) hidden-state gradients."""
    p = (random_aa_params if aware else random_classic_params)(rng, dx=dx, dc=dc)
    X = rng.normal(size=(sum(lengths), dx))
    aspects = rng.normal(size=(len(lengths), dc)) if aware else None
    return p, X, aspects, rng.normal(size=(sum(lengths), dc))


RUNS = dict(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
            dx=st.integers(1, 6), dc=st.integers(1, 6), aware=st.booleans(),
            seed=st.integers(0, 2 ** 16))


class TestBatchedRun:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(**RUNS)
    def test_matches_per_sequence_loop_oracle(self, lengths, dx, dc, aware, seed):
        # Each sequence of a batched run, its hidden states, cell memory and
        # every gate, matches a per-step run of that sequence alone; one
        # backward pass over the run matches per-sequence BPTT: the weight
        # gradients summed over the sequences, dX and the aspect gradient
        # sequence by sequence.
        p, X, aspects, dH = _random_run(tensor.make_rng(seed), lengths, dx, dc, aware)
        H, cache = unroll(p, X, aspects, lengths=lengths)
        assert H.shape == (len(X), dc)
        np.testing.assert_array_equal(cache.X, X)
        views = [sequence_view(cache, b) for b in range(len(lengths))]
        grads, dX, d_aspect = _bptt(p, cache, dH)
        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        starts = np.cumsum(lengths) - lengths
        for b, (start, n, got) in enumerate(zip(starts, lengths, views)):
            want = loop_run(p, X[start:start + n], zero_pair(dc),
                            aspects[b] if aware else None)
            np.testing.assert_array_equal(H[start:start + n], got.H[1:])
            for field in ("H", "C", "ifo", "c_cand", "tanh_c", "a_gates"):
                a, w = getattr(got, field), getattr(want, field)
                if w is None:
                    assert a is None, field
                else:
                    np.testing.assert_allclose(a, w, atol=1e-12, rtol=0, err_msg=field)
            want_grads, want_dX, want_dA = sequence_bptt(p, want, dH[start:start + n])
            for name, g in want_grads.items():
                summed[name] += g
            np.testing.assert_allclose(dX[start:start + n], want_dX, atol=1e-12, rtol=0)
            if aware:
                np.testing.assert_allclose(d_aspect[b], want_dA, atol=1e-12, rtol=0)
        assert d_aspect is None or d_aspect.shape == (len(lengths), dc)
        for name, g in grads.items():
            np.testing.assert_allclose(g, summed[name], atol=1e-12, rtol=0, err_msg=name)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(**RUNS, extra=st.integers(1, 4), where=st.integers(0, 6))
    def test_a_longer_sequence_moves_no_other(self, lengths, dx, dc, aware, seed, extra,
                                              where):
        # Adding a sequence longer than every other one changes the run's
        # padding and sort order, but no other sequence's hidden states,
        # input gradients or aspect gradient.
        rng = tensor.make_rng(seed)
        p, X, aspects, dH = _random_run(rng, lengths, dx, dc, aware)
        H, cache = unroll(p, X, aspects, lengths=lengths)
        _, dX, d_aspect = _bptt(p, cache, dH)
        where = min(where, len(lengths))
        n_new = max(lengths) + extra
        cut = sum(lengths[:where])
        X2 = np.insert(X, [cut] * n_new, rng.normal(size=(n_new, dx)), axis=0)
        dH2 = np.insert(dH, [cut] * n_new, rng.normal(size=(n_new, dc)), axis=0)
        lengths2 = lengths[:where] + [n_new] + lengths[where:]
        aspects2 = np.insert(aspects, where, rng.normal(size=dc), axis=0) if aware else None
        H2, cache2 = unroll(p, X2, aspects2, lengths=lengths2)
        _, dX2, d_aspect2 = _bptt(p, cache2, dH2)
        keep = np.r_[0:cut, cut + n_new:len(X2)]
        np.testing.assert_allclose(H2[keep], H, atol=1e-12, rtol=0)
        np.testing.assert_allclose(dX2[keep], dX, atol=1e-12, rtol=0)
        if aware:
            np.testing.assert_allclose(np.delete(d_aspect2, where, axis=0), d_aspect,
                                       atol=1e-12, rtol=0)

    def test_every_step_block_is_contiguous(self):
        # The buffers are time-major with the gate group ahead of the batch
        # row, so each step's block of a group or a state over the running
        # rows is one contiguous run of memory.
        lengths, dc = [3, 5, 2], 4
        p, X, aspects, _ = _random_run(tensor.make_rng(20), lengths, 2, dc, True)
        _, cache = unroll(p, X, aspects, lengths=lengths)
        n_steps, n_seq = max(lengths), len(lengths)
        assert cache.Z.shape == (n_steps, 7, n_seq, dc)
        assert cache.H.shape == cache.C.shape == (n_steps + 1, n_seq, dc)
        assert cache.tanh_c.shape == (n_steps, n_seq, dc)
        for t in range(n_steps):
            n_t = sum(n > t for n in lengths)
            for g in range(7):
                assert cache.Z[t, g, :n_t].flags.c_contiguous, (t, g)
            for buf in (cache.H[t + 1], cache.C[t + 1], cache.tanh_c[t]):
                assert buf[:n_t].flags.c_contiguous, t

    def test_a_cache_serves_one_backward_pass(self):
        # The backward pass writes its gradients over the run's gate buffer.
        rng = tensor.make_rng(19)
        p, X, aspects, dH = _random_run(rng, [3, 1, 2], 2, 3, True)
        _, cache = unroll(p, X, aspects, lengths=[3, 1, 2])
        _bptt(p, cache, dH)
        with pytest.raises(ValueError, match="already used by a backward pass"):
            _bptt(p, cache, dH)

    def test_lengths_must_cover_the_rows(self):
        p = ClassicLstmParams.init(2, 2, seed=0)
        with pytest.raises(ShapeError, match="lengths add up to 4"):
            unroll(p, np.zeros((5, 2)), lengths=[1, 3])
        with pytest.raises(ValueError, match="empty"):
            unroll(p, np.zeros((3, 2)), lengths=[3, 0])

    def test_one_aspect_row_per_sequence(self):
        p = AALstmParams.init(2, 2, seed=0)
        with pytest.raises(ShapeError, match=r"\(2, 2\)"):
            unroll(p, np.zeros((3, 2)), np.zeros((3, 2)), lengths=[1, 2])


class TestParamPlumbing:
    def test_core_extraction_shares_values(self):
        p = AALstmParams.init(3, 4, seed=5)
        classic, gates = gate_arrays(core(p)), gate_arrays(p)
        assert list(classic) == ["W_i", "W_f", "W_c", "W_o", "b_i", "b_f", "b_c", "b_o"]
        for name, arr in classic.items():
            assert np.array_equal(arr, gates[name]), name

    def test_to_arrays_returns_the_fields(self):
        # The fields are the arrays the kernel reads, so writes through
        # to_arrays() (optimizer, gradient check) reach the kernel.
        for cls, names in ((ClassicLstmParams, ["W_x", "W_h", "b"]),
                           (AALstmParams, ["W_x", "W_a", "W_h", "b"])):
            p = cls.init(2, 3, seed=1)
            arrays = p.to_arrays()
            assert list(arrays) == names
            for name, arr in arrays.items():
                assert arr is getattr(p, name), name
        rng = tensor.make_rng(19)
        p = random_aa_params(rng, dx=2, dc=3)
        x, aspect, prev = rng.normal(size=2), rng.normal(size=3), random_state(rng, 3)
        before, _ = unroll(p, x[None], aspect[None], init=prev)
        for arr in p.to_arrays().values():
            arr += 0.25
        after, _ = unroll(p, x[None], aspect[None], init=prev)
        shifted = filled(AALstmParams.empty(2, 3), p.to_arrays())
        expected, _ = unroll(shifted, x[None], aspect[None], init=prev)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, expected)

    def test_arrays_round_trip(self):
        p = AALstmParams.init(3, 4, seed=6)
        q = filled(AALstmParams.empty(3, 4), p.to_arrays())
        for name, arr in p.to_arrays().items():
            assert np.array_equal(arr, q.to_arrays()[name])

    @pytest.mark.parametrize("dx,dc", [(4, 4), (3, 5), (6, 2)])
    def test_init_matches_the_per_gate_oracle(self, dx, dc):
        # Each gate's matrix is one draw from its own seed stream, split into
        # its operand rows, so a fresh cell is the per-gate init exactly.
        for cls in (ClassicLstmParams, AALstmParams):
            for seed in (0, 1, 7, [3, 9]):
                for lo, hi in ((-0.1, 0.1), (-0.3, 0.2)):
                    got = gate_arrays(cls.init(dx, dc, lo=lo, hi=hi, seed=seed))
                    want = per_gate_init(cls, dx, dc, lo=lo, hi=hi, seed=seed)
                    assert list(got) == list(want)
                    for name, arr in want.items():
                        np.testing.assert_array_equal(got[name], arr, err_msg=name)

    def test_init_is_deterministic_and_in_range(self):
        a = AALstmParams.init(3, 4, seed=7)
        b = AALstmParams.init(3, 4, seed=7)
        for name, arr in a.to_arrays().items():
            assert np.array_equal(arr, b.to_arrays()[name])
            if name.startswith("W"):
                assert np.all((arr >= -0.1) & (arr < 0.1))
            else:
                assert np.all(arr == 0.0)
