"""Head and classifier checks, including a scalar attention oracle."""

import math

import numpy as np
import pytest

from aalstm import tensor
from aalstm.heads import (
    AttentionParams,
    ClassifierParams,
    attention_backward,
    attention_head,
    attention_scores,
    classifier_backward,
    classify_with_cache,
    last_hidden_backward,
    last_hidden_head,
    softmax,
)

from helpers import fd_grad_of_array, worst_rel_err


def random_attention_params(rng, dc, da, dr=None):
    p = AttentionParams.init(dc, da, repr_dim=dr, seed=0)
    return AttentionParams.from_arrays(
        {k: rng.normal(scale=0.5, size=v.shape) for k, v in p.to_arrays().items()})


class TestLastHidden:
    def test_singleton(self):
        v = np.array([1.0, 2.0])
        assert last_hidden_head([v]) is v

    def test_takes_last(self):
        vs = [np.array([float(i)]) for i in range(3)]
        assert last_hidden_head(vs) is vs[-1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            last_hidden_head([])

    def test_backward_routes_to_last(self):
        d = np.array([1.0, -2.0])
        dhs = last_hidden_backward(d, 4)
        assert len(dhs) == 4
        assert np.array_equal(dhs[-1], d)
        for g in dhs[:-1]:
            assert np.all(g == 0.0)


class TestAttention:
    def test_singleton_sequence(self):
        rng = tensor.make_rng(30)
        p = random_attention_params(rng, dc=3, da=3)
        h = rng.normal(size=3)
        aspect = rng.normal(size=3)
        rep, weights, cache = attention_head([h], aspect, p)
        assert weights.shape == (1,)
        assert weights[0] == 1.0
        np.testing.assert_array_equal(cache.r, h)

    def test_zero_score_vector_gives_uniform_weights(self):
        rng = tensor.make_rng(31)
        p = random_attention_params(rng, dc=3, da=3)
        p.w[:] = 0.0
        hs = [rng.normal(size=3) for _ in range(5)]
        _, weights, _ = attention_head(hs, rng.normal(size=3), p)
        np.testing.assert_allclose(weights, 0.2, rtol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = tensor.make_rng(32)
        p = random_attention_params(rng, dc=2, da=2)
        hs = [rng.normal(size=2) for _ in range(3)]
        aspect = rng.normal(size=2)
        rep, weights, _ = attention_head(hs, aspect, p)

        # Hand-rolled scalar computation.
        def mv(m, v):
            return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]

        va = mv(p.W_v.tolist(), aspect.tolist())
        scores = []
        for h in hs:
            g = mv(p.W_h.tolist(), h.tolist()) + va
            u = [math.tanh(x) for x in g]
            scores.append(sum(wi * ui for wi, ui in zip(p.w.tolist(), u)))
        m = max(scores)
        es = [math.exp(s - m) for s in scores]
        alphas = [e / sum(es) for e in es]
        r = [sum(a * h[i] for a, h in zip(alphas, hs)) for i in range(2)]
        z = [pp + xx for pp, xx in zip(mv(p.W_p.tolist(), r), mv(p.W_x.tolist(), hs[-1].tolist()))]
        rep_ref = [math.tanh(x) for x in z]

        np.testing.assert_allclose(weights, alphas, atol=1e-12, rtol=0)
        np.testing.assert_allclose(rep, rep_ref, atol=1e-12, rtol=0)

    def test_weights_form_distribution(self):
        rng = tensor.make_rng(33)
        for _ in range(50):
            t = int(rng.integers(1, 9))
            p = random_attention_params(rng, dc=4, da=4)
            hs = [rng.normal(size=4) for _ in range(t)]
            _, weights, _ = attention_head(hs, rng.normal(size=4), p)
            assert np.all((weights > 0.0) & (weights < 1.0)) or t == 1
            assert abs(weights.sum() - 1.0) < 1e-12

    def test_scores_permute_with_states(self):
        rng = tensor.make_rng(34)
        p = random_attention_params(rng, dc=3, da=3)
        hs = [rng.normal(size=3) for _ in range(5)]
        aspect = rng.normal(size=3)
        scores, _ = attention_scores(hs, aspect, p)
        perm = [3, 0, 4, 1, 2]
        permuted_scores, _ = attention_scores([hs[i] for i in perm], aspect, p)
        np.testing.assert_array_equal(permuted_scores, scores[perm])

    def test_backward_matches_finite_differences(self):
        rng = tensor.make_rng(35)
        p = random_attention_params(rng, dc=3, da=3)
        hs = [rng.normal(size=3) for _ in range(4)]
        aspect = rng.normal(size=3)
        d_repr = rng.normal(size=3)

        def loss():
            rep, _, _ = attention_head(hs, aspect, p)
            return float(d_repr @ rep)

        _, _, cache = attention_head(hs, aspect, p)
        grads, dhs, d_aspect = attention_backward(p, cache, d_repr)
        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(loss, arr)
            assert worst_rel_err(grads[name], numeric) < 1e-4, name
        for t, h in enumerate(hs):
            numeric = fd_grad_of_array(loss, h)
            assert worst_rel_err(dhs[t], numeric) < 1e-4, f"h[{t}]"
        numeric = fd_grad_of_array(loss, aspect)
        assert worst_rel_err(d_aspect, numeric) < 1e-4

    def test_zero_upstream_gives_zero_gradients(self):
        rng = tensor.make_rng(36)
        p = random_attention_params(rng, dc=3, da=3)
        hs = [rng.normal(size=3) for _ in range(3)]
        _, _, cache = attention_head(hs, rng.normal(size=3), p)
        grads, dhs, d_aspect = attention_backward(p, cache, np.zeros(3))
        for g in grads.values():
            assert np.all(g == 0.0)
        for g in dhs:
            assert np.all(g == 0.0)
        assert np.all(d_aspect == 0.0)


class TestClassifier:
    def test_zero_logits_uniform(self):
        p = ClassifierParams(W_s=np.zeros((3, 4)), b_s=np.zeros(3))
        probs, _ = classify_with_cache(np.ones(4), p)
        np.testing.assert_allclose(probs, 1.0 / 3.0, rtol=1e-12)

    def test_shift_invariance(self):
        rng = tensor.make_rng(37)
        z = rng.normal(size=3)
        for c in (-100.0, -1.0, 0.5, 250.0):
            np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-12, rtol=0)

    def test_extreme_logits_stable(self):
        probs = softmax(np.array([1000.0, 0.0, 0.0]))
        assert abs(probs[0] - 1.0) < 1e-12
        assert np.all(probs > 0.0)
        assert np.all(np.isfinite(probs))

    def test_probabilities_sum_to_one(self):
        rng = tensor.make_rng(38)
        for _ in range(100):
            probs = softmax(rng.normal(scale=20.0, size=3))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0.0)

    def test_backward_matches_finite_differences(self):
        rng = tensor.make_rng(39)
        p = ClassifierParams.init(4, seed=1)
        rep = rng.normal(size=4)
        d_logits = rng.normal(size=3)

        def loss():
            return float(d_logits @ (p.W_s @ rep + p.b_s))

        _, cache = classify_with_cache(rep, p)
        grads, d_rep = classifier_backward(p, cache, d_logits)
        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(loss, arr)
            assert worst_rel_err(grads[name], numeric) < 1e-6, name
        numeric = fd_grad_of_array(loss, rep)
        assert worst_rel_err(d_rep, numeric) < 1e-6
