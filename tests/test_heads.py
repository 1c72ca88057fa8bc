"""Head and classifier checks, including a scalar attention oracle."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm import tensor
from aalstm.heads import (
    AttentionParams,
    ClassifierParams,
    attention_backward,
    attention_head,
    classifier_backward,
    classify_with_cache,
    last_hidden_backward,
    last_hidden_head,
    softmax,
)

from aalstm.train import dropout_mask

from helpers import (fd_grad_of_array, filled, loop_attention_backward, loop_attention_head,
                     loop_classifier_backward, loop_classify, worst_rel_err)


def random_attention_params(rng, dc):
    p = AttentionParams.empty(dc)
    return filled(p, {k: rng.normal(scale=0.5, size=v.shape) for k, v in p.to_arrays().items()})


class TestLastHidden:
    def test_singleton(self):
        v = np.array([[1.0, 2.0]])
        assert np.array_equal(last_hidden_head(v), v)

    def test_takes_last(self):
        H = np.arange(10.0).reshape(5, 2)
        np.testing.assert_array_equal(last_hidden_head(H), H[[4]])
        # Packed sequences of 3 and 2 rows: their last rows are 2 and 4.
        np.testing.assert_array_equal(last_hidden_head(H, [3, 2]), H[[2, 4]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            last_hidden_head(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            last_hidden_head(np.zeros((3, 2)), [3, 0])

    def test_backward_routes_to_last(self):
        d = np.array([[1.0, -2.0], [3.0, 4.0]])
        dH = last_hidden_backward(d, [4, 1])
        assert dH.shape == (5, 2)
        np.testing.assert_array_equal(dH[[3, 4]], d)
        assert np.all(dH[:3] == 0.0)


class TestAttention:
    def test_singleton_sequence(self):
        rng = tensor.make_rng(30)
        p = random_attention_params(rng, dc=3)
        h = rng.normal(size=3)
        rep, weights, cache = attention_head(h[None], p)
        assert weights.shape == (1,)
        assert weights[0] == 1.0
        np.testing.assert_array_equal(cache.r, h[None])

    def test_zero_score_vector_gives_uniform_weights(self):
        rng = tensor.make_rng(31)
        p = random_attention_params(rng, dc=3)
        p.w[:] = 0.0
        hs = rng.normal(size=(5, 3))
        _, weights, _ = attention_head(hs, p)
        np.testing.assert_allclose(weights, 0.2, rtol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = tensor.make_rng(32)
        p = random_attention_params(rng, dc=2)
        hs = rng.normal(size=(3, 2))
        rep, weights, _ = attention_head(hs, p)

        # Hand-rolled scalar computation.
        def mv(m, v):
            return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]

        scores = []
        for h in hs:
            u = [math.tanh(x) for x in mv(p.W_h.tolist(), h.tolist())]
            scores.append(sum(wi * ui for wi, ui in zip(p.w.tolist(), u)))
        m = max(scores)
        es = [math.exp(s - m) for s in scores]
        alphas = [e / sum(es) for e in es]
        r = [sum(a * h[i] for a, h in zip(alphas, hs)) for i in range(2)]
        z = [pp + xx for pp, xx in zip(mv(p.W_p.tolist(), r), mv(p.W_x.tolist(), hs[-1].tolist()))]
        rep_ref = [math.tanh(x) for x in z]

        np.testing.assert_allclose(weights, alphas, atol=1e-12, rtol=0)
        np.testing.assert_allclose(rep, [rep_ref], atol=1e-12, rtol=0)

    def test_weights_form_distribution(self):
        rng = tensor.make_rng(33)
        for _ in range(50):
            t = int(rng.integers(1, 9))
            p = random_attention_params(rng, dc=4)
            hs = rng.normal(size=(t, 4))
            _, weights, _ = attention_head(hs, p)
            assert np.all((weights > 0.0) & (weights < 1.0)) or t == 1
            assert abs(weights.sum() - 1.0) < 1e-12

    def test_scores_permute_with_states(self):
        rng = tensor.make_rng(34)
        p = random_attention_params(rng, dc=3)
        hs = rng.normal(size=(5, 3))
        _, weights, cache = attention_head(hs, p)
        perm = [3, 0, 4, 1, 2]
        _, permuted_weights, permuted = attention_head(hs[perm], p)
        np.testing.assert_array_equal(permuted.S, cache.S[perm])
        np.testing.assert_allclose(permuted_weights, weights[perm], atol=1e-15, rtol=0)

    def test_backward_matches_finite_differences(self):
        rng = tensor.make_rng(35)
        p = random_attention_params(rng, dc=3)
        hs = rng.normal(size=(4, 3))
        d_repr = rng.normal(size=(1, 3))

        def loss():
            rep, _, _ = attention_head(hs, p)
            return float(np.sum(d_repr * rep))

        _, _, cache = attention_head(hs, p)
        grads, dhs = attention_backward(p, cache, d_repr)
        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(loss, arr)
            assert worst_rel_err(grads[name], numeric) < 1e-4, name
        for t, h in enumerate(hs):
            numeric = fd_grad_of_array(loss, h)
            assert worst_rel_err(dhs[t], numeric) < 1e-4, f"h[{t}]"

    def test_zero_upstream_gives_zero_gradients(self):
        rng = tensor.make_rng(36)
        p = random_attention_params(rng, dc=3)
        hs = rng.normal(size=(3, 3))
        _, _, cache = attention_head(hs, p)
        grads, dhs = attention_backward(p, cache, np.zeros((1, 3)))
        for g in grads.values():
            assert np.all(g == 0.0)
        for g in dhs:
            assert np.all(g == 0.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n_steps=st.integers(1, 12), dc=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_array_form_matches_loop_oracle(n_steps, dc, seed):
    rng = tensor.make_rng(seed)
    p = random_attention_params(rng, dc=dc)
    H = rng.normal(size=(n_steps, dc))
    d_repr = rng.normal(size=dc)

    rep, weights, cache = attention_head(H, p)
    want_rep, want_weights, want = loop_attention_head(list(H), p)

    def close(got, expected):
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    close(rep, [want_rep])
    close(weights, want_weights)
    close(cache.S, want.u)
    close(cache.r, [want.r])
    grads, dH = attention_backward(p, cache, d_repr[None])
    want_grads, want_dhs = loop_attention_backward(p, want, d_repr)
    assert list(grads) == list(want_grads)
    for name, g in grads.items():
        close(g, want_grads[name])
    assert dH.shape == (n_steps, dc)
    close(dH, want_dhs)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       dc=st.integers(1, 6), attention=st.booleans(),
       rate=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_heads_match_loop_oracles(lengths, dc, attention, rate, seed):
    # One pass of a head, the representation dropout and the classifier over
    # a run of packed sequences, forward and backward, matches the
    # per-instance oracles run on each sequence alone; the parameter
    # gradients match the oracles' summed over the sequences.
    rng = tensor.make_rng(seed)
    p = random_attention_params(rng, dc=dc)
    clf = filled(ClassifierParams.empty(dc), {"W_s": rng.normal(size=(3, dc)),
                                              "b_s": rng.normal(size=3)})
    H = rng.normal(size=(sum(lengths), dc))
    d_logits = rng.normal(size=(len(lengths), 3))
    mask = dropout_mask((len(lengths), dc), rate, rng)
    mask = np.ones((len(lengths), dc)) if mask is None else mask

    if attention:
        rep, weights, cache = attention_head(H, p, lengths)
    else:
        rep = last_hidden_head(H, lengths)
    probs = classify_with_cache(rep * mask, clf)
    clf_grads, d_rep = classifier_backward(clf, rep * mask, d_logits)
    if attention:
        grads, dH = attention_backward(p, cache, d_rep * mask)
    else:
        grads, dH = {}, last_hidden_backward(d_rep * mask, lengths)

    def close(got, expected):
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    summed = {f"clf.{k}": np.zeros_like(v) for k, v in clf.to_arrays().items()}
    summed.update({k: np.zeros_like(v) for k, v in grads.items()})
    start = 0
    for b, n in enumerate(lengths):
        rows = slice(start, start + n)
        start += n
        want_rep = H[rows][-1]
        if attention:
            want_rep, want_weights, want = loop_attention_head(list(H[rows]), p)
            close(weights[rows], want_weights)
        close(rep[b], want_rep)
        close(probs[b], loop_classify(want_rep * mask[b], clf))
        want_clf, want_d_rep = loop_classifier_backward(clf, want_rep * mask[b], d_logits[b])
        for k, g in want_clf.items():
            summed[f"clf.{k}"] += g
        want_dH = np.zeros((n, dc))
        want_dH[-1] = want_d_rep * mask[b]
        if attention:
            want_grads, want_dhs = loop_attention_backward(p, want, want_d_rep * mask[b])
            want_dH = np.array(want_dhs)
            for k, g in want_grads.items():
                summed[k] += g
        close(dH[rows], want_dH)
    got = {**{f"clf.{k}": g for k, g in clf_grads.items()}, **grads}
    assert list(got) == list(summed)
    for k, g in got.items():
        close(g, summed[k])


def _attention_backward_with(d_repr):
    p = AttentionParams.empty(4)
    _, _, cache = attention_head(np.zeros((5, 4)), p, [3, 2])
    return attention_backward(p, cache, d_repr)


@pytest.mark.parametrize("call,error,message", [
    (lambda: attention_head(np.zeros((5, 3)), AttentionParams.empty(4)),
     tensor.ShapeError, r"hidden state shape \(5, 3\) != \(N, 4\)"),
    # A (1, dc) gradient would broadcast against the (B, dc) representations.
    (lambda: _attention_backward_with(np.zeros((1, 4))),
     ValueError, r"upstream gradient shape \(1, 4\) != \(2, 4\)"),
    (lambda: classify_with_cache(np.zeros((2, 3)), ClassifierParams.empty(4)),
     tensor.ShapeError, r"representation shape \(2, 3\) != \(B, 4\)"),
    (lambda: classifier_backward(ClassifierParams.empty(4), np.zeros((2, 4)), np.zeros((1, 3))),
     ValueError, r"logit gradient shape \(1, 3\) != \(2, 3\)"),
], ids=["attention-H", "attention-d_repr", "classifier-rep", "classifier-d_logits"])
def test_heads_reject_wrong_shapes(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_attention_head_takes_no_aspect():
    # AT-LSTM's aspect term is the same at every position of a sequence, so
    # the softmax cancels it: the head has no aspect input and no aspect
    # weights, and the aspect reaches it only through the hidden states.
    assert list(inspect.signature(attention_head).parameters) == ["H", "p", "lengths"]
    p = AttentionParams.empty(3)
    assert list(p.to_arrays()) == ["W_h", "w", "W_p", "W_x"]
    assert p.w.shape == (3,)


class TestClassifier:
    def test_zero_logits_uniform(self):
        p = ClassifierParams(W_s=np.zeros((3, 4)), b_s=np.zeros(3))
        probs = classify_with_cache(np.ones((2, 4)), p)
        assert probs.shape == (2, 3)
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
        rep = rng.normal(size=(2, 4))
        d_logits = rng.normal(size=(2, 3))

        def loss():
            return float(np.sum(d_logits * (rep @ p.W_s.T + p.b_s)))

        grads, d_rep = classifier_backward(p, rep, d_logits)
        for name, arr in p.to_arrays().items():
            numeric = fd_grad_of_array(loss, arr)
            assert worst_rel_err(grads[name], numeric) < 1e-6, name
        numeric = fd_grad_of_array(loss, rep)
        assert worst_rel_err(d_rep, numeric) < 1e-6
