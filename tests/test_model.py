"""End-to-end model tests: construction, parameter plumbing, and full-pipeline
gradient checks (classifier loss back to every trainable array, embeddings
included) against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm.data import (
    POLARITIES,
    RESTAURANT_CATEGORIES,
    CategoryId,
    EmbeddingTable,
    LabeledInstance,
    TermSpan,
    UNK_TOKEN,
)
from aalstm.model import SentimentModel, build_model
from aalstm.tensor import ConfigError, make_rng
from aalstm.train import cross_entropy, grad_check

DIM = 4


def tiny_embeddings(seed=60, dim=DIM):
    words = [UNK_TOKEN, "the", "soup", "salad", "is", "good", "bad", "."]
    vocab = {w: i for i, w in enumerate(words)}
    rng = make_rng(seed)
    return EmbeddingTable(vocab, rng.uniform(-0.5, 0.5, size=(len(words), dim)))


def atsa_instance():
    return LabeledInstance(("the", "soup", "is", "good"), TermSpan(1, 1), "positive")


def atsa_multi_span_instance():
    return LabeledInstance(("soup", "salad", "is", "bad", "."), TermSpan(0, 1), "negative")


def two_token_instance():
    return LabeledInstance(("salad", "bad"), TermSpan(0, 0), "negative")


def acsa_instance():
    return LabeledInstance(("the", "salad", "is", "bad"), CategoryId(2), "negative")


def three_instance_run(task):
    """Lengths 4, 5 and 2, so the run sorts them longest first, which
    permutes them; the acsa run puts two of them on one category row."""
    if task == "atsa":
        return [atsa_instance(), atsa_multi_span_instance(), two_token_instance()]
    return [acsa_instance(),
            LabeledInstance(("soup", "is", "good", "the", "."), CategoryId(0), "positive"),
            LabeledInstance(("salad", "."), CategoryId(2), "neutral")]


def make(task, cell_kind, head_kind, seed=61):
    m = build_model(task, cell_kind, head_kind, tiny_embeddings(),
                    hidden_dim=DIM, seed=seed)
    # The training init (+-0.1) leaves many gradient coordinates down in the
    # finite-difference noise zone near 1e-8; redraw at a healthier scale so
    # the checks compare signal, not roundoff.
    rng = make_rng([seed, 98])
    for k, arr in sorted(m.params().items()):
        arr[...] = rng.uniform(-0.6, 0.6, arr.shape)
    return m


ALL_COMBOS = [(c, h) for c in ("classic", "aa") for h in ("last", "attention")]


# --- construction and parameter plumbing -------------------------------------

def test_param_keys_per_combo():
    m = make("atsa", "classic", "last")
    keys = set(m.params())
    assert "emb.words" in keys and "cell.W_x" in keys and "clf.W_s" in keys
    assert not any(k.startswith("attn.") for k in keys)
    assert "cell.W_a" not in keys
    m = make("atsa", "aa", "attention")
    keys = set(m.params())
    assert "cell.W_a" in keys and "attn.w" in keys
    assert "emb.aspects" not in keys  # atsa aspect lives in word space
    m = make("acsa", "aa", "last")
    assert "emb.aspects" in m.params()
    m = make("acsa", "classic", "last")
    assert "emb.aspects" not in m.params()  # no aspect path at all


def test_params_are_live_references():
    m = make("atsa", "aa", "last")
    p = m.params()
    p["cell.W_x"][0, 0] = 123.0
    assert m.cell.W_x[0, 0] == 123.0


def test_regularized_is_matrices_only():
    m = make("acsa", "aa", "attention")
    reg = m.regularized()
    assert {"cell.W_x", "cell.W_a", "cell.W_h"} <= set(reg)
    assert "attn.W_h" in reg and "clf.W_s" in reg and "cell.b" not in reg
    assert not any(k.startswith("emb.") for k in reg)
    assert "clf.b_s" not in reg and "attn.w" not in reg


def test_aa_atsa_requires_matching_dims():
    with pytest.raises(ConfigError, match="hidden"):
        build_model("atsa", "aa", "last", tiny_embeddings(dim=3), hidden_dim=5)


def test_empty_dims_and_category_lists_are_rejected():
    # Either would build a model holding zero-size arrays.
    with pytest.raises(ConfigError, match="dims must be >= 1, got embedding 4, hidden 0"):
        build_model("atsa", "classic", "last", tiny_embeddings(), hidden_dim=0)
    with pytest.raises(ConfigError, match="at least one category"):
        build_model("acsa", "aa", "last", tiny_embeddings(), hidden_dim=DIM, categories=())


def test_bad_switches_rejected():
    emb = tiny_embeddings()
    with pytest.raises(ConfigError):
        build_model("absa", "aa", "last", emb, hidden_dim=DIM)
    with pytest.raises(ConfigError):
        build_model("atsa", "gru", "last", emb, hidden_dim=DIM)
    with pytest.raises(ConfigError):
        build_model("atsa", "aa", "mean", emb, hidden_dim=DIM)


def test_forward_gives_distribution():
    for cell_kind, head_kind in ALL_COMBOS:
        m = make("atsa", cell_kind, head_kind)
        probs = m.predict_probs(atsa_instance())
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0)
        assert m.predict(atsa_instance()) in (0, 1, 2)


def test_forward_eval_deterministic():
    m = make("acsa", "aa", "attention")
    a = m.predict_probs(acsa_instance())
    b = m.predict_probs(acsa_instance())
    assert np.array_equal(a, b)


def test_train_mode_dropout_changes_output():
    m = make("atsa", "aa", "last")
    rng = make_rng(62)
    dropped = m.forward([atsa_instance()], dropout=0.5, rng=rng).probs[0]
    clean = m.predict_probs(atsa_instance())
    assert not np.array_equal(dropped, clean)


def test_backward_keys_match_params():
    for task, inst in (("atsa", atsa_instance()), ("acsa", acsa_instance())):
        for cell_kind, head_kind in ALL_COMBOS:
            m = make(task, cell_kind, head_kind)
            grads = m.backward(m.forward([inst]))
            assert set(grads) == set(m.params())
            for k, g in grads.items():
                assert g.shape == m.params()[k].shape
                assert np.all(np.isfinite(g))


def test_train_mode_backward_respects_masks():
    m = make("atsa", "classic", "last")
    rng = make_rng(63)
    cache = m.forward([atsa_instance()], dropout=0.5, rng=rng)
    grads = m.backward(cache)
    assert set(grads) == set(m.params())
    # a fully dropped token contributes nothing through the input path
    for t, mask in enumerate(cache.x_mask):
        if np.all(mask == 0.0) and t not in (1,):  # skip the span token
            assert np.allclose(grads["emb.words"][cache.indices[t]], 0.0)


def test_dropout_masks_are_the_multipliers():
    # The cell reads each instance's gathered rows times its input mask, and
    # the classifier the head's output times its representation mask.
    m = make("atsa", "classic", "last")
    insts = [atsa_instance(), atsa_multi_span_instance()]
    cache = m.forward(insts, dropout=0.3, rng=make_rng(72))
    rows = m.embeddings.matrix[cache.indices]
    assert np.array_equal(cache.cell.X, rows * cache.x_mask)
    assert cache.rep_mask.shape == (len(insts), m.clf.repr_dim)
    for b, inst in enumerate(insts):
        h_last = cache.cell.H[len(inst.tokens), cache.cell.order.index(b)]
        assert np.array_equal(cache.rep[b], h_last * cache.rep_mask[b])
    for mask in (cache.x_mask, cache.rep_mask):
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}


@pytest.mark.parametrize("task", ["atsa", "acsa"])
@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
def test_every_trainable_array_gets_a_gradient(task, cell_kind, head_kind):
    # An array that no loss depends on, such as an aspect term the softmax
    # cancels, gets gradients of rounding size: the model holds none.
    m = make(task, cell_kind, head_kind)
    grads = m.backward(m.forward(three_instance_run(task)))
    for name, g in grads.items():
        assert np.abs(g).max() > 1e-8, f"{name}: {np.abs(g).max():.2e}"


@pytest.mark.parametrize("cell_kind", ["classic", "aa"])
def test_one_cell_backward_per_run(monkeypatch, cell_kind):
    # The cell runs backward once over the whole run, not once per instance.
    import aalstm.model
    calls = []

    def counted(name):
        # Both names bind one function, so record the name that was called.
        backward = getattr(aalstm.model, name)

        def call(*args):
            calls.append(name)
            return backward(*args)
        return call

    for name in ("aa_lstm_backward", "classic_lstm_backward"):
        monkeypatch.setattr(aalstm.model, name, counted(name))
    m = make("atsa", cell_kind, "attention")
    insts = [atsa_instance(), atsa_multi_span_instance(), two_token_instance()]
    m.backward(m.forward(insts))
    assert calls == [f"{cell_kind}_lstm_backward"]


# --- one run against one-instance runs ---------------------------------------

# "pasta" is not in the vocabulary, so runs also read the unknown-token row.
RUN_WORDS = ("the", "soup", "salad", "is", "good", "bad", ".", "pasta")


@st.composite
def instances(draw, task, n):
    tokens = tuple(draw(st.lists(st.sampled_from(RUN_WORDS), min_size=n, max_size=n)))
    if task == "atsa":
        start = draw(st.integers(0, n - 1))
        aspect = TermSpan(start, draw(st.integers(start, n - 1)))
    else:
        aspect = CategoryId(draw(st.integers(0, len(RESTAURANT_CATEGORIES) - 1)))
    return LabeledInstance(tokens, aspect, draw(st.sampled_from(POLARITIES)))


@st.composite
def runs(draw, task):
    return [draw(instances(task, draw(st.integers(1, 12))))
            for _ in range(draw(st.integers(1, 6)))]


@pytest.mark.parametrize("task", ["atsa", "acsa"])
@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data(), rate=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2 ** 16))
def test_run_matches_one_instance_runs(task, cell_kind, head_kind, data, rate, seed):
    # One run over a list of instances is the one-instance runs made in
    # sequence from an identically seeded rng: the same masks, drawn in the
    # same order, the same probabilities, and the sum of their gradients.
    m = make(task, cell_kind, head_kind)
    insts = data.draw(runs(task))
    run = m.forward(insts, dropout=rate, rng=make_rng(seed))
    rng = make_rng(seed)
    singles = [m.forward([inst], dropout=rate, rng=rng) for inst in insts]
    summed = {k: np.zeros_like(v) for k, v in m.params().items()}
    start = 0
    for b, single in enumerate(singles):
        np.testing.assert_allclose(run.probs[b], single.probs[0], atol=1e-12, rtol=0)
        rows = slice(start, start + len(insts[b].tokens))
        start = rows.stop
        if rate == 0.0:
            assert run.x_mask is None and single.x_mask is None
            assert run.rep_mask is None and single.rep_mask is None
        else:
            assert np.array_equal(run.x_mask[rows], single.x_mask)
            assert np.array_equal(run.rep_mask[b], single.rep_mask[0])
        for k, g in m.backward(single).items():
            summed[k] += g
    grads = m.backward(run)
    assert set(grads) == set(summed)
    for k, g in grads.items():
        np.testing.assert_allclose(g, summed[k], atol=1e-12, rtol=0, err_msg=k)


@pytest.mark.parametrize("task", ["atsa", "acsa"])
@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data(), extra=st.integers(1, 3), where=st.integers(0, 6))
def test_a_longer_instance_moves_no_other(task, cell_kind, head_kind, data, extra, where):
    # An instance longer than every other one changes the run's padding and
    # sort order, but no other instance's probabilities or attention weights,
    # and the run's gradient, head gradients included, by exactly the new
    # instance's own.
    m = make(task, cell_kind, head_kind)
    insts = data.draw(runs(task))
    longer = data.draw(instances(task, max(len(inst.tokens) for inst in insts) + extra))
    where = min(where, len(insts))
    run = m.forward(insts)
    joined = m.forward(insts[:where] + [longer] + insts[where:])
    alone = m.forward([longer])
    np.testing.assert_allclose(np.delete(joined.probs, where, axis=0), run.probs,
                               atol=1e-12, rtol=0)
    if head_kind == "attention":
        cut, n_new = sum(len(inst.tokens) for inst in insts[:where]), len(longer.tokens)
        weights = joined.head.weights
        np.testing.assert_allclose(np.delete(weights, np.s_[cut:cut + n_new]),
                                   run.head.weights, atol=1e-12, rtol=0)
        np.testing.assert_allclose(weights[cut:cut + n_new], alone.head.weights,
                                   atol=1e-12, rtol=0)
    grads, grads_alone = m.backward(run), m.backward(alone)
    for k, g in m.backward(joined).items():
        np.testing.assert_allclose(g - grads_alone[k], grads[k], atol=1e-12, rtol=0,
                                   err_msg=k)


# --- full-pipeline gradient checks -------------------------------------------

def _pipeline_grad_report(task, cell_kind, head_kind, insts, seed):
    m = make(task, cell_kind, head_kind, seed=seed)
    params = m.params()
    analytic = m.backward(m.forward(insts))

    def loss():
        return sum(cross_entropy(m.predict_probs(inst), inst.label)
                   for inst in insts)

    return grad_check(loss, params, analytic)


@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
def test_full_pipeline_gradients_atsa(cell_kind, head_kind):
    report = _pipeline_grad_report("atsa", cell_kind, head_kind, three_instance_run("atsa"),
                                   seed=64)
    assert report.n_checked > 100
    assert report.worst_rel_err < 1e-4, (
        f"worst {report.worst_rel_err:.2e} at {report.worst_name}{report.worst_index}")


@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
def test_full_pipeline_gradients_acsa(cell_kind, head_kind):
    report = _pipeline_grad_report("acsa", cell_kind, head_kind, three_instance_run("acsa"),
                                   seed=65)
    assert report.worst_rel_err < 1e-4, (
        f"worst {report.worst_rel_err:.2e} at {report.worst_name}{report.worst_index}")

