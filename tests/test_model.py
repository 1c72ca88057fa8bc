"""End-to-end model tests: construction, parameter plumbing, and full-pipeline
gradient checks (classifier loss back to every trainable array, embeddings
included) against central differences."""

import numpy as np
import pytest

from aalstm.cells import ConfigError
from aalstm.data import (
    CategoryId,
    EmbeddingTable,
    LabeledInstance,
    TermSpan,
    UNK_TOKEN,
)
from aalstm.model import SentimentModel, build_model
from aalstm.tensor import make_rng
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


def acsa_instance():
    return LabeledInstance(("the", "salad", "is", "bad"), CategoryId(2), "negative")


def make(task, cell_kind, head_kind, seed=61, train_embeddings=True):
    m = build_model(task, cell_kind, head_kind, tiny_embeddings(),
                    hidden_dim=DIM, seed=seed, train_embeddings=train_embeddings)
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
    assert "emb.words" in keys and "cell.W_i" in keys and "clf.W_s" in keys
    assert not any(k.startswith("attn.") for k in keys)
    assert "cell.W_ai" not in keys
    m = make("atsa", "aa", "attention")
    keys = set(m.params())
    assert "cell.W_ai" in keys and "attn.w" in keys
    assert "emb.aspects" not in keys  # atsa aspect lives in word space
    m = make("acsa", "aa", "last")
    assert "emb.aspects" in m.params()
    m = make("acsa", "classic", "last")
    assert "emb.aspects" not in m.params()  # no aspect path at all


def test_params_are_live_references():
    m = make("atsa", "aa", "last")
    p = m.params()
    p["cell.W_i"][0, 0] = 123.0
    assert m.cell.to_arrays()["W_i"][0, 0] == 123.0


def test_regularized_is_matrices_only():
    m = make("acsa", "aa", "attention")
    reg = m.regularized()
    assert "cell.W_i" in reg and "attn.W_h" in reg and "clf.W_s" in reg
    assert not any(k.startswith("emb.") for k in reg)
    assert "clf.b_s" not in reg and "attn.w" not in reg


def test_aa_atsa_requires_matching_dims():
    with pytest.raises(ConfigError, match="hidden"):
        build_model("atsa", "aa", "last", tiny_embeddings(dim=3), hidden_dim=5)


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
    dropped = m.forward(atsa_instance(), dropout=0.5, rng=rng).probs
    clean = m.predict_probs(atsa_instance())
    assert not np.array_equal(dropped, clean)


def test_backward_keys_match_params():
    for task, inst in (("atsa", atsa_instance()), ("acsa", acsa_instance())):
        for cell_kind, head_kind in ALL_COMBOS:
            m = make(task, cell_kind, head_kind)
            cache = m.forward(inst)
            grads = m.backward(cache)
            assert set(grads) == set(m.params())
            for k, g in grads.items():
                assert g.shape == m.params()[k].shape
                assert np.all(np.isfinite(g))


def test_train_mode_backward_respects_masks():
    m = make("atsa", "classic", "last")
    rng = make_rng(63)
    cache = m.forward(atsa_instance(), dropout=0.5, rng=rng)
    grads = m.backward(cache)
    assert set(grads) == set(m.params())
    # a fully dropped token contributes nothing through the input path
    for t, mask in enumerate(cache.x_mask):
        if np.all(mask == 0.0) and t not in (1,):  # skip the span token
            assert np.allclose(grads["emb.words"][cache.indices[t]], 0.0)


# --- full-pipeline gradient checks -------------------------------------------

def _pipeline_grad_report(task, cell_kind, head_kind, insts, seed,
                          train_embeddings=True):
    m = make(task, cell_kind, head_kind, seed=seed, train_embeddings=train_embeddings)
    params = m.params()
    analytic = {k: np.zeros_like(v) for k, v in params.items()}
    for inst in insts:
        for k, g in m.backward(m.forward(inst)).items():
            analytic[k] += g

    def loss():
        return sum(cross_entropy(m.predict_probs(inst), inst.label)
                   for inst in insts)

    return grad_check(loss, params, analytic)


@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
def test_full_pipeline_gradients_atsa(cell_kind, head_kind):
    insts = [atsa_instance(), atsa_multi_span_instance()]
    report = _pipeline_grad_report("atsa", cell_kind, head_kind, insts, seed=64)
    assert report.n_checked > 100
    assert report.worst_rel_err < 1e-4, (
        f"worst {report.worst_rel_err:.2e} at {report.worst_name}{report.worst_index}")


@pytest.mark.parametrize("cell_kind,head_kind", ALL_COMBOS)
def test_full_pipeline_gradients_acsa(cell_kind, head_kind):
    report = _pipeline_grad_report("acsa", cell_kind, head_kind,
                                   [acsa_instance()], seed=65)
    assert report.worst_rel_err < 1e-4, (
        f"worst {report.worst_rel_err:.2e} at {report.worst_name}{report.worst_index}")


def test_frozen_embeddings_drop_the_key_and_still_check():
    m = make("atsa", "aa", "last", train_embeddings=False)
    assert "emb.words" not in m.params()
    report = _pipeline_grad_report("atsa", "aa", "last", [atsa_instance()],
                                   seed=68, train_embeddings=False)
    assert report.worst_rel_err < 1e-4
