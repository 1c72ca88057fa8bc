"""Tests for loss, dropout, Adam, the gradient checker, and the train loop."""

import io
import math

import numpy as np
import pytest

from aalstm.data import LabeledInstance, TermSpan
from aalstm.model import build_model
from aalstm.tensor import make_rng
from aalstm.train import (
    Adam,
    TSV_HEADER,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    dropout,
    evaluate,
    grad_check,
    l2_grad,
    l2_penalty,
    train,
)
from tests.test_model import tiny_embeddings


# --- config ------------------------------------------------------------------

def test_config_defaults_hold_protocol_values():
    cfg = TrainConfig()
    assert cfg.lr == 0.001
    assert cfg.batch_size == 16
    assert cfg.dropout == 0.5
    assert cfg.l2 == 0.01
    assert cfg.emb_dim == 300 and cfg.hidden_dim == 300
    assert cfg.dev_fraction == 0.2


@pytest.mark.parametrize("kwargs", [
    dict(lr=0.0), dict(lr=-1.0), dict(dropout=1.0), dict(dropout=-0.1),
    dict(l2=-0.01), dict(batch_size=0), dict(dev_fraction=0.0),
    dict(dev_fraction=1.0), dict(max_epochs=0), dict(patience=0),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


# --- dropout -----------------------------------------------------------------

def test_dropout_eval_and_zero_rate_are_identity():
    v = np.array([1.0, -2.0, 3.0])
    out, mask = dropout(v, 0.5, "eval")
    assert out is v and mask is None
    out, mask = dropout(v, 0.0, "train", make_rng(70))
    assert out is v and mask is None


def test_dropout_survivor_stats():
    rng = make_rng(71)
    v = np.ones(100_000)
    out, mask = dropout(v, 0.5, "train", rng)
    survivors = np.count_nonzero(mask) / v.size
    assert abs(survivors - 0.5) < 0.01
    # inverted scaling preserves the expectation
    assert abs(out.mean() - 1.0) < 0.02


def test_dropout_mask_is_the_multiplier():
    rng = make_rng(72)
    v = make_rng(73).uniform(-1, 1, 50)
    out, mask = dropout(v, 0.3, "train", rng)
    assert np.array_equal(out, v * mask)
    assert set(np.unique(mask)).issubset({0.0, 1.0 / 0.7})


def test_dropout_needs_rng_in_train_mode():
    with pytest.raises(ValueError, match="rng"):
        dropout(np.ones(3), 0.5, "train")


def test_dropout_rejects_bad_mode_and_rate():
    with pytest.raises(ValueError):
        dropout(np.ones(3), 0.5, "predict", make_rng(0))
    with pytest.raises(ValueError):
        dropout(np.ones(3), 1.0, "train", make_rng(0))


# --- losses ------------------------------------------------------------------

def test_cross_entropy_perfect_prediction():
    assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) <= 1e-12


def test_cross_entropy_uniform_is_ln3():
    probs = np.full(3, 1.0 / 3.0)
    for gold in range(3):
        assert cross_entropy(probs, gold) == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_hand_value():
    assert cross_entropy(np.array([0.5, 0.25, 0.25]), 1) == pytest.approx(
        math.log(4.0), abs=1e-12)


def test_cross_entropy_floors_zero_probability():
    val = cross_entropy(np.array([0.0, 1.0, 0.0]), 0)
    assert val == pytest.approx(-math.log(1e-12))


def test_cross_entropy_rejects_bad_gold():
    with pytest.raises(ValueError):
        cross_entropy(np.full(3, 1 / 3), 3)


def test_l2_penalty_values():
    assert l2_penalty([np.array([[3.0]])], 0.01) == pytest.approx(0.09)
    assert l2_penalty([np.ones((2, 2))], 0.0) == 0.0
    w = make_rng(74).uniform(-1, 1, (3, 4))
    assert l2_penalty([w, w], 0.5) == pytest.approx(2 * 0.5 * np.sum(w * w))


def test_l2_grad_matches_finite_differences():
    w = make_rng(75).uniform(-1, 1, (3, 3))
    coeff = 0.01
    g = l2_grad(w, coeff)
    eps = 1e-6
    for idx in ((0, 0), (1, 2), (2, 1)):
        orig = w[idx]
        w[idx] = orig + eps
        up = l2_penalty([w], coeff)
        w[idx] = orig - eps
        down = l2_penalty([w], coeff)
        w[idx] = orig
        assert g[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-6)


# --- Adam --------------------------------------------------------------------

def test_adam_zero_gradient_is_a_noop():
    p = {"w": np.array([1.0, 2.0])}
    opt = Adam(p, lr=0.1)
    opt.step({"w": np.zeros(2)})
    assert np.array_equal(p["w"], [1.0, 2.0])


def test_adam_first_step_magnitude_is_lr():
    # with constant gradient, bias-corrected m/sqrt(v) is exactly sign(g)
    p = {"w": np.array([5.0])}
    opt = Adam(p, lr=0.01)
    opt.step({"w": np.array([3.7])})
    assert p["w"][0] == pytest.approx(5.0 - 0.01, abs=1e-6)
    p2 = {"w": np.array([5.0])}
    opt2 = Adam(p2, lr=0.01)
    opt2.step({"w": np.array([-0.002])})
    assert p2["w"][0] == pytest.approx(5.0 + 0.01, abs=1e-6)


def test_adam_deterministic_trajectories():
    def run():
        rng = make_rng(76)
        p = {"w": rng.uniform(-1, 1, 4), "b": rng.uniform(-1, 1, 2)}
        opt = Adam(p, lr=0.05)
        for _ in range(25):
            opt.step({"w": p["w"] * 2, "b": p["b"] * 2})
        return p

    a, b = run(), run()
    assert np.array_equal(a["w"], b["w"]) and np.array_equal(a["b"], b["b"])


def test_adam_minimizes_a_quadratic():
    p = {"x": np.array([10.0])}
    opt = Adam(p, lr=0.1)
    for _ in range(500):
        opt.step({"x": 2 * (p["x"] - 3.0)})
    assert abs(p["x"][0] - 3.0) < 1e-3


def test_adam_rejects_key_and_shape_mismatch():
    p = {"w": np.zeros(3)}
    opt = Adam(p, lr=0.1)
    with pytest.raises(ValueError, match="mismatch"):
        opt.step({})
    with pytest.raises(ValueError, match="shape"):
        opt.step({"w": np.zeros(4)})


# --- gradient checker --------------------------------------------------------

def test_grad_check_quadratic_is_clean():
    w = np.array([1.0, -2.0, 0.5])
    params = {"w": w}

    def loss():
        return float(np.sum(w * w))

    report = grad_check(loss, params, {"w": 2 * w})
    assert report.ok
    assert report.worst_rel_err < 1e-7


def test_grad_check_flags_a_corrupted_gradient():
    w = np.array([1.0, -2.0, 0.5])
    params = {"w": w}
    bad = 2 * w
    bad[1] = -bad[1]

    def loss():
        return float(np.sum(w * w))

    report = grad_check(loss, params, {"w": bad})
    assert not report.ok
    assert report.worst_name == "w" and report.worst_index == (1,)
    assert report.worst_rel_err > 0.5


def test_grad_check_requires_gradients_for_every_param():
    w = np.ones(2)
    with pytest.raises(ValueError, match="analytic"):
        grad_check(lambda: 0.0, {"w": w}, {})


# --- training loop -----------------------------------------------------------

def _toy_data(n=12, seed=77):
    rng = make_rng(seed)
    insts = []
    words = ("soup", "salad")
    for k in range(n):
        good = bool(rng.integers(2))
        w = ("good" if good else "bad")
        tokens = ("the", words[int(rng.integers(2))], "is", w)
        insts.append(LabeledInstance(tokens, TermSpan(1, 1),
                                     "positive" if good else "negative"))
    return insts


def _toy_model(seed=78):
    return build_model("atsa", "aa", "last", tiny_embeddings(seed=seed, dim=6),
                       hidden_dim=6, seed=seed)


def test_train_memorizes_one_instance():
    # Note the final model is restored to the best dev-F1 epoch, and one
    # instance caps macro F1 at 1/3 from the first correct epoch onward, so
    # memorization shows up in the loss trajectory rather than the returned
    # parameters.
    inst = _toy_data(1)[0]
    model = _toy_model()
    cfg = TrainConfig(lr=0.05, batch_size=1, dropout=0.0, l2=0.0, emb_dim=6,
                      hidden_dim=6, max_epochs=150, patience=150, seed=1)
    result = train(model, [inst], [inst], cfg)
    assert result.logs[-1].train_loss < 0.01


def test_train_logs_and_early_stopping():
    data = _toy_data(12)
    model = _toy_model()
    cfg = TrainConfig(lr=0.05, batch_size=4, dropout=0.0, l2=0.0, emb_dim=6,
                      hidden_dim=6, max_epochs=200, patience=3, seed=2)
    stream = io.StringIO()
    result = train(model, data, data, cfg, log_stream=stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == TSV_HEADER
    assert len(lines) == len(result.logs) + 1
    for i, log in enumerate(result.logs, start=1):
        assert log.epoch == i
        assert lines[i] == log.tsv_row()
    # perfect dev F1 is reached quickly, then patience runs out
    assert result.stopped_early
    assert len(result.logs) == result.best_epoch + cfg.patience
    assert result.best_dev_macro_f1 == max(l.dev_macro_f1 for l in result.logs)


def test_train_restores_best_parameters():
    data = _toy_data(10)
    model = _toy_model()
    cfg = TrainConfig(lr=0.05, batch_size=4, dropout=0.0, l2=0.0, emb_dim=6,
                      hidden_dim=6, max_epochs=30, patience=4, seed=3)
    result = train(model, data, data, cfg)
    # after restoring, evaluating dev again reproduces the best logged score
    assert evaluate(model, data).macro_f1 == pytest.approx(result.best_dev_macro_f1)


def test_train_deterministic_logs():
    def run():
        stream = io.StringIO()
        cfg = TrainConfig(lr=0.01, batch_size=4, dropout=0.3, l2=0.001, emb_dim=6,
                          hidden_dim=6, max_epochs=8, patience=8, seed=4)
        train(_toy_model(), _toy_data(10), _toy_data(6, seed=79), cfg,
              log_stream=stream)
        return stream.getvalue()

    assert run() == run()


def test_train_aborts_on_nonfinite_loss():
    data = _toy_data(6)
    model = _toy_model()
    model.cell.W_i[0, 0] = float("nan")
    cfg = TrainConfig(lr=0.01, batch_size=2, dropout=0.0, l2=0.0, emb_dim=6,
                      hidden_dim=6, max_epochs=2, patience=2, seed=5)
    with pytest.raises(TrainingDiverged, match="epoch 1, batch 0"):
        train(model, data, data, cfg)


def test_train_rejects_empty_sets():
    model = _toy_model()
    cfg = TrainConfig(emb_dim=6, hidden_dim=6)
    with pytest.raises(ValueError):
        train(model, [], _toy_data(2), cfg)
    with pytest.raises(ValueError):
        train(model, _toy_data(2), [], cfg)
