"""Tests for loss, dropout masks, Adam, the gradient checker, and the train loop."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm.data import POLARITIES, LabeledInstance, TermSpan
from aalstm.metrics import EvalReport
from aalstm.model import build_model
from aalstm.tensor import make_rng
from aalstm.train import (
    ADAM_BLOCK,
    EVAL_CHUNK,
    Adam,
    TSV_HEADER,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    dropout_mask,
    evaluate,
    grad_check,
    l2_grad,
    l2_penalty,
    train,
)
from tests.helpers import LoopAdam
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
    dict(emb_dim=0), dict(hidden_dim=0), dict(init_low=0.2, init_high=0.1),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


# --- dropout -----------------------------------------------------------------

def test_dropout_eval_and_zero_rate_are_identity():
    # Evaluation runs at rate 0, with or without an rng: no mask, so the
    # model leaves its arrays as they are, and nothing is drawn.
    assert dropout_mask((3,), 0.0) is None
    rng = make_rng(70)
    assert dropout_mask((3,), 0.0, rng) is None
    assert rng.random() == make_rng(70).random()


def test_dropout_survivor_stats():
    mask = dropout_mask((100_000,), 0.5, make_rng(71))
    survivors = np.count_nonzero(mask) / mask.size
    assert abs(survivors - 0.5) < 0.01
    assert set(np.unique(mask)) == {0.0, 2.0}
    # inverted scaling preserves the expectation
    assert abs(mask.mean() - 1.0) < 0.02


def test_dropout_mask_is_the_multiplier():
    # Each entry keeps with probability 1 - rate, drawn from the rng in one
    # call, and is then scaled by 1/(1 - rate).
    v = make_rng(73).uniform(-1, 1, (5, 10))
    mask = dropout_mask(v.shape, 0.3, make_rng(72))
    assert mask.shape == v.shape
    assert set(np.unique(mask)).issubset({0.0, 1.0 / 0.7})
    assert np.array_equal(mask, (make_rng(72).random(v.shape) < 0.7) / 0.7)
    kept = mask != 0.0
    assert np.array_equal((v * mask)[kept], v[kept] * (1.0 / 0.7))
    assert not (v * mask)[~kept].any()


def test_dropout_needs_rng_in_train_mode():
    with pytest.raises(ValueError, match="rng"):
        dropout_mask((3,), 0.5)


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        dropout_mask((3,), 1.0, make_rng(0))
    with pytest.raises(ValueError):
        dropout_mask((3,), -0.1, make_rng(0))


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
    # The softmax floor, the smallest normal double: about 708.4 nats.
    val = cross_entropy(np.array([0.0, 1.0, 0.0]), 0)
    assert val == -math.log(np.finfo(np.float64).tiny)


def test_cross_entropy_rejects_bad_gold():
    with pytest.raises(ValueError):
        cross_entropy(np.full(3, 1 / 3), 3)


def test_l2_penalty_values():
    assert l2_penalty([np.array([[3.0]])], 0.01) == pytest.approx(0.09)
    assert l2_penalty([np.ones((2, 2))], 0.0) == 0.0
    w = make_rng(74).uniform(-1, 1, (3, 4))
    assert l2_penalty([w, w], 0.5) == pytest.approx(2 * 0.5 * np.sum(w * w))
    with pytest.raises(ValueError, match="nonnegative"):
        l2_penalty([w], -0.01)


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
    p = {"a": np.ones(2), "w": np.zeros(3)}
    opt = Adam(p, lr=0.1)
    with pytest.raises(ValueError, match="mismatch"):
        opt.step({})
    # a bad shape is caught before any parameter moves
    with pytest.raises(ValueError, match="shape"):
        opt.step({"a": np.ones(2), "w": np.zeros(4)})
    assert np.array_equal(p["a"], [1.0, 1.0]) and opt.t == 0
    with pytest.raises(ValueError, match="not parameters"):
        Adam(p, lr=0.1, l2=0.01, regularized=["b"])
    with pytest.raises(ValueError, match="nonnegative"):
        Adam(p, lr=0.1, l2=-1.0)
    with pytest.raises(ValueError, match="lr must be positive"):
        Adam(p, lr=0.0)


# Parameter shapes around the optimizer's block size: under one block, one
# block exactly, several blocks with a ragged last one, and a single row wider
# than a block, in one and two dimensions.
_B = ADAM_BLOCK
_ADAM_SHAPES = st.one_of(
    st.integers(1, 40).map(lambda n: (n,)),
    st.just((_B,)),
    st.integers(1, 40).map(lambda k: (2 * _B + k,)),
    st.tuples(st.integers(1, 6), st.integers(1, 8)),
    st.just((_B // 64, 64)),
    st.tuples(st.integers(_B // 300 + 1, 2 * _B // 300 + 5), st.just(300)),
    st.tuples(st.integers(1, 3), st.integers(_B + 1, _B + 40)),
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(shapes=st.lists(_ADAM_SHAPES, min_size=1, max_size=3),
       shared_rows=st.sampled_from([2, 30, _B // 100 + 7]),
       reg_mask=st.integers(0, 127),
       l2=st.sampled_from([0.0, 0.01, 0.5]),
       scales=st.lists(st.sampled_from([1.0, 0.5, 1.0 / 3, 1.0 / 16]), min_size=3, max_size=3),
       seed=st.integers(0, 2**16))
def test_adam_matches_the_unfused_oracle(shapes, shared_rows, reg_mask, l2, scales, seed):
    # Besides separate arrays, four row-block views of one (4r, 100) buffer
    # stand in for a cell's per-gate views: the buffer itself must move.
    rng = make_rng(seed)
    arrays = {f"a{i}": rng.uniform(-1, 1, shape) for i, shape in enumerate(shapes)}
    shared = rng.uniform(-1, 1, (4 * shared_rows, 100))

    def params_over(buf):
        out = {k: v.copy() for k, v in arrays.items()}
        out.update({f"s{k}": buf[k * shared_rows:(k + 1) * shared_rows] for k in range(4)})
        return out

    fused_shared, oracle_shared = shared.copy(), shared.copy()
    fused, oracle = params_over(fused_shared), params_over(oracle_shared)
    names = sorted(fused)
    reg = [k for i, k in enumerate(names) if reg_mask >> i & 1]
    opt = Adam(fused, lr=0.01, l2=l2, regularized=reg)
    ref = LoopAdam(oracle, lr=0.01, l2=l2, regularized=reg)
    for scale in scales:
        grads = {k: rng.normal(0, 1, v.shape) for k, v in fused.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        opt.step(grads, scale=scale)
        ref.step(grads, scale=scale)
        assert all(np.array_equal(grads[k], kept[k]) for k in grads)
    for k in names:
        assert np.array_equal(fused[k], oracle[k]), k
        assert np.array_equal(opt.m[k], ref.m[k]), k
        assert np.array_equal(opt.v[k], ref.v[k]), k
    assert np.array_equal(fused_shared, oracle_shared)
    assert not np.array_equal(fused_shared, shared)


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


@pytest.mark.parametrize("cell_kind,head_kind", [("aa", "attention"), ("classic", "last")])
def test_evaluate_matches_per_instance_predict(cell_kind, head_kind):
    # Mixed lengths over more than one chunk, so the batched runs sort and
    # pad: each instance still gets its one-instance probabilities. The
    # report over the "neutral" golds equals the one built from per-instance
    # predicts, and gold labels set to the one-instance predictions make
    # evaluate's accuracy 1 exactly when every batched prediction agrees.
    rng = make_rng(79)
    words = ("the", "soup", "salad", "is", "good", "bad", ".")
    model = build_model("atsa", cell_kind, head_kind, tiny_embeddings(seed=80, dim=6),
                        hidden_dim=6, seed=80)
    insts = []
    for _ in range(2 * EVAL_CHUNK + 5):
        tokens = tuple(words[i] for i in rng.integers(len(words), size=int(rng.integers(1, 10))))
        start = int(rng.integers(len(tokens)))
        insts.append(LabeledInstance(tokens, TermSpan(start, start), "neutral"))
    probs = [model.predict_probs(inst) for inst in insts]
    for p, run_p in zip(probs, model.forward(insts).probs):
        np.testing.assert_allclose(run_p, p, atol=1e-12, rtol=0)
    expected = EvalReport.from_predictions([model.predict(inst) for inst in insts],
                                           [inst.label for inst in insts])
    report = evaluate(model, insts)
    assert report.json_line() == expected.json_line()
    assert report.table() == expected.table()
    labelled = [LabeledInstance(inst.tokens, inst.aspect, POLARITIES[int(np.argmax(p))])
                for inst, p in zip(insts, probs)]
    assert evaluate(model, labelled).accuracy == 1.0


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


def test_train_matches_the_unfused_reference_on_a_partial_batch():
    # 11 instances in batches of 3: the last batch's gradient is scaled by
    # 1/2, the others' by 1/3. One epoch, so the restored best parameters are
    # the trained ones.
    data = _toy_data(11)
    cfg = TrainConfig(lr=0.05, batch_size=3, dropout=0.3, l2=0.01, emb_dim=6,
                      hidden_dim=6, max_epochs=1, patience=1, seed=6)
    model = _toy_model()
    train(model, data, data[:4], cfg)

    ref = _toy_model()
    params = ref.params()
    opt = LoopAdam(params, cfg.lr, l2=cfg.l2, regularized=ref.regularized())
    order = make_rng([cfg.seed, 50]).permutation(len(data))
    dropout_rng = make_rng([cfg.seed, 51])
    for b0 in range(0, len(data), cfg.batch_size):
        batch = [data[i] for i in order[b0:b0 + cfg.batch_size]]
        grads = ref.backward(ref.forward(batch, dropout=cfg.dropout, rng=dropout_rng))
        opt.step(grads, scale=1.0 / len(batch))
    assert opt.t == 4
    for k, v in model.params().items():
        assert np.array_equal(v, params[k]), k


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
    model.cell.W_x[0, 0] = float("nan")
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
