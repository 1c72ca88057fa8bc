"""Training: config, loss, dropout masks, Adam, gradient checking, and the loop.

The loop is deterministic for a fixed seed: shuffling and dropout draw from
counter-based streams keyed off the config seed, batches are visited in
shuffle order, and Adam walks parameters in sorted name order. Two runs with
identical inputs and seeds produce byte-identical metric logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .heads import PROB_FLOOR
from .metrics import EvalReport
from .tensor import INIT_HIGH, INIT_LOW, ConfigError, make_rng

_FD_EPS = 1e-4
FD_FLOOR = 1e-8
# A gradient check passes when its worst relative error is below this.
GRADCHECK_THRESHOLD = 1e-4
# Instances per batched forward in `evaluate`: bounds the run's transient
# buffers, which grow with the chunk's instances times its longest length.
EVAL_CHUNK = 16
# Adam's moment decay rates and denominator guard, the usual defaults.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per block of the optimizer pass: a block's p, g, m, v and two
# scratch buffers (6 x 128 KiB) stay in a core's L2 cache, so the step reads
# each array from memory once instead of once per whole-array operation.
ADAM_BLOCK = 1 << 14


class TrainingDiverged(RuntimeError):
    """Loss or gradients went non-finite mid-run."""


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 16
    dropout: float = 0.5
    l2: float = 0.01
    emb_dim: int = 300
    hidden_dim: int = 300
    max_epochs: int = 50
    patience: int = 5
    dev_fraction: float = 0.2
    seed: int = 0
    init_low: float = INIT_LOW
    init_high: float = INIT_HIGH

    def __post_init__(self):
        for name in ("lr", "l2", "init_low", "init_high"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs, patience must be >= 1")
        if self.emb_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("emb_dim and hidden_dim must be >= 1")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ConfigError(f"dev_fraction must be in (0, 1), got {self.dev_fraction}")
        if not self.init_low < self.init_high:
            raise ConfigError(
                f"init_low must be below init_high, got [{self.init_low}, {self.init_high}]")


def dropout_mask(shape, rate: float, rng=None) -> Optional[np.ndarray]:
    """Inverted dropout multiplier of `shape`: 0 with probability `rate`,
    else 1/(1-rate), keeping the expectation; the forward pass multiplies by
    it and so does the backward. Rate 0, as in evaluation, gives None."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout at a rate above 0 needs an rng")
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


def cross_entropy(probs: np.ndarray, gold: int) -> float:
    """Negative log-probability of the gold class, floored for safety."""
    if not 0 <= gold < probs.shape[0]:
        raise ValueError(f"gold label {gold} outside 0..{probs.shape[0] - 1}")
    return float(-np.log(max(float(probs[gold]), PROB_FLOOR)))


def l2_penalty(arrays, coeff: float) -> float:
    """coeff * sum of squared entries over the given arrays."""
    if coeff < 0:
        raise ValueError(f"l2 coefficient must be nonnegative, got {coeff}")
    return coeff * float(sum(np.sum(a * a) for a in arrays))


def l2_grad(arr: np.ndarray, coeff: float, out=None) -> np.ndarray:
    """Gradient of `l2_penalty` with respect to `arr`, into `out` if given."""
    return np.multiply(arr, 2.0 * coeff, out=out)


class Adam:
    """Adam with bias correction and L2 decay, updating parameter arrays in place.

    Holds one pair of moment arrays per parameter name. `step` expects a
    gradient for every registered parameter and nothing else. The gradient
    Adam sees for a parameter is `scale` times the given one, plus
    `l2_grad(p, l2)` when its name is in `regularized`.

    The step walks each parameter in blocks of rows of about `ADAM_BLOCK`
    elements and runs the whole update on one block before the next. Every
    element goes through the same operations in the same order as whole-array
    code would, so the result is bit-identical to it; blocks are row slices,
    so parameters that are views into a shared buffer update that buffer.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 l2: float = 0.0, regularized=()):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if l2 < 0:
            raise ValueError(f"l2 coefficient must be nonnegative, got {l2}")
        regularized = set(regularized)
        unknown = regularized - set(params)
        if unknown:
            raise ValueError(f"regularized names are not parameters: {sorted(unknown)}")
        self.params = params
        self.lr = lr
        self.l2 = l2
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        spans = []
        for name in sorted(params):
            p = params[name]
            rows = max(1, ADAM_BLOCK // max(1, math.prod(p.shape[1:])))
            spans += [(name, slice(r0, r0 + rows)) for r0 in range(0, len(p), rows)]
        size = max((params[k][rs].size for k, rs in spans), default=0)
        g_buf, a_buf = np.empty(size), np.empty(size)
        # Per block, in sorted name order: its name and rows, its views of p,
        # m and v, the two block buffers shaped like it, and whether it decays.
        self._blocks = []
        for name, rs in spans:
            p = params[name][rs]
            self._blocks.append((name, rs, p, self.m[name][rs], self.v[name][rs],
                                 g_buf[:p.size].reshape(p.shape),
                                 a_buf[:p.size].reshape(p.shape),
                                 l2 > 0 and name in regularized))

    def step(self, grads: dict[str, np.ndarray], scale: float = 1.0) -> None:
        if set(grads) != set(self.params):
            missing = set(self.params) - set(grads)
            extra = set(grads) - set(self.params)
            raise ValueError(f"gradient keys mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, p in self.params.items():
            if grads[name].shape != p.shape:
                raise ValueError(f"{name}: gradient shape {grads[name].shape} != {p.shape}")
        self.t += 1
        c1 = 1.0 - _ADAM_BETA1 ** self.t
        c2 = 1.0 - _ADAM_BETA2 ** self.t
        for name, rs, p, m, v, g, a, decay in self._blocks:
            np.multiply(grads[name][rs], scale, out=g)
            if decay:
                g += l2_grad(p, self.l2, out=a)
            m *= _ADAM_BETA1
            m += np.multiply(g, 1.0 - _ADAM_BETA1, out=a)
            v *= _ADAM_BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - _ADAM_BETA2
            v += a
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            g += _ADAM_EPS
            np.divide(m, c1, out=a)
            a *= self.lr
            a /= g
            p -= a


@dataclass
class GradCheckReport:
    worst_rel_err: float
    worst_name: str
    worst_index: tuple
    n_checked: int

    @property
    def ok(self) -> bool:
        return self.worst_rel_err < GRADCHECK_THRESHOLD


def grad_check(loss_fn: Callable[[], float], params: dict[str, np.ndarray],
               analytic: dict[str, np.ndarray],
               floor: float = FD_FLOOR) -> GradCheckReport:
    """Finite-difference check of `analytic` against `loss_fn`.

    Perturbs every entry of every array in `params` in place, by h and 2h
    each way, h = `_FD_EPS`, and takes the fourth-order stencil
    (8(L(+h)-L(-h)) - (L(+2h)-L(-2h))) / 12h. Its truncation error is
    O(h^4), so h can be ten times the central difference's 1e-5, and its
    roundoff, which scales as 1/h, is a few 1e-12 when the loss is O(1) in
    double precision, against the central difference's 1e-11. Coordinates
    where both sides are at or below `floor` are skipped: relative agreement
    is unmeasurable for near-zero coordinates. Callers certifying a relative
    tolerance should set `floor` well above roundoff/tolerance (e.g. 1e-6
    for 1e-4).
    """
    worst = 0.0
    worst_name, worst_index = "", ()
    n_checked = 0
    for name in sorted(params):
        arr = params[name]
        if name not in analytic:
            raise ValueError(f"no analytic gradient for {name!r}")
        grad = analytic[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            diffs = []
            for step in (_FD_EPS, 2.0 * _FD_EPS):
                arr[idx] = orig + step
                up = loss_fn()
                arr[idx] = orig - step
                diffs.append(up - loss_fn())
            arr[idx] = orig
            numeric = (8.0 * diffs[0] - diffs[1]) / (12.0 * _FD_EPS)
            if max(abs(numeric), abs(grad[idx])) <= floor:
                continue
            rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric))
            n_checked += 1
            if rel > worst:
                worst, worst_name, worst_index = rel, name, idx
    return GradCheckReport(worst, worst_name, worst_index, n_checked)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    dev_acc: float
    dev_macro_f1: float

    def tsv_row(self) -> str:
        return (f"{self.epoch}\t{self.train_loss:.6f}\t"
                f"{self.dev_acc:.6f}\t{self.dev_macro_f1:.6f}")


TSV_HEADER = "epoch\ttrain_loss\tdev_acc\tdev_macro_f1"


@dataclass
class TrainResult:
    logs: list[EpochLog] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_macro_f1: float = -1.0
    stopped_early: bool = False


def evaluate(model, instances) -> EvalReport:
    """Score the instances in length order, EVAL_CHUNK per batched forward,
    so each chunk's run holds little padding."""
    order = sorted(range(len(instances)), key=lambda i: len(instances[i].tokens))
    preds = np.empty(len(instances), dtype=np.int64)
    for start in range(0, len(order), EVAL_CHUNK):
        chunk = order[start:start + EVAL_CHUNK]
        preds[chunk] = model.forward([instances[i] for i in chunk]).probs.argmax(axis=1)
    golds = [inst.label for inst in instances]
    return EvalReport.from_predictions(preds, golds)


def train(model, train_insts, dev_insts, cfg: TrainConfig, log_stream=None) -> TrainResult:
    """Minibatch Adam with early stopping on dev macro F1.

    Each minibatch is one model run, one `forward` and one `backward`; its
    objective is mean cross-entropy plus the L2 penalty on the model's
    regularized weights. The parameters giving the best dev macro F1
    are restored into the model before returning. When `log_stream` is given,
    one TSV row per epoch is written and flushed as it happens.
    """
    if not train_insts:
        raise ValueError("no training instances")
    if not dev_insts:
        raise ValueError("no dev instances")
    params = model.params()
    reg_names = model.regularized()
    optimizer = Adam(params, cfg.lr, l2=cfg.l2, regularized=reg_names)
    shuffle_rng = make_rng([cfg.seed, 50])
    dropout_rng = make_rng([cfg.seed, 51])
    result = TrainResult()
    best = None
    if log_stream is not None:
        log_stream.write(TSV_HEADER + "\n")
        log_stream.flush()
    n = len(train_insts)
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for b0 in range(0, n, cfg.batch_size):
            batch = [train_insts[i] for i in order[b0:b0 + cfg.batch_size]]
            cache = model.forward(batch, dropout=cfg.dropout, rng=dropout_rng)
            ce_sum = sum(cross_entropy(p, inst.label) for p, inst in zip(cache.probs, batch))
            grads = model.backward(cache)
            del cache  # the run's buffers, so the next run does not overlap them
            penalty = 0.0
            if cfg.l2 > 0:
                penalty = l2_penalty((params[k] for k in reg_names), cfg.l2)
            objective = ce_sum / len(batch) + penalty
            if not math.isfinite(objective):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
            optimizer.step(grads, scale=1.0 / len(batch))
            del grads  # so the next run, dev evaluation and the snapshot do not overlap it
            loss_sum += objective * len(batch)
        report = evaluate(model, dev_insts)
        log = EpochLog(epoch, loss_sum / n, report.accuracy, report.macro_f1)
        result.logs.append(log)
        if log_stream is not None:
            log_stream.write(log.tsv_row() + "\n")
            log_stream.flush()
        if report.macro_f1 > result.best_dev_macro_f1:
            result.best_dev_macro_f1 = report.macro_f1
            result.best_epoch = epoch
            if best is None:
                best = {k: np.empty_like(v) for k, v in params.items()}
            for k, v in params.items():
                np.copyto(best[k], v)
        elif epoch - result.best_epoch >= cfg.patience:
            result.stopped_early = True
            break
    if best is not None:
        for k, v in params.items():
            np.copyto(v, best[k])
    return result
