"""Training: config, loss, dropout, Adam, gradient checking, and the loop.

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

from .metrics import EvalReport
from .tensor import make_rng

_PROB_FLOOR = 1e-12
_FD_EPS = 1e-5
_FD_FLOOR = 1e-8
# A gradient check passes when its worst relative error is below this.
GRADCHECK_THRESHOLD = 1e-4
# Adam's moment decay rates and denominator guard, the usual defaults.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


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
    init_low: float = -0.1
    init_high: float = 0.1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, patience must be >= 1")
        if self.emb_dim < 1 or self.hidden_dim < 1:
            raise ValueError("emb_dim and hidden_dim must be >= 1")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError(f"dev_fraction must be in (0, 1), got {self.dev_fraction}")
        if not self.init_low < self.init_high:
            raise ValueError(
                f"init_low must be below init_high, got [{self.init_low}, {self.init_high}]")


def dropout(v: np.ndarray, rate: float, rng=None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverted dropout: zero entries with probability `rate`, scale the
    survivors by 1/(1-rate) so the expectation is unchanged.

    Returns (output, multiplier mask). Dropout is on exactly when `rate` is
    above 0; rate 0, as in evaluation, passes the array through with mask
    None. Reusing the mask is exactly multiplying by it, which is what the
    backward pass does.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return v, None
    if rng is None:
        raise ValueError("dropout at a rate above 0 needs an rng")
    keep = 1.0 - rate
    mask = (rng.random(v.shape) < keep) / keep
    return v * mask, mask


def cross_entropy(probs: np.ndarray, gold: int) -> float:
    """Negative log-probability of the gold class, floored for safety."""
    if not 0 <= gold < probs.shape[0]:
        raise ValueError(f"gold label {gold} outside 0..{probs.shape[0] - 1}")
    return float(-np.log(max(float(probs[gold]), _PROB_FLOOR)))


def l2_penalty(arrays, coeff: float) -> float:
    """coeff * sum of squared entries over the given arrays."""
    if coeff < 0:
        raise ValueError(f"l2 coefficient must be nonnegative, got {coeff}")
    return coeff * float(sum(np.sum(a * a) for a in arrays))


def l2_grad(arr: np.ndarray, coeff: float) -> np.ndarray:
    return 2.0 * coeff * arr


class Adam:
    """Adam with bias correction, updating parameter arrays in place.

    Holds one pair of moment arrays per parameter name. `step` expects a
    gradient for every registered parameter and nothing else.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if set(grads) != set(self.params):
            missing = set(self.params) - set(grads)
            extra = set(grads) - set(self.params)
            raise ValueError(f"gradient keys mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        self.t += 1
        c1 = 1.0 - _ADAM_BETA1 ** self.t
        c2 = 1.0 - _ADAM_BETA2 ** self.t
        for name in sorted(self.params):
            g = grads[name]
            p = self.params[name]
            if g.shape != p.shape:
                raise ValueError(f"{name}: gradient shape {g.shape} != {p.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)


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
               floor: float = _FD_FLOOR) -> GradCheckReport:
    """Central-difference check of `analytic` against `loss_fn`.

    Perturbs every entry of every array in `params` in place, by
    eps = `_FD_EPS` each way. Coordinates where both sides are at or below
    `floor` are skipped: the quotient (L(t+eps)-L(t-eps))/2eps carries about
    1e-11 of roundoff when the loss is O(1) in double precision, so relative
    agreement is unmeasurable for near-zero coordinates. Callers certifying
    a relative tolerance should set `floor` well above roundoff/tolerance
    (e.g. 1e-6 for 1e-4).
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
            arr[idx] = orig + _FD_EPS
            up = loss_fn()
            arr[idx] = orig - _FD_EPS
            down = loss_fn()
            arr[idx] = orig
            numeric = (up - down) / (2.0 * _FD_EPS)
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
    preds = [model.predict(inst) for inst in instances]
    golds = [inst.label for inst in instances]
    return EvalReport.from_predictions(preds, golds)


def train(model, train_insts, dev_insts, cfg: TrainConfig, log_stream=None) -> TrainResult:
    """Minibatch Adam with early stopping on dev macro F1.

    Per batch the objective is mean cross-entropy plus the L2 penalty on the
    model's regularized weights. The parameters giving the best dev macro F1
    are restored into the model before returning. When `log_stream` is given,
    one TSV row per epoch is written and flushed as it happens.
    """
    if not train_insts:
        raise ValueError("no training instances")
    if not dev_insts:
        raise ValueError("no dev instances")
    params = model.params()
    reg_names = model.regularized()
    optimizer = Adam(params, cfg.lr)
    shuffle_rng = make_rng([cfg.seed, 50])
    dropout_rng = make_rng([cfg.seed, 51])
    result = TrainResult()
    best = None
    since_best = 0
    if log_stream is not None:
        log_stream.write(TSV_HEADER + "\n")
        log_stream.flush()
    n = len(train_insts)
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for b0 in range(0, n, cfg.batch_size):
            batch = [train_insts[i] for i in order[b0:b0 + cfg.batch_size]]
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            ce_sum = 0.0
            for inst in batch:
                cache = model.forward(inst, dropout=cfg.dropout, rng=dropout_rng)
                ce_sum += cross_entropy(cache.probs, inst.label)
                for k, g in model.backward(cache).items():
                    grads[k] += g
            scale = 1.0 / len(batch)
            for k in grads:
                grads[k] *= scale
            penalty = 0.0
            if cfg.l2 > 0:
                penalty = l2_penalty((params[k] for k in reg_names), cfg.l2)
                for k in reg_names:
                    grads[k] += l2_grad(params[k], cfg.l2)
            objective = ce_sum / len(batch) + penalty
            if not math.isfinite(objective):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
            optimizer.step(grads)
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
            best = {k: v.copy() for k, v in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                result.stopped_early = True
                break
    if best is not None:
        for k, v in params.items():
            np.copyto(v, best[k])
    return result
