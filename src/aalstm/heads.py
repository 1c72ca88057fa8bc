"""Sentiment heads: turn hidden-state sequences into class probabilities.

Two heads are provided. The last-hidden head simply takes h_T as the final
sentiment representation. The attention head follows the concat-score design
of the cited aspect-attention architecture: each hidden state is scored
against the aspect, the states are averaged under the softmaxed scores, and
the result is blended with h_T:

    score_t = w . tanh([W_h h_t, W_v A])
    alpha   = softmax(score)
    r       = sum_t alpha_t h_t
    repr    = tanh(W_p r + W_x h_T)

A 3-way softmax classifier maps the representation to polarity probabilities
(positive, negative, neutral).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .metrics import N_CLASSES
from .tensor import ShapeError, as_matrix, as_vector, tanh_v, uniform_init

# Smallest normal double: probability floor keeping softmax outputs strictly
# positive even for wildly separated logits.
_PROB_FLOOR = np.finfo(np.float64).tiny


class _Arrays:
    """Name -> array conversion over a parameter dataclass's fields."""

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_arrays(cls, arrays):
        return cls(**{f.name: arrays[f.name] for f in fields(cls)})


@dataclass
class AttentionParams(_Arrays):
    """Attention weights; dr (representation dim) defaults to dc at init."""

    W_h: np.ndarray  # (dc, dc) hidden-state projection for scoring
    W_v: np.ndarray  # (da, da) aspect projection for scoring
    w: np.ndarray    # (dc + da,) scoring vector
    W_p: np.ndarray  # (dr, dc) projection of the attention average
    W_x: np.ndarray  # (dr, dc) projection of the last hidden state

    def __post_init__(self):
        self.W_h = as_matrix(self.W_h)
        self.W_v = as_matrix(self.W_v)
        self.w = as_vector(self.w)
        self.W_p = as_matrix(self.W_p)
        self.W_x = as_matrix(self.W_x)
        dc, da = self.W_h.shape[0], self.W_v.shape[0]
        if self.W_h.shape != (dc, dc) or self.W_v.shape != (da, da):
            raise ShapeError(f"score projections must be square, got {self.W_h.shape}, {self.W_v.shape}")
        if self.w.shape != (dc + da,):
            raise ShapeError(f"score vector shape {self.w.shape} != ({dc + da},)")
        if self.W_p.shape[1] != dc or self.W_x.shape != self.W_p.shape:
            raise ShapeError(f"output projections {self.W_p.shape}/{self.W_x.shape} "
                             f"incompatible with hidden dim {dc}")

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[0]

    @property
    def aspect_dim(self) -> int:
        return self.W_v.shape[0]

    @property
    def repr_dim(self) -> int:
        return self.W_p.shape[0]

    @classmethod
    def init(cls, hidden_dim: int, aspect_dim: int, repr_dim: int | None = None,
             lo: float = -0.1, hi: float = 0.1, seed=0) -> "AttentionParams":
        dr = hidden_dim if repr_dim is None else repr_dim
        return cls(
            W_h=uniform_init(hidden_dim, hidden_dim, lo, hi, seed=[seed, 20]),
            W_v=uniform_init(aspect_dim, aspect_dim, lo, hi, seed=[seed, 21]),
            w=uniform_init(1, hidden_dim + aspect_dim, lo, hi, seed=[seed, 22])[0],
            W_p=uniform_init(dr, hidden_dim, lo, hi, seed=[seed, 23]),
            W_x=uniform_init(dr, hidden_dim, lo, hi, seed=[seed, 24]),
        )


@dataclass
class ClassifierParams(_Arrays):
    """Softmax classifier over the three polarity classes."""

    W_s: np.ndarray  # (3, dr)
    b_s: np.ndarray  # (3,)

    def __post_init__(self):
        self.W_s = as_matrix(self.W_s)
        self.b_s = as_vector(self.b_s)
        if self.W_s.shape[0] != N_CLASSES or self.b_s.shape != (N_CLASSES,):
            raise ShapeError(f"classifier shapes {self.W_s.shape}/{self.b_s.shape} "
                             f"must have {N_CLASSES} output rows")

    @property
    def repr_dim(self) -> int:
        return self.W_s.shape[1]

    @classmethod
    def init(cls, repr_dim: int, lo: float = -0.1, hi: float = 0.1, seed=0) -> "ClassifierParams":
        return cls(W_s=uniform_init(N_CLASSES, repr_dim, lo, hi, seed=[seed, 30]),
                   b_s=np.zeros(N_CLASSES))


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax: max-subtracted, floored to keep entries in open (0,1)."""
    e = np.exp(z - np.max(z))
    p = e / e.sum()
    p = np.maximum(p, _PROB_FLOOR)
    return p / p.sum()


def last_hidden_head(hs: list[np.ndarray]) -> np.ndarray:
    """The final hidden state, unmodified."""
    if len(hs) == 0:
        raise ValueError("last_hidden_head: empty hidden-state sequence")
    return hs[-1]


def last_hidden_backward(d_repr: np.ndarray, length: int) -> list[np.ndarray]:
    """Route the representation gradient to h_T; earlier steps get zeros."""
    dhs = [np.zeros_like(d_repr) for _ in range(length)]
    dhs[-1] = d_repr
    return dhs


@dataclass
class AttentionCache:
    hs: list[np.ndarray]
    aspect: np.ndarray
    u: list[np.ndarray]       # tanh'd concat score features, one per step
    weights: np.ndarray       # attention distribution over steps
    r: np.ndarray             # attention-weighted state average
    repr: np.ndarray


def attention_scores(hs: list[np.ndarray], aspect: np.ndarray,
                     p: AttentionParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-step scores w . tanh([W_h h_t, W_v A]) and the tanh'd features."""
    va = p.W_v @ aspect
    u = [tanh_v(np.concatenate([p.W_h @ h, va])) for h in hs]
    return np.array([p.w @ ut for ut in u]), u


def attention_head(hs: list[np.ndarray], aspect: np.ndarray,
                   p: AttentionParams) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
    """Aspect-conditioned attention over hidden states.

    Returns (representation, attention weights, cache for the backward pass).
    Weights are a probability distribution over the sequence positions.
    """
    if len(hs) == 0:
        raise ValueError("attention_head: empty hidden-state sequence")
    if aspect.shape != (p.aspect_dim,):
        raise ShapeError(f"aspect shape {aspect.shape} != ({p.aspect_dim},)")
    for h in hs:
        if h.shape != (p.hidden_dim,):
            raise ShapeError(f"hidden state shape {h.shape} != ({p.hidden_dim},)")
    scores, u = attention_scores(hs, aspect, p)
    weights = softmax(scores)
    r = np.zeros(p.hidden_dim)
    for alpha, h in zip(weights, hs):
        r = r + alpha * h
    rep = tanh_v(p.W_p @ r + p.W_x @ hs[-1])
    return rep, weights, AttentionCache(hs=hs, aspect=aspect, u=u, weights=weights, r=r, repr=rep)


def attention_backward(p: AttentionParams, cache: AttentionCache, d_repr: np.ndarray,
                       ) -> tuple[dict[str, np.ndarray], list[np.ndarray], np.ndarray]:
    """Backprop through the attention head.

    Returns (param grads, one gradient per hidden state, aspect gradient).
    """
    if d_repr.shape != cache.repr.shape:
        raise ValueError(f"upstream gradient shape {d_repr.shape} != {cache.repr.shape}")
    hs, weights, u = cache.hs, cache.weights, cache.u
    dc, da = p.hidden_dim, p.aspect_dim
    grads = {name: np.zeros_like(arr) for name, arr in p.to_arrays().items()}
    dhs = [np.zeros(dc) for _ in hs]

    dz = d_repr * (1.0 - cache.repr ** 2)
    grads["W_p"] += np.outer(dz, cache.r)
    grads["W_x"] += np.outer(dz, hs[-1])
    dr = p.W_p.T @ dz
    dhs[-1] += p.W_x.T @ dz

    # r = sum_t alpha_t h_t
    d_alpha = np.array([h @ dr for h in hs])
    for t, alpha in enumerate(weights):
        dhs[t] += alpha * dr

    # softmax over scores
    d_scores = weights * (d_alpha - float(weights @ d_alpha))

    d_aspect = np.zeros(da)
    dva = np.zeros(da)
    for t, (ds, ut) in enumerate(zip(d_scores, u)):
        grads["w"] += ds * ut
        dg = (ds * p.w) * (1.0 - ut ** 2)
        grads["W_h"] += np.outer(dg[:dc], hs[t])
        dhs[t] += p.W_h.T @ dg[:dc]
        grads["W_v"] += np.outer(dg[dc:], cache.aspect)
        dva += dg[dc:]
    d_aspect += p.W_v.T @ dva
    return grads, dhs, d_aspect


@dataclass
class ClassifierCache:
    rep: np.ndarray
    probs: np.ndarray


def classify_with_cache(rep: np.ndarray, p: ClassifierParams,
                        ) -> tuple[np.ndarray, ClassifierCache]:
    if rep.shape != (p.repr_dim,):
        raise ShapeError(f"representation shape {rep.shape} != ({p.repr_dim},)")
    probs = softmax(p.W_s @ rep + p.b_s)
    return probs, ClassifierCache(rep=rep, probs=probs)


def classifier_backward(p: ClassifierParams, cache: ClassifierCache, d_logits: np.ndarray,
                        ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Grads for the classifier and its input, given logit-space upstream."""
    if d_logits.shape != (N_CLASSES,):
        raise ValueError(f"logit gradient shape {d_logits.shape} != ({N_CLASSES},)")
    grads = {"W_s": np.outer(d_logits, cache.rep), "b_s": d_logits.copy()}
    return grads, p.W_s.T @ d_logits
