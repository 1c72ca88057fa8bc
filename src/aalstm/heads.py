"""Sentiment heads: turn hidden-state sequences into class probabilities.

Both heads take the cell's hidden states as one (T, dc) array H (a list of
T vectors also works) and hand their gradient back as one (T, dc) array.
The last-hidden head simply takes h_T as the final sentiment
representation. The attention head follows the concat-score design
of the cited aspect-attention architecture: each hidden state is scored
against the aspect, the states are averaged under the softmaxed scores, and
the result is blended with h_T:

    U       = tanh([H W_h^T | W_v A])       (T, dc + da), W_v A on every row
    alpha   = softmax(U w)                  (T,)
    r       = alpha H                       (dc,)
    repr    = tanh(W_p r + W_x h_T)         (dc,)

A 3-way softmax classifier maps the representation to polarity probabilities
(positive, negative, neutral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import N_CLASSES
from .tensor import ParamSet, ShapeError, as_matrix, tanh_v

# Smallest normal double: probability floor keeping softmax outputs strictly
# positive even for wildly separated logits.
_PROB_FLOOR = np.finfo(np.float64).tiny


@dataclass
class AttentionParams(ParamSet):
    """Attention weights over (dc,) hidden states and a (da,) aspect."""

    W_h: np.ndarray  # (dc, dc) hidden-state projection for scoring
    W_v: np.ndarray  # (da, da) aspect projection for scoring
    w: np.ndarray    # (dc + da,) scoring vector
    W_p: np.ndarray  # (dc, dc) projection of the attention average
    W_x: np.ndarray  # (dc, dc) projection of the last hidden state

    _INIT_STREAM = {"W_h": 20, "W_v": 21, "w": 22, "W_p": 23, "W_x": 24}

    @staticmethod
    def _shapes(hidden_dim: int, aspect_dim: int) -> dict[str, tuple[int, ...]]:
        dc, da = hidden_dim, aspect_dim
        return {"W_h": (dc, dc), "W_v": (da, da), "w": (dc + da,),
                "W_p": (dc, dc), "W_x": (dc, dc)}

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[0]

    @property
    def aspect_dim(self) -> int:
        return self.W_v.shape[0]


@dataclass
class ClassifierParams(ParamSet):
    """Softmax classifier over the three polarity classes."""

    W_s: np.ndarray  # (3, dc)
    b_s: np.ndarray  # (3,)

    _INIT_STREAM = {"W_s": 30}

    @staticmethod
    def _shapes(repr_dim: int) -> dict[str, tuple[int, ...]]:
        return {"W_s": (N_CLASSES, repr_dim), "b_s": (N_CLASSES,)}

    @property
    def repr_dim(self) -> int:
        return self.W_s.shape[1]


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax: max-subtracted, floored to keep entries in open (0,1)."""
    e = np.exp(z - np.max(z))
    p = e / e.sum()
    p = np.maximum(p, _PROB_FLOOR)
    return p / p.sum()


def last_hidden_head(hs) -> np.ndarray:
    """The final hidden state h_T, unmodified: the last row of (T, dc) states."""
    if len(hs) == 0:
        raise ValueError("last_hidden_head: empty hidden-state sequence")
    return hs[-1]


def last_hidden_backward(d_repr: np.ndarray, length: int) -> np.ndarray:
    """Route the (dc,) representation gradient to h_T: a (T, dc) array of
    zeros with d_repr as its last row."""
    dH = np.zeros((length, d_repr.shape[0]))
    dH[-1] = d_repr
    return dH


@dataclass
class AttentionCache:
    H: np.ndarray             # (T, dc) hidden states
    aspect: np.ndarray        # (da,)
    U: np.ndarray             # (T, dc + da) tanh'd concat score features
    weights: np.ndarray       # (T,) attention distribution over steps
    r: np.ndarray             # (dc,) attention-weighted state average
    repr: np.ndarray          # (dc,)


def attention_scores(hs, aspect: np.ndarray,
                     p: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Scores w . tanh([W_h h_t, W_v A]) of (T, dc) states: the (T,) scores
    and the (T, dc + da) tanh'd features U."""
    H = as_matrix(hs)
    va = np.broadcast_to(p.W_v @ aspect, (H.shape[0], p.aspect_dim))
    U = tanh_v(np.hstack((H @ p.W_h.T, va)))
    return U @ p.w, U


def attention_head(hs, aspect: np.ndarray,
                   p: AttentionParams) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
    """Aspect-conditioned attention over (T, dc) hidden states (an array, or
    a list of T vectors) and a (da,) aspect.

    Returns the (dc,) representation, the (T,) attention weights, a
    probability distribution over the positions, and the backward cache.
    """
    if len(hs) == 0:
        raise ValueError("attention_head: empty hidden-state sequence")
    if aspect.shape != (p.aspect_dim,):
        raise ShapeError(f"aspect shape {aspect.shape} != ({p.aspect_dim},)")
    H = as_matrix(hs)
    if H.shape[1] != p.hidden_dim:
        raise ShapeError(f"hidden state shape {H.shape[1:]} != ({p.hidden_dim},)")
    scores, U = attention_scores(H, aspect, p)
    weights = softmax(scores)
    r = weights @ H
    rep = tanh_v(p.W_p @ r + p.W_x @ H[-1])
    return rep, weights, AttentionCache(H=H, aspect=aspect, U=U, weights=weights, r=r, repr=rep)


def attention_backward(p: AttentionParams, cache: AttentionCache, d_repr: np.ndarray,
                       ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Backprop a (dc,) representation gradient through the attention head.

    Returns (param grads, (T, dc) hidden-state grads, (da,) aspect grad).
    """
    if d_repr.shape != cache.repr.shape:
        raise ValueError(f"upstream gradient shape {d_repr.shape} != {cache.repr.shape}")
    H, weights, U, dc = cache.H, cache.weights, cache.U, p.hidden_dim
    dz = d_repr * (1.0 - cache.repr ** 2)
    dr = p.W_p.T @ dz
    # r = weights @ H, then the softmax over the scores.
    d_alpha = H @ dr
    d_scores = weights * (d_alpha - float(weights @ d_alpha))
    # Score features: dG is the gradient on [W_h h_t | W_v A] before the tanh.
    dG = np.outer(d_scores, p.w) * (1.0 - U ** 2)
    dG_h, dva = dG[:, :dc], dG[:, dc:].sum(axis=0)
    dH = np.outer(weights, dr) + dG_h @ p.W_h
    dH[-1] += p.W_x.T @ dz
    grads = {"W_h": dG_h.T @ H, "W_v": np.outer(dva, cache.aspect), "w": d_scores @ U,
             "W_p": np.outer(dz, cache.r), "W_x": np.outer(dz, H[-1])}
    return grads, dH, p.W_v.T @ dva


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
