"""Sentiment heads: turn a run's hidden states into class probabilities.

Both heads take the hidden states of B sequences as one packed (N, dc)
array H, laid out like the run's input rows (`lengths[b]` rows per
sequence; one sequence is the default `lengths=[T]`), and hand their
gradient back as one (N, dc) array laid out the same way, in one pass over
the run. The last-hidden head takes each sequence's h_T. The attention head
scores each hidden state, averages each sequence's states under its
softmaxed scores, and blends the result with h_T:

    S       = tanh(H W_h^T)                         (N, dc)
    alpha   = per-sequence softmax(S w)             (N,)
    r       = per-sequence sum of alpha_t h_t       (B, dc)
    repr    = tanh(r W_p^T + h_T W_x^T)             (B, dc)

AT-LSTM's (Wang et al., 2016) aspect term is the same at every position of
a sequence, so it cancels in the softmax, and this head has none: the
aspect reaches the model only through the aspect-aware cell.

A 3-way softmax classifier maps the (B, dc) representations to (B, 3)
polarity probabilities (positive, negative, neutral) in one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .metrics import N_CLASSES
from .tensor import ParamSet, ShapeError, tanh_v

# Smallest normal double: probability floor keeping softmax outputs strictly
# positive even for wildly separated logits, and the cross-entropy finite.
PROB_FLOOR = np.finfo(np.float64).tiny


@dataclass
class AttentionParams(ParamSet):
    """Attention weights over (dc,) hidden states."""

    W_h: np.ndarray  # (dc, dc) hidden-state projection for scoring
    w: np.ndarray    # (dc,) scoring vector
    W_p: np.ndarray  # (dc, dc) projection of the attention average
    W_x: np.ndarray  # (dc, dc) projection of the last hidden state

    _INIT_STREAM = {"W_h": 20, "w": 22, "W_p": 23, "W_x": 24}

    @staticmethod
    def _shapes(hidden_dim: int) -> dict[str, tuple[int, ...]]:
        dc = hidden_dim
        return {"W_h": (dc, dc), "w": (dc,), "W_p": (dc, dc), "W_x": (dc, dc)}

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[0]


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
    """Stable softmax over the last axis, floored to keep entries in open (0,1)."""
    z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    np.maximum(z, PROB_FLOOR, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _segments(n_rows: int, lengths: Optional[list[int]]):
    """Row counts, first rows and last rows of the sequences of a packed
    array, as lists: for a run's few sequences cheaper than numpy arrays."""
    counts = [n_rows] if lengths is None else list(lengths)
    if min(counts, default=0) < 1 or sum(counts) != n_rows:
        raise ValueError(f"lengths {counts} do not split {n_rows} hidden-state rows")
    ends = list(accumulate(counts))
    return counts, [e - n for e, n in zip(ends, counts)], [e - 1 for e in ends]


def last_hidden_head(H: np.ndarray, lengths: Optional[list[int]] = None) -> np.ndarray:
    """Each sequence's final hidden state h_T: (B, dc) rows of the packed
    (N, dc) states."""
    return H[_segments(len(H), lengths)[2]]


def last_hidden_backward(d_repr: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Route the (B, dc) representation gradients to each sequence's h_T: an
    (N, dc) array of zeros with row b of d_repr on sequence b's last row."""
    dH = np.zeros((sum(lengths), d_repr.shape[1]))
    dH[_segments(len(dH), lengths)[2]] = d_repr
    return dH


@dataclass
class AttentionCache:
    H: np.ndarray             # (N, dc) packed hidden states
    segments: tuple           # `_segments` of the run
    S: np.ndarray             # (N, dc) tanh(H W_h^T)
    weights: np.ndarray       # (N,) attention distribution of each sequence
    r: np.ndarray             # (B, dc) attention-weighted state averages
    repr: np.ndarray          # (B, dc)


def attention_head(H: np.ndarray, p: AttentionParams, lengths: Optional[list[int]] = None,
                   ) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
    """Attention over packed (N, dc) hidden states: the (B, dc)
    representations, the (N,) weights, a distribution over each sequence's
    positions, and the backward cache."""
    if H.ndim != 2 or H.shape[1] != p.hidden_dim:
        raise ShapeError(f"hidden state shape {H.shape} != (N, {p.hidden_dim})")
    counts, starts, last = segments = _segments(len(H), lengths)
    S = tanh_v(H @ p.W_h.T)
    scores = S @ p.w
    # Each sequence's softmax, floored and renormalised like `softmax`.
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), counts))
    weights = np.maximum(e / np.repeat(np.add.reduceat(e, starts), counts), PROB_FLOOR)
    weights /= np.repeat(np.add.reduceat(weights, starts), counts)
    r = np.add.reduceat(weights[:, None] * H, starts)
    rep = tanh_v(r @ p.W_p.T + H[last] @ p.W_x.T)
    return rep, weights, AttentionCache(H, segments, S, weights, r, rep)


def attention_backward(p: AttentionParams, cache: AttentionCache, d_repr: np.ndarray,
                       ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backprop (B, dc) representation gradients through the attention head:
    (param grads summed over the sequences, (N, dc) hidden-state grads)."""
    if d_repr.shape != cache.repr.shape:
        raise ValueError(f"upstream gradient shape {d_repr.shape} != {cache.repr.shape}")
    H, weights, S = cache.H, cache.weights, cache.S
    counts, starts, last = cache.segments
    dz = d_repr * (1.0 - cache.repr ** 2)
    dr = np.repeat(dz @ p.W_p, counts, axis=0)
    # r = each sequence's weights @ H, then each sequence's softmax.
    d_alpha = np.einsum("nd,nd->n", H, dr)
    d_scores = weights * (d_alpha - np.repeat(np.add.reduceat(weights * d_alpha, starts),
                                              counts))
    dS = np.outer(d_scores, p.w) * (1.0 - S ** 2)
    dH = weights[:, None] * dr + dS @ p.W_h
    dH[last] += dz @ p.W_x
    grads = {"W_h": dS.T @ H, "w": d_scores @ S,
             "W_p": dz.T @ cache.r, "W_x": dz.T @ H[last]}
    return grads, dH


def classify_with_cache(rep: np.ndarray, p: ClassifierParams) -> np.ndarray:
    """(B, 3) class probabilities of (B, dc) representations; the backward
    pass reads `rep` itself. perfbench's tracer binds this name."""
    if rep.ndim != 2 or rep.shape[1] != p.repr_dim:
        raise ShapeError(f"representation shape {rep.shape} != (B, {p.repr_dim})")
    return softmax(rep @ p.W_s.T + p.b_s)


def classifier_backward(p: ClassifierParams, rep: np.ndarray, d_logits: np.ndarray,
                        ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Grads for the classifier, summed over the rows, and the (B, dc) grads
    of its input `rep`, given (B, 3) logit-space upstream."""
    if d_logits.shape != (len(rep), N_CLASSES):
        raise ValueError(f"logit gradient shape {d_logits.shape} != {(len(rep), N_CLASSES)}")
    grads = {"W_s": d_logits.T @ rep, "b_s": d_logits.sum(axis=0)}
    return grads, d_logits @ p.W_s
