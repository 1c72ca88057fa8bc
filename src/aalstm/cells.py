"""Aspect-aware and classic LSTM cells with exact forward/backward passes.

The aspect-aware cell extends the standard (no-peephole) LSTM with three
aspect gates. At each step the aspect vector ``A`` is constant while the
context word ``x_t`` varies:

    a_i = sigmoid(W_ai [A, h_prev] + b_ai)          aspect-input gate
    i_t = sigmoid(W_i [x_t, h_prev] + a_i * A + b_i)
    a_f = sigmoid(W_af [A, h_prev] + b_af)          aspect-forget gate
    f_t = sigmoid(W_f [x_t, h_prev] + a_f * A + b_f)
    cand = tanh(W_c [x_t, h_prev] + b_c)            no aspect term: the cell
    c_t = f_t * c_prev + i_t * cand                 content stays aspect-free
    a_o = sigmoid(W_ao [A, h_prev] + b_ao)          aspect-output gate
    o_t = sigmoid(W_o [x_t, h_prev] + a_o * A + b_o)
    h_t = o_t * tanh(c_t)

so the aspect only steers information flow through the gates. With A = 0 the
three ``a_* * A`` terms vanish and the step reduces exactly to the classic
cell on the shared core weights. The classic cell is the aspect-aware one
without the aspect gates, so a parameter set's class is its cell kind: code
that needs to know the kind asks ``isinstance(p, AALstmParams)``.

Backward passes are hand-derived backpropagation through time with weight
gradients accumulated across steps (weights are tied over time). The
aspect-aware backward always returns the aspect gradient, summed over every
step the aspect feeds.

Storage. A parameter set's only fields are its row-stacked buffers: the
core gates in ``W_core`` (4*dc, dx+dc) and ``b_core`` (4*dc,) in the order
i, f, o, c, and for the aspect-aware cell the aspect gates in ``W_aspect``
(3*dc, 2*dc) and ``b_aspect`` (3*dc,) in the order a_i, a_f, a_o. The
per-gate names (``W_i``, ..., ``b_ao``) exist only in ``to_arrays()``, as
live row-block views in a fixed key order: in-place writes through them
(the optimizer, gradient checks, restoring the best weights, a checkpoint
load) reach the kernel, and checkpoints do not see the stacking. The
buffers' shapes come from the dims in one place, ``_shapes``.

One kernel runs ``unroll``, and ``classic_lstm_step``/``aa_lstm_step`` as
one-step runs. It runs B sequences at once, sorted longest first so that the
sequences still running at step t are the first rows of its (B, T, .)
buffers. It projects the inputs once per call, over the real rows only, and
the constant aspect once per sequence; per step it does one product of the
running rows' h_prev with the recurrent block (W_core's h columns, with
W_aspect's under them for the aspect-aware cell), one sigmoid per gate group
(a_i/a_f/a_o, then i/f/o) and one tanh for the candidate, writing each gate
activation over its pre-activation. Each sequence's ``SequenceCache`` holds
(T, .) views of the run's arrays. The backward passes, one sequence at a
time, keep one stacked pre-activation gradient per step and take the
recurrent gradient on h_prev with one transposed matvec per group; the
input, aspect and weight gradients follow after the time loop, one matmul
per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .tensor import ParamSet, ShapeError, as_matrix, sigmoid, tanh_v


# Row-block names of each stacked buffer, in row order. The three sigmoid
# gates come first so one sigmoid covers them, and they line up with the
# aspect gates.
_CORE = {"W_core": ("W_i", "W_f", "W_o", "W_c"), "b_core": ("b_i", "b_f", "b_o", "b_c")}
_ASPECT = {"W_aspect": ("W_ai", "W_af", "W_ao"), "b_aspect": ("b_ai", "b_af", "b_ao")}


@dataclass
class CellState:
    """Recurrent state: hidden vector h and cell memory c, both length dc."""

    h: np.ndarray
    c: np.ndarray


def zero_state(hidden_dim: int) -> CellState:
    return CellState(h=np.zeros(hidden_dim), c=np.zeros(hidden_dim))


@dataclass
class SequenceCache:
    """Everything one run over T steps produced, kept for the backward pass.

    ``X`` holds the (T, dx) inputs. ``H`` and ``C`` hold T+1 rows of hidden
    state and cell memory; row 0 is the initial state, row t+1 the state
    after step t. Per step ``ifo`` holds the post-sigmoid i, f, o gates
    stacked, ``c_cand`` the post-tanh candidate and ``tanh_c`` tanh(c_t).
    For aspect-aware runs ``a_gates`` holds the post-sigmoid a_i, a_f, a_o
    stacked; it is None, like ``aspect``, for classic runs.
    """

    X: np.ndarray
    H: np.ndarray
    C: np.ndarray
    ifo: np.ndarray
    c_cand: np.ndarray
    tanh_c: np.ndarray
    aspect: Optional[np.ndarray] = None
    a_gates: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.X.shape[0]


class _StackedParams(ParamSet):
    """What both cells share: their dataclass fields are the stacked buffers.

    A subclass gives ``_BLOCKS`` (buffer -> row-block names, in row order)
    and ``_NAMES`` (the key order of ``to_arrays()``).
    """

    _BLOCKS: dict[str, tuple[str, ...]]
    _NAMES: tuple[str, ...]
    # Seed stream of each weight matrix at init.
    _INIT_STREAM = {"W_i": 0, "W_f": 1, "W_c": 2, "W_o": 3, "W_ai": 10, "W_af": 11, "W_ao": 12}

    @classmethod
    def _shapes(cls, input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
        """Buffer name -> shape; an aspect dim is hidden_dim."""
        dc = hidden_dim
        shapes = {"W_core": (4 * dc, input_dim + dc), "b_core": (4 * dc,),
                  "W_aspect": (3 * dc, 2 * dc), "b_aspect": (3 * dc,)}
        return {key: shapes[key] for key in cls._BLOCKS}

    @property
    def hidden_dim(self) -> int:
        return self.b_core.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.W_core.shape[1] - self.hidden_dim

    @classmethod
    def _named(cls, buffers) -> dict[str, np.ndarray]:
        """Per-gate name -> row-block view of the matching buffer, in `_NAMES`
        order: each buffer splits into equal row blocks, one per name."""
        blocks: dict[str, np.ndarray] = {}
        for key, names in cls._BLOCKS.items():
            rows = buffers[key].shape[0] // len(names)
            blocks.update({name: buffers[key][k * rows:(k + 1) * rows]
                           for k, name in enumerate(names)})
        return {name: blocks[name] for name in cls._NAMES}

    def to_arrays(self) -> dict[str, np.ndarray]:
        return self._named(vars(self))


@dataclass
class ClassicLstmParams(_StackedParams):
    """Standard LSTM weights: four (dc, dx+dc) matrices and four dc biases,
    stacked in ``W_core``/``b_core`` (see module docstring)."""

    W_core: np.ndarray
    b_core: np.ndarray

    _BLOCKS = _CORE
    _NAMES = ("W_i", "W_f", "W_c", "W_o", "b_i", "b_f", "b_c", "b_o")


@dataclass
class AALstmParams(_StackedParams):
    """Aspect-aware LSTM weights.

    Aspect-gate matrices W_a* are (da, dc+da) over [A, h_prev], stacked in
    ``W_aspect``/``b_aspect``; core matrices are (dc, dx+dc) over
    [x_t, h_prev], stacked in ``W_core``/``b_core``. The aspect dimension
    must equal the hidden dimension: a_* * A is added to dc-length gate
    pre-activations.
    """

    W_aspect: np.ndarray
    b_aspect: np.ndarray
    W_core: np.ndarray
    b_core: np.ndarray

    _BLOCKS = {**_ASPECT, **_CORE}
    _NAMES = ("W_ai", "W_af", "W_ao", "W_i", "W_f", "W_c", "W_o",
              "b_ai", "b_af", "b_ao", "b_i", "b_f", "b_c", "b_o")


def _run(p, X: np.ndarray, lengths: list[int], aspects: Optional[np.ndarray],
         prev: CellState) -> list[SequenceCache]:
    """The one kernel: run the cell over B sequences whose rows lie one after
    another in X, `lengths[b]` rows each, every one from state `prev`.
    `aspects` holds one row per sequence, or is None for the classic cell.
    Returns one cache per sequence, in input order. `unroll` validates.

    The run works on (B, T, .) buffers, T the longest length, with the
    sequences sorted longest first, so at step t the sequences still running
    are the first n_t rows and padding is never computed. When every
    sequence has length T, as at B = 1, the buffers are the input
    projection itself and nothing is sorted or copied.
    """
    dx, dc, n_seq = p.input_dim, p.hidden_dim, len(lengths)
    aware = aspects is not None
    W_core = p.W_core
    # The input projection, over the real rows, and the recurrent block, which
    # is formed per call: a cached copy would miss in-place weight updates.
    Z = X @ W_core[:, :dx].T
    Z += p.b_core
    W_hT = np.vstack((W_core[:, dx:], p.W_aspect[:, dc:]) if aware
                     else (W_core[:, dx:],)).T
    n_steps = max(lengths)
    starts = [0, *accumulate(lengths[:-1])]
    if X.shape[0] == n_seq * n_steps:
        order = range(n_seq)
        Z = Z.reshape(n_seq, n_steps, 4 * dc)
    else:
        order = sorted(range(n_seq), key=lengths.__getitem__, reverse=True)
        packed, Z = Z, np.empty((n_seq, n_steps, 4 * dc))
        for row, b in enumerate(order):
            Z[row, :lengths[b]] = packed[starts[b]:starts[b] + lengths[b]]
        if aware:
            aspects = aspects[order]
    if aware:
        # The constant aspect's part of the aspect gates, once per sequence,
        # and the aspect once per gate for the injections a_* * A.
        Z_aspect = aspects @ p.W_aspect[:, :dc].T
        Z_aspect += p.b_aspect
        aspect3 = np.tile(aspects, 3)
        a_gates = np.empty((n_seq, n_steps, 3 * dc))
    H = np.empty((n_seq, n_steps + 1, dc))
    C = np.empty((n_seq, n_steps + 1, dc))
    H[:, 0], C[:, 0] = prev.h, prev.c
    tanh_c = np.empty((n_seq, n_steps, dc))
    ends = [lengths[b] for b in order]
    n = n_seq
    for t in range(n_steps):
        while ends[n - 1] <= t:
            n -= 1
        # One product over the recurrent block; the gate activations then
        # overwrite their pre-activations in Z.
        rec = H[:n, t] @ W_hT
        z = Z[:n, t]
        if aware:
            z += rec[:, :4 * dc]
            a = np.add(rec[:, 4 * dc:], Z_aspect[:n], out=a_gates[:n, t])
            z[:, :3 * dc] += sigmoid(a, out=a) * aspect3[:n]
        else:
            z += rec
        g = sigmoid(z[:, :3 * dc], out=z[:, :3 * dc])
        cand = tanh_v(z[:, 3 * dc:], out=z[:, 3 * dc:])
        c = np.multiply(g[:, dc:2 * dc], C[:n, t], out=C[:n, t + 1])
        c += g[:, :dc] * cand
        tc = tanh_v(c, out=tanh_c[:n, t])
        np.multiply(g[:, 2 * dc:], tc, out=H[:n, t + 1])
    caches = [None] * n_seq
    for row, b in enumerate(order):
        end = lengths[b]
        caches[b] = SequenceCache(
            X[starts[b]:starts[b] + end], H[row, :end + 1], C[row, :end + 1],
            Z[row, :end, :3 * dc], Z[row, :end, 3 * dc:], tanh_c[row, :end],
            aspects[row] if aware else None, a_gates[row, :end] if aware else None)
    return caches


def classic_lstm_step(p: ClassicLstmParams, x: np.ndarray,
                      prev: CellState) -> tuple[CellState, SequenceCache]:
    """One classic LSTM step: a one-step unroll."""
    _, cache = unroll(p, [x], init=prev)
    return CellState(h=cache.H[1], c=cache.C[1]), cache


def aa_lstm_step(p: AALstmParams, x: np.ndarray, aspect: np.ndarray,
                 prev: CellState) -> tuple[CellState, SequenceCache]:
    """One aspect-aware LSTM step (see module docstring for the update rule)."""
    _, cache = unroll(p, [x], aspect, init=prev)
    return CellState(h=cache.H[1], c=cache.C[1]), cache


def unroll(params, xs, aspect: Optional[np.ndarray] = None,
           init: Optional[CellState] = None, lengths: Optional[list[int]] = None):
    """Run the cell over a sequence, threading state; init defaults to zeros.

    `params` selects the cell: AALstmParams requires `aspect`, ClassicLstmParams
    forbids it. `xs` holds one input per step, as a (T, dx) array or a list
    of vectors. Returns the (T, dc) hidden states and the run's cache.

    With `lengths`, one call runs B sequences: `xs` holds their rows one
    after another, `lengths[b]` rows for sequence b, `aspect` holds one row
    per sequence, and every sequence starts from `init`. The call then
    returns a list of B (T_b, dc) hidden-state arrays and a list of B
    caches, each a view of the run's arrays.
    """
    batched = lengths is not None
    if not batched:
        lengths = [len(xs)]
    if min(lengths, default=0) < 1:
        raise ValueError("unroll: empty input sequence")
    aware = isinstance(params, AALstmParams)
    if aware and aspect is None:
        raise ValueError("unroll: aspect vector required for the aspect-aware cell")
    if not aware and aspect is not None:
        raise ValueError("unroll: classic cell takes no aspect vector")
    state = zero_state(params.hidden_dim) if init is None else init
    X, dc = as_matrix(xs), params.hidden_dim
    if X.shape[1] != params.input_dim:
        raise ShapeError(f"input shape {X.shape[1:]} != ({params.input_dim},)")
    if X.shape[0] != sum(lengths):
        raise ShapeError(f"{X.shape[0]} input rows, but the lengths add up to {sum(lengths)}")
    if state.h.shape != (dc,) or state.c.shape != (dc,):
        raise ShapeError(f"state shapes {state.h.shape}/{state.c.shape} != ({dc},)")
    if aware:
        aspects = as_matrix(aspect) if batched else aspect[None]
        if aspects.shape != (len(lengths), dc):
            raise ShapeError(f"aspect shape {np.shape(aspect)} != "
                             f"{(len(lengths), dc) if batched else (dc,)}")
    caches = _run(params, X, list(lengths), aspects if aware else None, state)
    if batched:
        return [cache.H[1:] for cache in caches], caches
    return caches[0].H[1:], caches[0]


def _bptt(p, cache: SequenceCache, dH):
    """BPTT shared by both cells; returns (param grads, input grads, aspect grad).

    dH holds the (T, dc) gradients on the hidden states (a list of T vectors
    also works). dZ[t] is the stacked pre-activation gradient of the core
    gates at step t and dZa[t] that of the aspect gates (aspect-aware cell
    only). Only the recurrent gradients on h and c need the time loop: the
    per-step factors are formed for all steps before it, and the input,
    aspect and weight gradients after it, one matmul per gate group.
    """
    if len(cache) != len(dH):
        raise ValueError(f"got {len(cache)} cached steps but {len(dH)} hidden gradients")
    aware = isinstance(p, AALstmParams)
    n_steps, dx, dc = len(cache), p.input_dim, p.hidden_dim
    ifo = cache.ifo.reshape(n_steps, 3, dc)
    c_cand, tanh_c = cache.c_cand, cache.tanh_c
    # dz = G * [dc_t, dc_t, dh_t, dc_t] blockwise, dc_t being the total
    # gradient on c_t: G holds d(c_t)/d(i, f, cand) and d(h_t)/d(o), each
    # times its gate's activation derivative.
    G = np.empty((n_steps, 4, dc))
    G[:, 0] = c_cand
    G[:, 1] = cache.C[:-1]
    G[:, 2] = tanh_c
    G[:, :3] *= ifo
    G[:, :3] *= 1.0 - ifo
    G[:, 3] = ifo[:, 0] * (1.0 - c_cand ** 2)
    dh_to_dc = ifo[:, 2] * (1.0 - tanh_c ** 2)
    forget = ifo[:, 1]
    W_h = p.W_core[:, dx:]
    dZ = np.empty((n_steps, 4 * dc))
    dZ4 = dZ.reshape(n_steps, 4, dc)
    if aware:
        # z_* gained the term a_* * A, so dz_* splits into a gate part
        # (times A) and a direct aspect part (times a_*).
        a_gates = cache.a_gates
        G_a = np.tile(cache.aspect, 3) * a_gates
        G_a *= 1.0 - a_gates
        W_ah = p.W_aspect[:, dc:]
        dZa = np.empty((n_steps, 3 * dc))
    dh_rec = np.zeros(dc)
    dc_rec = np.zeros(dc)
    for t in reversed(range(n_steps)):
        dh = dH[t] + dh_rec
        d_cell = dh * dh_to_dc[t]
        d_cell += dc_rec
        np.multiply(G[t], d_cell, out=dZ4[t])
        np.multiply(G[t, 2], dh, out=dZ4[t, 2])
        dc_rec = d_cell * forget[t]
        dh_rec = W_h.T @ dZ[t]
        if aware:
            np.multiply(dZ[t, :3 * dc], G_a[t], out=dZa[t])
            dh_rec += W_ah.T @ dZa[t]
    H_prev = cache.H[:-1]
    grads = {"W_core": dZ.T @ np.hstack((cache.X, H_prev)), "b_core": dZ.sum(axis=0)}
    d_aspect = None
    if aware:
        AH = np.hstack((np.tile(cache.aspect, (n_steps, 1)), H_prev))
        grads["W_aspect"] = dZa.T @ AH
        grads["b_aspect"] = dZa.sum(axis=0)
        d_aspect = (dZ[:, :3 * dc] * a_gates).reshape(-1, dc).sum(axis=0)
        d_aspect += p.W_aspect[:, :dc].T @ grads["b_aspect"]
    return p._named(grads), dZ @ p.W_core[:, :dx], d_aspect


def classic_lstm_backward(p: ClassicLstmParams, cache: SequenceCache,
                          dH) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """BPTT for the classic cell: per-parameter grads and (T, dx) input grads."""
    grads, dX, _ = _bptt(p, cache, dH)
    return grads, dX


def aa_lstm_backward(p: AALstmParams, cache: SequenceCache,
                     dH) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """BPTT for the aspect-aware cell.

    Returns (param grads, (T, dx) input grads, aspect grad). The aspect feeds
    every step through all three aspect gates and the three gated injections,
    so its gradient is summed over the whole sequence.
    """
    return _bptt(p, cache, dH)
