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
gradients accumulated across steps and sequences (weights are tied over
time). One backward serves both cells: it returns each sequence's aspect
gradient, summed over every step the aspect feeds (None for the classic cell).

Storage. A parameter set's fields are the arrays the kernel reads, grouped
by operand like PyTorch's ``weight_ih``/``weight_hh``: ``W_x`` (4*dc, dx)
multiplies x_t, ``W_h`` (G*dc, dc) multiplies h_prev and ``b`` is (G*dc,),
their row blocks being the gates i, f, o, c and, for the aspect-aware cell
(G = 7, else 4), a_i, a_f, a_o, whose input is the aspect, through ``W_a``
(3*dc, dc). The paper's W_g [x_t, h_prev] is gate g's rows of W_x (or W_a)
beside its rows of W_h. ``to_arrays()`` returns the fields themselves, so
in-place writes (the optimizer, gradient checks, restoring the best
weights, a checkpoint load) reach the kernel. The shapes come from the dims
in one place, ``_shapes``.

One kernel runs ``unroll``; one step is a one-row run. It runs B sequences
at once, sorted longest first so that the sequences still running at step t
are the first rows of each batch axis.
Its buffers are time-major with the gate group ahead of the batch row:
gates (T, G, B, dc), G = 4 (i, f, o, c) or 7 (plus a_i, a_f, a_o), and
states (T+1, B, dc). A step's block of one gate group over its running rows
is then one contiguous run of memory, so each of the step's elementwise
operations is one pass over it, not one short pass per batch row cut from
a longer row (a sigmoid over an (8, 72) block took half the time).
It projects the inputs once per call, over the real rows only, and the
constant aspect once per sequence; per step it does one product of the
running rows' h_prev with ``W_h`` into one row-major scratch, adds it into
the step's group blocks, and takes one sigmoid per gate group (a_i/a_f/a_o,
then i/f/o) and one tanh for the candidate, writing each gate activation
over its pre-activation. The run's
``CellCache`` is those buffers. The backward pass runs once per run over
them: per step it writes the running rows' gate pre-activation gradients
over their activations and takes the recurrent gradient on h_prev with one
product of those gradients, as row-major rows, with ``W_h``; after the
time loop the weight, input and aspect gradients are one matmul each over
the run's real rows, gathered in input order. The products over ``W_h`` are
never split per gate group, whose partial sums would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import INIT_HIGH, INIT_LOW, ParamSet, ShapeError, sigmoid, tanh_v, uniform_init

# Seed stream of each gate's weights at init, in row order: i, f, o, c, then
# a_i, a_f, a_o. The three sigmoid gates come first so one sigmoid covers
# them, and they line up with the aspect gates.
_GATE_STREAMS = (0, 1, 3, 2, 10, 11, 12)


@dataclass
class CellCache:
    """One run over B sequences, kept for its backward pass.

    ``X`` holds the N = sum(lengths) input rows, one sequence after another.
    The others are the run's time-major buffers, batch row r holding
    sequence ``order[r]``, longest first. ``H`` and ``C`` are (T+1, B, dc):
    T+1 steps of hidden state and cell memory, step 0 the initial state.
    ``Z`` is (T, G, B, dc), one (B, dc) block per step and gate group: the
    post-sigmoid i, f, o, the post-tanh candidate and, for the aspect-aware
    cell (G = 7, else 4), the post-sigmoid a_i, a_f, a_o. ``tanh_c`` is
    (T, B, dc), tanh(c_t); ``aspects`` holds each row's aspect (None for the
    classic cell). Entries past a sequence's length are never written. The
    backward pass reads the live weights, so a cache must be consumed before
    they are updated in place, as training does. It writes over ``Z`` and
    drops it, so a cache serves one backward pass. ``packed`` is the step and
    the batch row of each input row, for B > 1 (None for one sequence).
    """

    X: np.ndarray
    lengths: list[int]
    order: list[int]
    H: np.ndarray
    C: np.ndarray
    Z: Optional[np.ndarray]
    tanh_c: np.ndarray
    aspects: Optional[np.ndarray]
    packed: Optional[tuple[np.ndarray, np.ndarray]]


class _CellParams(ParamSet):
    """What both cells share: their fields are the operand arrays (see the
    module docstring), and ``to_arrays()`` returns them as they are."""

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[1]

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, lo: float = INIT_LOW,
             hi: float = INIT_HIGH, seed=0):
        """Each gate's (dc, in+dc) matrix over [input, h_prev] from U(lo, hi)
        seeded [seed, stream], split into its input rows and its ``W_h`` rows;
        the biases zero."""
        p, dc = cls.empty(input_dim, hidden_dim), hidden_dim
        inputs = np.split(p.W_x, 4) + (np.split(p.W_a, 3) if isinstance(p, AALstmParams)
                                       else [])
        for W_in, W_hid, stream in zip(inputs, np.split(p.W_h, len(inputs)), _GATE_STREAMS):
            W = uniform_init(dc, W_in.shape[1] + dc, lo, hi, seed=[seed, stream])
            W_in[...], W_hid[...] = W[:, :-dc], W[:, -dc:]
        p.b[...] = 0.0
        return p


@dataclass
class ClassicLstmParams(_CellParams):
    """Standard LSTM weights, rows i, f, o, c (see module docstring)."""

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    @staticmethod
    def _shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
        dc = hidden_dim
        return {"W_x": (4 * dc, input_dim), "W_h": (4 * dc, dc), "b": (4 * dc,)}


@dataclass
class AALstmParams(_CellParams):
    """Aspect-aware LSTM weights, rows i, f, o, c, a_i, a_f, a_o; the aspect
    gates read [A, h_prev] through ``W_a`` and ``W_h``'s last 3*dc rows. The
    aspect dimension must equal the hidden dimension: a_* * A is added to
    dc-length gate pre-activations.
    """

    W_x: np.ndarray
    W_a: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    @staticmethod
    def _shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
        dc = hidden_dim
        return {"W_x": (4 * dc, input_dim), "W_a": (3 * dc, dc), "W_h": (7 * dc, dc),
                "b": (7 * dc,)}


def _run(p, X: np.ndarray, lengths: list[int], aspects: Optional[np.ndarray],
         init: Optional[tuple]) -> CellCache:
    """The one kernel: run the cell over B sequences whose rows lie one after
    another in X, `lengths[b]` rows each, every one from the (h, c) pair
    `init`, or from zeros when it is None.
    `aspects` holds one row per sequence, or is None for the classic cell.
    `unroll` validates.

    The run works on time-major buffers, T the longest length: ``Z`` is
    (T, G, B, dc), G the number of gate groups, and ``H``/``C`` (T+1, B, dc).
    The sequences are sorted longest first, so at step t the sequences still
    running are the first n_t rows of every group and padding is never
    computed; each gate group's block of a step, and each state's, is then
    one contiguous (n_t, dc) run of memory, which every elementwise
    operation of the step walks in one pass. At B = 1 the input projection
    is written straight into the buffer and nothing is sorted or copied.
    """
    dc, n_seq = p.hidden_dim, len(lengths)
    aware = aspects is not None
    n_steps, n_groups = max(lengths), 7 if aware else 4
    order = sorted(range(n_seq), key=lengths.__getitem__, reverse=True)
    Z = np.empty((n_steps, n_groups, n_seq, dc))
    # The input projection, over the real rows.
    proj = Z.reshape(n_steps, -1)[:, :4 * dc] if n_seq == 1 else np.empty((len(X), 4 * dc))
    np.matmul(X, p.W_x.T, out=proj)
    proj += p.b[:4 * dc]
    packed = None
    if n_seq > 1:
        packed = steps, rows = _packed(lengths, order)
        Z[steps, :4, rows] = proj.reshape(-1, 4, dc)
        if aware:
            aspects = aspects[order]
    if aware:
        # The constant aspect's part of the aspect gates, once per sequence,
        # laid out (3, B, dc) like the gate groups it feeds.
        Z_aspect = aspects @ p.W_a.T
        Z_aspect += p.b[4 * dc:]
        Z_aspect = np.ascontiguousarray(Z_aspect.reshape(n_seq, 3, dc).transpose(1, 0, 2))
    H = np.empty((n_steps + 1, n_seq, dc))
    C = np.empty((n_steps + 1, n_seq, dc))
    H[0], C[0] = (0.0, 0.0) if init is None else init
    tanh_c = np.empty((n_steps, n_seq, dc))
    # The step's recurrent product lands in `rec`, one (B, G dc) row-major
    # block so the product is never split per group; `rec_g` is its group view.
    rec = np.empty((n_seq, n_groups * dc))
    rec_g = rec.reshape(n_seq, n_groups, dc).transpose(1, 0, 2)
    W_hT = p.W_h.T
    ends = [lengths[b] for b in order]
    n = n_seq
    for t in range(n_steps):
        while ends[n - 1] <= t:
            n -= 1
        # One product with W_h, added into the step's group blocks; the gate
        # activations then overwrite their pre-activations.
        np.matmul(H[t, :n], W_hT, out=rec[:n])
        z = Z[t, :, :n]
        z[:4] += rec_g[:4, :n]
        if aware:
            a = np.add(rec_g[4:, :n], Z_aspect[:, :n], out=z[4:])
            z[:3] += sigmoid(a, out=a) * aspects[:n]
        g = sigmoid(z[:3], out=z[:3])
        cand = tanh_v(z[3], out=z[3])
        c = np.multiply(g[1], C[t, :n], out=C[t + 1, :n])
        c += g[0] * cand
        tc = tanh_v(c, out=tanh_c[t, :n])
        np.multiply(g[2], tc, out=H[t + 1, :n])
    return CellCache(X, lengths, order, H, C, Z, tanh_c, aspects, packed)


def unroll(params, xs: np.ndarray, aspect: Optional[np.ndarray] = None,
           init: Optional[tuple] = None, lengths: Optional[list[int]] = None):
    """Run the cell over B sequences, threading state from `init`, an (h, c)
    pair of (dc,) arrays like PyTorch's (h_0, c_0); without it, from zeros.

    `xs` is an (N, dx) array holding the sequences' rows one after another,
    `lengths[b]` rows for sequence b; without `lengths` it is one sequence.
    `params` selects the cell: AALstmParams requires `aspect`, a (B, dc)
    array of one row per sequence, and ClassicLstmParams forbids it.
    Returns the (N, dc) hidden states, laid out like `xs` (for one sequence
    a view of the run's buffer), and the run's cache.
    """
    X, dc = np.asarray(xs, dtype=np.float64), params.hidden_dim
    lengths = [len(X)] if lengths is None else list(lengths)
    if min(lengths, default=0) < 1:
        raise ValueError("unroll: empty input sequence")
    aware = isinstance(params, AALstmParams)
    if aware and aspect is None:
        raise ValueError("unroll: aspect vector required for the aspect-aware cell")
    if not aware and aspect is not None:
        raise ValueError("unroll: classic cell takes no aspect vector")
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeError(f"input shape {X.shape} != (N, {params.input_dim})")
    if X.shape[0] != sum(lengths):
        raise ShapeError(f"{X.shape[0]} input rows, but the lengths add up to {sum(lengths)}")
    if init is not None and [np.shape(v) for v in init] != [(dc,), (dc,)]:
        raise ShapeError(f"init shapes {[np.shape(v) for v in init]} != [({dc},), ({dc},)]")
    if aware and np.shape(aspect) != (len(lengths), dc):
        raise ShapeError(f"aspect shape {np.shape(aspect)} != {(len(lengths), dc)}")
    cache = _run(params, X, lengths, aspect, init)
    if len(lengths) == 1:
        return cache.H[1:, 0], cache
    steps, rows = cache.packed
    return cache.H[steps + 1, rows], cache


def _packed(lengths: list[int], order: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The step and the buffer row of each of a run's N input rows."""
    lengths = np.array(lengths)
    starts = np.cumsum(lengths) - lengths
    return (np.arange(lengths.sum()) - np.repeat(starts, lengths),
            np.repeat(np.argsort(order), lengths))


def _bptt(p, cache: CellCache, dH: np.ndarray):
    """BPTT for either cell over one run; returns (param grads summed over
    the run's sequences, (N, dx) input grads, (B, dc) aspect grads summed
    over each sequence's steps, None for the classic cell).

    dH holds the (N, dc) gradients on the hidden states, laid out like the
    run's input rows. Only the recurrent gradients on h and c need the time
    loop. It walks the run's steps backwards and writes the running rows'
    gate pre-activation gradients over their activations, group by group in Z:
    sigmoid' * [dc_t * cand, dc_t * c_prev, dh_t * tanh(c_t)] for i, f, o
    and tanh' * dc_t * i for the candidate, dc_t being the total gradient on
    c_t. z_* gained the term a_* * A, so dz_* also reaches the aspect gate
    a_* (times A) and the aspect itself (times a_*). The weight, input and
    aspect gradients follow the loop, one matmul each over the real rows.
    """
    if cache.Z is None:
        raise ValueError("this run's cache was already used by a backward pass")
    if len(dH) != len(cache.X):
        raise ValueError(f"got {len(cache.X)} cached steps but {len(dH)} hidden gradients")
    aware = isinstance(p, AALstmParams)
    dc = p.hidden_dim
    Z, C, tanh_c = cache.Z, cache.C, cache.tanh_c
    n_steps, _, n_seq = Z.shape[:3]
    lengths, order = np.array(cache.lengths), np.array(cache.order)
    starts, row_of = np.cumsum(lengths) - lengths, np.argsort(order)
    row_starts, ends = starts[order], lengths[order]
    dh_rec = np.zeros((n_seq, dc))
    dc_rec = np.zeros((n_seq, dc))
    if aware:
        d_direct = np.zeros((3, n_seq, dc))
    n = 0
    for t in reversed(range(n_steps)):
        while n < n_seq and ends[n] > t:
            n += 1
        z = Z[t, :, :n]
        ifo, cand, tc = z[:3], z[3], tanh_c[t, :n]
        dh = dH[row_starts[:n] + t]
        dh += dh_rec[:n]
        d_cell = dh * ifo[2] * (1.0 - tc * tc)
        d_cell += dc_rec[:n]
        np.multiply(d_cell, ifo[1], out=dc_rec[:n])
        dz_cand = d_cell * ifo[0] * (1.0 - cand * cand)
        ifo *= 1.0 - ifo
        ifo[0] *= d_cell * cand
        ifo[1] *= d_cell * C[t, :n]
        ifo[2] *= dh * tc
        cand[...] = dz_cand
        if aware:
            a = z[4:]
            d_direct[:, :n] += ifo * a
            a *= (1.0 - a) * ifo * cache.aspects[:n]
        # The step's gate gradients as (n, G dc) rows (a copy, except at one
        # row), one product with W_h.
        np.matmul(z.transpose(1, 0, 2).reshape(n, -1), p.W_h, out=dh_rec[:n])
    # Each real row's gate gradients, in input order. Dropping Z and its
    # views frees them before the weight-gradient matmuls.
    steps, rows = cache.packed or _packed(cache.lengths, cache.order)
    dZ, H_prev = Z[steps, :, rows].reshape(len(steps), -1), cache.H[steps, rows]
    cache.Z = Z = z = ifo = cand = a = None
    grads = {"W_x": dZ[:, :4 * dc].T @ cache.X}
    d_aspect = None
    if aware:
        dZa = dZ[:, 4 * dc:]
        grads["W_a"] = dZa.T @ cache.aspects[rows]
        d_aspect = d_direct[:, row_of].sum(axis=0)
        d_aspect += np.add.reduceat(dZa, starts, axis=0) @ p.W_a
    grads["W_h"], grads["b"] = dZ.T @ H_prev, dZ.sum(axis=0)
    return grads, dZ[:, :4 * dc] @ p.W_x, d_aspect


# One function under two names; perfbench's tracer wraps both, in cells and model.
aa_lstm_backward = classic_lstm_backward = _bptt
