"""Shared test utilities: reference kernels and finite differences.

The scalar implementations below use plain Python floats, lists, and
math.exp only, no numpy, so they are an independent oracle for the
vectorized cell code. They and the per-gate oracles read the paper's
per-gate matrices W_g over [x_t, h_prev] (or [A, h_prev]) and biases b_g,
which `gate_arrays` rebuilds from a cell's operand arrays, and
`per_gate_init` is the cell init that drew those matrices one by one. The
per-step cell run, the per-sequence BPTT, the per-gate backward passes and
the two-branch activations are the earlier numpy forms of the batched and
fused kernels, and the per-step attention forward and backward and the
one-instance classifier the earlier forms of the batched heads, kept as
oracles for them. `LoopAdam` is the optimizer step before it was fused into one
blocked pass, `loop_embedding_rows` the word table `load_embeddings` made
when it drew its random rows one by one, `loop_load_embeddings` the loader
before it parsed an embeddings file's values in batches, and
`instance_aspect_vector` the aspect vector of one instance before a run's
were built at once.
`polarity_counts` counts instances per class for the ingestion checks. The per-function metrics
(`oracle_accuracy` through `oracle_report`) are the evaluation report
before it was read off one confusion matrix.
"""

import math
from types import SimpleNamespace

import numpy as np


def scalar_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _mv(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def scalar_classic_step(p, x, h_prev, c_prev):
    """Classic LSTM step over Python lists; p maps names to nested lists."""
    xh = list(x) + list(h_prev)
    i_g = [scalar_sigmoid(s + b) for s, b in zip(_mv(p["W_i"], xh), p["b_i"])]
    f_g = [scalar_sigmoid(s + b) for s, b in zip(_mv(p["W_f"], xh), p["b_f"])]
    cand = [math.tanh(s + b) for s, b in zip(_mv(p["W_c"], xh), p["b_c"])]
    c = [f * cp + i * g for f, cp, i, g in zip(f_g, c_prev, i_g, cand)]
    o_g = [scalar_sigmoid(s + b) for s, b in zip(_mv(p["W_o"], xh), p["b_o"])]
    h = [o * math.tanh(cv) for o, cv in zip(o_g, c)]
    return h, c


def scalar_aa_step(p, x, aspect, h_prev, c_prev):
    """Aspect-aware LSTM step over Python lists; p maps names to nested lists."""
    ah = list(aspect) + list(h_prev)
    xh = list(x) + list(h_prev)
    a_i = [scalar_sigmoid(s + b) for s, b in zip(_mv(p["W_ai"], ah), p["b_ai"])]
    i_g = [scalar_sigmoid(s + g * a + b)
           for s, g, a, b in zip(_mv(p["W_i"], xh), a_i, aspect, p["b_i"])]
    a_f = [scalar_sigmoid(s + b) for s, b in zip(_mv(p["W_af"], ah), p["b_af"])]
    f_g = [scalar_sigmoid(s + g * a + b)
           for s, g, a, b in zip(_mv(p["W_f"], xh), a_f, aspect, p["b_f"])]
    cand = [math.tanh(s + b) for s, b in zip(_mv(p["W_c"], xh), p["b_c"])]
    c = [f * cp + i * g for f, cp, i, g in zip(f_g, c_prev, i_g, cand)]
    a_o = [scalar_sigmoid(s + b) for s, b in zip(_mv(p["W_ao"], ah), p["b_ao"])]
    o_g = [scalar_sigmoid(s + g * a + b)
           for s, g, a, b in zip(_mv(p["W_o"], xh), a_o, aspect, p["b_o"])]
    h = [o * math.tanh(cv) for o, cv in zip(o_g, c)]
    return h, c


_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


def two_branch_sigmoid(v):
    """Boolean-mask two-branch logistic, clamped into open (0, 1)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, _OPEN_LO, _OPEN_HI)


def clipped_tanh(v):
    """Hyperbolic tangent clamped into open (-1, 1) with np.clip."""
    return np.clip(np.tanh(v), -_OPEN_HI, _OPEN_HI)


def filled(p, arrays):
    """`p` with every array of its `to_arrays()` overwritten from `arrays`."""
    for name, out in p.to_arrays().items():
        out[...] = arrays[name]
    return p


# Row block of each gate in a cell's operand arrays.
GATE_ROW = {"i": 0, "f": 1, "o": 2, "c": 3, "ai": 4, "af": 5, "ao": 6}
# Seed stream of each gate's matrix at init.
GATE_STREAM = {"i": 0, "f": 1, "c": 2, "o": 3, "ai": 10, "af": 11, "ao": 12}


def _gate_names(aware):
    """A cell's gates in the per-gate key order: aspect gates first."""
    return ("ai", "af", "ao", "i", "f", "c", "o") if aware else ("i", "f", "c", "o")


def gate_arrays(p):
    """Per-gate copies "W_i" ... "b_ao" of a cell's operand arrays `p` (its
    params, or its grads as `type(params)(**grads)`): W_g is gate g's rows of
    W_x, or of W_a for an aspect gate, beside its rows of W_h."""
    dc = p.W_h.shape[1]
    weights, biases = {}, {}
    for g in _gate_names(hasattr(p, "W_a")):
        k = GATE_ROW[g]
        W_in = p.W_x[k * dc:(k + 1) * dc] if k < 4 else p.W_a[(k - 4) * dc:(k - 3) * dc]
        weights[f"W_{g}"] = np.concatenate((W_in, p.W_h[k * dc:(k + 1) * dc]), axis=1)
        biases[f"b_{g}"] = p.b[k * dc:(k + 1) * dc].copy()
    return {**weights, **biases}


def per_gate_init(cls, dx, dc, lo=-0.1, hi=0.1, seed=0):
    """Per-gate arrays of a fresh cell of class `cls`, drawn the way the cell
    stored them before its weights were grouped by operand: each W_g, of
    (dc, in + dc), one draw of its size from seed stream [seed, stream]; each
    b_g zero."""
    from aalstm.cells import AALstmParams
    from aalstm.tensor import uniform_init
    names = _gate_names(cls is AALstmParams)
    out = {}
    for g in names:
        n_in = dx if GATE_ROW[g] < 4 else dc
        out[f"W_{g}"] = uniform_init(1, dc * (n_in + dc), lo, hi,
                                     seed=[seed, GATE_STREAM[g]]).reshape(dc, n_in + dc)
    out.update({f"b_{g}": np.zeros(dc) for g in names})
    return out


def core(p):
    """The classic cell embedded in an aspect-aware one (shared core weights)."""
    from aalstm.cells import ClassicLstmParams
    dc = p.hidden_dim
    return ClassicLstmParams(p.W_x, p.W_h[:4 * dc], p.b[:4 * dc])


def loop_run(p, X, prev, aspect=None):
    """Per-step run of one sequence from the (h, c) pair `prev`, two matvecs
    a step over [x_t, h_prev] and [A, h_prev]: the per-sequence cache each
    sequence of a batched run must match. `aspect` None runs the classic
    cell."""
    from aalstm.tensor import sigmoid, tanh_v
    n_steps, dc = X.shape[0], p.hidden_dim
    H = np.empty((n_steps + 1, dc))
    C = np.empty((n_steps + 1, dc))
    H[0], C[0] = prev
    ifo = np.empty((n_steps, 3 * dc))
    c_cand = np.empty((n_steps, dc))
    tanh_c = np.empty((n_steps, dc))
    a_gates = None if aspect is None else np.empty((n_steps, 3 * dc))
    W_h, W_ah = p.W_h[:4 * dc], p.W_h[4 * dc:]
    for t, x in enumerate(X):
        z = p.W_x @ x + W_h @ H[t]
        if aspect is not None:
            a = a_gates[t] = sigmoid(p.W_a @ aspect + W_ah @ H[t] + p.b[4 * dc:])
            z[:3 * dc] += a * np.tile(aspect, 3)
        z += p.b[:4 * dc]
        g = ifo[t] = sigmoid(z[:3 * dc])
        c_cand[t] = tanh_v(z[3 * dc:])
        C[t + 1] = g[dc:2 * dc] * C[t] + g[:dc] * c_cand[t]
        tanh_c[t] = tanh_v(C[t + 1])
        H[t + 1] = g[2 * dc:] * tanh_c[t]
    return SimpleNamespace(X=X, H=H, C=C, ifo=ifo, c_cand=c_cand, tanh_c=tanh_c,
                           aspect=aspect, a_gates=a_gates)


def sequence_view(cache, b):
    """Sequence b of a run's CellCache as a per-sequence cache like
    loop_run's, copied, so a later backward pass over the run leaves it be."""
    start, n, r = sum(cache.lengths[:b]), cache.lengths[b], cache.order.index(b)
    aware = cache.aspects is not None
    return SimpleNamespace(
        X=cache.X[start:start + n].copy(), H=cache.H[:n + 1, r].copy(),
        C=cache.C[:n + 1, r].copy(), ifo=cache.Z[:n, :3, r].reshape(n, -1).copy(),
        c_cand=cache.Z[:n, 3, r].copy(), tanh_c=cache.tanh_c[:n, r].copy(),
        aspect=cache.aspects[r].copy() if aware else None,
        a_gates=cache.Z[:n, 4:, r].reshape(n, -1).copy() if aware else None)


def sequence_bptt(p, cache, dH):
    """BPTT over one per-sequence cache, the fused per-sequence form the
    batched backward replaced: (param grads, (T, dx) input grads, aspect
    grad or None). dZ[t] is the stacked pre-activation gradient of the core
    gates at step t and dZa[t] that of the aspect gates."""
    from aalstm.cells import AALstmParams
    aware = isinstance(p, AALstmParams)
    n_steps, dc = cache.X.shape[0], p.hidden_dim
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
    W_h = p.W_h[:4 * dc]
    dZ = np.empty((n_steps, 4 * dc))
    dZ4 = dZ.reshape(n_steps, 4, dc)
    if aware:
        # z_* gained the term a_* * A, so dz_* splits into a gate part
        # (times A) and a direct aspect part (times a_*).
        a_gates = cache.a_gates
        G_a = np.tile(cache.aspect, 3) * a_gates
        G_a *= 1.0 - a_gates
        W_ah = p.W_h[4 * dc:]
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
    grads = {"W_x": dZ.T @ cache.X, "W_h": dZ.T @ H_prev, "b": dZ.sum(axis=0)}
    d_aspect = None
    if aware:
        grads["W_a"] = dZa.T @ np.tile(cache.aspect, (n_steps, 1))
        grads["W_h"] = np.concatenate((grads["W_h"], dZa.T @ H_prev))
        grads["b"] = np.concatenate((grads["b"], dZa.sum(axis=0)))
        d_aspect = (dZ[:, :3 * dc] * a_gates).reshape(-1, dc).sum(axis=0)
        d_aspect += p.W_a.T @ dZa.sum(axis=0)
    return grads, dZ @ p.W_x, d_aspect


def _step_view(cache, t):
    """Step t of a per-sequence cache, under the per-gate names the oracles read."""
    dc = cache.H.shape[1]
    view = SimpleNamespace(x=cache.X[t], h_prev=cache.H[t], c_prev=cache.C[t],
                           c_cand=cache.c_cand[t], tanh_c=cache.tanh_c[t],
                           aspect=cache.aspect)
    view.i_gate, view.f_gate, view.o_gate = cache.ifo[t].reshape(3, dc)
    if cache.a_gates is not None:
        view.ai_gate, view.af_gate, view.ao_gate = cache.a_gates[t].reshape(3, dc)
    return view


def _per_gate_core_backward_step(p, cache, dh, dc_next, grads):
    """Per-gate core backprop of one step; returns (dxh, dz_i, dz_f, dz_o, dc_prev)."""
    do = dh * cache.tanh_c
    dc = dc_next + dh * cache.o_gate * (1.0 - cache.tanh_c ** 2)

    dz_o = do * cache.o_gate * (1.0 - cache.o_gate)
    df = dc * cache.c_prev
    dc_prev = dc * cache.f_gate
    di = dc * cache.c_cand
    dcand = dc * cache.i_gate
    dz_c = dcand * (1.0 - cache.c_cand ** 2)
    dz_f = df * cache.f_gate * (1.0 - cache.f_gate)
    dz_i = di * cache.i_gate * (1.0 - cache.i_gate)

    xh = np.concatenate([cache.x, cache.h_prev])
    grads["W_i"] += np.outer(dz_i, xh)
    grads["W_f"] += np.outer(dz_f, xh)
    grads["W_c"] += np.outer(dz_c, xh)
    grads["W_o"] += np.outer(dz_o, xh)
    grads["b_i"] += dz_i
    grads["b_f"] += dz_f
    grads["b_c"] += dz_c
    grads["b_o"] += dz_o
    w = gate_arrays(p)
    dxh = w["W_i"].T @ dz_i + w["W_f"].T @ dz_f + w["W_c"].T @ dz_c + w["W_o"].T @ dz_o
    return dxh, dz_i, dz_f, dz_o, dc_prev


def per_gate_classic_backward(p, caches, dh_list):
    """Per-gate BPTT for the classic cell: (per-gate param grads, input grads)."""
    dx_in = p.input_dim
    grads = {name: np.zeros_like(arr) for name, arr in gate_arrays(p).items()}
    dxs = [None] * len(caches.X)
    dh_rec = np.zeros(p.hidden_dim)
    dc_rec = np.zeros(p.hidden_dim)
    for t in reversed(range(len(caches.X))):
        dxh, _, _, _, dc_rec = _per_gate_core_backward_step(
            p, _step_view(caches, t), dh_list[t] + dh_rec, dc_rec, grads)
        dxs[t] = dxh[:dx_in]
        dh_rec = dxh[dx_in:]
    return grads, dxs


def per_gate_aa_backward(p, caches, dh_list):
    """Per-gate BPTT for the aspect-aware cell: (per-gate param grads, input
    grads, aspect grad)."""
    dx_in = p.input_dim
    da = p.hidden_dim  # the aspect-aware cell's aspect dim
    grads = {name: np.zeros_like(arr) for name, arr in gate_arrays(p).items()}
    dxs = [None] * len(caches.X)
    d_aspect = np.zeros(da)
    dh_rec = np.zeros(p.hidden_dim)
    dc_rec = np.zeros(p.hidden_dim)
    for t in reversed(range(len(caches.X))):
        cache = _step_view(caches, t)
        dxh, dz_i, dz_f, dz_o, dc_rec = _per_gate_core_backward_step(
            p, cache, dh_list[t] + dh_rec, dc_rec, grads)

        dz_ai = (dz_i * cache.aspect) * cache.ai_gate * (1.0 - cache.ai_gate)
        dz_af = (dz_f * cache.aspect) * cache.af_gate * (1.0 - cache.af_gate)
        dz_ao = (dz_o * cache.aspect) * cache.ao_gate * (1.0 - cache.ao_gate)

        ah = np.concatenate([cache.aspect, cache.h_prev])
        grads["W_ai"] += np.outer(dz_ai, ah)
        grads["W_af"] += np.outer(dz_af, ah)
        grads["W_ao"] += np.outer(dz_ao, ah)
        grads["b_ai"] += dz_ai
        grads["b_af"] += dz_af
        grads["b_ao"] += dz_ao

        w = gate_arrays(p)
        dah = w["W_ai"].T @ dz_ai + w["W_af"].T @ dz_af + w["W_ao"].T @ dz_ao
        d_aspect += dz_i * cache.ai_gate + dz_f * cache.af_gate + dz_o * cache.ao_gate
        d_aspect += dah[:da]
        dxs[t] = dxh[:dx_in]
        dh_rec = dxh[dx_in:] + dah[da:]
    return grads, dxs, d_aspect


def loop_attention_head(hs, p):
    """Per-step attention forward over a list of hidden states:
    (representation, weights, cache for loop_attention_backward)."""
    from aalstm.heads import softmax
    from aalstm.tensor import tanh_v
    u = [tanh_v(p.W_h @ h) for h in hs]
    scores = np.array([p.w @ ut for ut in u])
    weights = softmax(scores)
    r = np.zeros(p.hidden_dim)
    for alpha, h in zip(weights, hs):
        r = r + alpha * h
    rep = tanh_v(p.W_p @ r + p.W_x @ hs[-1])
    cache = SimpleNamespace(hs=hs, u=u, weights=weights, r=r, repr=rep)
    return rep, weights, cache


def loop_attention_backward(p, cache, d_repr):
    """Per-step attention backward: (param grads, one gradient per hidden
    state)."""
    hs, weights, u = cache.hs, cache.weights, cache.u
    dc = p.hidden_dim
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

    for t, (ds, ut) in enumerate(zip(d_scores, u)):
        grads["w"] += ds * ut
        dg = (ds * p.w) * (1.0 - ut ** 2)
        grads["W_h"] += np.outer(dg, hs[t])
        dhs[t] += p.W_h.T @ dg
    return grads, dhs


def loop_classify(rep, p):
    """Classifier forward over one (dc,) representation: the earlier
    one-instance form of the batched classifier."""
    from aalstm.heads import softmax
    return softmax(p.W_s @ rep + p.b_s)


def loop_classifier_backward(p, rep, d_logits):
    """Classifier backward of one instance: (param grads, (dc,) input grad)."""
    return {"W_s": np.outer(d_logits, rep), "b_s": d_logits.copy()}, p.W_s.T @ d_logits


class LoopAdam:
    """The unfused optimizer step, kept as the oracle for `train.Adam`: the
    batch scale over every gradient, then the L2 gradient added to the
    regularized ones, then Adam one whole-array operation at a time."""

    def __init__(self, params, lr, l2=0.0, regularized=()):
        self.params, self.lr, self.l2 = params, lr, l2
        self.regularized = list(regularized) if l2 > 0 else []
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads, scale=1.0):
        from aalstm.train import _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS, l2_grad
        grads = {k: g.copy() for k, g in grads.items()}
        for k in grads:
            grads[k] *= scale
        for k in self.regularized:
            grads[k] += l2_grad(self.params[k], self.l2)
        self.t += 1
        c1 = 1.0 - _ADAM_BETA1 ** self.t
        c2 = 1.0 - _ADAM_BETA2 ** self.t
        for name in sorted(self.params):
            g, p, m, v = grads[name], self.params[name], self.m[name], self.v[name]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)


def loop_embedding_rows(rows, vocab, dim, seed=0):
    """(matrix, oov_tokens) that `load_embeddings` gives for a file of `rows`
    (token -> values), with the random rows drawn the earlier way: one
    U(INIT_LOW, INIT_HIGH) draw of `dim` per missing token, in vocabulary
    order, from seed stream [seed, 41]."""
    from aalstm.tensor import INIT_HIGH, INIT_LOW, make_rng
    matrix = np.zeros((len(vocab), dim))
    rng = make_rng([seed, 41])
    oov = []
    for token, idx in sorted(vocab.items(), key=lambda kv: kv[1]):
        if token in rows:
            matrix[idx] = rows[token]
        else:
            matrix[idx] = rng.uniform(INIT_LOW, INIT_HIGH, size=dim)
            oov.append(token)
    return matrix, frozenset(oov)


def loop_load_embeddings(path, vocab: dict[str, int], dim: int, seed=0):
    """Embedding table for `vocab` from a whitespace text file.

    File rows are `token v1 ... v_dim`. Vocabulary tokens found in the file
    get the file's values; the rest are drawn from U(INIT_LOW, INIT_HIGH) in
    one seeded draw, in vocabulary order. A token with spaces in it (GloVe
    has `. . .`) is skipped: `tokenize_with_offsets` never emits one. A
    vocabulary token followed by more or fewer than `dim` numbers, or by a
    non-number or a non-finite one, is a DataFormatError, as is invalid UTF-8.

    This is `load_embeddings` before it parsed single-spaced lines in
    batches: every vocabulary line goes through `float` one value at a time.
    """
    from aalstm.data import (DataFormatError, EmbeddingTable, _is_number,
                             _numbered_lines)
    from aalstm.tensor import INIT_HIGH, INIT_LOW, uniform_init
    matrix = np.zeros((len(vocab), dim))
    found = set()
    for lineno, line in _numbered_lines(path):
        # Most lines of a real file are outside the vocabulary: split off only
        # the token, and the numbers only for vocabulary tokens.
        fields = line.split(maxsplit=1)
        if not fields or fields[0] not in vocab:
            continue
        token, values = fields[0], fields[1].split() if len(fields) > 1 else []
        if len(values) > dim and not all(map(_is_number, values[:-dim])):
            continue
        if len(values) != dim:
            raise DataFormatError(
                f"{path}:{lineno}: expected {dim} values for {token!r}, got {len(values)}")
        try:
            row = matrix[vocab[token]]
            row[:] = [float(v) for v in values]
            if not np.isfinite(row).all():
                raise ValueError("values must be finite")
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: {token!r}: {e}") from None
        found.add(token)
    oov = sorted(vocab.keys() - found, key=vocab.__getitem__)
    matrix[[vocab[t] for t in oov]] = uniform_init(len(oov), dim, INIT_LOW, INIT_HIGH,
                                                   seed=[seed, 41])
    return EmbeddingTable(vocab=dict(vocab), matrix=matrix, oov_tokens=frozenset(oov))


def polarity_counts(instances) -> tuple[int, int, int]:
    """(positive, negative, neutral) instance counts."""
    counts = [0, 0, 0]
    for inst in instances:
        counts[inst.label] += 1
    return tuple(counts)


def instance_aspect_vector(inst, embeddings, aspect_embeddings=None) -> np.ndarray:
    """One instance's aspect vector: the mean of its span tokens' rows of the
    word table, or its category's row of the category table."""
    aspect = inst.aspect
    if hasattr(aspect, "index"):
        return aspect_embeddings.matrix[aspect.index]
    vocab = embeddings.vocab
    return np.mean([embeddings.matrix[vocab.get(inst.tokens[i], vocab["<unk>"])]
                    for i in range(aspect.start, aspect.end + 1)], axis=0)


_N_CLASSES = 3


def _check_pairs(preds, golds):
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    if len(preds) == 0:
        raise ValueError("no predictions to score")
    for v in list(preds) + list(golds):
        if not 0 <= int(v) < _N_CLASSES:
            raise ValueError(f"label {v} outside 0..{_N_CLASSES - 1}")


def oracle_accuracy(preds, golds) -> float:
    _check_pairs(preds, golds)
    hits = sum(1 for p, g in zip(preds, golds) if int(p) == int(g))
    return hits / len(preds)


def oracle_confusion_matrix(preds, golds) -> np.ndarray:
    """Counts with gold on rows, prediction on columns."""
    _check_pairs(preds, golds)
    m = np.zeros((_N_CLASSES, _N_CLASSES), dtype=np.int64)
    for p, g in zip(preds, golds):
        m[int(g), int(p)] += 1
    return m


def oracle_per_class_prf(preds, golds) -> list[tuple[float, float, float]]:
    m = oracle_confusion_matrix(preds, golds)
    out = []
    for c in range(_N_CLASSES):
        tp = m[c, c]
        predicted = m[:, c].sum()
        gold = m[c, :].sum()
        p = tp / predicted if predicted else 0.0
        r = tp / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) else 0.0
        out.append((float(p), float(r), float(f1)))
    return out


def oracle_macro_f1(preds, golds) -> float:
    return sum(f1 for _, _, f1 in oracle_per_class_prf(preds, golds)) / _N_CLASSES


def oracle_report(preds, golds):
    """An EvalReport whose fields come from the per-function metrics."""
    from aalstm.metrics import EvalReport
    return EvalReport(n=len(preds), accuracy=oracle_accuracy(preds, golds),
                      macro_f1=oracle_macro_f1(preds, golds),
                      per_class=oracle_per_class_prf(preds, golds),
                      confusion=oracle_confusion_matrix(preds, golds))


def params_as_lists(params) -> dict:
    """A cell's per-gate arrays as nested lists, for the scalar oracles."""
    return {name: arr.tolist() for name, arr in gate_arrays(params).items()}


def fd_grad_of_array(loss_fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of arr.

    loss_fn takes no arguments and must read arr by reference; entries are
    perturbed in place and restored.
    """
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = loss_fn()
        flat[k] = orig - eps
        lo = loss_fn()
        flat[k] = orig
        gflat[k] = (hi - lo) / (2.0 * eps)
    return grad


def worst_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """Max relative error over coordinates whose numeric magnitude exceeds floor."""
    worst = 0.0
    for a, n in zip(analytic.reshape(-1), numeric.reshape(-1)):
        if abs(n) <= floor:
            continue
        worst = max(worst, abs(a - n) / max(abs(a), abs(n)))
    return worst
