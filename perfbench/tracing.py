"""Span tracer for the benchmark's traced run.

The tracer wraps aalstm's public functions from outside the package, at the
binding each caller resolves. `model.py` imports `unroll`,
`aa_lstm_backward`, `attention_head` and the rest by name, and `cells.py` and
`heads.py` import `sigmoid` and `tanh_v` by name, so patching only the
defining module would miss every call made through those names. Each span
name below therefore lists every module attribute that holds the function.

Spans (name, parent, unit, start, end) are kept in memory in flat arrays and
written to one file when the run ends. A span's self time is its duration
minus the durations of its child spans; calls run on one thread, so children
never overlap. Work is grouped into units: a "setup" unit per set-up
repetition and a "cycle" unit per repetition of the workload's timed work.
Every per-layer metric is the median over the units of its phase.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# Span name -> "module:attribute" or "module:Class.method" bindings.
BINDINGS = {
    "tensor.sigmoid": ["aalstm.tensor:sigmoid", "aalstm.cells:sigmoid"],
    "tensor.tanh": ["aalstm.tensor:tanh_v", "aalstm.cells:tanh_v",
                    "aalstm.heads:tanh_v"],
    "cells.forward": ["aalstm.cells:unroll", "aalstm.model:unroll"],
    "cells.backward": ["aalstm.cells:aa_lstm_backward",
                       "aalstm.cells:classic_lstm_backward",
                       "aalstm.model:aa_lstm_backward",
                       "aalstm.model:classic_lstm_backward"],
    "heads.forward": ["aalstm.heads:attention_head",
                      "aalstm.heads:last_hidden_head",
                      "aalstm.heads:classify_with_cache",
                      "aalstm.model:attention_head",
                      "aalstm.model:last_hidden_head",
                      "aalstm.model:classify_with_cache"],
    "heads.backward": ["aalstm.heads:attention_backward",
                       "aalstm.heads:last_hidden_backward",
                       "aalstm.heads:classifier_backward",
                       "aalstm.model:attention_backward",
                       "aalstm.model:last_hidden_backward",
                       "aalstm.model:classifier_backward"],
    "model.forward": ["aalstm.model:SentimentModel.forward"],
    "model.backward": ["aalstm.model:SentimentModel.backward"],
    "train.loop": ["aalstm.train:train"],
    "train.adam": ["aalstm.train:Adam.step"],
    "train.evaluate": ["aalstm.train:evaluate"],
    "metrics.report": ["aalstm.metrics:EvalReport.from_predictions"],
    "data.parse_xml": ["aalstm.data:parse_semeval_xml"],
    "data.load_embeddings": ["aalstm.data:load_embeddings"],
    "data.aspect_vector": ["aalstm.data:build_aspect_vector",
                           "aalstm.model:build_aspect_vector"],
    "checkpoint.load": ["aalstm.checkpoint:load_checkpoint"],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_steps(add, args, kwargs):
    add("cells.steps", len(_arg(args, kwargs, 1, "xs")))


def _count_emb_grad(add, args, kwargs):
    model, cache = _arg(args, kwargs, 0, "self"), _arg(args, kwargs, 1, "cache")
    if model.train_embeddings:
        rows, dim = model.embeddings.matrix.shape
        add("model.emb_grad_bytes", rows * dim * 8)
        add("model.emb_grad_rows_allocated", rows)
        add("model.emb_grad_rows_touched", len(set(cache.indices)))


def _count_adam_elems(add, args, kwargs):
    grads = _arg(args, kwargs, 1, "grads")
    add("train.adam_elems", sum(g.size for g in grads.values()))


def _count_embedding_lines(add, args, kwargs):
    lines = 0
    with open(_arg(args, kwargs, 0, "path"), "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
    add("data.embedding_file_lines", lines)


def _count_checkpoint_bytes(add, args, kwargs):
    add("checkpoint.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# Span name -> (computed counters it feeds, hook run before the span starts).
# Hooks derive counts from the call's arguments, so they repeat exactly for
# the same inputs; their own cost falls outside the span they count.
HOOKS = {
    "cells.forward": (("cells.steps",), _count_steps),
    "model.backward": (("model.emb_grad_bytes", "model.emb_grad_rows_allocated",
                        "model.emb_grad_rows_touched"), _count_emb_grad),
    "train.adam": (("train.adam_elems",), _count_adam_elems),
    "data.load_embeddings": (("data.embedding_file_lines",), _count_embedding_lines),
    "checkpoint.load": (("checkpoint.bytes",), _count_checkpoint_bytes),
}

_COUNTER_SPAN = {c: span for span, (counters, _) in HOOKS.items() for c in counters}

# Per-layer metric -> (phase, kind, source). Kinds: "self" is summed self
# time of the span, "calls" its number of spans, "counter" a computed count,
# "frac" a ratio of two computed counts, "inclusive_under" the summed
# duration of spans of `source[0]` whose parent is a span of `source[1]`.
METRICS = {
    "tensor.sigmoid_s": ("cycle", "self", "tensor.sigmoid"),
    "tensor.sigmoid_calls": ("cycle", "calls", "tensor.sigmoid"),
    "tensor.tanh_s": ("cycle", "self", "tensor.tanh"),
    "tensor.tanh_calls": ("cycle", "calls", "tensor.tanh"),
    "cells.forward_s": ("cycle", "self", "cells.forward"),
    "cells.forward_calls": ("cycle", "calls", "cells.forward"),
    "cells.steps": ("cycle", "counter", "cells.steps"),
    "cells.backward_s": ("cycle", "self", "cells.backward"),
    "heads.forward_s": ("cycle", "self", "heads.forward"),
    "heads.backward_s": ("cycle", "self", "heads.backward"),
    "model.forward_self_s": ("cycle", "self", "model.forward"),
    "model.backward_self_s": ("cycle", "self", "model.backward"),
    "model.emb_grad_bytes": ("cycle", "counter", "model.emb_grad_bytes"),
    "model.emb_grad_rows_touched_frac": (
        "cycle", "frac", ("model.emb_grad_rows_touched", "model.emb_grad_rows_allocated")),
    "train.adam_s": ("cycle", "self", "train.adam"),
    "train.adam_calls": ("cycle", "calls", "train.adam"),
    "train.adam_elems": ("cycle", "counter", "train.adam_elems"),
    "train.dev_eval_s": ("cycle", "inclusive_under", ("train.evaluate", "train.loop")),
    "train.loop_self_s": ("cycle", "self", "train.loop"),
    "data.parse_xml_s": ("setup", "self", "data.parse_xml"),
    "data.load_embeddings_s": ("setup", "self", "data.load_embeddings"),
    "data.embedding_file_lines": ("setup", "counter", "data.embedding_file_lines"),
    "data.aspect_vector_s": ("cycle", "self", "data.aspect_vector"),
    "data.aspect_vector_calls": ("cycle", "calls", "data.aspect_vector"),
    "checkpoint.load_s": ("setup", "self", "checkpoint.load"),
    "checkpoint.bytes": ("setup", "counter", "checkpoint.bytes"),
    "metrics.report_s": ("cycle", "self", "metrics.report"),
}

_UNIT_SPAN = {"setup": "bench.setup", "cycle": "bench.cycle"}


def _resolve(binding):
    """(owner, attribute, current value) for a binding; raises if missing."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # Class attributes are read raw so a classmethod stays a classmethod.
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


class Tracer:
    """Spans in flat arrays, plus computed counters per unit.

    With `enabled` false `unit` does nothing, so the untraced run pays
    nothing. Wrappers are installed only for the duration of a traced unit.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names = list(_UNIT_SPAN.values()) + list(BINDINGS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_unit = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.unit_kind: list[str] = []
        self.counters: dict[tuple[int, str], int] = {}
        self.broken_counters: set[str] = set()
        self._stack = [-1]
        self._unit = -1
        self.installed_spans: set[str] = set()
        if enabled:
            self._plan = self._plan_patches()

    def _plan_patches(self):
        """Resolve every binding once, skipping those that do not exist."""
        plan = []
        for name, bindings in BINDINGS.items():
            for binding in bindings:
                try:
                    owner, attr, value = _resolve(binding)
                except (ImportError, AttributeError, KeyError):
                    continue
                plan.append((owner, attr, value, self._wrap(value, name)))
                self.installed_spans.add(name)
        return plan

    def _add(self, counter, value):
        key = (self._unit, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, value, name):
        name_id = self._name_id[name]
        counters, hook = HOOKS.get(name, ((), None))
        is_classmethod = isinstance(value, classmethod)
        fn = value.__func__ if is_classmethod else value
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None and not tracer.broken_counters.issuperset(counters):
                try:
                    hook(tracer._add, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    tracer.broken_counters.update(counters)
            sid = len(tracer.span_t0)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_unit.append(tracer._unit)
            tracer.span_t0.append(0.0)
            tracer.span_t1.append(0.0)
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.span_t0[sid] = start
                tracer.span_t1[sid] = end

        return classmethod(wrapper) if is_classmethod else wrapper

    @contextlib.contextmanager
    def unit(self, kind: str, traced: bool):
        """Group the enclosed work as one setup or cycle unit."""
        if not (self.enabled and traced):
            yield
            return
        self._unit = len(self.unit_kind)
        self.unit_kind.append(kind)
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)
        sid = len(self.span_t0)
        self.span_name.append(self._name_id[_UNIT_SPAN[kind]])
        self.span_parent.append(-1)
        self.span_unit.append(self._unit)
        self.span_t0.append(perf_counter())
        self.span_t1.append(0.0)
        self._stack.append(sid)
        try:
            yield
        finally:
            self.span_t1[sid] = perf_counter()
            self._stack.pop()
            for owner, attr, original, _ in self._plan:
                setattr(owner, attr, original)
            self._unit = -1

    def _arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int64),
                np.frombuffer(self.span_unit, dtype=np.int32),
                np.frombuffer(self.span_t0, dtype=np.float64),
                np.frombuffer(self.span_t1, dtype=np.float64))

    def write(self, path) -> None:
        """Write every span and the name table to one .npz file."""
        name, parent, unit, t0, t1 = self._arrays()
        with open(path, "wb") as fh:
            np.savez_compressed(fh, names=np.array(self.names), name=name,
                                parent=parent, unit=unit, t0=t0, t1=t1,
                                unit_kind=np.array(self.unit_kind))

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics (median over units of each metric's phase) and
        the names of metrics left absent because their functions are gone."""
        name, parent, unit, t0, t1 = self._arrays()
        n_names, n_units = len(self.names), len(self.unit_kind)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        key = unit.astype(np.int64) * n_names + name
        size = n_units * n_names
        self_time = np.bincount(key, weights=dur - child, minlength=size).reshape(n_units, n_names)
        calls = np.bincount(key, minlength=size).reshape(n_units, n_names)

        out, absent = {}, []
        for metric, (phase, kind, source) in METRICS.items():
            units = [u for u, k in enumerate(self.unit_kind) if k == phase]
            if kind in ("self", "calls"):
                if source not in self.installed_spans:
                    absent.append(metric)
                    continue
                table = self_time if kind == "self" else calls
                values = [float(table[u, self._name_id[source]]) for u in units]
            elif kind == "inclusive_under":
                inner, outer = source
                if not {inner, outer} <= self.installed_spans:
                    absent.append(metric)
                    continue
                under = (name == self._name_id[inner]) & has_parent
                under[has_parent] &= name[parent[has_parent]] == self._name_id[outer]
                per_unit = np.bincount(unit[under], weights=dur[under], minlength=n_units)
                values = [float(per_unit[u]) for u in units]
            else:
                needed = source if kind == "frac" else (source,)
                if not all(_COUNTER_SPAN[c] in self.installed_spans
                           and c not in self.broken_counters for c in needed):
                    absent.append(metric)
                    continue
                if kind == "counter":
                    values = [self.counters.get((u, source), 0) for u in units]
                else:
                    top, bottom = source
                    values = [self.counters.get((u, top), 0) / self.counters[(u, bottom)]
                              if self.counters.get((u, bottom)) else 0.0 for u in units]
            if not values:
                absent.append(metric)
                continue
            out[metric] = float(np.median(values))
        return out, absent


def metric_unit(metric: str) -> str:
    """Unit of a per-layer metric; `-computed` marks counts derived from
    call arguments rather than measured."""
    if metric == "trace.overhead_frac":
        return "ratio"
    kind = METRICS[metric][1]
    if kind == "calls":
        return "count"
    if kind == "counter":
        return "B-computed" if metric.endswith("bytes") else "count-computed"
    if kind == "frac":
        return "ratio-computed"
    return "s"
