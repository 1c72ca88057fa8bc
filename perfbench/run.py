"""aalstm benchmark: one workload per process, timed from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-train --seed 3 --seconds 35 --trace 0

The harness imports `aalstm` from `src/` of the current directory and drives
it only through public functions: `data.parse_semeval_xml`,
`data.build_vocab`, `data.load_embeddings`, `data.generate_synthetic`,
`data.dev_split`, `data.random_embeddings`, `model.build_model`,
`SentimentModel.predict` and `predict_probs`, `train.train`,
`train.evaluate`, `train.cross_entropy`, `checkpoint.save_checkpoint` and
`checkpoint.load_checkpoint`.

A run makes its inputs from `--seed` (untimed), then repeats one "cycle"
for `--seconds`: the workload's set-up, timed on its own, then its timed
work. Every cycle does the same work on the same inputs, in short timed
units (a set-up, a training epoch, an `evaluate` call on a few instances, a
single `predict`), so each unit is repeated in every cycle. A unit's time is
a percentile of its repetitions, the workload's `quantile` (see
`unit_time`): rates are a cycle's instances over the sum of its units'
times, and latency percentiles are taken over the instances' predict times.
Outputs are checked after the timed part; `failed / attempted` is the share
of checks that failed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` every other cycle, starting with the
first, runs with every layer's public functions wrapped in spans (see
tracing.py) and the JSON object holds the per-layer metrics, including the
tracing overhead measured against the untraced cycles. Lines before it are the same metrics for people.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import sys
from statistics import median
from time import perf_counter

import numpy as np

import inputs
from tracing import Tracer, metric_unit

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# synth-train: the criterion-5 corpus (300 sentences, so 480 train, 120 dev
# and 300 test instances) with the synthetic hyperparameters the CLI pins,
# copied here so that a later change to the CLI cannot change the workload.
# Two epochs, because the first epoch's mean loss sits too close to that of
# a model that does not learn at all (ln 3) to guard learning.
SYNTH_SENTENCES = 300
SYNTH_HPARAMS = dict(lr=0.02, batch_size=8, dropout=0.1, l2=0.0001,
                     emb_dim=24, hidden_dim=24)
SYNTH_EPOCHS = 2
# Test instances whose single predict calls are timed, so that twelve
# latencies lie beyond p90.
SYNTH_PREDICTS = 120

# paper-train and paper-eval: the paper's shape (d = hidden = 300, aa cell,
# attention head, atsa) with TrainConfig defaults for everything else.
PAPER_DIM = 300
PAPER_WORDS = 3200            # vocabulary words in the training file
PAPER_FILE_BLOCKS = 150       # 900 sentences, 1200 instances
PAPER_GLOVE_LINES = 20000
PAPER_GLOVE_SHARE = 0.9       # share of the vocabulary found in the file
# One batch of training per cycle keeps a cycle short, so that each timed
# unit is repeated six times or more in a run.
PAPER_TRAIN_BLOCKS = 2        # 16 training instances (one batch) per train call
PAPER_DEV_BLOCKS = 1          # 8 dev instances
PAPER_HELD_BLOCKS = 2         # 16 held-out instances
PAPER_EVAL_BLOCKS = 13        # 104 instances in the paper-eval test file, so
                              # ten or more predict latencies lie beyond p90
PAPER_EVAL_UNSEEN_RATE = 0.03
# Instances per `evaluate` call: one block, so a call is a short unit.
EVAL_CHUNK = inputs.INSTANCES_PER_BLOCK


class Checks:
    """Counts output checks; a failed check is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)

    def probs(self, p, what: str) -> None:
        """A probability vector is finite, inside (0, 1) and sums to 1."""
        p = np.asarray(p)
        self.check(p.shape == (3,) and bool(np.all(np.isfinite(p)))
                   and bool(np.all((p > 0.0) & (p < 1.0)))
                   and abs(float(p.sum()) - 1.0) <= 1e-12, f"{what}: bad probabilities {p}")


class Measurements:
    """Raw samples of one run; end_to_end() reduces them to metrics.

    `main` and `eval` map the key of a timed unit of work to the instances it
    handles and the seconds of each of its repetitions, in every cycle.
    `predict_ms` maps an instance's index to its predict latencies."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.main: dict = {}
        self.eval: dict = {}
        self.predict_ms: dict[int, list[float]] = {}
        self.predicted: dict[int, int] = {}
        self.loss: float | None = None
        self.quantile = 50
        self.warmup_wall = 0.0
        self.cycle_wall = {False: [], True: []}

    @staticmethod
    def add(table: dict, key, instances: int, seconds: float) -> None:
        table.setdefault(key, (instances, []))[1].append(seconds)

    def clear_samples(self) -> None:
        for samples in (self.setup_s, self.main, self.eval, self.predict_ms):
            samples.clear()


class Run:
    """What a workload needs: the package, its arguments and the sinks."""

    def __init__(self, aal, seed, seconds, trace, work):
        self.data, self.model, self.train, self.checkpoint = aal
        self.seed, self.seconds, self.trace, self.work = seed, seconds, trace, work
        self.tracer = Tracer(trace)
        self.checks = Checks()
        self.meas = Measurements()


def _import_aalstm():
    """Import aalstm from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "aalstm", "__init__.py")):
        sys.exit(f"error: {SRC}/aalstm not found; run from the root of an aalstm checkout")
    sys.path.insert(0, SRC)
    import aalstm
    if os.path.dirname(os.path.realpath(aalstm.__file__)) != os.path.realpath(
            os.path.join(SRC, "aalstm")):
        sys.exit(f"error: imported aalstm from {aalstm.__file__}, not from {SRC}")
    from aalstm import checkpoint, data, model, train
    return data, model, train, checkpoint


def run_workload(run: Run, workload) -> None:
    """Prepare inputs, then run cycles of [set-up, timed work] for the run's
    seconds, then check the outputs of the last cycle.

    Set-up runs inside every cycle, so its samples are spread over the run
    like the other metrics' samples. With `workload.warmup` the first cycle
    is left out of every metric. At the paper's shape it pays one-off costs,
    such as the allocator first mapping the large per-instance gradient
    arrays, and ran about 30% slower than later cycles; at d=24 it does not.
    Later cycles start only while the previous cycle's length still fits in
    the time left, so a run lasts about `seconds` whatever the cycle length.
    In a traced run even cycles are traced and odd ones are not, so both see
    the same drift.
    """
    workload.prepare(run)
    meas = run.meas
    meas.quantile = workload.quantile
    state = None

    def cycle(traced):
        nonlocal state
        with run.tracer.unit("setup", traced):
            for _ in range(workload.setup_reps):
                t0 = perf_counter()
                state = workload.setup(run)
                meas.setup_s.append(perf_counter() - t0)
        with run.tracer.unit("cycle", traced):
            workload.work(run, state)

    start = perf_counter()
    last = 0.0
    if workload.warmup:
        cycle(False)
        meas.clear_samples()
        last = meas.warmup_wall = perf_counter() - start
    i = 0
    while i < (2 if run.trace else 1) or perf_counter() - start + last <= run.seconds:
        traced = run.trace and i % 2 == 0
        t0 = perf_counter()
        cycle(traced)
        last = perf_counter() - t0
        meas.cycle_wall[traced].append(last)
        i += 1
    workload.finish(run, state)


class SynthTrain:
    """Criterion-5 stand-in: aa+last then classic+last on the synthetic corpus."""

    setup_reps = 5    # one set-up takes about 20 ms
    warmup = False
    quantile = 90     # see unit_time

    def prepare(self, run):
        self.cfg = run.train.TrainConfig(seed=run.seed, max_epochs=SYNTH_EPOCHS,
                                         patience=SYNTH_EPOCHS, **SYNTH_HPARAMS)

    def setup(self, run):
        train_insts, test, emb = run.data.generate_synthetic(
            SYNTH_SENTENCES, seed=run.seed, dim=self.cfg.emb_dim)
        tr, dev = run.data.dev_split(train_insts, self.cfg.dev_fraction, run.seed)
        # Each model trains its own copy of the table: training updates it in place.
        models = {cell: run.model.build_model(
            "atsa", cell, "last",
            run.data.EmbeddingTable(dict(emb.vocab), emb.matrix.copy(), emb.oov_tokens),
            self.cfg.hidden_dim, seed=run.seed) for cell in ("aa", "classic")}
        return tr, dev, test, models

    def work(self, run, state):
        tr, dev, test, models = state
        run.checks.check(len(tr) + len(dev) == 2 * SYNTH_SENTENCES
                         and len(test) == 2 * (SYNTH_SENTENCES // 2), "synthetic corpus size")
        losses = []
        for cell, m in models.items():
            # Every epoch does the same work, so a cell's epochs share a key.
            losses.append(_train_once(run, cell, m, tr, dev, self.cfg))
            _timed_evaluate(run, cell, m, test, equal_lengths=True)
            # The trained aa model predicts after each training, so each
            # instance is timed at two points of the cycle.
            self.predicts(run, state)
        if all(math.isfinite(v) for v in losses):
            run.meas.loss = sum(losses) / len(losses)

    def predicts(self, run, state):
        _, _, test, models = state
        _timed_predicts(run, models["aa"], test[:SYNTH_PREDICTS])

    def finish(self, run, state):
        _, _, test, models = state
        for cell, m in models.items():
            _check_held_out(run, m, test, f"synth {cell}",
                            run.meas.predicted if cell == "aa" else {})


class PaperTrain:
    """The paper's shape: aa cell, attention head, d = hidden = 300."""

    setup_reps = 1
    warmup = True
    quantile = 50     # see unit_time

    def prepare(self, run):
        words = inputs.make_words(inputs.rng_for(run.seed, 1), PAPER_WORDS)
        sentences = inputs.make_sentences(inputs.rng_for(run.seed, 2), PAPER_FILE_BLOCKS,
                                          words, cover_all=True)
        self.xml_path = os.path.join(run.work, "train.xml")
        self.glove_path = os.path.join(run.work, "glove.txt")
        self.n_written = inputs.write_review_xml(self.xml_path, sentences)
        glove_rng = inputs.rng_for(run.seed, 3)
        inputs.write_glove(self.glove_path, glove_rng, inputs.glove_lines(
            glove_rng, words, PAPER_GLOVE_LINES, PAPER_GLOVE_SHARE), PAPER_DIM)
        self.cfg = run.train.TrainConfig(seed=run.seed, max_epochs=1, patience=1)

    def setup(self, run):
        insts = run.data.parse_semeval_xml(self.xml_path, "atsa")
        vocab = run.data.build_vocab(insts)
        emb = run.data.load_embeddings(self.glove_path, vocab, PAPER_DIM, run.seed)
        m = run.model.build_model("atsa", "aa", "attention", emb, PAPER_DIM, seed=run.seed)
        return insts, m

    def _held(self, insts):
        per = inputs.INSTANCES_PER_BLOCK
        start = (PAPER_TRAIN_BLOCKS + PAPER_DEV_BLOCKS) * per
        return insts[start:start + PAPER_HELD_BLOCKS * per]

    def work(self, run, state):
        insts, m = state
        run.checks.check(len(insts) == self.n_written,
                         f"parsed {len(insts)} instances, generator wrote {self.n_written}")
        per = inputs.INSTANCES_PER_BLOCK
        n_tr, n_dev = PAPER_TRAIN_BLOCKS * per, PAPER_DEV_BLOCKS * per
        loss = _train_once(run, "aa", m, insts[:n_tr], insts[n_tr:n_tr + n_dev], self.cfg)
        _timed_evaluate(run, "held-out", m, self._held(insts))
        self.predicts(run, state)
        if math.isfinite(loss):
            run.meas.loss = loss

    def predicts(self, run, state):
        insts, m = state
        _timed_predicts(run, m, self._held(insts))

    def finish(self, run, state):
        insts, m = state
        _check_held_out(run, m, self._held(insts), "paper-train", run.meas.predicted)


class PaperEval:
    """The forward-only read path: load a checkpoint, parse, evaluate, predict."""

    setup_reps = 3    # one set-up takes about 25 ms
    warmup = True
    quantile = 50     # see unit_time

    def prepare(self, run):
        words = inputs.make_words(inputs.rng_for(run.seed, 1), PAPER_WORDS)
        vocab = {"<unk>": 0, **{w: i + 1 for i, w in enumerate(words)}}
        emb = run.data.random_embeddings(vocab, PAPER_DIM, seed=run.seed)
        self.in_memory = run.model.build_model("atsa", "aa", "attention", emb,
                                               PAPER_DIM, seed=run.seed)
        self.ckpt_path = os.path.join(run.work, "checkpoint.npz")
        run.checkpoint.save_checkpoint(self.in_memory, self.ckpt_path)
        test_rng = inputs.rng_for(run.seed, 4)
        unseen = inputs.make_words(test_rng, 200, taken=frozenset(words))
        self.xml_path = os.path.join(run.work, "test.xml")
        self.n_written = inputs.write_review_xml(self.xml_path, inputs.make_sentences(
            test_rng, PAPER_EVAL_BLOCKS, words, cover_all=False, unseen=unseen,
            unseen_rate=PAPER_EVAL_UNSEEN_RATE))

    def setup(self, run):
        return (run.checkpoint.load_checkpoint(self.ckpt_path),
                run.data.parse_semeval_xml(self.xml_path, "atsa"))

    def work(self, run, state):
        m, insts = state
        run.checks.check(len(insts) == self.n_written,
                         f"parsed {len(insts)} instances, generator wrote {self.n_written}")
        # The whole `aalstm eval` path: one set-up plus evaluate. The set-up
        # unit handles no instances of its own.
        run.meas.add(run.meas.main, "setup", 0, run.meas.setup_s[-1])
        _timed_evaluate(run, "test", m, insts, also_main=True)
        self.predicts(run, state)

    def predicts(self, run, state):
        _timed_predicts(run, *state)

    def finish(self, run, state):
        m, insts = state
        losses = []
        for k, inst in enumerate(insts):
            p = m.predict_probs(inst)
            run.checks.probs(p, f"paper-eval instance {k}")
            run.checks.check(np.array_equal(p, self.in_memory.predict_probs(inst)),
                             f"paper-eval instance {k}: checkpoint round trip changed "
                             f"the prediction")
            run.checks.check(run.meas.predicted.get(k) == int(np.argmax(p)),
                             f"paper-eval instance {k}: predict disagrees with predict_probs")
            losses.append(run.train.cross_entropy(p, inst.label))
        run.meas.loss = sum(losses) / len(losses)


WORKLOADS = {"synth-train": SynthTrain, "paper-train": PaperTrain, "paper-eval": PaperEval}


def _timed_evaluate(run: Run, key, m, instances, equal_lengths=False,
                    also_main=False) -> None:
    """`train.evaluate` on each block of EVAL_CHUNK instances, each call
    timed as its own unit. When every instance has the same length, blocks
    of the same size do the same work and share a key."""
    for i in range(0, len(instances), EVAL_CHUNK):
        chunk = instances[i:i + EVAL_CHUNK]
        t0 = perf_counter()
        report = run.train.evaluate(m, chunk)
        wall = perf_counter() - t0
        run.checks.check(report.n == len(chunk), "evaluate covered every instance")
        unit = (key, len(chunk)) if equal_lengths else (key, i)
        for table in (run.meas.eval, run.meas.main) if also_main else (run.meas.eval,):
            run.meas.add(table, unit, len(chunk), wall)


def _timed_predicts(run: Run, m, instances) -> None:
    """One timed single-instance `predict` call per instance."""
    for k, inst in enumerate(instances):
        t0 = perf_counter()
        label = m.predict(inst)
        run.meas.predict_ms.setdefault(k, []).append((perf_counter() - t0) * 1e3)
        run.meas.predicted[k] = label


class EpochClock:
    """Log stream for `train.train`: notes when each epoch's row is written."""

    def __init__(self):
        self.stamps = [perf_counter()]

    def write(self, text: str) -> None:
        if text[:1].isdigit():    # an epoch row, not the header
            self.stamps.append(perf_counter())

    def flush(self) -> None:
        pass


def _train_once(run: Run, key, m, tr, dev, cfg) -> float:
    """One `train.train` call, each epoch timed as its own unit (from the
    call's start or the previous epoch's row to this epoch's row, dev eval
    included); returns the last epoch's objective. A diverged run is a failed
    check and a NaN objective, not a crash."""
    clock = EpochClock()
    try:
        result = run.train.train(m, tr, dev, cfg, log_stream=clock)
    except run.train.TrainingDiverged as exc:
        run.checks.check(False, f"training diverged: {exc}")
        return math.nan
    for t0, t1 in zip(clock.stamps, clock.stamps[1:]):
        run.meas.add(run.meas.main, key, len(tr), t1 - t0)
    loss = result.logs[-1].train_loss
    run.checks.check(len(result.logs) == cfg.max_epochs,
                     f"ran {len(result.logs)} of {cfg.max_epochs} fixed epochs")
    run.checks.check(math.isfinite(loss), f"training loss {loss} is not finite")
    return loss


def _check_held_out(run: Run, m, instances, what, predicted) -> None:
    """Probabilities of every instance are valid, and agree with the labels
    the timed predict calls returned."""
    for k, inst in enumerate(instances):
        p = m.predict_probs(inst)
        run.checks.probs(p, f"{what} instance {k}")
        if k in predicted:
            run.checks.check(predicted[k] == int(np.argmax(p)),
                             f"{what} instance {k}: predict disagrees with predict_probs")


def machine() -> dict:
    """nproc, Python, numpy, and the BLAS numpy links with its thread count."""
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                break
    return info


END_TO_END_UNITS = {"setup_s": "s", "inst_per_s": "1/s", "eval_inst_per_s": "1/s",
                    "predict_ms_p50": "ms", "predict_ms_p90": "ms", "loss": "nats",
                    "peak_rss_mb": "MB"}


def unit_time(times: list[float], quantile: float) -> float:
    """A repeated unit's time: the `quantile` percentile of its repetitions.

    The shared host this benchmark was tuned on switches between a fast and
    a slow CPU speed every few seconds and at times stays slow for minutes,
    so the share of a run spent on each level changes from run to run. The
    slow level stretches synth-train's units (d=24, interpreter-bound) by
    1.4 to 1.8 times, so their median jumps between the levels from run to
    run; at least a tenth of every run seen fell on the slow level, so their
    90th percentile stays on it. It stretches the paper-shape units (d=300,
    mostly BLAS) by about 1.2 times; each of them repeats only six or so
    times in a run, so their 90th percentile is their slowest repetition and
    the median is steadier (README.md, "Bounds and steadiness")."""
    return float(np.percentile(times, quantile))


def rate(table: dict, quantile: float) -> float:
    """Instances per second: the run's instances over the run's units, each
    unit counted at its time."""
    return (sum(n * len(times) for n, times in table.values())
            / sum(unit_time(times, quantile) * len(times) for _, times in table.values()))


def predict_latencies(meas: Measurements) -> list[float]:
    """Each instance's predict latency, in ms."""
    return [unit_time(times, meas.quantile) for times in meas.predict_ms.values()]


def end_to_end(meas: Measurements) -> dict[str, float]:
    out = {}
    if meas.setup_s:
        out["setup_s"] = unit_time(meas.setup_s, meas.quantile)
    for name, table in (("inst_per_s", meas.main), ("eval_inst_per_s", meas.eval)):
        if table:
            out[name] = rate(table, meas.quantile)
    if meas.predict_ms:
        latencies = predict_latencies(meas)
        out["predict_ms_p50"] = float(np.percentile(latencies, 50))
        out["predict_ms_p90"] = float(np.percentile(latencies, 90))
    if meas.loss is not None:
        out["loss"] = meas.loss
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    aal = _import_aalstm()
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work)
    run = Run(aal, args.seed, args.seconds, bool(args.trace), work)
    try:
        run_workload(run, WORKLOADS[args.workload]())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    absent = []
    if run.trace:
        run.tracer.write(os.path.join(WORK, f"spans-{args.workload}.npz"))
        values, absent = run.tracer.metrics()
        walls = run.meas.cycle_wall
        values["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1.0
        units = {name: metric_unit(name) for name in values}
    else:
        values = end_to_end(run.meas)
        units = END_TO_END_UNITS
    checks, meas = run.checks, run.meas

    info = machine()
    print(f"machine: nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
          f"blas={info['blas']} blas_threads={info['blas_threads']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cycles={len(meas.cycle_wall[False])}"
          f"+{len(meas.cycle_wall[True])} traced setup_samples={len(meas.setup_s)} "
          f"quantile={meas.quantile}")
    print(f"  cycle walls (s): warm-up {meas.warmup_wall:.3f}, then " + " ".join(
        f"{w:.3f}{'t' if traced else ''}" for traced in (False, True)
        for w in meas.cycle_wall[traced]))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if meas.predict_ms and not run.trace:
        reps = sorted(len(times) for times in meas.predict_ms.values())
        print(f"  predict latencies: {len(reps)} instances, "
              f"{reps[0]} to {reps[-1]} calls each")
    print(f"  fail_frac = {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for what in checks.first_failures:
        print(f"  failed check: {what}")
    if absent:
        print(f"  absent (function not found): {', '.join(absent)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
