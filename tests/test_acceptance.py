"""Acceptance suite: one test per release criterion, numbered 1 through 8.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Two criteria depend on external data and skip unless the
environment points at it:

    AALSTM_SEMEVAL_DIR  directory holding the official 2014 benchmark XML
                        files (restaurant train + test gold; laptop files
                        are checked too when present)
    AALSTM_GLOVE        path to a 300-dim GloVe text file, used by the
                        full-scale stretch comparison (criterion 7)

Criterion 7 is informational: when it runs and the result falls outside
the expected band it reports xfail (investigate), not a build failure.
"""

import io
import os
import time
from pathlib import Path

import numpy as np
import pytest

from aalstm.cells import AALstmParams, CellState, aa_lstm_step, classic_lstm_step
from aalstm.checkpoint import load_checkpoint
from aalstm.cli import main, pipeline_grad_report, run_bench
from aalstm.data import (
    EmbeddingTable,
    build_vocab,
    dev_split,
    load_embeddings,
    parse_semeval_xml,
    polarity_counts,
)
from aalstm.model import build_model
from aalstm.tensor import make_rng
from aalstm.train import TrainConfig, evaluate, train

FIXTURE = Path(__file__).parent / "fixtures" / "mini_reviews.xml"

_SEMEVAL_ENV = "AALSTM_SEMEVAL_DIR"
_GLOVE_ENV = "AALSTM_GLOVE"

_COMBOS = (
    ("classic", "last"),
    ("classic", "attention"),
    ("aa", "last"),
    ("aa", "attention"),
)

_AA_BIASES = ("b_ai", "b_af", "b_ao", "b_i", "b_f", "b_c", "b_o")


def random_aa_params(dx, dc, lo, hi, seed, rng):
    """U(lo, hi) weights via init, plus random biases (init zeroes them)."""
    p = AALstmParams.init(dx, dc, lo=lo, hi=hi, seed=seed)
    for name in _AA_BIASES:
        getattr(p, name)[:] = rng.uniform(lo, hi, dc)
    return p


def test_criterion_1_bptt_matches_finite_differences():
    """Every cell/head pipeline gradient within 1e-4 of central differences.

    dx=4, dc=da=6, T=5, 20 seeds per combination. The floor skips
    coordinates whose gradient is at most 1e-6 on both sides: the
    difference quotient carries roughly 1e-11 of roundoff for an O(1)
    loss, so relative error is unmeasurable below that scale (a wrong
    formula cannot hide there; it would have to match the true gradient
    to within 1e-6 on every such coordinate anyway).
    """
    worst = 0.0
    where = ""
    for cell_kind, head_kind in _COMBOS:
        for seed in range(20):
            rep = pipeline_grad_report(cell_kind, head_kind, dx=4, dc=6,
                                       seq_len=5, seed=seed, floor=1e-6)
            assert rep.n_checked > 0
            if rep.worst_rel_err > worst:
                worst = rep.worst_rel_err
                where = (f"{cell_kind}+{head_kind} seed {seed} "
                         f"at {rep.worst_name}{list(rep.worst_index)}")
    assert worst < 1e-4, f"worst relative error {worst:.3e} ({where})"


def test_criterion_2_zero_aspect_reduces_to_classic():
    """With A = 0 the aspect-aware step equals the classic step on the
    shared core weights, to 1e-12 per coordinate, 200 random triples in
    under a second."""
    rng = make_rng([2024, 2])
    started = time.perf_counter()
    for trial in range(200):
        dx = int(rng.integers(1, 7))
        dc = int(rng.integers(1, 7))
        p_aa = random_aa_params(dx, dc, lo=-1.5, hi=1.5, seed=[500, trial], rng=rng)
        p_classic = p_aa.core()
        x = rng.uniform(-2.0, 2.0, dx)
        h_prev = rng.uniform(-1.0, 1.0, dc)
        c_prev = rng.uniform(-2.0, 2.0, dc)
        state_aa, _ = aa_lstm_step(p_aa, x, np.zeros(dc),
                                   CellState(h=h_prev.copy(), c=c_prev.copy()))
        state_cl, _ = classic_lstm_step(p_classic, x,
                                        CellState(h=h_prev.copy(), c=c_prev.copy()))
        assert np.max(np.abs(state_aa.h - state_cl.h)) <= 1e-12
        assert np.max(np.abs(state_aa.c - state_cl.c)) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_3_vectorized_step_matches_scalar_oracle():
    """aa_lstm_step agrees with the pure-Python scalar loop to 1e-12 on
    100 random instances of varying dimension."""
    from helpers import params_as_lists, scalar_aa_step

    rng = make_rng([2024, 3])
    for trial in range(100):
        dx = int(rng.integers(1, 7))
        dc = int(rng.integers(1, 7))
        p = random_aa_params(dx, dc, lo=-1.2, hi=1.2, seed=[600, trial], rng=rng)
        x = rng.uniform(-2.0, 2.0, dx)
        aspect = rng.uniform(-2.0, 2.0, dc)
        h_prev = rng.uniform(-1.0, 1.0, dc)
        c_prev = rng.uniform(-2.0, 2.0, dc)
        state, _ = aa_lstm_step(p, x, aspect,
                                CellState(h=h_prev.copy(), c=c_prev.copy()))
        h_ref, c_ref = scalar_aa_step(params_as_lists(p), x.tolist(), aspect.tolist(),
                                      h_prev.tolist(), c_prev.tolist())
        assert np.max(np.abs(state.h - np.array(h_ref))) <= 1e-12
        assert np.max(np.abs(state.c - np.array(c_ref))) <= 1e-12


def test_criterion_4_gate_and_hidden_range_invariants():
    """All six gates stay strictly inside (0, 1) and h strictly inside
    (-1, 1) over 1e5 random steps: 1000 parameter draws, 100 chained
    steps each, with deliberately hot scales (weights U(-2,2), inputs and
    aspect U(-3,3))."""
    rng = make_rng([2024, 4])
    n_steps = 0
    violations = 0
    for draw in range(1000):
        dx = int(rng.integers(1, 7))
        dc = int(rng.integers(1, 7))
        p = random_aa_params(dx, dc, lo=-2.0, hi=2.0, seed=[700, draw], rng=rng)
        aspect = rng.uniform(-3.0, 3.0, dc)
        state = CellState(h=rng.uniform(-1.0, 1.0, dc), c=rng.uniform(-3.0, 3.0, dc))
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, dx)
            state, cache = aa_lstm_step(p, x, aspect, state)
            for g in (cache.i_gate, cache.f_gate, cache.o_gate,
                      cache.ai_gate, cache.af_gate, cache.ao_gate):
                if not (0.0 < g.min() and g.max() < 1.0):
                    violations += 1
            if not (-1.0 < state.h.min() and state.h.max() < 1.0):
                violations += 1
            n_steps += 1
    assert n_steps == 100_000
    assert violations == 0


def test_criterion_5_synthetic_benchmark_separates_cells(tmp_path):
    """On the seeded two-aspect corpus the aspect-aware cell solves the
    test split while the aspect-blind classic cell cannot beat chance on
    the disambiguation subset.

    Thresholds were tightened from the first full run (aspect-aware
    0.9967, classic disambiguation exactly 0.5000, 44.5 s): aspect-aware
    test accuracy >= 0.97, classic disambiguation accuracy <= 0.55, total
    runtime < 90 s. The classic bound also holds structurally: members of
    a disambiguation pair share their token sequence, a token-only model
    predicts identically on both, and the pair carries two different
    labels, so at most half the subset can be right.
    """
    started = time.perf_counter()
    summary = run_bench(seed=0, n_sentences=300, out_dir=str(tmp_path),
                        stream=io.StringIO())
    elapsed = time.perf_counter() - started
    assert summary["train"] >= 400
    assert summary["test"] >= 200
    assert summary["disambiguation"] >= 100
    aa, classic = summary["aa"], summary["classic"]
    assert aa["test_accuracy"] >= 0.97, f"aspect-aware test accuracy {aa['test_accuracy']:.4f}"
    assert classic["disambiguation_accuracy"] <= 0.55, \
        f"classic disambiguation accuracy {classic['disambiguation_accuracy']:.4f}"
    per_cell = ", ".join(f"{kind} {summary[kind]['seconds']:.1f}s over "
                         f"{summary[kind]['epochs']} epochs" for kind in ("aa", "classic"))
    assert elapsed < 90.0, f"benchmark took {elapsed:.1f}s ({per_cell})"


def test_criterion_6_fixture_ingestion_counts():
    """The hand-written miniature review file parses to exact per-polarity
    counts under both tasks (it exercises conflict filtering, no-aspect
    sentences, and character-offset mapping)."""
    assert polarity_counts(parse_semeval_xml(FIXTURE, "atsa")) == (2, 2, 1)
    assert polarity_counts(parse_semeval_xml(FIXTURE, "acsa")) == (2, 1, 1)


def _find_xml(root: Path, *fragments: str):
    hits = [p for p in sorted(root.rglob("*.xml"))
            if all(f in p.name.lower() for f in fragments)]
    return hits[0] if hits else None


def test_criterion_6_official_ingestion_counts():
    """Parsing the official 2014 benchmark files reproduces the published
    per-polarity instance counts exactly, after dropping conflict labels.
    Runs only when AALSTM_SEMEVAL_DIR is set."""
    root = os.environ.get(_SEMEVAL_ENV)
    if not root:
        pytest.skip(f"set {_SEMEVAL_ENV} to a directory with the official 2014 "
                    "benchmark XML files (restaurant train and test gold) to "
                    "run the full ingestion check")
    root = Path(root)
    train_path = _find_xml(root, "restaurant", "train")
    test_path = (_find_xml(root, "restaurant", "test", "gold")
                 or _find_xml(root, "restaurant", "test"))
    if train_path is None or test_path is None:
        pytest.fail(f"no restaurant train/test XML found under {root}")

    expected = {
        ("atsa", train_path): (2164, 807, 637),
        ("atsa", test_path): (728, 196, 196),
        ("acsa", train_path): (2179, 839, 500),
        ("acsa", test_path): (657, 222, 94),
    }
    for (task, path), want in expected.items():
        got = polarity_counts(parse_semeval_xml(path, task))
        assert got == want, f"{task} counts for {path.name}: {got} != {want}"

    laptop_train = _find_xml(root, "laptop", "train")
    laptop_test = (_find_xml(root, "laptop", "test", "gold")
                   or _find_xml(root, "laptop", "test"))
    if laptop_train is not None:
        got = polarity_counts(parse_semeval_xml(laptop_train, "atsa"))
        assert got == (994, 870, 464), f"laptop train counts: {got}"
    if laptop_test is not None:
        got = polarity_counts(parse_semeval_xml(laptop_test, "atsa"))
        assert got == (341, 128, 169), f"laptop test counts: {got}"


def test_criterion_7_full_scale_stretch_comparison():
    """Full-scale category-task comparison with pretrained vectors; an
    informational stretch check, not a gate.

    Five seeds, both cells, last-hidden head, default hyperparameters.
    Expected band: aspect-aware mean accuracy within 2.5 points of 83.45,
    classic within 2.5 points of 81.71, aspect-aware ahead on at least 4
    of 5 seeds. A result outside the band xfails so it shows up for
    investigation without failing the build.
    """
    root = os.environ.get(_SEMEVAL_ENV)
    glove = os.environ.get(_GLOVE_ENV)
    if not root or not glove:
        pytest.skip(f"set {_SEMEVAL_ENV} and {_GLOVE_ENV} (300-dim vectors) to "
                    "run the full-scale comparison; expect hours of CPU time")
    root = Path(root)
    train_path = _find_xml(root, "restaurant", "train")
    test_path = (_find_xml(root, "restaurant", "test", "gold")
                 or _find_xml(root, "restaurant", "test"))
    if train_path is None or test_path is None:
        pytest.fail(f"no restaurant train/test XML found under {root}")

    train_insts = parse_semeval_xml(train_path, "acsa")
    test_insts = parse_semeval_xml(test_path, "acsa")
    vocab = build_vocab(train_insts + test_insts)
    emb = load_embeddings(glove, vocab, 300, seed=0)

    accs = {"aa": [], "classic": []}
    for seed in range(5):
        cfg = TrainConfig(seed=seed)
        tr, dev = dev_split(train_insts, cfg.dev_fraction, seed)
        for kind in ("aa", "classic"):
            emb_copy = EmbeddingTable(dict(emb.vocab), emb.matrix.copy(),
                                      emb.oov_tokens)
            model = build_model("acsa", kind, "last", emb_copy,
                                cfg.hidden_dim, seed=seed)
            train(model, tr, dev, cfg)
            accs[kind].append(evaluate(model, test_insts).accuracy * 100.0)

    aa_mean = float(np.mean(accs["aa"]))
    classic_mean = float(np.mean(accs["classic"]))
    wins = sum(a > c for a, c in zip(accs["aa"], accs["classic"]))
    msg = (f"aspect-aware mean {aa_mean:.2f} (band 83.45+-2.5), "
           f"classic mean {classic_mean:.2f} (band 81.71+-2.5), "
           f"aspect-aware ahead on {wins}/5 seeds")
    in_band = (abs(aa_mean - 83.45) <= 2.5 and abs(classic_mean - 81.71) <= 2.5
               and wins >= 4)
    if not in_band:
        pytest.xfail("outside the stretch band, investigate: " + msg)


def test_criterion_8_identical_runs_are_byte_identical(tmp_path, capsys):
    """Two invocations of a command with the same seed and config produce
    byte-identical metric logs, equal checkpointed parameters, and the
    same console report."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["train", "--synthetic", "--cell", "aa", "--head", "last",
            "--seed", "3", "--epochs", "4"]
    assert main(args + ["--out", str(out_a)]) == 0
    stdout_a = capsys.readouterr().out
    assert main(args + ["--out", str(out_b)]) == 0
    stdout_b = capsys.readouterr().out

    for name in ("metrics.tsv", "dev.tsv", "test.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert stdout_a.replace(str(out_a), "OUT") == stdout_b.replace(str(out_b), "OUT")

    model_a = load_checkpoint(out_a / "checkpoint.npz")
    model_b = load_checkpoint(out_b / "checkpoint.npz")
    params_a, params_b = model_a.params(), model_b.params()
    assert params_a.keys() == params_b.keys()
    for name, arr in params_a.items():
        assert arr.tobytes() == params_b[name].tobytes(), name

    check = ["gradcheck", "--cell", "classic", "--head", "attention", "--seed", "2"]
    assert main(check) == 0
    first = capsys.readouterr().out
    assert main(check) == 0
    assert first == capsys.readouterr().out
