"""Command-line entry point: train, eval, gradcheck, and bench.

Configuration precedence is flags over config-file values over TrainConfig
defaults. The config file is flat key=value text whose keys are TrainConfig
field names; `#` starts a comment line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields as dataclass_fields

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (POLARITIES, RESTAURANT_CATEGORIES, UNK_TOKEN, CategoryId,
                   DataFormatError, EmbeddingTable, LabeledInstance, TermSpan,
                   build_vocab, dev_split, disambiguation_subset,
                   generate_synthetic, load_embeddings, load_instances,
                   parse_semeval_xml, save_instances)
from .model import CELLS, HEADS, TASKS, build_model
from .tensor import ConfigError, make_rng
from .train import (GRADCHECK_THRESHOLD, GradCheckReport, TrainConfig,
                    TrainingDiverged, cross_entropy, evaluate, grad_check, train)

# Weights and inputs for the end-to-end gradient check are drawn from
# U(-0.6, 0.6) rather than the training init range. At the smaller scale many
# gradient coordinates sit near the finite-difference noise floor, where the
# central-difference quotient itself carries more than 1e-4 relative error.
_GRADCHECK_SCALE = 0.6

# Synthetic corpus size: 300 sentences give 600 training instances and a
# 300-instance held-out split of unseen surface forms.
_SYNTH_SENTENCES = 300

# Hyperparameters for synthetic runs (train --synthetic and bench), tuned
# once on the generated corpus and then pinned. The 300-dim defaults are
# sized for GloVe and a real corpus; on the toy vocabulary they underfit
# badly within the epoch budget, so synthetic runs swap in these values for
# any field not set explicitly by a flag or config file.
_SYNTH_OVERRIDES = {
    "lr": 0.02,
    "batch_size": 8,
    "dropout": 0.1,
    "l2": 0.0001,
    "emb_dim": 24,
    "hidden_dim": 24,
    "max_epochs": 50,
    "patience": 10,
}


class CliError(Exception):
    """User-facing failure: bad paths, incompatible inputs, bad config."""


def _config_field_types() -> dict[str, type]:
    defaults = TrainConfig()
    return {f.name: type(getattr(defaults, f.name))
            for f in dataclass_fields(TrainConfig)}


def parse_config_file(path) -> dict:
    """Read flat key=value lines into TrainConfig field values."""
    field_types = _config_field_types()
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in field_types:
            raise CliError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(TrainConfig fields: {', '.join(sorted(field_types))})")
        try:
            values[key] = field_types[key](value)
        except ValueError:
            raise CliError(
                f"{path}:{lineno}: bad {field_types[key].__name__} "
                f"for {key}: {value!r}") from None
    return values


def resolve_config(args, synthetic: bool = False) -> TrainConfig:
    """Merge defaults, config file, and flags into a validated TrainConfig."""
    values = asdict(TrainConfig())
    file_values = parse_config_file(args.config) if args.config else {}
    values.update(file_values)
    flag_values = {key: getattr(args, key) for key in values
                   if getattr(args, key, None) is not None}
    values.update(flag_values)
    if synthetic:
        for key, small in _SYNTH_OVERRIDES.items():
            if key not in file_values and key not in flag_values:
                values[key] = small
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}") from None


def _load_eval_instances(path, model):
    """Instances from a SemEval XML file (by extension) or the internal TSV,
    each checked against the model's task and category table."""
    table = model.aspect_embeddings
    if str(path).endswith(".xml"):
        categories = RESTAURANT_CATEGORIES if table is None else table.categories
        instances = parse_semeval_xml(path, model.task, categories)
    else:
        instances = load_instances(path)
    kinds = {TermSpan: "term", CategoryId: "category"}
    kind = TermSpan if model.task == "atsa" else CategoryId
    for n, inst in enumerate(instances, 1):
        if not isinstance(inst.aspect, kind):
            raise CliError(f"{path}: instance {n} has a {kinds[type(inst.aspect)]} aspect, "
                           f"but the checkpoint's task {model.task!r} takes "
                           f"{kinds[kind]} aspects")
        if kind is CategoryId and table is not None \
                and inst.aspect.index >= len(table.categories):
            raise CliError(f"{path}: instance {n} has category index {inst.aspect.index}, "
                           f"but the checkpoint has {len(table.categories)} categories")
    return instances


def cmd_train(args, parser) -> int:
    if args.synthetic and args.data:
        parser.error("--synthetic and --data are mutually exclusive")
    if args.synthetic and args.test_data:
        parser.error("--synthetic provides its own held-out split; drop --test-data")
    if args.synthetic and args.task == "acsa":
        parser.error("--synthetic generates term-span (atsa) instances; "
                     "it cannot train an acsa model")
    if not args.synthetic and not args.data:
        parser.error("--data is required unless --synthetic is given")
    if not args.synthetic and not args.emb:
        parser.error("--emb is required unless --synthetic is given")

    cfg = resolve_config(args, synthetic=args.synthetic)
    test_insts = None
    if args.synthetic:
        train_insts, test_insts, emb = generate_synthetic(
            _SYNTH_SENTENCES, seed=cfg.seed, dim=cfg.emb_dim)
    else:
        train_insts = parse_semeval_xml(args.data, args.task)
        if len(train_insts) < 2:
            raise CliError(
                f"{len(train_insts)} {args.task} instances found in {args.data}; "
                f"training needs at least 2, to split off a dev set")
        emb = load_embeddings(args.emb, build_vocab(train_insts),
                              cfg.emb_dim, cfg.seed)
        if args.test_data:
            test_insts = parse_semeval_xml(args.test_data, args.task)

    tr, dev = dev_split(train_insts, cfg.dev_fraction, cfg.seed)
    model = build_model(args.task, args.cell, args.head, emb, cfg.hidden_dim,
                        seed=cfg.seed, init_low=cfg.init_low,
                        init_high=cfg.init_high)

    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.tsv")
    ckpt_path = os.path.join(args.out, "checkpoint.npz")
    dev_path = os.path.join(args.out, "dev.tsv")
    with open(metrics_path, "w") as log_stream:
        result = train(model, tr, dev, cfg, log_stream=log_stream)
    save_checkpoint(model, ckpt_path)
    save_instances(dev, dev_path)
    if args.synthetic:
        save_instances(test_insts, os.path.join(args.out, "test.tsv"))

    print(f"wrote {metrics_path}, {ckpt_path}, {dev_path}")
    stopped = ", stopped early" if result.stopped_early else ""
    print(f"best epoch {result.best_epoch}, "
          f"dev macro F1 {result.best_dev_macro_f1:.6f}{stopped}")
    report = evaluate(model, dev)
    print("dev evaluation:")
    print(report.table())
    print(report.json_line())
    if test_insts:
        test_report = evaluate(model, test_insts)
        print("test evaluation:")
        print(test_report.table())
        print(test_report.json_line())
    return 0


def cmd_eval(args, parser) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.task and args.task != model.task:
        raise CliError(
            f"checkpoint {args.checkpoint} was trained for task {model.task!r}; "
            f"it cannot evaluate {args.task!r} data")
    instances = _load_eval_instances(args.data, model)
    if not instances:
        raise CliError(f"no {model.task} instances found in {args.data}")
    report = evaluate(model, instances)
    print(report.table())
    print(report.json_line())
    return 0


def pipeline_grad_report(cell_kind: str, head_kind: str, dx: int, dc: int,
                         seq_len: int, seed=0, corrupt=None,
                         floor: float = 1e-8) -> GradCheckReport:
    """Finite-difference check of the model's full forward/backward.

    Builds an acsa model whose word table holds `seq_len` random inputs of
    dim `dx` (plus a zero unknown-token row) and whose one-row category
    table holds a random aspect of dim `dc`, then checks `model.backward`
    against the cross-entropy of `model.predict_probs` over every trainable
    array, embedding and category tables included. `corrupt` names a
    parameter whose analytic gradient gets one entry shifted, to prove the
    detector trips.
    """
    if seq_len < 1:
        raise ConfigError("sequence length must be >= 1")
    lo, hi = -_GRADCHECK_SCALE, _GRADCHECK_SCALE
    rng = make_rng([seed, 70])
    xs = [rng.uniform(lo, hi, dx) for _ in range(seq_len)]
    aspect = make_rng([seed, 71]).uniform(lo, hi, dc)
    gold = int(make_rng([seed, 72]).integers(3))

    tokens = tuple(f"x{t}" for t in range(seq_len))
    vocab = {UNK_TOKEN: 0, **{tok: t + 1 for t, tok in enumerate(tokens)}}
    emb = EmbeddingTable(vocab, np.array([np.zeros(dx)] + xs))
    model = build_model("acsa", cell_kind, head_kind, emb, dc, seed=seed,
                        categories=("aspect",), init_low=lo, init_high=hi)
    if model.aspect_embeddings is not None:
        model.aspect_embeddings.matrix[0] = aspect
    inst = LabeledInstance(tokens, CategoryId(0), POLARITIES[gold])

    analytic = model.backward(model.forward(inst))
    if corrupt is not None:
        if corrupt not in analytic:
            raise CliError(f"--corrupt: no parameter named {corrupt!r} "
                           f"(choices: {', '.join(sorted(analytic))})")
        analytic[corrupt].flat[0] += 1.0
    return grad_check(lambda: cross_entropy(model.predict_probs(inst), gold),
                      model.params(), analytic, floor=floor)


def cmd_gradcheck(args, parser) -> int:
    report = pipeline_grad_report(args.cell, args.head, dx=args.dim,
                                  dc=args.dim, seq_len=args.seq,
                                  seed=args.seed, corrupt=args.corrupt)
    print(f"cell={args.cell} head={args.head} dim={args.dim} "
          f"seq={args.seq} seed={args.seed}")
    print(f"checked {report.n_checked} coordinates; worst relative error "
          f"{report.worst_rel_err:.6e} at {report.worst_name}"
          f"{list(report.worst_index)}")
    if report.ok:
        print(f"PASS: below threshold {GRADCHECK_THRESHOLD:.0e}")
        return 0
    print(f"FAIL: at or above threshold {GRADCHECK_THRESHOLD:.0e}")
    return 1


def run_bench(seed=0, n_sentences: int = _SYNTH_SENTENCES, out_dir=None,
              stream=None) -> dict:
    """Train aspect-aware and classic last-hidden models on one synthetic
    corpus and report test plus disambiguation accuracy for both."""
    stream = sys.stdout if stream is None else stream
    cfg = TrainConfig(seed=seed, **_SYNTH_OVERRIDES)
    train_insts, test_insts, emb = generate_synthetic(
        n_sentences, seed=cfg.seed, dim=cfg.emb_dim)
    tr, dev = dev_split(train_insts, cfg.dev_fraction, cfg.seed)
    disamb = disambiguation_subset(test_insts)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    summary = {"seed": seed, "sentences": n_sentences,
               "train": len(tr), "dev": len(dev), "test": len(test_insts),
               "disambiguation": len(disamb)}

    for cell_kind in ("aa", "classic"):
        emb_copy = EmbeddingTable(dict(emb.vocab), emb.matrix.copy(),
                                  emb.oov_tokens)
        model = build_model("atsa", cell_kind, "last", emb_copy,
                            cfg.hidden_dim, seed=cfg.seed)
        log_stream = None
        if out_dir:
            log_stream = open(os.path.join(out_dir, f"{cell_kind}_metrics.tsv"), "w")
        started = time.perf_counter()
        try:
            result = train(model, tr, dev, cfg, log_stream=log_stream)
        finally:
            if log_stream is not None:
                log_stream.close()
        seconds = time.perf_counter() - started
        if out_dir:
            save_checkpoint(model, os.path.join(out_dir, f"{cell_kind}_checkpoint.npz"))
        test_report = evaluate(model, test_insts)
        disamb_report = evaluate(model, disamb)
        summary[cell_kind] = {
            "test_accuracy": test_report.accuracy,
            "test_macro_f1": test_report.macro_f1,
            "disambiguation_accuracy": disamb_report.accuracy,
            "epochs": len(result.logs),
            "seconds": round(seconds, 3),
        }
        print(f"{cell_kind}+last: test accuracy {test_report.accuracy:.4f}, "
              f"test macro F1 {test_report.macro_f1:.4f}, "
              f"disambiguation accuracy {disamb_report.accuracy:.4f} "
              f"over {len(disamb)} instances, {len(result.logs)} epochs, "
              f"{seconds:.1f}s", file=stream)
    print(json.dumps(summary), file=stream)
    return summary


def cmd_bench(args, parser) -> int:
    run_bench(seed=args.seed, n_sentences=args.sentences, out_dir=args.out)
    return 0


def _add_task_flags(sub) -> None:
    sub.add_argument("--task", choices=TASKS, default="atsa",
                     help="aspect source: term spans (atsa) or categories (acsa)")
    sub.add_argument("--cell", choices=CELLS, default="aa")
    sub.add_argument("--head", choices=HEADS, default="last")


def _add_config_flags(sub) -> None:
    """Flags that set TrainConfig fields: each one's dest is its field."""
    sub.add_argument("--seed", type=int, default=None, help="RNG seed")
    sub.add_argument("--lr", type=float, default=None, help="learning rate")
    sub.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int,
                     default=None, help="minibatch size")
    sub.add_argument("--dropout", type=float, default=None, help="dropout rate")
    sub.add_argument("--l2", type=float, default=None, help="L2 coefficient")
    sub.add_argument("--dim", dest="emb_dim", metavar="DIM", type=int, default=None,
                     help="word embedding dimension")
    sub.add_argument("--hidden", dest="hidden_dim", metavar="HIDDEN", type=int,
                     default=None, help="hidden dimension")
    sub.add_argument("--epochs", dest="max_epochs", metavar="EPOCHS", type=int,
                     default=None, help="max epochs")
    sub.add_argument("--patience", type=int, default=None,
                     help="early-stop patience in epochs")
    sub.add_argument("--config", default=None,
                     help="key=value file of TrainConfig fields; "
                          "flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aalstm",
        description="Aspect-aware LSTM sentiment classification")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train a model and save artifacts")
    _add_task_flags(p_train)
    p_train.add_argument("--data", default=None, help="SemEval XML training file")
    p_train.add_argument("--test-data", default=None,
                         help="SemEval XML test file to evaluate after training")
    p_train.add_argument("--emb", default=None, help="GloVe-format embedding file")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--synthetic", action="store_true",
                         help="train on the generated synthetic corpus")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = subs.add_parser("eval", help="evaluate a checkpoint on a data file")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True,
                        help="SemEval XML file, or an instances .tsv written "
                             "by train")
    p_eval.add_argument("--task", choices=TASKS, default=None,
                        help="optional; must match the checkpoint's task")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = subs.add_parser(
        "gradcheck", help="finite-difference check of the full pipeline gradient")
    p_grad.add_argument("--cell", choices=CELLS, default="aa")
    p_grad.add_argument("--head", choices=HEADS, default="attention")
    p_grad.add_argument("--dim", type=int, default=6,
                        help="input, hidden, and aspect dimension")
    p_grad.add_argument("--seq", type=int, default=5, help="sequence length")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--corrupt", default=None, metavar="PARAM",
                        help="test hook: corrupt this parameter's analytic "
                             "gradient and verify the check fails")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_bench = subs.add_parser(
        "bench", help="synthetic benchmark: aspect-aware vs classic cell")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--sentences", type=int, default=_SYNTH_SENTENCES)
    p_bench.add_argument("--out", default=None,
                         help="optional directory for logs and checkpoints")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (CliError, CheckpointError, ConfigError, DataFormatError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
