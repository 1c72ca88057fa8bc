"""CLI behavior: argument handling, config precedence, artifacts,
determinism, and error paths."""

import json
import os
import re
import warnings
import zipfile

import numpy as np
import pytest

from aalstm.checkpoint import load_checkpoint, save_checkpoint
from aalstm.cli import (CliError, _load_eval_instances, build_parser, main,
                        parse_config_file, pipeline_grad_report, resolve_config,
                        run_bench)
from aalstm.data import (CategoryId, DataFormatError, build_vocab, parse_semeval_xml,
                         random_embeddings)
from aalstm.model import build_model
from aalstm.tensor import ConfigError, make_rng

from test_checkpoint import edit_meta, rewrite_npz

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mini_reviews.xml")


def write_glove(path, dim=5):
    rows = {"the": 0.1, "salad": 0.2, "is": 0.3, "soup": 0.4, "but": 0.5}
    with open(path, "w") as fh:
        for tok, base in rows.items():
            vals = " ".join(f"{base + 0.01 * j:.2f}" for j in range(dim))
            fh.write(f"{tok} {vals}\n")
    return str(path)


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


# --- gradcheck ---------------------------------------------------------------

@pytest.mark.parametrize("cell", ["classic", "aa"])
@pytest.mark.parametrize("head", ["last", "attention"])
def test_gradcheck_passes(cell, head, capsys):
    code = main(["gradcheck", "--cell", cell, "--head", head,
                 "--dim", "6", "--seq", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "worst relative error" in out


def test_gradcheck_corrupted_gradient_fails(capsys):
    # cell.W_a[0, 0] is W_ai[0, 0], the aspect-input gate's first weight.
    code = main(["gradcheck", "--cell", "aa", "--head", "attention",
                 "--corrupt", "cell.W_a"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "at cell.W_a[0, 0]" in out


def test_gradcheck_unknown_corrupt_name(capsys):
    code = main(["gradcheck", "--corrupt", "cell.nope"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no parameter named" in err


@pytest.mark.parametrize("cell,head,name", [
    ("classic", "last", "emb.words"),
    ("classic", "attention", "emb.words"),
    ("aa", "last", "emb.words"),
    ("aa", "attention", "emb.words"),
    ("aa", "last", "emb.aspects"),
    ("aa", "attention", "emb.aspects"),
])
def test_gradcheck_covers_embedding_and_category_gradients(cell, head, name, capsys):
    code = main(["gradcheck", "--cell", cell, "--head", head, "--corrupt", name])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_pipeline_report_rejects_bad_dims():
    with pytest.raises(ConfigError, match="must be >= 1"):
        pipeline_grad_report("aa", "last", dx=3, dc=3, seq_len=0)
    with pytest.raises(ConfigError, match="cell must be"):
        pipeline_grad_report("gru", "last", dx=3, dc=3, seq_len=2)


# --- train + eval on the synthetic corpus ------------------------------------

def test_train_synthetic_artifacts_and_eval_consistency(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["train", "--synthetic", "--cell", "aa", "--head", "last",
                 "--epochs", "3", "--seed", "5", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("metrics.tsv", "checkpoint.npz", "dev.tsv", "test.tsv"):
        assert (out_dir / name).exists(), name

    best_epoch = int(re.search(r"best epoch (\d+)", out).group(1))
    rows = (out_dir / "metrics.tsv").read_text().splitlines()
    assert rows[0] == "epoch\ttrain_loss\tdev_acc\tdev_macro_f1"
    best_row = rows[best_epoch].split("\t")
    assert int(best_row[0]) == best_epoch

    # The dev report printed by train reflects the restored best parameters,
    # so it must agree with the logged row for the best epoch.
    dev_report = json_lines(out)[0]
    assert f"{dev_report['accuracy']:.6f}" == best_row[2]
    assert f"{dev_report['macro_f1']:.6f}" == best_row[3]

    # eval on the saved dev split reproduces those metrics exactly.
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
                 "--data", str(out_dir / "dev.tsv")])
    eval_out = capsys.readouterr().out
    assert code == 0
    eval_report = json_lines(eval_out)[0]
    assert eval_report["accuracy"] == dev_report["accuracy"]
    assert eval_report["macro_f1"] == dev_report["macro_f1"]
    assert eval_report["confusion"] == dev_report["confusion"]

    # evaluating twice is deterministic down to the bytes printed.
    main(["eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
          "--data", str(out_dir / "dev.tsv")])
    assert capsys.readouterr().out == eval_out


def test_train_determinism_byte_identical_logs(tmp_path, capsys):
    args = ["train", "--synthetic", "--cell", "classic", "--head", "last",
            "--epochs", "3", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    log_a = (tmp_path / "a" / "metrics.tsv").read_bytes()
    log_b = (tmp_path / "b" / "metrics.tsv").read_bytes()
    assert log_a == log_b
    ckpt_a = load_checkpoint(tmp_path / "a" / "checkpoint.npz")
    ckpt_b = load_checkpoint(tmp_path / "b" / "checkpoint.npz")
    for name, arr in ckpt_a.params().items():
        assert arr.tobytes() == ckpt_b.params()[name].tobytes(), name


# --- train + eval on the XML fixture ------------------------------------------

def test_train_eval_on_fixture_xml(tmp_path, capsys):
    glove = write_glove(tmp_path / "vectors.txt")
    out_dir = tmp_path / "run"
    code = main(["train", "--task", "atsa", "--cell", "aa", "--head", "attention",
                 "--data", FIXTURE, "--test-data", FIXTURE, "--emb", glove,
                 "--dim", "5", "--hidden", "5", "--epochs", "2", "--batch", "2",
                 "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json_lines(out)) == 2  # dev and test reports

    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
                 "--data", FIXTURE])
    eval_out = capsys.readouterr().out
    assert code == 0
    assert json_lines(eval_out)[0]["n"] == 5

    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
                 "--data", FIXTURE, "--task", "acsa"])
    err = capsys.readouterr().err
    assert code == 1
    assert "trained for task 'atsa'" in err


def test_eval_dim_mismatch_is_configuration_error(tmp_path, capsys):
    glove = write_glove(tmp_path / "vectors.txt")
    out_dir = tmp_path / "run"
    assert main(["train", "--task", "atsa", "--cell", "classic", "--head", "last",
                 "--data", FIXTURE, "--emb", glove, "--dim", "5", "--hidden", "5",
                 "--epochs", "1", "--batch", "2", "--out", str(out_dir)]) == 0
    capsys.readouterr()

    src = out_dir / "checkpoint.npz"
    with np.load(src, allow_pickle=False) as archive:
        entries = {key: archive[key] for key in archive.files}
    entries["emb.words"] = entries["emb.words"][:, :-1]
    bad = tmp_path / "bad.npz"
    with open(bad, "wb") as fh:
        np.savez(fh, **entries)

    code = main(["eval", "--checkpoint", str(bad), "--data", FIXTURE])
    err = capsys.readouterr().err
    assert code == 1
    assert "array 'cell.W_x' has shape (20, 5), but the dims of its other arrays " \
        "need (20, 4)" in err


def test_eval_zero_size_checkpoint_is_one_error_line(tmp_path, capsys):
    # An empty category list with a (0, d) table: no model has a zero-size
    # array, so this is an inconsistent checkpoint, not a failed read.
    emb = random_embeddings(build_vocab([]), dim=4)
    src, bad = tmp_path / "acsa.npz", tmp_path / "bad.npz"
    save_checkpoint(build_model("acsa", "aa", "last", emb, hidden_dim=4), src)

    def empty_table(entries):
        edit_meta(entries, categories=[])
        entries["emb.aspects"] = entries["emb.aspects"][:0]
    rewrite_npz(src, bad, empty_table)
    data = tmp_path / "insts.tsv"
    data.write_text("the soup is bad\tcategory:0\tnegative\n")
    code = main(["eval", "--checkpoint", str(bad), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: inconsistent checkpoint {bad}:")
    assert err.count("\n") == 1


def rewrite_member(src, dst, key, edit):
    """Copy archive `src` to `dst` with `edit` applied to member `key`'s bytes."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            data = zin.read(info)
            zout.writestr(info.filename, edit(data) if info.filename == key else data)


def _entries(mutate):
    return lambda src, dst: rewrite_npz(src, dst, mutate)


def _w_h_bytes(edit):
    return lambda src, dst: rewrite_member(src, dst, "cell.W_h.npy", edit)


_BAD_NAMES = ("inconsistent checkpoint {bad}: the vocabulary must be a list of distinct "
              "strings, and the categories null or one")
_BAD_OOV = ("inconsistent checkpoint {bad}: the out-of-vocabulary tokens must be distinct "
            "vocabulary tokens")


@pytest.mark.parametrize("corrupt,message", [
    (_entries(lambda e: e.pop("cell.W_h")), "is missing array 'cell.W_h'"),
    (_entries(lambda e: e.update({"emb.words": e["emb.words"][0]})),
     "array 'emb.words' has shape (4,), not 2 dimensions"),
    (_w_h_bytes(lambda data: data[:-800]), "array 'cell.W_h' is truncated"),
    # numpy reads the shape "(28L,4)" as (28, 4) after a warning that the
    # file came from Python 2: the warning must not print above the error.
    (_w_h_bytes(lambda data: re.sub(rb"\((\d+), ", rb"(\1L,", data, count=1)),
     "array 'cell.W_h' has a corrupt .npy header: Reading"),
    (_entries(lambda e: edit_meta(e, categories="abcde")), _BAD_NAMES),
    (_entries(lambda e: edit_meta(e, categories=[[1], [2], [3], [4], [5]])), _BAD_NAMES),
    (_entries(lambda e: edit_meta(e, categories=["food", "food", "price", "ambience",
                                                 "service"])), _BAD_NAMES),
    (_entries(lambda e: edit_meta(e, vocab=["<unk>", 1, 2])), _BAD_NAMES),
    (_entries(lambda e: edit_meta(e, oov_tokens="soup")), _BAD_OOV),
    (_entries(lambda e: edit_meta(e, oov_tokens=[1, 2])), _BAD_OOV),
    (_entries(lambda e: edit_meta(e, oov_tokens=["soup", "quiche"])), _BAD_OOV),
], ids=["no-W_h", "1-D-words", "W_h-short", "python-2-header", "categories-string",
        "categories-lists", "categories-repeated", "vocab-numbers", "oov-string",
        "oov-numbers", "oov-not-in-vocab"])
def test_eval_corrupt_checkpoint_is_one_error_line(tmp_path, capsys, corrupt, message):
    emb = random_embeddings({"<unk>": 0, "soup": 1, "bad": 2}, dim=4)
    src, bad = tmp_path / "acsa.npz", tmp_path / "bad.npz"
    save_checkpoint(build_model("acsa", "aa", "last", emb, hidden_dim=4), src)
    corrupt(src, bad)
    data = tmp_path / "insts.tsv"
    data.write_text("the soup is bad\tcategory:0\tnegative\n")
    with warnings.catch_warnings():  # as outside this suite's error filter
        warnings.simplefilter("default")
        code = main(["eval", "--checkpoint", str(bad), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(bad) in err and message.format(bad=bad) in err


def test_eval_whitespace_only_sentence_is_data_error(tmp_path, capsys):
    emb = random_embeddings(build_vocab([]), dim=4)
    ckpt = tmp_path / "acsa.npz"
    save_checkpoint(build_model("acsa", "aa", "last", emb, hidden_dim=4), ckpt)
    doc = tmp_path / "blank.xml"
    doc.write_text(
        '<sentences><sentence id="b1"><text>   </text><aspectCategories>'
        '<aspectCategory category="food" polarity="positive"/>'
        "</aspectCategories></sentence></sentences>")
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(doc)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "blank.xml" in err and "'b1'" in err


@pytest.mark.parametrize("task,line,message", [
    ("atsa", "the soup is great\tterm:1:1\tgreat", "insts.tsv:1: unknown polarity 'great'"),
    ("atsa", "the soup is bad\tterm:1:9\tnegative", "insts.tsv:1: term span"),
    ("atsa", "the soup is bad\tcategory:0\tnegative",
     "instance 1 has a category aspect, but the checkpoint's task 'atsa' takes term"),
    ("acsa", "the soup is bad\tterm:1:1\tnegative",
     "instance 1 has a term aspect, but the checkpoint's task 'acsa' takes category"),
    ("acsa", "the soup is bad\tcategory:5\tnegative",
     "instance 1 has category index 5, but the checkpoint has 5 categories"),
    ("atsa", "the soup is bad\tterm:1\tnegative", "insts.tsv:1: bad aspect spec 'term:1'"),
])
def test_eval_bad_instances_tsv_is_data_error(tmp_path, capsys, task, line, message):
    # Both cells: a classic acsa model has no category table, but its
    # categories are still the restaurant five.
    data = tmp_path / "insts.tsv"
    data.write_text(line + "\n")
    for cell_kind in ("aa", "classic"):
        emb = random_embeddings(build_vocab([]), dim=4)
        ckpt = tmp_path / f"{cell_kind}.npz"
        save_checkpoint(build_model(task, cell_kind, "last", emb, hidden_dim=4), ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 1, cell_kind
        assert err.startswith("error:")
        assert "insts.tsv" in err and message in err


def _category_doc(path, category):
    path.write_text(
        '<sentences><sentence id="c1"><text>The soup is bad.</text><aspectCategories>'
        f'<aspectCategory category="{category}" polarity="negative"/>'
        "</aspectCategories></sentence></sentences>")
    return str(path)


def test_eval_xml_categories_use_the_checkpoint_table(tmp_path, capsys):
    emb = random_embeddings(build_vocab([]), dim=4)
    model = build_model("acsa", "aa", "last", emb, hidden_dim=4,
                        categories=("service", "food"))
    ckpt = tmp_path / "model.npz"
    save_checkpoint(model, ckpt)
    doc = _category_doc(tmp_path / "food.xml", "food")
    [inst] = _load_eval_instances(doc, load_checkpoint(ckpt))
    assert inst.aspect == CategoryId(1)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", doc]) == 0

    code = main(["eval", "--checkpoint", str(ckpt),
                 "--data", _category_doc(tmp_path / "amb.xml", "ambience")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "amb.xml" in err and "unknown category 'ambience'" in err


def _term_doc(offsets):
    return ('<sentences><sentence id="s1"><text>The soup is bad.</text><aspectTerms>'
            f'<aspectTerm term="soup" polarity="negative" {offsets}/>'
            "</aspectTerms></sentence></sentences>").encode()


@pytest.mark.parametrize("command,name,payload,message", [
    ("eval", "bad.txt", b"the soup is bad\tterm:1:1\tnegative\ncaf\xe9\tterm:0:0\tneutral\n",
     "bad.txt:2: not valid UTF-8"),
    ("train", "bad.txt", b"the 0.1 0.2 0.3 0.4 0.5\nsoup 0.1 abc 0.3 0.4 0.5\n",
     "bad.txt:2: 'soup': could not convert string to float: 'abc'"),
    ("train", "bad.txt", b"the 0.1 0.2 0.3 0.4 0.5\ncaf\xe9 0.1 0.2 0.3 0.4 0.5\n",
     "bad.txt:2: not valid UTF-8"),
    ("eval", "bad.xml", _term_doc('from="x" to="8"'),
     "bad.xml: sentence 's1': bad offsets on term 'soup'"),
    ("eval", "bad.xml", _term_doc('from="40" to="44"'),
     "bad.xml: sentence 's1': character range [40, 44) covers no token"),
], ids=["eval-tsv-utf8", "train-emb-number", "train-emb-utf8", "eval-xml-offsets",
        "eval-xml-past-the-text"])
def test_bad_input_file_is_data_error(tmp_path, capsys, command, name, payload, message):
    bad = tmp_path / name
    bad.write_bytes(payload)
    if command == "eval":
        emb = random_embeddings(build_vocab([]), dim=4)
        ckpt = tmp_path / "model.npz"
        save_checkpoint(build_model("atsa", "classic", "last", emb, hidden_dim=4), ckpt)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(bad)]
    else:
        argv = ["train", "--data", FIXTURE, "--emb", str(bad), "--dim", "5",
                "--hidden", "5", "--epochs", "1", "--out", str(tmp_path / "o")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_train_on_one_usable_instance_is_cli_error(tmp_path, capsys):
    glove = write_glove(tmp_path / "vectors.txt")
    doc = tmp_path / "one.xml"
    doc.write_text(
        '<sentences><sentence id="s1"><text>The soup is bad.</text><aspectTerms>'
        '<aspectTerm term="soup" polarity="negative" from="4" to="8"/>'
        "</aspectTerms></sentence></sentences>")
    code = main(["train", "--data", str(doc), "--emb", glove, "--dim", "5",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "1 atsa instances found in" in err and "one.xml" in err


def test_train_test_data_without_task_instances_is_one_error_line(tmp_path, capsys):
    # A conflict-only test file holds no atsa instance: one error line, as
    # `eval` gives on it, before any training, not a run without a test report.
    glove = write_glove(tmp_path / "vectors.txt", dim=4)
    doc = tmp_path / "conflict.xml"
    doc.write_text(
        '<sentences><sentence id="s1"><text>The soup is bad.</text><aspectTerms>'
        '<aspectTerm term="soup" polarity="conflict" from="4" to="8"/>'
        "</aspectTerms></sentence></sentences>")
    out_dir = tmp_path / "o"
    code = main(["train", "--data", FIXTURE, "--emb", glove, "--dim", "4", "--hidden", "4",
                 "--epochs", "1", "--test-data", str(doc), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: no atsa instances found in {doc}"]
    assert not out_dir.exists()


def test_train_reads_test_data_before_the_embeddings(tmp_path, capsys):
    # A missing test file is named before the embeddings file is read, so its
    # bad value is never reached.
    glove = tmp_path / "bad.txt"
    glove.write_text("the 0.1 nan\n")
    absent = tmp_path / "absent.xml"
    out_dir = tmp_path / "o"
    code = main(["train", "--data", FIXTURE, "--emb", str(glove), "--dim", "2",
                 "--hidden", "2", "--test-data", str(absent), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(absent) in err and "bad.txt" not in err
    assert not out_dir.exists()


def test_train_non_finite_embedding_is_one_error_line(tmp_path, capsys):
    # Caught at ingestion, naming the file and line, before any training.
    glove = tmp_path / "vectors.txt"
    glove.write_text("the 0.1 nan\n")
    out_dir = tmp_path / "o"
    code = main(["train", "--data", FIXTURE, "--emb", str(glove), "--dim", "2",
                 "--hidden", "2", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {glove}:1: 'the': values must be finite"]
    assert not out_dir.exists()


# --- usage and file errors ----------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["train", "--synthetic", "--task", "acsa", "--out", "o"],
    ["train", "--synthetic", "--data", "x.xml", "--out", "o"],
    ["train", "--synthetic", "--test-data", "x.xml", "--out", "o"],
    ["train", "--out", "o"],                         # no --data
    ["train", "--data", "x.xml", "--out", "o"],      # no --emb
    ["train", "--synthetic"],                        # no --out
    ["eval", "--data", "x.xml"],                     # no --checkpoint
    ["nonsense"],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


def test_missing_data_file_exits_nonzero(tmp_path, capsys):
    glove = write_glove(tmp_path / "vectors.txt")
    code = main(["train", "--data", str(tmp_path / "absent.xml"), "--emb", glove,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_missing_embedding_file_exits_nonzero(tmp_path, capsys):
    code = main(["train", "--data", FIXTURE,
                 "--emb", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_missing_checkpoint_exits_nonzero(tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "absent.npz"),
                 "--data", FIXTURE])
    err = capsys.readouterr().err
    assert code == 1
    assert "no such checkpoint" in err


# --- config file and precedence ------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "\n"
        "lr = 0.5\n"
        "seed=3\n"
        "dropout = 0.25\n")
    values = parse_config_file(cfg_file)
    assert values == {"lr": 0.5, "seed": 3, "dropout": 0.25}
    assert isinstance(values["seed"], int)


@pytest.mark.parametrize("line,message", [
    ("granularity = 3", "unknown config key"),
    ("lr = fast", "bad float"),
    ("seed = 1.5", "bad int"),
    ("just some words", "expected key=value"),
])
def test_config_file_rejects(tmp_path, line, message):
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text(line + "\n")
    with pytest.raises(CliError, match=message):
        parse_config_file(cfg_file)


def test_config_file_missing(tmp_path):
    with pytest.raises(CliError, match="cannot read config file"):
        parse_config_file(tmp_path / "absent.cfg")


def test_config_file_invalid_utf8_names_the_line(tmp_path):
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_bytes(b"lr = 0.5\n\xff\xfe\n")
    with pytest.raises(DataFormatError, match=r"train\.cfg:2: not valid UTF-8"):
        parse_config_file(cfg_file)


def test_config_file_reads_past_a_byte_order_mark(tmp_path):
    text = "lr = 0.5\nseed = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert parse_config_file(marked) == parse_config_file(plain) == {"lr": 0.5, "seed": 3}


def test_flags_override_file_overrides_defaults(tmp_path):
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("lr = 0.5\nseed = 3\nbatch_size = 4\n")
    parser = build_parser()
    args = parser.parse_args(["train", "--synthetic", "--out", "o",
                              "--lr", "0.01", "--config", str(cfg_file)])
    cfg = resolve_config(args, synthetic=False)
    assert cfg.lr == 0.01          # flag wins
    assert cfg.seed == 3           # file beats default
    assert cfg.batch_size == 4     # file beats default
    assert cfg.dropout == 0.5      # untouched default
    assert cfg.emb_dim == 300


def test_synthetic_defaults_yield_to_explicit_values(tmp_path):
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("dropout = 0.4\n")
    parser = build_parser()
    args = parser.parse_args(["train", "--synthetic", "--out", "o",
                              "--dim", "10", "--config", str(cfg_file)])
    cfg = resolve_config(args, synthetic=True)
    assert cfg.emb_dim == 10       # flag beats the synthetic override
    assert cfg.dropout == 0.4      # file beats the synthetic override
    assert cfg.hidden_dim == 24    # synthetic override beats the 300 default
    assert cfg.batch_size == 8
    assert cfg.lr == 0.02


def test_invalid_config_values_are_cli_errors():
    parser = build_parser()
    args = parser.parse_args(["train", "--synthetic", "--out", "o",
                              "--dropout", "1.5"])
    with pytest.raises(CliError, match="invalid configuration"):
        resolve_config(args, synthetic=True)


def _config_argv(tmp_path, source, key, value):
    """`--key value` as a flag, or `key = value` in a --config file."""
    if source == "flag":
        return [f"--{key}", value]
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    return ["--config", str(cfg_file)]


@pytest.mark.parametrize("source,key,value", [
    ("flag", "lr", "nan"), ("flag", "l2", "inf"), ("file", "lr", "-inf"),
    ("file", "l2", "nan"), ("file", "init_low", "-inf"), ("file", "init_high", "nan"),
])
def test_non_finite_config_values_are_one_error_line(tmp_path, capsys, source, key, value):
    # Rejected before anything is written, not as a diverged loss or a
    # traceback from the initializer.
    out_dir = tmp_path / "o"
    code = main(["train", "--synthetic", "--epochs", "1", "--out", str(out_dir)]
                + _config_argv(tmp_path, source, key, value))
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [
        f"error: invalid configuration: {key} must be finite, got {float(value)}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command,source", [
    ("train", "flag"), ("train", "file"), ("bench", "flag"), ("gradcheck", "flag"),
])
def test_negative_seed_is_one_error_line(tmp_path, capsys, command, source):
    out_dir = tmp_path / "o"
    argv = {"train": ["train", "--synthetic", "--epochs", "1", "--out", str(out_dir)],
            "bench": ["bench", "--sentences", "20"], "gradcheck": ["gradcheck"]}[command]
    code = main(argv + _config_argv(tmp_path, source, "seed", "-1"))
    captured = capsys.readouterr()
    assert code == 1
    prefix = "invalid configuration: " if command == "train" else ""
    assert captured.err.splitlines() == [f"error: {prefix}seed must be nonnegative, got -1"]
    assert captured.out == ""
    assert not out_dir.exists()


# --- no file input ends in a traceback -----------------------------------------

def _odd_files(tmp_path, kind):
    """Paths to files of one kind that no input of the CLI takes: one file,
    or for "header" and "truncated" seeded corruptions of a checkpoint."""
    path = tmp_path / f"odd_{kind}"
    if kind in ("header", "truncated"):
        yield from _corrupt_checkpoints(tmp_path, path, kind)
        return
    if kind == "dir":
        path.mkdir()
    elif kind == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_bytes({"empty": b"", "utf8": b"\xff\xfe",
                          "text": b"just some words\n"}[kind])
    yield str(path)


def _corrupt_checkpoints(tmp_path, path, kind):
    """Seeded corruptions of a 24-dim checkpoint, at `path` or beside it.

    At 24 dims the arrays changed here are over 4 KiB, so zipfile parses
    their .npy header before it has read them whole and checked their CRC.
    "header" changes one byte in the first 128 of emb.words, cell.W_h and
    cell.W_x, 40 seeded ones each, then gives every other value to the "("
    that opens cell.W_h's shape, which gives the dims, and to six bytes of
    cell.W_x's, which is only read: the two bytes of the header's length,
    the "8" of its dtype, the space before "'fortran_order'", the "(" and
    the shape's last digit. "truncated" cuts the file short, and cuts
    cell.W_h's member inside its header in an otherwise whole archive.
    """
    src = tmp_path / "ckpt24.npz"
    emb = random_embeddings(build_vocab(parse_semeval_xml(FIXTURE, "atsa")), dim=24)
    save_checkpoint(build_model("atsa", "aa", "last", emb, hidden_dim=24), src)
    raw = src.read_bytes()
    with zipfile.ZipFile(src) as archive:
        # A member's bytes follow its 30-byte local header, name and extra field.
        start = {info.filename: info.header_offset + 30
                 + int.from_bytes(raw[info.header_offset + 26:info.header_offset + 28], "little")
                 + int.from_bytes(raw[info.header_offset + 28:info.header_offset + 30], "little")
                 for info in archive.infolist()}
    rng = make_rng([2027, 5])
    if kind == "header":
        changes = [(start[name] + at, raw[start[name] + at] ^ flip)
                   for name in ("emb.words.npy", "cell.W_h.npy", "cell.W_x.npy")
                   for at, flip in zip(rng.integers(0, 128, 40), rng.integers(1, 256, 40))]
        w_h, w_x = start["cell.W_h.npy"], start["cell.W_x.npy"]
        header = raw[w_x:w_x + 128]
        spots = [raw.index(b"(", w_h)] + [w_x + header.index(text) + shift for text, shift in (
            (b"\x00{", -1), (b"\x00{", 0), (b"8'", 0), (b" 'fortran_order'", 0), (b"(", 0),
            (b")", -1))]
        changes += [(at, value) for at in spots for value in range(256) if value != raw[at]]
        path.write_bytes(raw)
        with open(path, "r+b") as fh:  # in place: rewriting the file is slow
            for at, value in changes:
                fh.seek(at)
                fh.write(bytes([value]))
                fh.flush()
                yield str(path)
                fh.seek(at)
                fh.write(raw[at:at + 1])
    else:
        for n, cut in enumerate(rng.integers(1, len(raw), 20)):
            (tmp_path / f"cut{n}.npz").write_bytes(raw[:cut])
            yield str(tmp_path / f"cut{n}.npz")
        for n, cut in enumerate(rng.integers(0, 128, 10)):
            rewrite_member(src, tmp_path / f"member_cut{n}.npz", "cell.W_h.npy",
                           lambda data: data[:cut])
            yield str(tmp_path / f"member_cut{n}.npz")


# An empty config file, and an embeddings file with no vocabulary token in
# it, are valid inputs: those runs train.
_TRAINS = {("train --config", "empty"), ("train --emb", "empty"), ("train --emb", "text")}


@pytest.mark.parametrize("kind", ["empty", "dir", "utf8", "npy", "text", "header", "truncated"])
@pytest.mark.parametrize("flag", ["train --config", "train --data", "train --emb",
                                  "eval --checkpoint", "eval --data"])
def test_no_file_input_ends_in_a_traceback(tmp_path, capsys, flag, kind):
    out = str(tmp_path / "o")
    glove = write_glove(tmp_path / "vectors.txt", dim=4)
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(build_model("atsa", "classic", "last",
                                random_embeddings(build_vocab([]), dim=4), hidden_dim=4), ckpt)
    fixture_train = ["train", "--dim", "4", "--hidden", "4", "--epochs", "1", "--out", out]
    for n, odd in enumerate(_odd_files(tmp_path, kind)):
        argv = {
            "train --config": ["train", "--synthetic", "--epochs", "1", "--out", out,
                               "--config", odd],
            "train --data": fixture_train + ["--data", odd, "--emb", glove],
            "train --emb": fixture_train + ["--data", FIXTURE, "--emb", odd],
            "eval --checkpoint": ["eval", "--checkpoint", odd, "--data", FIXTURE],
            "eval --data": ["eval", "--checkpoint", ckpt, "--data", odd],
        }[flag]
        code = main(argv)
        err = capsys.readouterr().err
        if (flag, kind) in _TRAINS:
            assert (code, err) == (0, ""), n
        else:
            assert code == 1, n
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (n, err)


# --- bench ---------------------------------------------------------------------

def test_bench_smoke(tmp_path, capsys):
    summary = run_bench(seed=0, n_sentences=20, out_dir=str(tmp_path))
    capsys.readouterr()
    assert summary["train"] + summary["dev"] == 40
    assert summary["test"] == 20
    for kind in ("aa", "classic"):
        stats = summary[kind]
        assert 0.0 <= stats["test_accuracy"] <= 1.0
        assert stats["epochs"] >= 1
        assert (tmp_path / f"{kind}_metrics.tsv").exists()
        assert (tmp_path / f"{kind}_checkpoint.npz").exists()


def test_bench_without_disambiguation_instances_reports_null(capsys):
    # With seed 64911 no test sentence of the 20-sentence corpus gives its
    # two aspects different polarities, so the disambiguation subset is empty.
    assert main(["bench", "--seed", "64911", "--sentences", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["disambiguation"] == 0
    for kind, line in zip(("aa", "classic"), lines):
        assert summary[kind]["disambiguation_accuracy"] is None
        assert line.startswith(f"{kind}+last:")
        assert "disambiguation accuracy n/a over 0 instances" in line


def test_bench_too_few_sentences_is_one_error_line(capsys):
    code = main(["bench", "--sentences", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at least 20" in err


def test_bench_too_many_sentences_is_one_error_line(capsys):
    # 10,000 training sentences and 5,000 unseen test ones exceed the
    # template's 9,720 distinct sentences: refused up front, not a hang.
    code = main(["bench", "--sentences", "10000"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "9720 distinct sentences" in err
