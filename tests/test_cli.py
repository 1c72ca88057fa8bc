"""CLI behavior: argument handling, config precedence, artifacts,
determinism, and error paths."""

import json
import os
import re

import numpy as np
import pytest

from aalstm.checkpoint import load_checkpoint, save_checkpoint
from aalstm.cli import (CliError, _load_eval_instances, build_parser, main,
                        parse_config_file, pipeline_grad_report, resolve_config,
                        run_bench)
from aalstm.data import CategoryId, build_vocab, random_embeddings
from aalstm.model import build_model
from aalstm.tensor import ConfigError

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
    code = main(["gradcheck", "--cell", "aa", "--head", "attention",
                 "--corrupt", "cell.W_ai"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


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
    ("classic", "attention", "emb.aspects"),
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
    assert "array 'cell.W_i' has shape (5, 10), but the dims of its other arrays " \
        "need (5, 9)" in err


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
])
def test_eval_bad_instances_tsv_is_data_error(tmp_path, capsys, task, line, message):
    emb = random_embeddings(build_vocab([]), dim=4)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(build_model(task, "aa", "last", emb, hidden_dim=4), ckpt)
    data = tmp_path / "insts.tsv"
    data.write_text(line + "\n")
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
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


@pytest.mark.parametrize("command,payload,message", [
    ("eval", b"the soup is bad\tterm:1:1\tnegative\ncaf\xe9\tterm:0:0\tneutral\n",
     "bad.txt:2: not valid UTF-8"),
    ("train", b"the 0.1 0.2 0.3 0.4 0.5\nsoup 0.1 abc 0.3 0.4 0.5\n",
     "bad.txt:2: 'soup': could not convert string to float: 'abc'"),
    ("train", b"the 0.1 0.2 0.3 0.4 0.5\ncaf\xe9 0.1 0.2 0.3 0.4 0.5\n",
     "bad.txt:2: not valid UTF-8"),
], ids=["eval-tsv-utf8", "train-emb-number", "train-emb-utf8"])
def test_bad_input_file_is_data_error(tmp_path, capsys, command, payload, message):
    bad = tmp_path / "bad.txt"
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
    assert err.startswith("error:")
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


def test_bench_too_few_sentences_is_one_error_line(capsys):
    code = main(["bench", "--sentences", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at least 20" in err
