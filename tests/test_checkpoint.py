"""Checkpoint round-trip and corruption handling."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from aalstm.data import CategoryId, EmbeddingTable, LabeledInstance, TermSpan, UNK_TOKEN
from aalstm.model import CELLS, HEADS, TASKS, assemble_model, build_model
from aalstm.tensor import make_rng

DIM = 5


def tiny_embeddings(seed=90):
    words = [UNK_TOKEN, "the", "soup", "salad", "is", "good", "bad", "."]
    vocab = {w: i for i, w in enumerate(words)}
    rng = make_rng(seed)
    return EmbeddingTable(vocab, rng.uniform(-0.5, 0.5, size=(len(words), DIM)),
                          oov_tokens=frozenset([UNK_TOKEN, "salad"]))


def make(task, cell_kind, head_kind, seed=91):
    return build_model(task, cell_kind, head_kind, tiny_embeddings(),
                       hidden_dim=DIM, seed=seed)


def atsa_instance():
    return LabeledInstance(("the", "soup", "is", "good"), TermSpan(1, 1), "positive")


def acsa_instance():
    return LabeledInstance(("the", "salad", "is", "bad"), CategoryId(2), "negative")


def rewrite_npz(src, dst, mutate):
    """Reload an archive, apply `mutate` to its entry dict, and rewrite it."""
    with np.load(src, allow_pickle=False) as archive:
        entries = {key: archive[key] for key in archive.files}
    mutate(entries)
    with open(dst, "wb") as fh:
        np.savez(fh, **entries)


def edit_meta(entries, **changes):
    meta = json.loads(str(entries["__meta__"][()]))
    meta.update(changes)
    entries["__meta__"] = np.array(json.dumps(meta))


ALL_COMBOS = [("atsa", c, h) for c in ("classic", "aa") for h in ("last", "attention")] \
    + [("acsa", c, h) for c in ("classic", "aa") for h in ("last", "attention")]


@pytest.mark.parametrize("task,cell_kind,head_kind", ALL_COMBOS)
def test_round_trip_bit_exact(tmp_path, task, cell_kind, head_kind):
    model = make(task, cell_kind, head_kind)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    assert loaded.task == task
    assert loaded.cell_kind == cell_kind
    assert loaded.head_kind == head_kind
    assert loaded.embeddings.vocab == model.embeddings.vocab
    assert loaded.embeddings.oov_tokens == model.embeddings.oov_tokens
    assert loaded.embeddings.matrix.tobytes() == model.embeddings.matrix.tobytes()
    assert loaded.categories == model.categories
    if model.aspect_embeddings is not None:
        assert (loaded.aspect_embeddings.matrix.tobytes()
                == model.aspect_embeddings.matrix.tobytes())
    else:
        assert loaded.aspect_embeddings is None
    before, after = model.params(), loaded.params()
    assert sorted(before) == sorted(after)
    for name in before:
        assert before[name].tobytes() == after[name].tobytes(), name


@pytest.mark.parametrize("task,cell_kind,head_kind", ALL_COMBOS)
def test_round_trip_predictions_identical(tmp_path, task, cell_kind, head_kind):
    model = make(task, cell_kind, head_kind)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    inst = atsa_instance() if task == "atsa" else acsa_instance()
    assert np.array_equal(model.predict_probs(inst), loaded.predict_probs(inst))


_AA_CELL_KEYS = ["cell.W_x", "cell.W_a", "cell.W_h", "cell.b"]
_CLASSIC_CELL_KEYS = ["cell.W_x", "cell.W_h", "cell.b"]


@pytest.mark.parametrize("args,keys", [
    (("acsa", "aa", "attention"),
     ["__meta__", "emb.words", "emb.aspects"] + _AA_CELL_KEYS
     + ["attn.W_h", "attn.w", "attn.W_p", "attn.W_x", "clf.W_s", "clf.b_s"]),
    (("atsa", "classic", "last"),
     ["__meta__", "emb.words"] + _CLASSIC_CELL_KEYS + ["clf.W_s", "clf.b_s"]),
])
def test_archive_key_set_is_pinned(tmp_path, args, keys):
    # Format version 4 fixes these names and their order, and the metadata's
    # keys. The cell's arrays are its operand arrays, in field order.
    path = tmp_path / "ckpt.npz"
    save_checkpoint(make(*args), path)
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == keys
        meta = json.loads(str(archive["__meta__"][()]))
    assert meta["version"] == 4
    assert list(meta) == ["format", "version", "task", "cell", "head", "vocab",
                          "oov_tokens", "categories"]


def test_loaded_params_are_live_views(tmp_path):
    model = make("atsa", "aa", "attention")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    loaded.params()["cell.W_x"][0, 0] = 7.0
    assert loaded.cell.W_x[0, 0] == 7.0


def test_cell_arrays_in_other_layouts_load_bit_exactly(tmp_path):
    # Cell arrays are read straight into their storage when stored as
    # native C-order float64, and converted otherwise.
    model = make("atsa", "aa", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def relayout(entries):
        entries["cell.W_x"] = np.asfortranarray(entries["cell.W_x"])
        entries["cell.W_a"] = entries["cell.W_a"].astype(">f8")
    rewrite_npz(src, dst, relayout)
    loaded = load_checkpoint(dst)
    for name, arr in model.cell.to_arrays().items():
        assert loaded.cell.to_arrays()[name].tobytes() == arr.tobytes(), name


def test_cell_array_of_wrong_shape_is_rejected(tmp_path):
    model = make("atsa", "aa", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: e.update({"cell.W_h": e["cell.W_h"][:-1]}))
    with pytest.raises(CheckpointError, match="W_h"):
        load_checkpoint(dst)


@pytest.mark.parametrize("key,value", [("cell.W_x", np.nan), ("cell.W_a", -np.inf),
                                       ("cell.W_h", np.nan), ("cell.b", np.inf),
                                       ("emb.words", -np.inf), ("clf.b_s", np.nan)])
def test_non_finite_array_is_rejected(tmp_path, key, value):
    model = make("atsa", "aa", "attention")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def poison(entries):
        entries[key] = entries[key].copy()
        entries[key].flat[-1] = value
    rewrite_npz(src, dst, poison)
    with pytest.raises(CheckpointError, match=f"non-finite values in '{key}'"):
        load_checkpoint(dst)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no such checkpoint"):
        load_checkpoint(tmp_path / "absent.npz")


def test_not_an_archive(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_text("this is not a zip archive")
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["empty", "npy", "text"])
def test_non_archive_file_is_named_as_such(tmp_path, kind):
    # A checkpoint is read as an npz archive only: an empty file must not end
    # in EOFError, a plain .npy in an array without a context manager, nor a
    # text file in a message about pickled data.
    path = tmp_path / "model.npz"
    if kind == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_text("" if kind == "empty" else "epoch\ttrain_loss\n")
    with pytest.raises(CheckpointError,
                       match="^cannot read checkpoint .*: not a checkpoint archive"):
        load_checkpoint(path)


def test_archive_without_meta(tmp_path):
    path = tmp_path / "plain.npz"
    with open(path, "wb") as fh:
        np.savez(fh, weights=np.zeros(3))
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3, 99])
def test_unsupported_version(tmp_path, version):
    # Version 1 held the attention head's aspect weights, version 2 the
    # cell's per-gate matrices and version 3 a frozen-word-table switch; none
    # is converted.
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, version=version))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(dst)


@pytest.mark.parametrize("switch,value", [("cell", "gru"), ("head", "mean")])
def test_unknown_cell_or_head_is_rejected(tmp_path, switch, value):
    model = make("atsa", "aa", "attention")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, **{switch: value}))
    with pytest.raises(CheckpointError, match=value):
        load_checkpoint(dst)


def test_wrong_format_tag(tmp_path):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, format="other-tool"))
    with pytest.raises(CheckpointError, match="not an aalstm-checkpoint"):
        load_checkpoint(dst)


@pytest.mark.parametrize("text", [
    pytest.param("{not json", id="not-json"),
    # Valid JSON that is not an object.
    pytest.param("[]", id="list"), pytest.param('"x"', id="string"),
    pytest.param("3", id="number"),
])
def test_corrupt_meta_json(tmp_path, text):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def break_meta(entries):
        entries["__meta__"] = np.array(text)
    rewrite_npz(src, dst, break_meta)
    with pytest.raises(CheckpointError, match="corrupt checkpoint metadata"):
        load_checkpoint(dst)


def test_missing_parameter_array(tmp_path):
    model = make("atsa", "aa", "attention")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: e.pop("cell.W_a"))
    with pytest.raises(CheckpointError, match="missing array 'cell.W_a'"):
        load_checkpoint(dst)


_ASPECT_GATE_KEYS = [key for key in _AA_CELL_KEYS if key not in _CLASSIC_CELL_KEYS]


@pytest.mark.parametrize("args,change,unused", [
    pytest.param(("atsa", "aa", "attention"), {"cell": "classic"}, _ASPECT_GATE_KEYS,
                 id="cell-classic"),
    pytest.param(("atsa", "aa", "attention"), {"head": "last"},
                 ["attn.W_h", "attn.w", "attn.W_p", "attn.W_x"], id="head-last"),
    # acsa classic+last does not read the aspect, so it holds no category table.
    pytest.param(("acsa", "aa", "last"), {"cell": "classic"},
                 ["emb.aspects"] + _ASPECT_GATE_KEYS, id="acsa-cell-classic"),
])
def test_arrays_the_declared_model_does_not_use_are_rejected(tmp_path, args, change, unused):
    # An archive whose metadata names a smaller model must not load as that
    # model with the extra arrays dropped.
    model = make(*args)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, **change))
    with pytest.raises(CheckpointError, match="unused array") as info:
        load_checkpoint(dst)
    for key in unused:
        assert repr(key) in str(info.value)


def test_missing_aspect_table(tmp_path):
    model = make("acsa", "aa", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: e.pop("emb.aspects"))
    with pytest.raises(CheckpointError, match="missing array 'emb.aspects'"):
        load_checkpoint(dst)


def test_categories_for_a_model_without_a_table_are_rejected(tmp_path):
    # acsa classic+last reads no aspect, so no category table: metadata that
    # lists categories for it is the fault, not the absent table.
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(make("acsa", "classic", "last"), src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, categories=["food"]))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(dst)
    assert str(info.value) == (
        f"checkpoint {dst} does not fit the acsa classic+last model its metadata "
        f"declares: categories ['food'], but it has no category table")


@pytest.mark.parametrize("cell_kind,head_kind", [("aa", "last")])
def test_acsa_aspect_model_without_categories_is_rejected(tmp_path, cell_kind, head_kind):
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(make("acsa", cell_kind, head_kind), src)
    rewrite_npz(src, dst, lambda e: (edit_meta(e, categories=None), e.pop("emb.aspects")))
    with pytest.raises(CheckpointError, match="needs a category table"):
        load_checkpoint(dst)


def test_dim_mismatch_is_rejected(tmp_path):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def shrink_embeddings(entries):
        entries["emb.words"] = entries["emb.words"][:, :-1]
    rewrite_npz(src, dst, shrink_embeddings)
    with pytest.raises(CheckpointError, match=re.escape(
            "array 'cell.W_x' has shape (20, 5), but the dims of its other arrays need (20, 4)")):
        load_checkpoint(dst)


def test_aa_aspect_dim_must_equal_hidden_dim(tmp_path):
    # An acsa aa model may have emb dim != hidden dim; declared atsa, its
    # aspect vectors would have the emb dim, which the cell cannot take.
    model = build_model("acsa", "aa", "last", tiny_embeddings(), hidden_dim=4)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: (edit_meta(e, task="atsa", categories=None),
                                     e.pop("emb.aspects")))
    with pytest.raises(CheckpointError, match=re.escape(
            "aspect-aware cell needs aspect dim == hidden dim; atsa aspect vectors "
            "have the embedding dim 5, hidden is 4")):
        load_checkpoint(dst)


def test_vocab_permutation_validated(tmp_path):
    model = make("atsa", "classic", "last")
    model.embeddings.vocab["soup"] = model.embeddings.vocab["the"]
    with pytest.raises(CheckpointError, match="not a permutation"):
        save_checkpoint(model, tmp_path / "a.npz")


# --- round-trip properties ------------------------------------------------------

def assert_round_trip(model, path, inst):
    """Load gives the same arrays and predictions, and saves the same bytes."""
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert (loaded.task, loaded.cell_kind, loaded.head_kind) \
        == (model.task, model.cell_kind, model.head_kind)
    before, after = model.params(), loaded.params()
    assert list(before) == list(after)
    for key in before:
        assert after[key].shape == before[key].shape, key
        assert after[key].tobytes() == before[key].tobytes(), key
    assert model.predict_probs(inst).tobytes() == loaded.predict_probs(inst).tobytes()
    again = path.with_name("again.npz")
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(task=st.sampled_from(TASKS), cell_kind=st.sampled_from(CELLS),
       head_kind=st.sampled_from(HEADS), dim=st.integers(1, 6), hidden=st.integers(1, 6),
       n_words=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
def test_round_trip_property(tmp_path_factory, task, cell_kind, head_kind, dim, hidden,
                             n_words, seed):
    if task == "atsa" and cell_kind == "aa":
        hidden = dim  # atsa aspect vectors have the embedding dim
    words = [UNK_TOKEN] + [f"w{i}" for i in range(n_words)]
    emb = EmbeddingTable({w: i for i, w in enumerate(words)},
                         make_rng(seed).uniform(-0.5, 0.5, size=(len(words), dim)),
                         oov_tokens=frozenset(words[::2]))
    model = build_model(task, cell_kind, head_kind, emb, hidden_dim=hidden, seed=seed)
    aspect = TermSpan(0, 0) if task == "atsa" else CategoryId(seed % 5)
    inst = LabeledInstance(tuple(words[-2:]), aspect, "neutral")
    assert_round_trip(model, tmp_path_factory.mktemp("ckpt") / "ckpt.npz", inst)


@pytest.mark.parametrize("head_kind", ["attention", "last"])
def test_round_trip_of_shapes_build_model_does_not_make(tmp_path, head_kind):
    # acsa classic models with a hidden dim other than the embedding dim read
    # no aspect, so `assemble_model` gives them no category table whatever
    # categories it is passed: the loader must take every dim from the
    # archive.
    model = assemble_model("acsa", "classic", head_kind, tiny_embeddings(), 3,
                           ("food", "price"),
                           lambda cls, *dims: cls.init(*dims, seed=4))
    assert model.aspect_embeddings is None
    assert_round_trip(model, tmp_path / "ckpt.npz",
                      LabeledInstance(("the", "soup", "is", "bad"), CategoryId(1), "negative"))
