"""Checkpoint round-trip and corruption handling."""

import json

import numpy as np
import pytest

from aalstm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from aalstm.data import CategoryId, EmbeddingTable, LabeledInstance, TermSpan, UNK_TOKEN
from aalstm.model import build_model
from aalstm.tensor import make_rng

DIM = 5


def tiny_embeddings(seed=90):
    words = [UNK_TOKEN, "the", "soup", "salad", "is", "good", "bad", "."]
    vocab = {w: i for i, w in enumerate(words)}
    rng = make_rng(seed)
    return EmbeddingTable(vocab, rng.uniform(-0.5, 0.5, size=(len(words), DIM)),
                          oov_tokens=frozenset([UNK_TOKEN, "salad"]))


def make(task, cell_kind, head_kind, seed=91, train_embeddings=True):
    return build_model(task, cell_kind, head_kind, tiny_embeddings(),
                       hidden_dim=DIM, seed=seed,
                       train_embeddings=train_embeddings)


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
    assert loaded.train_embeddings is True
    assert loaded.embeddings.vocab == model.embeddings.vocab
    assert loaded.embeddings.oov_tokens == model.embeddings.oov_tokens
    assert loaded.embeddings.matrix.tobytes() == model.embeddings.matrix.tobytes()
    if model.aspect_embeddings is not None:
        assert loaded.aspect_embeddings.categories == model.aspect_embeddings.categories
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


def test_frozen_embeddings_round_trip(tmp_path):
    model = make("atsa", "aa", "last", train_embeddings=False)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.train_embeddings is False
    assert "emb.words" not in loaded.params()
    # Frozen embeddings still ride along: inference needs the table.
    assert loaded.embeddings.matrix.tobytes() == model.embeddings.matrix.tobytes()


_AA_CELL_KEYS = {f"cell.{g}" for g in (
    "W_ai", "W_af", "W_ao", "W_i", "W_f", "W_c", "W_o",
    "b_ai", "b_af", "b_ao", "b_i", "b_f", "b_c", "b_o")}
_CLASSIC_CELL_KEYS = {f"cell.{g}" for g in (
    "W_i", "W_f", "W_c", "W_o", "b_i", "b_f", "b_c", "b_o")}


@pytest.mark.parametrize("args,train_embeddings,keys", [
    (("acsa", "aa", "attention"), True,
     {"__meta__", "emb.words", "emb.aspects", "attn.W_h", "attn.W_v", "attn.w",
      "attn.W_p", "attn.W_x", "clf.W_s", "clf.b_s"} | _AA_CELL_KEYS),
    (("atsa", "classic", "last"), False,
     {"__meta__", "emb.words", "clf.W_s", "clf.b_s"} | _CLASSIC_CELL_KEYS),
])
def test_archive_key_set_is_pinned(tmp_path, args, train_embeddings, keys):
    # Format version 1 fixes these names; frozen tables are stored too.
    path = tmp_path / "ckpt.npz"
    save_checkpoint(make(*args, train_embeddings=train_embeddings), path)
    with np.load(path, allow_pickle=False) as archive:
        assert set(archive.files) == keys
        assert json.loads(str(archive["__meta__"][()]))["version"] == 1


def test_loaded_params_are_live_views(tmp_path):
    model = make("atsa", "aa", "attention")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    loaded.params()["cell.W_i"][0, 0] = 7.0
    assert loaded.cell.W_i[0, 0] == 7.0


def test_cell_arrays_in_other_layouts_load_bit_exactly(tmp_path):
    # Cell arrays are read straight into stacked storage when stored as
    # native C-order float64, and converted otherwise.
    model = make("atsa", "aa", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def relayout(entries):
        entries["cell.W_i"] = np.asfortranarray(entries["cell.W_i"])
        entries["cell.W_ao"] = entries["cell.W_ao"].astype(">f8")
    rewrite_npz(src, dst, relayout)
    loaded = load_checkpoint(dst)
    for name, arr in model.cell.to_arrays().items():
        assert loaded.cell.to_arrays()[name].tobytes() == arr.tobytes(), name


def test_cell_array_of_wrong_shape_is_rejected(tmp_path):
    model = make("atsa", "aa", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: e.update({"cell.W_f": e["cell.W_f"][:-1]}))
    with pytest.raises(CheckpointError, match="W_f"):
        load_checkpoint(dst)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no such checkpoint"):
        load_checkpoint(tmp_path / "absent.npz")


def test_not_an_archive(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_text("this is not a zip archive")
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


def test_archive_without_meta(tmp_path):
    path = tmp_path / "plain.npz"
    with open(path, "wb") as fh:
        np.savez(fh, weights=np.zeros(3))
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, version=99))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(dst)


def test_wrong_format_tag(tmp_path):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: edit_meta(e, format="other-tool"))
    with pytest.raises(CheckpointError, match="not an aalstm-checkpoint"):
        load_checkpoint(dst)


def test_corrupt_meta_json(tmp_path):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def break_meta(entries):
        entries["__meta__"] = np.array("{not json")
    rewrite_npz(src, dst, break_meta)
    with pytest.raises(CheckpointError, match="corrupt checkpoint metadata"):
        load_checkpoint(dst)


def test_missing_parameter_array(tmp_path):
    model = make("atsa", "aa", "attention")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: e.pop("cell.W_ai"))
    with pytest.raises(CheckpointError, match="missing array 'cell.W_ai'"):
        load_checkpoint(dst)


def test_missing_aspect_table(tmp_path):
    model = make("acsa", "aa", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)
    rewrite_npz(src, dst, lambda e: e.pop("emb.aspects"))
    with pytest.raises(CheckpointError, match="missing array 'emb.aspects'"):
        load_checkpoint(dst)


def test_dim_mismatch_is_rejected(tmp_path):
    model = make("atsa", "classic", "last")
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(model, src)

    def shrink_embeddings(entries):
        entries["emb.words"] = entries["emb.words"][:, :-1]
    rewrite_npz(src, dst, shrink_embeddings)
    with pytest.raises(CheckpointError, match="dim"):
        load_checkpoint(dst)


def test_vocab_permutation_validated(tmp_path):
    model = make("atsa", "classic", "last")
    model.embeddings.vocab["soup"] = model.embeddings.vocab["the"]
    with pytest.raises(CheckpointError, match="not a permutation"):
        save_checkpoint(model, tmp_path / "a.npz")
