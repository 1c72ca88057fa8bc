"""Model persistence: one npz archive per checkpoint.

The archive maps parameter name to float64 array (round-trips bit-exactly)
plus a `__meta__` JSON string carrying everything that is not a weight:
format version, task/cell/head switches, the vocabulary in row order, which
rows were randomly initialized, and the category list. Word embeddings and
the category table are always stored, even when frozen during training,
because inference needs them.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .cells import AALstmParams, ClassicLstmParams
from .data import AspectEmbeddingTable, EmbeddingTable
from .heads import AttentionParams, ClassifierParams
from .model import SentimentModel

FORMAT_NAME = "aalstm-checkpoint"
FORMAT_VERSION = 1
_META_KEY = "__meta__"


class CheckpointError(ValueError):
    """Unreadable, unversioned, or internally inconsistent checkpoint file."""


def _vocab_rows(vocab: dict[str, int]) -> list[str]:
    rows: list[str | None] = [None] * len(vocab)
    for token, i in vocab.items():
        if not 0 <= i < len(rows) or rows[i] is not None:
            raise CheckpointError(f"vocabulary indices are not a permutation at {token!r}")
        rows[i] = token
    return rows  # type: ignore[return-value]


def save_checkpoint(model: SentimentModel, path) -> None:
    """Write the model's switches, vocabulary, and all weights to `path`."""
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "task": model.task,
        "cell": model.cell_kind,
        "head": model.head_kind,
        "train_embeddings": model.train_embeddings,
        "vocab": _vocab_rows(model.embeddings.vocab),
        "oov_tokens": sorted(model.embeddings.oov_tokens),
        "categories": (list(model.aspect_embeddings.categories)
                       if model.aspect_embeddings is not None else None),
    }
    with open(path, "wb") as fh:
        np.savez(fh, **{_META_KEY: np.array(json.dumps(meta))}, **model.arrays())


_READ_CHUNK = 1 << 20


def _npy_header(fp):
    """(shape, fortran_order, dtype) from the header of an .npy stream."""
    version = np.lib.format.read_magic(fp)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(fp)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(fp)
    raise CheckpointError(f"unsupported .npy format version {version}")


class _Section:
    """The arrays under one prefix of an open archive, read on demand.

    A cell reads its arrays straight into its stacked storage through
    `shape_of`/`read_into` (see `cells._read_stacked`); other parameter
    sets take whole arrays by name.
    """

    def __init__(self, archive, prefix: str):
        self.archive, self.prefix = archive, prefix

    def _key(self, name: str) -> str:
        key = f"{self.prefix}.{name}"
        if key not in self.archive:
            raise CheckpointError(f"checkpoint is missing array {key!r}")
        return key

    def __getitem__(self, name: str) -> np.ndarray:
        return self.archive[self._key(name)]

    def shape_of(self, name: str) -> tuple:
        with self.archive.zip.open(self._key(name) + ".npy") as fp:
            return _npy_header(fp)[0]

    def read_into(self, name: str, out: np.ndarray) -> None:
        with self.archive.zip.open(self._key(name) + ".npy") as fp:
            _, fortran_order, dtype = _npy_header(fp)
            if fortran_order or dtype != out.dtype:
                out[...] = self[name]
                return
            data = memoryview(out).cast("B")
            for start in range(0, data.nbytes, _READ_CHUNK):
                chunk = data[start:start + _READ_CHUNK]
                if fp.readinto(chunk) != chunk.nbytes:
                    raise CheckpointError(f"array {self._key(name)!r} is truncated")


def load_checkpoint(path) -> SentimentModel:
    """Rebuild a model from `save_checkpoint` output, bit-exactly."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return _read_model(path, archive)
    except CheckpointError:
        raise
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None


def _read_model(path, archive) -> SentimentModel:
    if _META_KEY not in archive:
        raise CheckpointError(f"{path} has no {_META_KEY} entry; not a checkpoint")
    try:
        meta = json.loads(str(archive[_META_KEY][()]))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint metadata in {path}: {exc}") from None
    if meta.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path} is not an {FORMAT_NAME} file")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})")

    try:
        vocab = {token: i for i, token in enumerate(meta["vocab"])}
        embeddings = EmbeddingTable(vocab, _Section(archive, "emb")["words"],
                                    frozenset(meta["oov_tokens"]))
        cell_cls = AALstmParams if meta["cell"] == "aa" else ClassicLstmParams
        cell = cell_cls.from_source(_Section(archive, "cell"))
        attn = (AttentionParams.from_arrays(_Section(archive, "attn"))
                if meta["head"] == "attention" else None)
        clf = ClassifierParams.from_arrays(_Section(archive, "clf"))
        aspect_embeddings = None
        if meta["categories"] is not None:
            aspect_embeddings = AspectEmbeddingTable(tuple(meta["categories"]),
                                                     _Section(archive, "emb")["aspects"])
        return SentimentModel(meta["task"], meta["cell"], meta["head"],
                              embeddings, cell, clf, attn=attn,
                              aspect_embeddings=aspect_embeddings,
                              train_embeddings=bool(meta["train_embeddings"]))
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"inconsistent checkpoint {path}: {exc}") from None
