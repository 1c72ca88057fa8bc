"""Model persistence: one npz archive per checkpoint.

The archive holds `SentimentModel.params()` under its names and in its order
(float64, round-tripping bit-exactly), plus a `__meta__` JSON string carrying
everything that is not a weight: format version, task/cell/head switches,
the vocabulary in row order, which rows were randomly initialized, and the
category list.

Loading mirrors saving. The .npy headers of "emb.words" and "cell.W_h"
give the dims; the model the switches name is built around them with
uninitialized storage; the archive's keys must equal `__meta__` plus its
`params()`, and its metadata lists categories exactly for a model with a
table; and each array is read straight into its live array, whose shape it
must have, so a category table of the wrong width is caught there. NaN or
inf is rejected.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .data import EmbeddingTable
from .model import SentimentModel, assemble_model

FORMAT_NAME = "aalstm-checkpoint"
FORMAT_VERSION = 4
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
        "vocab": _vocab_rows(model.embeddings.vocab),
        "oov_tokens": sorted(model.embeddings.oov_tokens),
        "categories": (list(model.aspect_embeddings.categories)
                       if model.aspect_embeddings is not None else None),
    }
    with open(path, "wb") as fh:
        np.savez(fh, **{_META_KEY: np.array(json.dumps(meta))}, **model.params())


_READ_CHUNK = 1 << 18  # numpy's own read size; larger ones raise peak memory


def _npy_header(fp):
    """(shape, fortran_order, dtype) from the header of an .npy stream."""
    version = np.lib.format.read_magic(fp)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(fp)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(fp)
    raise CheckpointError(f"unsupported .npy format version {version}")


def _shape(path, archive, key: str, ndim: int) -> tuple:
    """The shape in the header of array `key`, which must have `ndim` dimensions."""
    if key not in archive:
        raise CheckpointError(f"checkpoint {path} is missing array {key!r}")
    with archive.zip.open(key + ".npy") as fp:
        shape = _npy_header(fp)[0]
    if len(shape) != ndim:
        raise CheckpointError(
            f"checkpoint {path}: array {key!r} has shape {shape}, not {ndim} dimensions")
    return shape


def _read_into(path, archive, key: str, out: np.ndarray) -> None:
    """Read array `key` into `out`, whose shape it must have.

    Native C-order float64 data goes straight into `out`, chunk by chunk,
    so a load allocates no scratch array; other layouts and dtypes are
    converted through one.
    """
    with archive.zip.open(key + ".npy") as fp:
        shape, fortran_order, dtype = _npy_header(fp)
        if shape != out.shape:
            raise CheckpointError(
                f"checkpoint {path}: array {key!r} has shape {shape}, but the "
                f"dims of its other arrays need {out.shape}")
        if fortran_order or dtype != out.dtype:
            out[...] = archive[key]
            return
        data = memoryview(out).cast("B")
        for start in range(0, data.nbytes, _READ_CHUNK):
            chunk = data[start:start + _READ_CHUNK]
            if fp.readinto(chunk) != chunk.nbytes:
                raise CheckpointError(f"checkpoint {path}: array {key!r} is truncated")


def load_checkpoint(path) -> SentimentModel:
    """Rebuild a model from `save_checkpoint` output, bit-exactly."""
    try:
        try:  # an npz archive, not whatever else `np.load` reads
            archive = np.lib.npyio.NpzFile(path)
        except zipfile.BadZipFile as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: not a checkpoint archive ({exc})") from None
        with archive:
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
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint metadata in {path}: "
                              f"a JSON {type(meta).__name__}, not an object")
    if meta.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path} is not an {FORMAT_NAME} file")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})")

    try:
        n_words, dx = _shape(path, archive, "emb.words", 2)
        _, hidden_dim = _shape(path, archive, "cell.W_h", 2)
        categories = meta["categories"]
        embeddings = EmbeddingTable({token: i for i, token in enumerate(meta["vocab"])},
                                    np.empty((n_words, dx)), frozenset(meta["oov_tokens"]))
        model = assemble_model(meta["task"], meta["cell"], meta["head"], embeddings,
                               hidden_dim, categories, lambda cls, *dims: cls.empty(*dims))
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"inconsistent checkpoint {path}: {exc}") from None
    arrays = model.params()
    stored = set(archive.files) - {_META_KEY}
    mismatch = ([f"missing array {key!r}" for key in arrays if key not in stored]
                + [f"unused array {key!r}" for key in sorted(stored.difference(arrays))])
    if categories is not None and model.aspect_embeddings is None:
        mismatch.insert(0, f"categories {categories!r}, but it has no category table")
    if mismatch:
        raise CheckpointError(
            f"checkpoint {path} does not fit the {meta['task']} {meta['cell']}+"
            f"{meta['head']} model its metadata declares: {', '.join(mismatch)}")
    for key, out in arrays.items():
        _read_into(path, archive, key, out)
        # One array at a time, so the check's scratch is one array's mask.
        if not np.isfinite(out).all():
            raise CheckpointError(f"checkpoint {path} has non-finite values in {key!r}")
    return model
