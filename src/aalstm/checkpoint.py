"""Model persistence: one npz archive per checkpoint.

The archive holds `SentimentModel.params()` under its names and in its order
(float64, round-tripping bit-exactly), plus a `__meta__` JSON string carrying
everything that is not a weight: format version, task/cell/head switches,
the vocabulary in row order, which rows were randomly initialized, and the
category list.

Loading mirrors saving. The vocabulary must be a list of distinct strings,
and the categories null or one. The .npy headers of "emb.words" and
"cell.W_h" give the dims, and a header that does not parse is an error
naming its array; the model the switches name is built around them with
uninitialized storage; the archive's keys must equal `__meta__` plus its
`params()`, and its metadata lists categories exactly for a model with a
table; and each array is read straight into its live array, whose shape
and float64 values it must have, so a category table of the wrong width
is caught there. NaN or inf is rejected.
"""

from __future__ import annotations

import json
import tokenize
import warnings
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
    rows = sorted(vocab, key=vocab.__getitem__)
    if [vocab[token] for token in rows] != list(range(len(rows))):
        raise CheckpointError("vocabulary indices are not a permutation of the rows")
    return rows


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
        "categories": model.categories,
    }
    with open(path, "wb") as fh:
        np.savez(fh, **{_META_KEY: np.array(json.dumps(meta))}, **model.params())


_READ_CHUNK = 1 << 18  # numpy's own read size; larger ones raise peak memory


def _npy_header(path, fp, key: str):
    """(shape, fortran_order, dtype) from the header of array `key`'s .npy
    stream; one that parses only through numpy's warning fallback for
    Python 2 files is as corrupt as one that does not parse."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            version = np.lib.format.read_magic(fp)
            if version != (1, 0):  # what np.savez writes for every checkpoint array
                raise ValueError(f"unsupported .npy format version {version}")
            return np.lib.format.read_array_header_1_0(fp)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError, Warning) as exc:
        raise CheckpointError(
            f"checkpoint {path}: array {key!r} has a corrupt .npy header: {exc}") from None


def _shape(path, archive, key: str, ndim: int) -> tuple:
    """The shape in the header of array `key`, which must have `ndim` dimensions."""
    if key not in archive:
        raise CheckpointError(f"checkpoint {path} is missing array {key!r}")
    with archive.zip.open(key + ".npy") as fp:
        shape = _npy_header(path, fp, key)[0]
    if len(shape) != ndim:
        raise CheckpointError(
            f"checkpoint {path}: array {key!r} has shape {shape}, not {ndim} dimensions")
    return shape


def _read_into(path, archive, key: str, out: np.ndarray) -> None:
    """Read array `key` into `out`, whose shape it must have.

    Native C-order float64 data goes straight into `out`, chunk by chunk,
    so a load allocates no scratch array, and must end where `out` does;
    Fortran order and the other byte order are converted through one.
    """
    with archive.zip.open(key + ".npy") as fp:
        shape, fortran_order, dtype = _npy_header(path, fp, key)
        if shape != out.shape:
            raise CheckpointError(
                f"checkpoint {path}: array {key!r} has shape {shape}, but the "
                f"dims of its other arrays need {out.shape}")
        if dtype.newbyteorder("=") != out.dtype:
            raise CheckpointError(f"checkpoint {path}: array {key!r} holds {dtype}, not float64")
        if fortran_order or dtype != out.dtype:
            out[...] = archive[key]
            return
        data, n = memoryview(out).cast("B"), out.nbytes
        got = sum(fp.readinto(data[at:at + _READ_CHUNK]) for at in range(0, n, _READ_CHUNK))
        if got != n or fp.read(1):  # reading to the end checks the CRC
            problem = "truncated" if got < n else "longer than its header's shape"
            raise CheckpointError(f"checkpoint {path}: array {key!r} is {problem}")


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
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, NotImplementedError,
            RuntimeError) as exc:  # the last three: zip headers that zipfile refuses
        raise CheckpointError(f"cannot read checkpoint {path}: {exc or 'it ends early'}") from None


def _names(value) -> bool:
    """Whether `value` is a list of distinct strings."""
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value))


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
        vocab, categories, oov = meta["vocab"], meta["categories"], meta["oov_tokens"]
        if not (_names(vocab) and (categories is None or _names(categories))):
            raise ValueError("the vocabulary must be a list of distinct strings, "
                             "and the categories null or one")
        words = {token: i for i, token in enumerate(vocab)}
        if not (_names(oov) and words.keys() >= set(oov)):
            raise ValueError("the out-of-vocabulary tokens must be distinct vocabulary tokens")
        n_words, dx = _shape(path, archive, "emb.words", 2)
        _, hidden_dim = _shape(path, archive, "cell.W_h", 2)
        embeddings = EmbeddingTable(words, np.empty((n_words, dx)), frozenset(oov))
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
    if categories is not None and model.categories is None:
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
