"""Corpus ingestion and construction.

Covers the review XML format of the 2014 benchmark (term- and category-level
annotations), whitespace GloVe-style embedding files, aspect-vector
construction for both task flavors, seeded dev splits, and a synthetic
two-aspect corpus for fast end-to-end checks.

Conventions fixed here and relied on everywhere else:
  - polarity strings and their class indices: positive=0, negative=1, neutral=2
  - tokenization: lowercase, split into word characters runs and single
    punctuation marks (punctuation kept as tokens)
  - character offsets [from, to) map to the smallest covering token span
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .tensor import INIT_HIGH, INIT_LOW, ConfigError, ParamSet, make_rng, uniform_init

POLARITIES = ("positive", "negative", "neutral")
POLARITY_INDEX = {name: i for i, name in enumerate(POLARITIES)}

# The predefined category set of the restaurant benchmark.
RESTAURANT_CATEGORIES = ("food", "service", "price", "ambience", "anecdotes/miscellaneous")

UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Single-spaced vocabulary lines of an embeddings file parsed per np.loadtxt.
_PARSE_ROWS = 256


class DataFormatError(ValueError):
    """Malformed input file or annotation."""


@dataclass(frozen=True)
class TermSpan:
    """Inclusive token span [start, end] of an aspect term in the sentence."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad term span ({self.start}, {self.end})")


@dataclass(frozen=True)
class CategoryId:
    """Index into the predefined aspect-category set."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"bad category index {self.index}")


Aspect = Union[TermSpan, CategoryId]


@dataclass(frozen=True)
class LabeledInstance:
    tokens: tuple[str, ...]
    aspect: Aspect
    polarity: str

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {self.polarity!r}")
        if isinstance(self.aspect, TermSpan) and self.aspect.end >= len(self.tokens):
            raise ValueError(f"term span {self.aspect} outside {len(self.tokens)} tokens")

    @property
    def label(self) -> int:
        return POLARITY_INDEX[self.polarity]


def tokenize_with_offsets(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Lowercased tokens, word-character runs and single punctuation marks,
    plus their [start, end) character offsets in the original text."""
    tokens, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group(0).lower())
        offsets.append((m.start(), m.end()))
    return tokens, offsets


def char_range_to_span(offsets: list[tuple[int, int]], lo: int, hi: int) -> TermSpan:
    """Smallest token span covering character range [lo, hi).

    Offsets falling inside a token select that whole token; a range touching
    no token at all, an empty one included, is an annotation error.
    """
    hit = [i for i, (s, e) in enumerate(offsets) if s < hi and e > lo]
    if not hit or hi <= lo:
        raise DataFormatError(f"character range [{lo}, {hi}) covers no token")
    return TermSpan(hit[0], hit[-1])


def parse_semeval_xml(path, task: str,
                      categories: tuple[str, ...] = RESTAURANT_CATEGORIES) -> list[LabeledInstance]:
    """Read a 2014-benchmark XML file into labeled instances.

    `task` selects the annotation layer: "atsa" reads aspectTerm elements
    (term text plus character offsets), "acsa" reads aspectCategory elements.
    One instance is emitted per (sentence, aspect) pair; aspects labeled
    "conflict" and sentences without any usable aspect produce nothing. A
    sentence whose text is missing or only whitespace is a DataFormatError.
    """
    if task not in ("atsa", "acsa"):
        raise ValueError(f"task must be 'atsa' or 'acsa', got {task!r}")
    try:
        tree = ET.parse(path)
    except (ET.ParseError, LookupError, ValueError) as e:  # the last two: a declared encoding
        raise DataFormatError(f"{path}: malformed XML: {e}") from e
    category_index = {name: i for i, name in enumerate(categories)}
    tag = "aspectTerm" if task == "atsa" else "aspectCategory"
    instances: list[LabeledInstance] = []
    for sentence in tree.getroot().iter("sentence"):
        sid = sentence.get("id")
        text_node = sentence.find("text")
        if text_node is None or not (text_node.text or "").strip():
            raise DataFormatError(f"{path}: sentence {sid!r} has no text")
        tokens, offsets = tokenize_with_offsets(text_node.text)
        for node in sentence.iter(tag):
            polarity = node.get("polarity")
            if polarity == "conflict":
                continue
            if polarity not in POLARITIES:
                raise DataFormatError(f"{path}: sentence {sid!r}: bad polarity {polarity!r}")
            if task == "atsa":
                try:
                    lo, hi = int(node.get("from")), int(node.get("to"))
                except (TypeError, ValueError) as e:
                    raise DataFormatError(f"{path}: sentence {sid!r}: bad offsets on "
                                          f"term {node.get('term')!r}") from e
                try:
                    aspect = char_range_to_span(offsets, lo, hi)
                except DataFormatError as e:
                    raise DataFormatError(f"{path}: sentence {sid!r}: {e}") from e
            else:
                name = node.get("category")
                if name not in category_index:
                    raise DataFormatError(
                        f"{path}: sentence {sid!r}: unknown category {name!r}")
                aspect = CategoryId(category_index[name])
            instances.append(LabeledInstance(tuple(tokens), aspect, polarity))
    return instances


@dataclass
class EmbeddingTable:
    """Token embeddings: vocabulary mapping plus a row-per-token matrix.

    Tokens absent from the vocabulary fall back to the reserved unknown
    token's row at lookup time. `oov_tokens` records which vocabulary rows
    were randomly initialized rather than copied from an embedding file.
    """

    vocab: dict[str, int]
    matrix: np.ndarray
    oov_tokens: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(self.vocab) != self.matrix.shape[0]:
            raise ValueError(
                f"vocab size {len(self.vocab)} != matrix rows {self.matrix.shape[0]}")
        if UNK_TOKEN not in self.vocab:
            raise ValueError(f"vocabulary must contain the reserved token {UNK_TOKEN!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class AspectEmbeddingTable(ParamSet):
    """One trainable vector per aspect category, in the model's category
    order; the names are the model's `categories`."""

    matrix: np.ndarray  # (n_categories, d)

    _INIT_STREAM = {"matrix": 40}

    @staticmethod
    def _shapes(n_categories: int, dim: int) -> dict[str, tuple[int, ...]]:
        return {"matrix": (n_categories, dim)}


def build_vocab(instances: Iterable[LabeledInstance]) -> dict[str, int]:
    """Token -> row index, with the unknown token reserved at row 0."""
    vocab = {UNK_TOKEN: 0}
    for inst in instances:
        for tok in inst.tokens:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _numbered_lines(path):
    """(line number, line) over a UTF-8 text file, less a leading byte-order
    mark. Invalid UTF-8 is a DataFormatError naming the first line that does
    not decode."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            yield from enumerate(f, start=1)
    except UnicodeDecodeError as e:
        with open(path, "rb") as f:
            for lineno, raw in enumerate(f, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise DataFormatError(f"{path}:{lineno}: not valid UTF-8 ({e.reason})") from None


def _vocab_row(path, lineno, fields, dim):
    """The row of one vocabulary line split into (token, value text) by the
    per-line rule: None for a token with spaces in it, else `dim` finite
    values, or a DataFormatError naming the line."""
    token, values = fields[0], fields[1].split() if len(fields) > 1 else []
    if len(values) > dim and not all(map(_is_number, values[:-dim])):
        return None
    if len(values) != dim:
        raise DataFormatError(
            f"{path}:{lineno}: expected {dim} values for {token!r}, got {len(values)}")
    try:
        row = np.array([float(v) for v in values])
        if not np.isfinite(row).all():
            raise ValueError("values must be finite")
    except ValueError as e:
        raise DataFormatError(f"{path}:{lineno}: {token!r}: {e}") from None
    return row


def load_embeddings(path, vocab: dict[str, int], dim: int, seed=0) -> EmbeddingTable:
    """Embedding table for `vocab` from a whitespace text file.

    File rows are `token v1 ... v_dim`. Vocabulary tokens found in the file
    get the file's values; the rest are drawn from U(INIT_LOW, INIT_HIGH) in
    one seeded draw, in vocabulary order. A token with spaces in it (GloVe
    has `. . .`) is skipped: `tokenize_with_offsets` never emits one. A
    vocabulary token followed by more or fewer than `dim` numbers, or by a
    non-number or a non-finite one, is a DataFormatError, as is invalid UTF-8.

    Vocabulary lines whose values are joined by single spaces are parsed
    `_PARSE_ROWS` at a time by one `np.loadtxt`; a batch it refuses, and
    every other line, go through `_vocab_row` one line at a time. Rows are
    written in file order, so a repeated token keeps its last line, and the
    first bad line in the file is the one named.
    """
    matrix = np.zeros((len(vocab), dim))
    found = set()
    batch = []  # (line number, fields) of single-spaced vocabulary lines

    def put(token, row):
        if row is not None:
            matrix[vocab[token]] = row
            found.add(token)

    def flush():
        if not batch:
            return
        lines = batch.copy()
        batch.clear()  # first, so an error below leaves `finally` nothing to do
        try:
            block = np.loadtxt([fields[1] for _, fields in lines], comments=None, ndmin=2)
            if block.shape != (len(lines), dim) or not np.isfinite(block).all():
                block = None
        except ValueError:
            block = None
        for k, (lineno, fields) in enumerate(lines):
            put(fields[0], _vocab_row(path, lineno, fields, dim) if block is None else block[k])

    try:
        for lineno, line in _numbered_lines(path):
            # Most lines of a real file are outside the vocabulary: split off
            # only the token, and the numbers only for vocabulary tokens.
            fields = line.split(maxsplit=1)
            if not fields or fields[0] not in vocab:
                continue
            if len(fields) > 1 and fields[1].count(" ") == dim - 1:
                batch.append((lineno, fields))
                if len(batch) == _PARSE_ROWS:
                    flush()
            else:
                flush()
                put(fields[0], _vocab_row(path, lineno, fields, dim))
    finally:
        # Also before a UTF-8 error propagates: a bad line read before it
        # comes first.
        flush()
    oov = sorted(vocab.keys() - found, key=vocab.__getitem__)
    matrix[[vocab[t] for t in oov]] = uniform_init(len(oov), dim, INIT_LOW, INIT_HIGH,
                                                   seed=[seed, 41])
    return EmbeddingTable(vocab=dict(vocab), matrix=matrix, oov_tokens=frozenset(oov))


def random_embeddings(vocab: dict[str, int], dim: int, seed=0) -> EmbeddingTable:
    """All-random table (every token counts as out-of-vocabulary)."""
    matrix = uniform_init(len(vocab), dim, INIT_LOW, INIT_HIGH, seed=[seed, 42])
    return EmbeddingTable(vocab=dict(vocab), matrix=matrix, oov_tokens=frozenset(vocab))


def build_aspect_vector(instances: list[LabeledInstance], token_rows: list[int],
                        embeddings: EmbeddingTable,
                        aspect_embeddings: Optional[AspectEmbeddingTable] = None,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A run's (B, d) aspect vectors, each the mean of its source rows in one
    table, with those rows, one aspect after another, and each one's count.

    Term spans, the only aspects without `aspect_embeddings`, read their
    tokens' rows out of `token_rows`, the run's word-table row of each token,
    one instance after another; categories, the only ones with it, their row.
    The rows are summed in order, as `np.mean` over them does when d > 1.
    """
    kind = TermSpan if aspect_embeddings is None else CategoryId
    rows, start = [], 0
    for inst in instances:
        a = inst.aspect
        if not isinstance(a, kind):
            raise ValueError(f"{a} {'without' if kind is TermSpan else 'with'} "
                             f"an aspect embedding table")
        if kind is CategoryId and a.index >= len(aspect_embeddings.matrix):
            raise ValueError(f"category index {a.index} out of range")
        rows.append([a.index] if kind is CategoryId else
                    token_rows[start + a.start:start + a.end + 1])
        start += len(inst.tokens)
    table = (embeddings if kind is TermSpan else aspect_embeddings).matrix
    vectors = table[[r[0] for r in rows]]
    for k in range(1, max(map(len, rows))):
        more = [b for b, r in enumerate(rows) if len(r) > k]
        vectors[more] += table[[rows[b][k] for b in more]]
    counts = np.array([len(r) for r in rows])
    vectors /= counts[:, None]
    return vectors, np.array([i for r in rows for i in r]), counts


def dev_split(instances: list[LabeledInstance], fraction: float,
              seed=0) -> tuple[list[LabeledInstance], list[LabeledInstance]]:
    """Seeded shuffle, then split off round(n * fraction) instances as dev.

    The dev size is clamped to [1, n-1] so both halves are nonempty.
    Returns (train, dev); the two lists partition the input.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(instances)
    if n < 2:
        raise ValueError(f"cannot split {n} instances")
    order = make_rng([seed, 43]).permutation(n)
    n_dev = min(max(int(round(n * fraction)), 1), n - 1)
    dev = [instances[i] for i in order[:n_dev]]
    train = [instances[i] for i in order[n_dev:]]
    return train, dev


# --- line-oriented instance serialization ---------------------------------
#
# One instance per line, three tab-separated fields:
#   tokens joined by single spaces, aspect spec, polarity
# where the aspect spec is "term:<start>:<end>" or "category:<index>".

def _aspect_to_str(aspect: Aspect) -> str:
    if isinstance(aspect, TermSpan):
        return f"term:{aspect.start}:{aspect.end}"
    return f"category:{aspect.index}"


def _aspect_from_str(text: str) -> Aspect:
    parts = text.split(":")
    if parts[0] == "term" and len(parts) == 3:
        return TermSpan(int(parts[1]), int(parts[2]))
    if parts[0] == "category" and len(parts) == 2:
        return CategoryId(int(parts[1]))
    raise DataFormatError(f"bad aspect spec {text!r}")


def save_instances(instances: Iterable[LabeledInstance], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            f.write(f"{' '.join(inst.tokens)}\t{_aspect_to_str(inst.aspect)}\t{inst.polarity}\n")


def load_instances(path) -> list[LabeledInstance]:
    out = []
    for lineno, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        tokens, aspect, polarity = parts[0].split(" "), parts[1], parts[2]
        try:
            if "" in tokens:
                raise ValueError(f"empty token in {parts[0]!r}")
            out.append(LabeledInstance(tuple(tokens), _aspect_from_str(aspect), polarity))
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: {e}") from None
    return out


# --- synthetic two-aspect corpus -------------------------------------------

SYNTH_ASPECT_NOUNS = ("salad", "soup", "pizza", "beef", "coffee", "service")
SYNTH_SENTIMENT_WORDS = {
    "positive": ("delicious", "wonderful", "great", "tasty", "excellent", "amazing"),
    "negative": ("bad", "awful", "terrible", "bland", "disappointing", "greasy"),
    "neutral": ("okay", "average", "ordinary", "acceptable", "standard", "plain"),
}
# Template: the <X> is <W1> but the <Y> is <W2> .
_SYNTH_X_POS = 1
_SYNTH_Y_POS = 6
# Distinct sentences the template makes: ordered aspect pairs times two word slots.
_SYNTH_DISTINCT = (len(SYNTH_ASPECT_NOUNS) * (len(SYNTH_ASPECT_NOUNS) - 1)
                   * sum(map(len, SYNTH_SENTIMENT_WORDS.values())) ** 2)


def _synth_sentence(rng) -> tuple[tuple[str, ...], str, str]:
    x, y = rng.choice(len(SYNTH_ASPECT_NOUNS), size=2, replace=False)
    p1, p2 = (POLARITIES[rng.integers(3)], POLARITIES[rng.integers(3)])
    w1 = SYNTH_SENTIMENT_WORDS[p1][rng.integers(len(SYNTH_SENTIMENT_WORDS[p1]))]
    w2 = SYNTH_SENTIMENT_WORDS[p2][rng.integers(len(SYNTH_SENTIMENT_WORDS[p2]))]
    tokens = ("the", SYNTH_ASPECT_NOUNS[x], "is", w1,
              "but", "the", SYNTH_ASPECT_NOUNS[y], "is", w2, ".")
    return tokens, p1, p2


def _sentence_instances(tokens: tuple[str, ...], p1: str, p2: str) -> list[LabeledInstance]:
    return [
        LabeledInstance(tokens, TermSpan(_SYNTH_X_POS, _SYNTH_X_POS), p1),
        LabeledInstance(tokens, TermSpan(_SYNTH_Y_POS, _SYNTH_Y_POS), p2),
    ]


def generate_synthetic(n_sentences: int, seed=0, dim: int = 24,
                       ) -> tuple[list[LabeledInstance], list[LabeledInstance], EmbeddingTable]:
    """Seeded two-aspect corpus: n_sentences train, n_sentences // 2 test.

    Every sentence follows "the X is W1 but the Y is W2 ." with independent
    aspect/polarity draws and yields two instances sharing the tokens, one
    per aspect. Test sentences are unique and never reuse a training token
    sequence, so test instances whose sentence carries two different labels
    form exact disambiguation pairs: any model that ignores the queried
    aspect predicts identically inside a pair and cannot beat 0.5 on that
    subset. Token embeddings are random but fixed per token.
    """
    n_test = n_sentences // 2
    if n_sentences < 20:
        raise ConfigError(f"the synthetic corpus needs at least 20 sentences, got {n_sentences}")
    if n_sentences + n_test > _SYNTH_DISTINCT:
        raise ConfigError(f"{n_sentences} synthetic sentences and their {n_test} test ones "
                          f"exceed the template's {_SYNTH_DISTINCT} distinct sentences")
    rng = make_rng([seed, 44])
    train: list[LabeledInstance] = []
    seen: set[tuple[str, ...]] = set()
    for _ in range(n_sentences):
        tokens, p1, p2 = _synth_sentence(rng)
        seen.add(tokens)
        train.extend(_sentence_instances(tokens, p1, p2))
    test: list[LabeledInstance] = []
    made = 0
    while made < n_test:
        tokens, p1, p2 = _synth_sentence(rng)
        if tokens in seen:
            continue
        seen.add(tokens)
        test.extend(_sentence_instances(tokens, p1, p2))
        made += 1
    vocab = build_vocab(train + test)
    return train, test, random_embeddings(vocab, dim, seed=seed)


def disambiguation_subset(instances: list[LabeledInstance]) -> list[LabeledInstance]:
    """Instances that share their token sequence with a differently-labeled,
    differently-aspected instance."""
    by_tokens: dict[tuple[str, ...], list[LabeledInstance]] = {}
    for inst in instances:
        by_tokens.setdefault(inst.tokens, []).append(inst)
    subset = []
    for inst in instances:
        group = by_tokens[inst.tokens]
        if any(o.polarity != inst.polarity and o.aspect != inst.aspect for o in group):
            subset.append(inst)
    return subset
