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

from .tensor import ConfigError, make_rng, uniform_init

POLARITIES = ("positive", "negative", "neutral")
POLARITY_INDEX = {name: i for i, name in enumerate(POLARITIES)}

# The predefined category set of the restaurant benchmark.
RESTAURANT_CATEGORIES = ("food", "service", "price", "ambience", "anecdotes/miscellaneous")

UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


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


def tokenize(text: str) -> list[str]:
    """Lowercased tokens: word-character runs and single punctuation marks."""
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def tokenize_with_offsets(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Tokens plus their [start, end) character offsets in the original text."""
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
    except ET.ParseError as e:
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


def polarity_counts(instances: Iterable[LabeledInstance]) -> tuple[int, int, int]:
    """(positive, negative, neutral) instance counts."""
    counts = [0, 0, 0]
    for inst in instances:
        counts[inst.label] += 1
    return tuple(counts)


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

    def index(self, token: str) -> int:
        return self.vocab.get(token, self.vocab[UNK_TOKEN])

    def vector(self, token: str) -> np.ndarray:
        return self.matrix[self.index(token)]


@dataclass
class AspectEmbeddingTable:
    """One trainable vector per predefined aspect category."""

    categories: tuple[str, ...]
    matrix: np.ndarray

    @classmethod
    def empty(cls, categories: tuple[str, ...], dim: int) -> "AspectEmbeddingTable":
        return cls(tuple(categories), np.empty((len(categories), dim)))

    @classmethod
    def init(cls, categories: tuple[str, ...], dim: int,
             lo: float = -0.1, hi: float = 0.1, seed=0) -> "AspectEmbeddingTable":
        return cls(tuple(categories), uniform_init(len(categories), dim, lo, hi, seed=[seed, 40]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


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
    """(line number, line) over a UTF-8 text file. Invalid UTF-8 is a
    DataFormatError naming the first line that does not decode."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            yield from enumerate(f, start=1)
    except UnicodeDecodeError as e:
        with open(path, "rb") as f:
            for lineno, raw in enumerate(f, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise DataFormatError(f"{path}:{lineno}: not valid UTF-8 ({e.reason})") from None


def load_embeddings(path, vocab: dict[str, int], dim: int, seed=0) -> EmbeddingTable:
    """Embedding table for `vocab` from a whitespace text file.

    File rows are `token v1 ... v_dim`. Vocabulary tokens found in the file
    get the file's values; the rest are drawn from U(-0.1, 0.1), filled in
    vocabulary order from a single seeded stream so the result is
    deterministic for a fixed (vocab, seed). A token with spaces in it
    (GloVe has `. . .`) is skipped: `tokenize` never emits one. A vocabulary
    token followed by more or fewer than `dim` numbers, or by a non-number,
    is a DataFormatError, as is invalid UTF-8.
    """
    found: dict[int, np.ndarray] = {}
    for lineno, line in _numbered_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if token not in vocab:
            continue
        if len(values) > dim and not all(map(_is_number, values[:-dim])):
            continue
        if len(values) != dim:
            raise DataFormatError(
                f"{path}:{lineno}: expected {dim} values for {token!r}, got {len(values)}")
        try:
            found[vocab[token]] = np.array([float(v) for v in values])
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: {token!r}: {e}") from None
    matrix = np.zeros((len(vocab), dim))
    rng = make_rng([seed, 41])
    oov = []
    for token, idx in sorted(vocab.items(), key=lambda kv: kv[1]):
        if idx in found:
            matrix[idx] = found[idx]
        else:
            matrix[idx] = rng.uniform(-0.1, 0.1, size=dim)
            oov.append(token)
    return EmbeddingTable(vocab=dict(vocab), matrix=matrix, oov_tokens=frozenset(oov))


def random_embeddings(vocab: dict[str, int], dim: int, seed=0) -> EmbeddingTable:
    """All-random table (every token counts as out-of-vocabulary)."""
    rng = make_rng([seed, 42])
    matrix = rng.uniform(-0.1, 0.1, size=(len(vocab), dim))
    return EmbeddingTable(vocab=dict(vocab), matrix=matrix, oov_tokens=frozenset(vocab))


def build_aspect_vector(instance: LabeledInstance, embeddings: EmbeddingTable,
                        aspect_embeddings: Optional[AspectEmbeddingTable] = None) -> np.ndarray:
    """The aspect vector A for one instance.

    Term spans average the span tokens' embedding rows; categories return the
    category's trainable vector (a view into the table, so optimizer updates
    to the table are what train it).
    """
    aspect = instance.aspect
    if isinstance(aspect, TermSpan):
        rows = [embeddings.vector(instance.tokens[i])
                for i in range(aspect.start, aspect.end + 1)]
        if not rows:
            raise ValueError(f"empty term span {aspect}")
        return np.mean(rows, axis=0)
    if aspect_embeddings is None:
        raise ValueError("category aspect requires an aspect embedding table")
    if aspect.index >= len(aspect_embeddings.categories):
        raise ValueError(f"category index {aspect.index} out of range")
    return aspect_embeddings.matrix[aspect.index]


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
        tokens, aspect, polarity = parts
        try:
            out.append(LabeledInstance(tuple(tokens.split(" ")),
                                       _aspect_from_str(aspect), polarity))
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
    if n_sentences < 20:
        raise ConfigError(f"the synthetic corpus needs at least 20 sentences, got {n_sentences}")
    rng = make_rng([seed, 44])
    train: list[LabeledInstance] = []
    seen: set[tuple[str, ...]] = set()
    for _ in range(n_sentences):
        tokens, p1, p2 = _synth_sentence(rng)
        seen.add(tokens)
        train.extend(_sentence_instances(tokens, p1, p2))
    test: list[LabeledInstance] = []
    n_test = n_sentences // 2
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
