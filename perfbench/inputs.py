"""Seeded inputs for the paper-shape workloads.

Everything here is a pure function of the workload seed, so the same seed
writes byte-identical files. Tokens are plain lowercase `\\w+` words joined
by single spaces, and every embedding line is `word v1 ... v300` with single
spaces: the benchmark stays inside the input forms the parsers accept today.

Sentence lengths follow the restaurant range (lognormal, median 18, clipped
to 4..80), but they are fixed by position, not drawn from the seed: lengths
are the quantiles of that distribution dealt out in blocks of six sentences,
two of which carry two aspect terms, so every block holds eight instances.
The seed only shuffles sentences inside a block and picks their words and
terms. Any slice of whole blocks therefore holds the same number of tokens
for every seed, and throughput does not move with the seed's sentence mix.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from xml.sax.saxutils import escape, quoteattr

import numpy as np

POLARITIES = ("positive", "negative", "neutral")
SENTENCES_PER_BLOCK = 6
INSTANCES_PER_BLOCK = 8
_DOUBLE_ASPECT_ROWS = (1, 4)
_MEDIAN_LEN, _LEN_SIGMA, _MIN_LEN, _MAX_LEN = 18, 0.45, 4, 80
# Word frequencies fall off as 1 / rank ** _ZIPF, as in natural text.
_ZIPF = 1.1
# Embedding values are drawn from this many evenly spaced 5-decimal strings
# in [-1, 1]; formatting them once makes writing a 50 MB file fast.
_VALUE_POOL = 20001


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def make_words(rng: np.random.Generator, n: int, taken=frozenset()) -> list[str]:
    """`n` distinct random lowercase words of 3 to 10 letters, none in `taken`."""
    words: list[str] = []
    seen = set(taken)
    while len(words) < n:
        lengths = rng.integers(3, 11, size=n)
        letters = rng.integers(0, 26, size=(n, 10)) + ord("a")
        for length, row in zip(lengths, letters):
            word = row[:length].astype(np.uint8).tobytes().decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    break
    return words


def _radical_inverse(i: int) -> float:
    """Base-2 van der Corput value of i: 1 -> 0.5, 2 -> 0.25, 3 -> 0.75, ..."""
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f /= 2
    return x


def block_lengths(n_blocks: int) -> list[list[int]]:
    """Sentence lengths per block, the same for every seed.

    The quantiles of the length distribution are cut into six rows by size,
    and block b takes from each row the element at a low-discrepancy rank
    (mirrored on odd rows), so every block spans the whole range and any
    leading run of blocks samples each row evenly.
    """
    n = n_blocks * SENTENCES_PER_BLOCK
    normal = NormalDist()
    lengths = [min(_MAX_LEN, max(_MIN_LEN, round(_MEDIAN_LEN * math.exp(
        _LEN_SIGMA * normal.inv_cdf((i + 0.5) / n))))) for i in range(n)]
    rank = np.argsort(np.argsort([_radical_inverse(b + 1) for b in range(n_blocks)]))
    blocks = []
    for b in range(n_blocks):
        blocks.append([lengths[row * n_blocks + (int(rank[b]) if row % 2 == 0
                                                 else n_blocks - 1 - int(rank[b]))]
                       for row in range(SENTENCES_PER_BLOCK)])
    return blocks


def make_sentences(rng: np.random.Generator, n_blocks: int, words: list[str],
                   cover_all: bool, unseen: list[str] = (), unseen_rate: float = 0.0):
    """Sentences as (tokens, [(start, end, polarity), ...]) in file order.

    Words are drawn with Zipf frequencies. With `cover_all` every word
    appears at least once, so a vocabulary built from the sentences has
    exactly len(words) + 1 rows. A share `unseen_rate` of the token slots
    takes words from `unseen` instead, which a model has never seen.
    """
    shapes = []
    for lengths in block_lengths(n_blocks):
        rows = [(length, 2 if r in _DOUBLE_ASPECT_ROWS else 1)
                for r, length in enumerate(lengths)]
        shapes.extend(rows[i] for i in rng.permutation(len(rows)))
    total = sum(length for length, _ in shapes)
    weights = 1.0 / np.arange(1, len(words) + 1) ** _ZIPF
    slots = rng.choice(len(words), size=total, p=weights / weights.sum())
    if cover_all:
        if total < len(words):
            raise ValueError(f"{total} token slots cannot cover {len(words)} words")
        slots[rng.choice(total, size=len(words), replace=False)] = np.arange(len(words))
    tokens = [words[i] for i in slots]
    if unseen_rate > 0.0:
        for pos in np.flatnonzero(rng.random(total) < unseen_rate):
            tokens[pos] = unseen[int(rng.integers(len(unseen)))]
    sentences, pos = [], 0
    for length, n_terms in shapes:
        sent = tokens[pos:pos + length]
        pos += length
        terms = []
        for _ in range(n_terms):
            span = int(rng.integers(1, 4))
            start = int(rng.integers(0, length - span + 1))
            terms.append((start, start + span - 1, POLARITIES[int(rng.integers(3))]))
        sentences.append((sent, terms))
    return sentences


def write_review_xml(path, sentences) -> int:
    """Write sentences in the 2014 review XML format; return the number of
    aspect terms written, which is the number of instances a parser must
    read back."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>', "<sentences>"]
    n_terms = 0
    for k, (tokens, terms) in enumerate(sentences):
        text = " ".join(tokens)
        starts, offset = [], 0
        for tok in tokens:
            starts.append(offset)
            offset += len(tok) + 1
        out.append(f'  <sentence id="{k}">')
        out.append(f"    <text>{escape(text)}</text>")
        out.append("    <aspectTerms>")
        for start, end, polarity in terms:
            lo, hi = starts[start], starts[end] + len(tokens[end])
            out.append(f"      <aspectTerm term={quoteattr(text[lo:hi])} "
                       f'polarity="{polarity}" from="{lo}" to="{hi}"/>')
            n_terms += 1
        out.append("    </aspectTerms>")
        out.append("  </sentence>")
    out.append("</sentences>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return n_terms


def write_glove(path, rng: np.random.Generator, words: list[str], dim: int,
                chunk: int = 1000) -> int:
    """Write one `word v1 ... v_dim` line per word in the given order, with
    random values; return the number of lines written."""
    pool = np.array([f"{v:.5f}" for v in np.linspace(-1.0, 1.0, _VALUE_POOL)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for c0 in range(0, len(words), chunk):
            names = words[c0:c0 + chunk]
            values = pool[rng.integers(0, _VALUE_POOL, size=(len(names), dim))]
            fh.write("".join(f"{w} {' '.join(row)}\n" for w, row in zip(names, values)))
    return len(words)


def glove_lines(rng: np.random.Generator, vocab_words: list[str], n_lines: int,
                in_file_share: float) -> list[str]:
    """Words of an embedding file: a fixed share of the vocabulary plus
    distractor words up to `n_lines`, in seeded order."""
    n_in = round(len(vocab_words) * in_file_share)
    chosen = [vocab_words[i] for i in rng.choice(len(vocab_words), size=n_in, replace=False)]
    distractors = make_words(rng, n_lines - n_in, taken=frozenset(vocab_words))
    lines = chosen + distractors
    return [lines[i] for i in rng.permutation(len(lines))]
