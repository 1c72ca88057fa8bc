"""Ingestion tests: tokenizer, XML parsing against a hand-checked fixture,
embedding loading, splits, and the synthetic corpus."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm.data import (
    AspectEmbeddingTable,
    CategoryId,
    DataFormatError,
    EmbeddingTable,
    LabeledInstance,
    TermSpan,
    UNK_TOKEN,
    build_aspect_vector,
    build_vocab,
    char_range_to_span,
    dev_split,
    disambiguation_subset,
    generate_synthetic,
    load_embeddings,
    load_instances,
    parse_semeval_xml,
    save_instances,
    tokenize_with_offsets,
)

from aalstm.model import build_model
from aalstm.tensor import ConfigError, uniform_init

from helpers import (instance_aspect_vector, loop_embedding_rows, loop_load_embeddings,
                     polarity_counts)

FIXTURE = Path(__file__).parent / "fixtures" / "mini_reviews.xml"


# --- tokenizer --------------------------------------------------------------

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize_with_offsets("The salad is delicious!")[0] \
        == ["the", "salad", "is", "delicious", "!"]


def test_tokenize_interior_apostrophe():
    assert tokenize_with_offsets("Don't go.")[0] == ["don", "'", "t", "go", "."]


def test_tokenize_offsets_recover_source_slices():
    text = "Great food, bad mood."
    tokens, offsets = tokenize_with_offsets(text)
    assert tokens == ["great", "food", ",", "bad", "mood", "."]
    for tok, (s, e) in zip(tokens, offsets):
        assert text[s:e].lower() == tok


def test_char_range_exact_token():
    _, offsets = tokenize_with_offsets("The salad is fresh.")
    assert char_range_to_span(offsets, 4, 9) == TermSpan(1, 1)


def test_char_range_multi_token():
    _, offsets = tokenize_with_offsets("the price tag is unfair")
    assert char_range_to_span(offsets, 4, 13) == TermSpan(1, 2)


def test_char_range_misaligned_offsets_resolve_to_covering_tokens():
    # Range starting mid-token still selects the whole token.
    _, offsets = tokenize_with_offsets("Fresh salad, nothing more.")
    assert char_range_to_span(offsets, 1, 11) == TermSpan(0, 1)


def test_char_range_outside_text_is_an_error():
    _, offsets = tokenize_with_offsets("short")
    with pytest.raises(DataFormatError, match="covers no token"):
        char_range_to_span(offsets, 40, 50)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=st.text(alphabet="ab1é_ .,'\t", max_size=16),
       lo=st.integers(-2, 18), hi=st.integers(-2, 18))
def test_char_range_to_span_property(text, lo, hi):
    # A token overlaps [lo, hi) when they share a character; the span runs
    # from the first overlapping token to the last, so none outside it does.
    _, offsets = tokenize_with_offsets(text)
    overlapping = [i for i, (s, e) in enumerate(offsets)
                   if set(range(s, e)) & set(range(lo, hi))]
    if not overlapping:
        with pytest.raises(DataFormatError, match="covers no token"):
            char_range_to_span(offsets, lo, hi)
    else:
        assert char_range_to_span(offsets, lo, hi) == TermSpan(overlapping[0], overlapping[-1])


# --- XML fixture with hand-counted expectations ------------------------------

def test_fixture_atsa_counts():
    instances = parse_semeval_xml(FIXTURE, "atsa")
    assert len(instances) == 5
    assert polarity_counts(instances) == (2, 2, 1)


def test_fixture_atsa_spans_and_tokens():
    instances = parse_semeval_xml(FIXTURE, "atsa")
    salad = [i for i in instances if i.tokens[1] == "salad" and i.polarity == "positive"][0]
    assert salad.aspect == TermSpan(1, 1)
    soup = [i for i in instances if i.polarity == "negative" and "soup" in i.tokens][0]
    assert soup.aspect == TermSpan(6, 6)
    assert soup.tokens[6] == "soup"
    price = [i for i in instances if "price" in i.tokens][0]
    assert price.aspect == TermSpan(4, 5)
    assert price.tokens[4:6] == ("price", "tag")
    wine = [i for i in instances if "wine" in i.tokens][0]
    assert wine.aspect == TermSpan(1, 2)
    fresh = [i for i in instances if i.tokens[0] == "fresh"][0]
    assert fresh.aspect == TermSpan(0, 1)


def test_fixture_atsa_drops_conflict_but_keeps_siblings():
    instances = parse_semeval_xml(FIXTURE, "atsa")
    s2 = [i for i in instances if "unfair" in i.tokens]
    assert len(s2) == 1
    assert s2[0].polarity == "negative"


def test_fixture_acsa_counts_and_categories():
    instances = parse_semeval_xml(FIXTURE, "acsa")
    assert len(instances) == 4
    assert polarity_counts(instances) == (2, 1, 1)
    # food=0, price=2, anecdotes/miscellaneous=4 in the predefined ordering
    cats = sorted(i.aspect.index for i in instances)
    assert cats == [0, 0, 2, 4]


def test_fixture_sentence_without_aspects_is_skipped():
    for task in ("atsa", "acsa"):
        for inst in parse_semeval_xml(FIXTURE, task):
            assert "noon" not in inst.tokens


def test_malformed_xml_raises_with_path(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<sentences><sentence></sentences>")
    with pytest.raises(DataFormatError, match="bad.xml"):
        parse_semeval_xml(bad, "atsa")


def test_unknown_category_raises(tmp_path):
    doc = tmp_path / "doc.xml"
    doc.write_text(
        '<sentences><sentence id="x"><text>Fine.</text><aspectCategories>'
        '<aspectCategory category="weather" polarity="positive"/>'
        "</aspectCategories></sentence></sentences>")
    with pytest.raises(DataFormatError, match="weather"):
        parse_semeval_xml(doc, "acsa")


def test_bad_polarity_raises(tmp_path):
    doc = tmp_path / "doc.xml"
    doc.write_text(
        '<sentences><sentence id="x"><text>Fine salad.</text><aspectTerms>'
        '<aspectTerm term="salad" polarity="great" from="5" to="10"/>'
        "</aspectTerms></sentence></sentences>")
    with pytest.raises(DataFormatError, match="great"):
        parse_semeval_xml(doc, "atsa")


@pytest.mark.parametrize("task", ["atsa", "acsa"])
def test_whitespace_only_sentence_raises_with_path_and_id(tmp_path, task):
    doc = tmp_path / "doc.xml"
    doc.write_text(
        '<sentences><sentence id="blank7"><text> \n\t </text><aspectTerms>'
        '<aspectTerm term="x" polarity="positive" from="0" to="1"/>'
        "</aspectTerms><aspectCategories>"
        '<aspectCategory category="food" polarity="positive"/>'
        "</aspectCategories></sentence></sentences>")
    with pytest.raises(DataFormatError, match=r"doc\.xml: sentence 'blank7' has no text"):
        parse_semeval_xml(doc, task)


def test_bad_task_name_rejected():
    with pytest.raises(ValueError, match="atsa"):
        parse_semeval_xml(FIXTURE, "absa")


# --- embeddings --------------------------------------------------------------

def test_load_embeddings_copies_file_rows(tmp_path):
    f = tmp_path / "vec.txt"
    f.write_text(
        "euro 1.0 2.0 3.0\n"
        "yen 0.5 0.5 0.5\n"
        "unused 9.0 9.0 9.0\n")
    vocab = {UNK_TOKEN: 0, "euro": 1, "yen": 2}
    table = load_embeddings(f, vocab, dim=3, seed=0)
    assert table.matrix.shape == (3, 3)
    assert np.array_equal(table.matrix[1], [1.0, 2.0, 3.0])
    assert np.array_equal(table.matrix[2], [0.5, 0.5, 0.5])
    assert table.oov_tokens == {UNK_TOKEN}


def test_load_embeddings_arity_error_names_line(tmp_path):
    f = tmp_path / "vec.txt"
    f.write_text("euro 1.0 2.0 3.0\nyen 0.5 0.5\n")
    vocab = {UNK_TOKEN: 0, "euro": 1, "yen": 2}
    with pytest.raises(DataFormatError, match=":2:"):
        load_embeddings(f, vocab, dim=3, seed=0)


def test_load_embeddings_skips_tokens_with_spaces(tmp_path):
    # GloVe has tokens such as ". . ."; tokenize_with_offsets never emits one.
    f = tmp_path / "vec.txt"
    f.write_text(". . . 0.1 0.2\n. 0.3 0.4\n")
    vocab = {UNK_TOKEN: 0, ".": 1}
    table = load_embeddings(f, vocab, dim=2, seed=0)
    assert np.array_equal(table.matrix[1], [0.3, 0.4])
    assert table.oov_tokens == {UNK_TOKEN}


def test_load_embeddings_rejects_too_many_numbers(tmp_path):
    # Numbers past `dim` after a vocabulary token are an error, not a token
    # with spaces in it.
    f = tmp_path / "vec.txt"
    f.write_text("euro 1.0 2.0 3.0 4.0\n")
    vocab = {UNK_TOKEN: 0, "euro": 1}
    with pytest.raises(DataFormatError, match=r":1: expected 3 values for 'euro'"):
        load_embeddings(f, vocab, dim=3, seed=0)


def test_load_embeddings_skips_malformed_lines_outside_vocab(tmp_path):
    # Only vocabulary tokens have their numbers read: a line of any other
    # token is skipped whatever follows it.
    f = tmp_path / "vec.txt"
    f.write_text("other 1.0 abc\nshort 1.0\nlone\neuro 1.0 2.0\n")
    vocab = {UNK_TOKEN: 0, "euro": 1}
    table = load_embeddings(f, vocab, dim=2, seed=0)
    assert np.array_equal(table.matrix[1], [1.0, 2.0])
    assert table.oov_tokens == {UNK_TOKEN}


def test_load_embeddings_non_number_names_line(tmp_path):
    f = tmp_path / "vec.txt"
    f.write_text("euro 1.0 2.0\nthe 0.1 abc\n")
    vocab = {UNK_TOKEN: 0, "euro": 1, "the": 2}
    with pytest.raises(DataFormatError, match=r"vec.txt:2: 'the': .*'abc'"):
        load_embeddings(f, vocab, dim=2, seed=0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_embeddings_non_finite_names_line(tmp_path, value):
    f = tmp_path / "vec.txt"
    f.write_text(f"euro 1.0 2.0\nthe 0.1 {value}\n")
    vocab = {UNK_TOKEN: 0, "euro": 1, "the": 2}
    with pytest.raises(DataFormatError, match=r"vec.txt:2: 'the': values must be finite"):
        load_embeddings(f, vocab, dim=2, seed=0)


@pytest.mark.parametrize("load", [
    lambda path: load_embeddings(path, {UNK_TOKEN: 0, "euro": 1}, dim=2, seed=0),
    load_instances,
], ids=["embeddings", "instances"])
def test_invalid_utf8_names_file_and_line(tmp_path, load):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"fine\tcategory:0\tneutral\n\ncaf\xe9 0.1 0.2\n")
    with pytest.raises(DataFormatError, match=r"bad.txt:3: not valid UTF-8"):
        load(f)


def test_load_embeddings_oov_rows_deterministic(tmp_path):
    f = tmp_path / "vec.txt"
    f.write_text("euro 1.0 2.0 3.0\n")
    vocab = {UNK_TOKEN: 0, "euro": 1, "drachma": 2}
    a = load_embeddings(f, vocab, dim=3, seed=5)
    b = load_embeddings(f, vocab, dim=3, seed=5)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.matrix[1], [1.0, 2.0, 3.0])
    assert a.oov_tokens == {UNK_TOKEN, "drachma"}
    assert np.all(np.abs(a.matrix[2]) <= 0.1)
    c = load_embeddings(f, vocab, dim=3, seed=6)
    assert not np.array_equal(a.matrix[2], c.matrix[2])


@pytest.mark.parametrize("in_file", [("b", "d", "f"), (), ("<unk>", "a", "b", "c", "d", "e", "f")],
                         ids=["some-missing", "all-missing", "none-missing"])
@pytest.mark.parametrize("seed", [0, 7])
def test_load_embeddings_equals_the_per_row_draw(tmp_path, in_file, seed):
    # One draw of the missing rows gives the numbers the per-row draws gave.
    vocab = {w: i for i, w in enumerate(["<unk>", "a", "b", "c", "d", "e", "f"])}
    rows = {w: [0.1 * i, -0.2 * i, 0.3] for i, w in enumerate(in_file)}
    f = tmp_path / "vec.txt"
    f.write_text("".join(f"{w} {' '.join(map(str, v))}\n" for w, v in rows.items()))
    table = load_embeddings(f, vocab, dim=3, seed=seed)
    matrix, oov = loop_embedding_rows(rows, vocab, dim=3, seed=seed)
    assert np.array_equal(table.matrix, matrix)
    assert table.oov_tokens == oov == vocab.keys() - set(in_file)


def test_load_embeddings_reads_past_a_byte_order_mark(tmp_path):
    text = "euro 1.0 2.0\nyen 0.5 0.5\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    vocab = {UNK_TOKEN: 0, "euro": 1, "yen": 2}
    a = load_embeddings(plain, vocab, dim=2, seed=0)
    b = load_embeddings(marked, vocab, dim=2, seed=0)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.oov_tokens == b.oov_tokens == {UNK_TOKEN}


# --- batched embeddings parse against the per-line oracle ----------------------

def _values(rng, dim, sep=" "):
    """`dim` values of assorted magnitudes and precisions joined by `sep`."""
    scale = 10.0 ** rng.integers(-8, 4, size=dim)
    digits = rng.integers(1, 18, size=dim)
    return sep.join(f"{v:.{p}g}" for v, p in zip(rng.uniform(-1, 1, dim) * scale, digits))


def _mixed_embeddings_file(path, seed):
    """Write an embeddings file of more than 600 vocabulary lines in every form
    the loader meets; return the vocabulary and dim to read it with.

    Runs of single-spaced vocabulary lines, 256, 257 and a seeded number of
    lines long, fill whole batches, a batch and one line, and a part batch.
    Tokens repeat within and across batches. Between runs sit lines the
    batch does not take: a token with spaces, tab, double-space and trailing
    space separators, malformed lines outside the vocabulary, and values
    that `float` takes and `np.loadtxt` refuses (`1_0`, an Arabic-Indic
    digit). A `\\r` ends a line in text mode, so it stands as an old-Mac line
    end between two lines.
    """
    rng = np.random.default_rng(seed)
    dim = (1, 4, 7)[seed % 3]
    words = [f"w{i}" for i in range(300)]
    vocab = {w: i for i, w in enumerate([UNK_TOKEN, ".", *words, "absent"])}
    word = lambda: words[rng.integers(len(words))]
    odd = [
        lambda: f". . . {_values(rng, dim)}",
        lambda: f". {_values(rng, dim)}",
        lambda: f"{word()}\t{_values(rng, dim, sep=chr(9))}",
        lambda: f"{word()} {_values(rng, dim, sep='  ')}",
        lambda: f"{word()} {_values(rng, dim)}  ",
        lambda: f"{word()} {_values(rng, dim, sep=chr(0xA0) + ' ')}",
        lambda: f"other{rng.integers(9)} 1.0 abc",
        lambda: "lone",
        lambda: f"{word()} {_values(rng, dim)}\r{word()} {_values(rng, dim)}",
        lambda: f"{word()} {' '.join(['1_0'] * dim)}",
        lambda: f"{word()} {' '.join([chr(0x663)] * dim)}",
    ]
    lines = []
    for run in rng.permutation([256, 257, int(rng.integers(1, 300))]):
        for _ in range(run):
            lines.append(f"{word()} {_values(rng, dim)}")
            if rng.random() < 0.1:  # outside the vocabulary: neither batched nor flushed
                lines.append(f"zz{rng.integers(1000)} {_values(rng, dim)}")
        lines.extend(odd[k]() for k in rng.choice(len(odd), size=4))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return vocab, dim


@pytest.mark.parametrize("seed", range(6))
def test_batched_load_embeddings_equals_the_per_line_oracle(tmp_path, monkeypatch, seed):
    path = tmp_path / "vec.txt"
    vocab, dim = _mixed_embeddings_file(path, seed)
    sizes = []
    loadtxt = np.loadtxt

    def spy(texts, **kwargs):
        sizes.append(len(texts))
        return loadtxt(texts, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    table = load_embeddings(path, vocab, dim, seed=seed)
    oracle = loop_load_embeddings(path, vocab, dim, seed=seed)
    assert table.matrix.tobytes() == oracle.matrix.tobytes()
    assert table.oov_tokens == oracle.oov_tokens
    assert "absent" in table.oov_tokens
    assert max(sizes) == 256 and min(sizes) > 0


def test_load_embeddings_parses_single_spaced_lines_in_batches(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    path = tmp_path / "vec.txt"
    path.write_text("".join(f"w{i} {_values(rng, 3)}\n" for i in range(600)))
    vocab = {w: i for i, w in enumerate([UNK_TOKEN] + [f"w{i}" for i in range(600)])}
    results = []
    loadtxt = np.loadtxt

    def spy(texts, **kwargs):
        results.append(loadtxt(texts, **kwargs))
        return results[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    table = load_embeddings(path, vocab, 3)
    assert [r.shape for r in results] == [(256, 3), (256, 3), (88, 3)]
    assert np.array_equal(table.matrix[1:], np.concatenate(results))
    assert table.matrix.tobytes() == loop_load_embeddings(path, vocab, 3).matrix.tobytes()


# Each fault in a form the batch takes (single spaces) and in one it does not.
_FAULTS = {
    "non-number": ("0.1 abc 0.3", "0.1\tabc\t0.3"),
    "non-finite": ("0.1 nan 0.3", "0.1 inf 0.3  "),
    "wrong-count": ("0.1 0.2 ", "0.1 0.2 0.3 0.4"),
    "hash": ("0.1 0.2 0.3#x", "0.1\t0.2\t0.3#x"),  # loadtxt's default comments would drop "#x"
}
_BATCHED, _PER_LINE = 0, 1


def _faulty_file(path, faults):
    """700 single-spaced dim-3 vocabulary lines, lines 7 and 357 (0-based)
    tab-separated, so lines 8-263 make one full batch; line k is replaced by
    a line of `faults[k]` = (kind, form)."""
    rng = np.random.default_rng(1)
    lines = []
    for k in range(700):
        token = f"w{rng.integers(60)}"
        if k in faults:
            kind, form = faults[k]
            lines.append(f"{token} {_FAULTS[kind][form]}")
        else:
            lines.append(f"{token} {_values(rng, 3, sep=chr(9) if k % 350 == 7 else ' ')}")
    path.write_text("\n".join(lines) + "\n")
    return {w: i for i, w in enumerate([UNK_TOKEN] + [f"w{i}" for i in range(60)])}


def _assert_oracle_error(path, vocab, line):
    with pytest.raises(DataFormatError) as oracle:
        loop_load_embeddings(path, vocab, 3)
    with pytest.raises(DataFormatError) as batched:
        load_embeddings(path, vocab, 3)
    assert str(batched.value) == str(oracle.value)
    assert f"vec.txt:{line}:" in str(oracle.value)


@pytest.mark.parametrize("form", [_BATCHED, _PER_LINE], ids=["batched", "per-line"])
@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_load_embeddings_fault_raises_the_oracle_error(tmp_path, kind, form):
    path = tmp_path / "vec.txt"
    vocab = _faulty_file(path, {300: (kind, form)})
    _assert_oracle_error(path, vocab, 301)


@pytest.mark.parametrize("faults", [
    {300: ("non-number", _BATCHED), 310: ("non-finite", _PER_LINE)},
    {300: ("non-finite", _PER_LINE), 310: ("wrong-count", _BATCHED)},
    {300: ("wrong-count", _BATCHED), 310: ("non-number", _BATCHED)},
    {100: ("non-finite", _BATCHED), 600: ("non-number", _BATCHED)},
    {263: ("non-finite", _BATCHED), 264: ("non-number", _BATCHED)},
], ids=["batched-then-per-line", "per-line-then-batched", "one-batch",
        "two-batches", "batch-boundary"])
def test_load_embeddings_names_the_first_of_two_faults(tmp_path, faults):
    path = tmp_path / "vec.txt"
    vocab = _faulty_file(path, faults)
    _assert_oracle_error(path, vocab, min(faults) + 1)


def test_load_embeddings_batch_of_short_lines_raises_the_oracle_error(tmp_path):
    # Every line of the batch has the same wrong count, which np.loadtxt
    # reads without an error.
    path = tmp_path / "vec.txt"
    path.write_text("w1 0.1 0.2 \nw2 0.3 0.4 \n")
    _assert_oracle_error(path, {UNK_TOKEN: 0, "w1": 1, "w2": 2}, 1)


def test_load_embeddings_bad_value_comes_before_later_invalid_utf8(tmp_path):
    # Line 2 still waits in its batch when the decoder reaches the bad bytes
    # thousands of lines on.
    path = tmp_path / "vec.txt"
    outside = "".join(f"zz{i} 0.1 0.2 0.3\n" for i in range(5000))
    path.write_bytes(("w1 0.1 0.2 0.3\nw2 0.1 abc 0.3\n" + outside).encode()
                     + b"caf\xe9 0.1 0.2 0.3\n")
    vocab = {UNK_TOKEN: 0, "w1": 1, "w2": 2}
    _assert_oracle_error(path, vocab, 2)


@pytest.mark.parametrize("seed", range(5))
def test_category_table_init_is_one_draw_from_stream_40(seed):
    table = AspectEmbeddingTable.init(5, 6, lo=-0.3, hi=0.2, seed=seed)
    assert np.array_equal(table.matrix, uniform_init(5, 6, -0.3, 0.2, seed=[seed, 40]))


def test_embedding_lookup_falls_back_to_unk():
    # A run looks each token up once; an unknown one reads the <unk> row,
    # in the cell's input and in its span's aspect vector.
    vocab = {UNK_TOKEN: 0, "soup": 1}
    table = EmbeddingTable(vocab, np.array([[1.0, 1.0], [2.0, 2.0]]))
    m = build_model("atsa", "aa", "last", table, hidden_dim=2)
    inst = LabeledInstance(("soup", "quiche"), TermSpan(1, 1), "positive")
    cache = m.forward([inst])
    assert cache.indices == [1, 0]
    assert np.array_equal(cache.cell.X, [[2.0, 2.0], [1.0, 1.0]])
    assert cache.aspect_rows.tolist() == [0]


def token_rows(insts, emb):
    """Each token's word-table row, one instance after another, as a run
    looks them up."""
    return [emb.vocab.get(t, emb.vocab[UNK_TOKEN]) for inst in insts for t in inst.tokens]


@pytest.mark.parametrize("vocab,message", [
    ({UNK_TOKEN: 0, "soup": 1, "salad": 2}, "vocab size 3 != matrix rows 2"),
    ({"soup": 0, "salad": 1}, "must contain the reserved token '<unk>'"),
])
def test_embedding_table_rejects_a_vocabulary_that_does_not_fit(vocab, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingTable(vocab, np.zeros((2, 3)))


def test_build_vocab_reserves_unk_row_zero():
    insts = [LabeledInstance(("a", "b", "a"), TermSpan(0, 0), "positive")]
    vocab = build_vocab(insts)
    assert vocab[UNK_TOKEN] == 0
    assert vocab == {UNK_TOKEN: 0, "a": 1, "b": 2}


# --- aspect vectors ----------------------------------------------------------

def test_aspect_vector_single_token():
    vocab = {UNK_TOKEN: 0, "salad": 1}
    table = EmbeddingTable(vocab, np.array([[0.0, 0.0], [3.0, 4.0]]))
    inst = LabeledInstance(("salad",), TermSpan(0, 0), "positive")
    vectors, rows, counts = build_aspect_vector([inst], token_rows([inst], table), table)
    assert np.array_equal(vectors, [[3.0, 4.0]])
    assert rows.tolist() == [1] and counts.tolist() == [1]


def test_aspect_vector_is_span_mean():
    vocab = {UNK_TOKEN: 0, "wine": 1, "list": 2}
    table = EmbeddingTable(vocab, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    inst = LabeledInstance(("wine", "list", "?"), TermSpan(0, 2), "neutral")
    vectors, rows, counts = build_aspect_vector([inst], token_rows([inst], table), table)
    assert np.allclose(vectors, [[1 / 3, 1 / 3]])
    assert rows.tolist() == [1, 2, 0] and counts.tolist() == [3]


def test_aspect_vector_category_is_its_table_row():
    vocab = {UNK_TOKEN: 0}
    emb = EmbeddingTable(vocab, np.zeros((1, 2)))
    cats = AspectEmbeddingTable(np.array([[1.0, 2.0], [3.0, 4.0]]))
    insts = [LabeledInstance(("fine",), CategoryId(k), "neutral") for k in (1, 0, 1)]
    vectors, rows, counts = build_aspect_vector(insts, token_rows(insts, emb), emb, cats)
    assert np.array_equal(vectors, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
    assert rows.tolist() == [1, 0, 1] and counts.tolist() == [1, 1, 1]


def test_aspect_vector_category_without_table_errors():
    emb = EmbeddingTable({UNK_TOKEN: 0}, np.zeros((1, 2)))
    insts = [LabeledInstance(("fine",), aspect, "neutral") for aspect in (TermSpan(0, 0),
                                                                         CategoryId(0))]
    with pytest.raises(ValueError, match="aspect embedding table"):
        build_aspect_vector(insts, token_rows(insts, emb), emb)


@pytest.mark.parametrize("aspect,message", [
    (CategoryId(2), "category index 2 out of range"),
    (TermSpan(0, 0), r"TermSpan\(start=0, end=0\) with an aspect embedding table"),
])
def test_aspect_vector_with_a_category_table_errors(aspect, message):
    emb = EmbeddingTable({UNK_TOKEN: 0}, np.zeros((1, 2)))
    cats = AspectEmbeddingTable(np.zeros((2, 2)))
    insts = [LabeledInstance(("fine",), a, "neutral") for a in (CategoryId(1), aspect)]
    with pytest.raises(ValueError, match=message):
        build_aspect_vector(insts, token_rows(insts, emb), emb, cats)


@st.composite
def aspect_runs(draw):
    """A table and a run of 1-16 instances whose aspects all read it: term
    spans of 1-3 tokens into a word table, or categories of a category table."""
    dim = draw(st.integers(1, 5))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    words = ("<unk>", "a", "b", "c", "d")
    emb = EmbeddingTable({w: i for i, w in enumerate(words)},
                         np.array(draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                                min_size=5, max_size=5))))
    cats = None
    if draw(st.booleans()):
        n_cats = draw(st.integers(1, 4))
        cats = AspectEmbeddingTable(np.array(draw(
            st.lists(st.lists(values, min_size=dim, max_size=dim),
                     min_size=n_cats, max_size=n_cats))))
    insts = []
    for _ in range(draw(st.integers(1, 16))):
        tokens = tuple(draw(st.lists(st.sampled_from(words[1:] + ("zz",)), min_size=1,
                                     max_size=6)))
        if cats is None:
            start = draw(st.integers(0, len(tokens) - 1))
            aspect = TermSpan(start, draw(st.integers(start, min(start + 2, len(tokens) - 1))))
        else:
            aspect = CategoryId(draw(st.integers(0, len(cats.matrix) - 1)))
        insts.append(LabeledInstance(tokens, aspect, "neutral"))
    return insts, emb, cats


@settings(derandomize=True, deadline=None, max_examples=200)
@given(aspect_runs())
def test_run_aspect_vectors_equal_one_instance_vectors(run):
    insts, emb, cats = run
    vectors, rows, counts = build_aspect_vector(insts, token_rows(insts, emb), emb, cats)
    expected = np.array([instance_aspect_vector(inst, emb, cats) for inst in insts])
    assert np.array_equal(vectors, expected)
    table = emb.matrix if cats is None else cats.matrix
    starts = np.cumsum(counts) - counts
    for vector, start, count in zip(vectors, starts, counts):
        assert np.array_equal(vector, np.mean(table[rows[start:start + count]], axis=0))


# --- splits ------------------------------------------------------------------

def _dummy_instances(n):
    return [LabeledInstance((f"w{i}",), TermSpan(0, 0), "positive") for i in range(n)]


def test_dev_split_sizes_and_partition():
    insts = _dummy_instances(100)
    train, dev = dev_split(insts, 0.2, seed=3)
    assert len(dev) == 20 and len(train) == 80
    assert sorted(i.tokens for i in train + dev) == sorted(i.tokens for i in insts)


def test_dev_split_deterministic():
    insts = _dummy_instances(30)
    a = dev_split(insts, 0.2, seed=9)
    b = dev_split(insts, 0.2, seed=9)
    assert a == b
    c = dev_split(insts, 0.2, seed=10)
    assert a != c


def test_dev_split_clamps_to_nonempty_halves():
    insts = _dummy_instances(10)
    train, dev = dev_split(insts, 0.01, seed=0)
    assert len(dev) == 1 and len(train) == 9
    train, dev = dev_split(insts, 0.99, seed=0)
    assert len(dev) == 9 and len(train) == 1


def test_dev_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        dev_split(_dummy_instances(10), 1.5, seed=0)


@pytest.mark.parametrize("n", [0, 1])
def test_dev_split_rejects_fewer_than_two_instances(n):
    with pytest.raises(ValueError, match=f"cannot split {n} instances"):
        dev_split(_dummy_instances(n), 0.2, seed=0)


# --- serialization -----------------------------------------------------------

def test_instances_round_trip(tmp_path):
    insts = [
        LabeledInstance(("the", "soup", "is", "bad", "."), TermSpan(1, 1), "negative"),
        LabeledInstance(("fine", "!"), CategoryId(3), "neutral"),
    ]
    path = tmp_path / "insts.tsv"
    save_instances(insts, path)
    assert load_instances(path) == insts


@pytest.mark.parametrize("line,message", [
    ("the soup is great\tterm:1:1\tgreat\n", "unknown polarity 'great'"),
    ("the soup is bad\tterm:1:9\tnegative\n", "outside 4 tokens"),
    ("the soup\tterm:x:1\tnegative\n", "invalid literal"),
    ("the soup\tcategory:-1\tnegative\n", "bad category index"),
    ("the soup\tterm:-1:0\tnegative\n", r"bad term span \(-1, 0\)"),
    ("the soup is bad\tterm:3:2\tnegative\n", r"bad term span \(3, 2\)"),
    ("\tterm:0:0\tpositive\n", "empty token in ''"),
    ("the  soup\tterm:0:0\tpositive\n", "empty token in 'the  soup'"),
])
def test_load_instances_errors_name_file_and_line(tmp_path, line, message):
    path = tmp_path / "insts.tsv"
    path.write_text("fine\tcategory:0\tneutral\n\n" + line)
    with pytest.raises(DataFormatError, match=f"insts.tsv:3: .*{message}"):
        load_instances(path)


def test_load_instances_reads_past_a_byte_order_mark(tmp_path):
    text = "fine\tcategory:0\tneutral\nthe soup\tterm:1:1\tpositive\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert load_instances(marked) == load_instances(plain)
    assert load_instances(marked)[0].tokens == ("fine",)


# --- synthetic corpus ---------------------------------------------------------

def test_synthetic_sizes_and_shape():
    train, test, emb = generate_synthetic(40, seed=1, dim=8)
    assert len(train) == 80 and len(test) == 40
    assert emb.dim == 8
    for inst in train + test:
        assert len(inst.tokens) == 10
        assert inst.aspect in (TermSpan(1, 1), TermSpan(6, 6))
        for tok in inst.tokens:
            assert tok in emb.vocab


def test_synthetic_pairs_share_tokens_and_differ_in_aspect():
    train, test, _ = generate_synthetic(30, seed=2)
    for group in (train, test):
        for k in range(0, len(group), 2):
            a, b = group[k], group[k + 1]
            assert a.tokens == b.tokens
            assert a.aspect != b.aspect


def test_synthetic_test_sentences_unique_and_unseen():
    train, test, _ = generate_synthetic(60, seed=3)
    train_surfaces = {i.tokens for i in train}
    test_surfaces = [test[k].tokens for k in range(0, len(test), 2)]
    assert len(set(test_surfaces)) == len(test_surfaces)
    assert not (set(test_surfaces) & train_surfaces)


def test_synthetic_size_is_bounded_by_distinct_sentences():
    # The template makes 30 ordered aspect pairs x 18 x 18 sentiment words =
    # 9,720 sentences, and n training sentences need n // 2 unseen test ones.
    train, test, _ = generate_synthetic(6480)
    assert (len(train), len(test)) == (12960, 6480)
    with pytest.raises(ConfigError, match="exceed the template's 9720 distinct sentences"):
        generate_synthetic(6481)


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(25, seed=4)
    b = generate_synthetic(25, seed=4)
    assert a[0] == b[0] and a[1] == b[1]
    assert np.array_equal(a[2].matrix, b[2].matrix)
    c = generate_synthetic(25, seed=5)
    assert a[0] != c[0]


def test_synthetic_rejects_tiny_corpus():
    with pytest.raises(ValueError):
        generate_synthetic(5, seed=0)


def test_disambiguation_subset_is_label_differing_pairs():
    train, test, _ = generate_synthetic(50, seed=6)
    subset = disambiguation_subset(test)
    # exactly the instances of mixed-label sentences, in pairs
    assert len(subset) % 2 == 0
    by_tokens = {}
    for inst in subset:
        by_tokens.setdefault(inst.tokens, []).append(inst)
    for group in by_tokens.values():
        assert len(group) == 2
        assert group[0].polarity != group[1].polarity
        assert group[0].aspect != group[1].aspect
    expected = sum(2 for k in range(0, len(test), 2)
                   if test[k].polarity != test[k + 1].polarity)
    assert len(subset) == expected


def test_disambiguation_majority_share_bounded():
    # An aspect-blind rule predicts one label per surface, so inside each
    # mixed pair it gets at most one right: accuracy <= 0.5 exactly.
    _, test, _ = generate_synthetic(100, seed=7)
    subset = disambiguation_subset(test)
    assert len(subset) >= 20
    counts = polarity_counts(subset)
    assert max(counts) / len(subset) <= 0.5 + 3 * (0.25 / len(subset)) ** 0.5
