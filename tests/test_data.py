"""Ingestion tests: tokenizer, XML parsing against a hand-checked fixture,
embedding loading, splits, and the synthetic corpus."""

from pathlib import Path

import numpy as np
import pytest

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
    polarity_counts,
    save_instances,
    tokenize,
    tokenize_with_offsets,
)

FIXTURE = Path(__file__).parent / "fixtures" / "mini_reviews.xml"


# --- tokenizer --------------------------------------------------------------

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The salad is delicious!") == ["the", "salad", "is", "delicious", "!"]


def test_tokenize_interior_apostrophe():
    assert tokenize("Don't go.") == ["don", "'", "t", "go", "."]


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


def test_embedding_lookup_falls_back_to_unk():
    vocab = {UNK_TOKEN: 0, "soup": 1}
    table = EmbeddingTable(vocab, np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert table.index("soup") == 1
    assert table.index("quiche") == 0
    assert np.array_equal(table.vector("quiche"), [1.0, 1.0])


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
    assert np.array_equal(build_aspect_vector(inst, table), [3.0, 4.0])


def test_aspect_vector_is_span_mean():
    vocab = {UNK_TOKEN: 0, "wine": 1, "list": 2}
    table = EmbeddingTable(vocab, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    inst = LabeledInstance(("wine", "list"), TermSpan(0, 1), "neutral")
    assert np.allclose(build_aspect_vector(inst, table), [0.5, 0.5])


def test_aspect_vector_category_is_table_view():
    vocab = {UNK_TOKEN: 0}
    emb = EmbeddingTable(vocab, np.zeros((1, 2)))
    cats = AspectEmbeddingTable(("food", "price"), np.array([[1.0, 2.0], [3.0, 4.0]]))
    inst = LabeledInstance(("fine",), CategoryId(1), "neutral")
    v = build_aspect_vector(inst, emb, cats)
    assert np.array_equal(v, [3.0, 4.0])
    assert np.shares_memory(v, cats.matrix)


def test_aspect_vector_category_without_table_errors():
    emb = EmbeddingTable({UNK_TOKEN: 0}, np.zeros((1, 2)))
    inst = LabeledInstance(("fine",), CategoryId(0), "neutral")
    with pytest.raises(ValueError, match="aspect embedding table"):
        build_aspect_vector(inst, emb)


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


# --- serialization -----------------------------------------------------------

def test_instances_round_trip(tmp_path):
    insts = [
        LabeledInstance(("the", "soup", "is", "bad", "."), TermSpan(1, 1), "negative"),
        LabeledInstance(("fine", "!"), CategoryId(3), "neutral"),
    ]
    path = tmp_path / "insts.tsv"
    save_instances(insts, path)
    assert load_instances(path) == insts


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
