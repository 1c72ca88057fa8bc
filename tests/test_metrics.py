"""Metric tests: hand-worked examples, consistency invariants, the earlier
per-function metrics as an oracle, and one cross-check against scikit-learn
as an independently written oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalstm.metrics import EvalReport
from aalstm.tensor import make_rng
from tests.helpers import oracle_report

report = EvalReport.from_predictions


def test_accuracy_hand_example():
    assert report([0, 1, 2, 0], [0, 1, 1, 0]).accuracy == 0.75


def test_accuracy_all_right_and_all_wrong():
    assert report([0, 1, 2], [0, 1, 2]).accuracy == 1.0
    assert report([1, 2, 0], [0, 1, 2]).accuracy == 0.0


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="2 .* 3"):
        report([0, 1], [0, 1, 2])


def test_accuracy_rejects_empty():
    with pytest.raises(ValueError, match="no predictions"):
        report([], [])


@pytest.mark.parametrize("preds,golds,bad", [
    ([0, 3], [0, 1], 3), ([0, 1], [-1, 1], -1), (np.array([0, 1]), np.array([1, 5]), 5),
])
def test_report_rejects_labels_outside_the_classes(preds, golds, bad):
    with pytest.raises(ValueError, match=f"label {bad} outside 0..2"):
        report(preds, golds)


def test_macro_f1_hand_example():
    # golds [0,1,1,1,2], preds [0,1,1,2,0]:
    #   class 0: tp=1 fp=1 fn=0 -> p=0.5  r=1    f1=2/3
    #   class 1: tp=2 fp=0 fn=1 -> p=1    r=2/3  f1=0.8
    #   class 2: tp=0 fp=1 fn=1 -> p=0    r=0    f1=0
    golds = [0, 1, 1, 1, 2]
    preds = [0, 1, 1, 2, 0]
    r = report(preds, golds)
    assert r.per_class[0] == pytest.approx((0.5, 1.0, 2 / 3))
    assert r.per_class[1] == pytest.approx((1.0, 2 / 3, 0.8))
    assert r.per_class[2] == (0.0, 0.0, 0.0)
    assert r.macro_f1 == pytest.approx((2 / 3 + 0.8 + 0.0) / 3)


def test_macro_f1_perfect_is_one():
    assert report([0, 1, 2, 1], [0, 1, 2, 1]).macro_f1 == 1.0


def test_zero_support_class_contributes_zero():
    # No neutral instances and none predicted: class f1 is 0, still averaged.
    preds = [0, 1, 0, 1]
    golds = [0, 1, 0, 1]
    assert report(preds, golds).macro_f1 == pytest.approx(2 / 3)


def test_zero_denominators_hand_example():
    # golds [0,0,1,1], preds [0,2,0,2]: class 1 is gold but never predicted,
    # class 2 is predicted but never gold.
    #   class 0: tp=1 predicted=2 gold=2 -> p=0.5  r=0.5  f1=0.5
    #   class 1: tp=0 predicted=0 gold=2 -> p=0/0 := 0, r=0, f1=0
    #   class 2: tp=0 predicted=2 gold=0 -> p=0, r=0/0 := 0, f1=0
    # This is scikit-learn's zero_division=0.
    golds = [0, 0, 1, 1]
    preds = [0, 2, 0, 2]
    r = report(preds, golds)
    assert r.per_class == [(0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
    assert r.macro_f1 == pytest.approx(0.5 / 3)
    assert r.accuracy == 0.25


def test_confusion_matrix_hand_example():
    m = report([0, 1, 2, 0], [0, 1, 1, 0]).confusion
    expected = np.array([[2, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert np.array_equal(m, expected)
    assert m.dtype == np.int64


def test_report_internal_consistency():
    rng = make_rng(50)
    golds = rng.integers(0, 3, size=120).tolist()
    preds = rng.integers(0, 3, size=120).tolist()
    rep = report(preds, golds)
    m = rep.confusion
    assert m.sum() == rep.n == 120
    assert rep.accuracy == pytest.approx(np.trace(m) / m.sum())
    for c in range(3):
        p, r, f1 = rep.per_class[c]
        gold = m[c, :].sum()
        predicted = m[:, c].sum()
        if gold:
            assert r == pytest.approx(m[c, c] / gold)
        if predicted:
            assert p == pytest.approx(m[c, c] / predicted)
        if p + r:
            assert f1 == pytest.approx(2 * p * r / (p + r))


def test_report_table_and_json_line():
    rep = report([0, 1, 2, 0], [0, 1, 1, 0])
    text = rep.table()
    assert "accuracy=0.7500" in text
    assert "positive" in text and "neutral" in text
    line = rep.json_line()
    assert "\n" not in line
    payload = json.loads(line)
    assert payload["n"] == 4
    assert payload["accuracy"] == 0.75
    assert payload["confusion"][1] == [0, 1, 1]
    assert set(payload["per_class"]) == {"positive", "negative", "neutral"}


def test_against_sklearn_oracle():
    sk = pytest.importorskip("sklearn.metrics")
    rng = make_rng(51)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        golds = rng.integers(0, 3, size=n).tolist()
        preds = rng.integers(0, 3, size=n).tolist()
        rep = report(preds, golds)
        assert rep.accuracy == pytest.approx(
            sk.accuracy_score(golds, preds), abs=1e-12)
        assert rep.macro_f1 == pytest.approx(
            sk.f1_score(golds, preds, labels=[0, 1, 2], average="macro",
                        zero_division=0), abs=1e-12)


# Label sets that leave some class with no gold instance, no prediction, or
# neither, besides the full set.
_LABEL_SETS = st.sampled_from([(0, 1, 2), (0, 1), (1, 2), (0, 2), (0,), (2,)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(1, 40), gold_set=_LABEL_SETS, pred_set=_LABEL_SETS,
       as_array=st.booleans())
def test_report_equals_the_per_function_oracle(data, n, gold_set, pred_set, as_array):
    golds = data.draw(st.lists(st.sampled_from(gold_set), min_size=n, max_size=n))
    preds = data.draw(st.lists(st.sampled_from(pred_set), min_size=n, max_size=n))
    expected = oracle_report(preds, golds)
    if as_array:
        preds, golds = np.array(preds, dtype=np.int64), np.array(golds, dtype=np.int64)
    rep = report(preds, golds)
    assert rep.json_line() == expected.json_line()
    assert rep.table() == expected.table()
    assert all(type(v) is float for v in (rep.accuracy, rep.macro_f1, *sum(rep.per_class, ())))
