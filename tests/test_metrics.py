"""Metric tests: hand-worked examples, consistency invariants, and one
cross-check against scikit-learn as an independently written oracle."""

import json

import numpy as np
import pytest

from aalstm.metrics import (
    EvalReport,
    accuracy,
    confusion_matrix,
    macro_f1,
    per_class_prf,
)
from aalstm.tensor import make_rng


def test_accuracy_hand_example():
    assert accuracy([0, 1, 2, 0], [0, 1, 1, 0]) == 0.75


def test_accuracy_all_right_and_all_wrong():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert accuracy([1, 2, 0], [0, 1, 2]) == 0.0


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="2 .* 3"):
        accuracy([0, 1], [0, 1, 2])


def test_accuracy_rejects_empty():
    with pytest.raises(ValueError):
        accuracy([], [])


def test_macro_f1_hand_example():
    # golds [0,1,1,1,2], preds [0,1,1,2,0]:
    #   class 0: tp=1 fp=1 fn=0 -> p=0.5  r=1    f1=2/3
    #   class 1: tp=2 fp=0 fn=1 -> p=1    r=2/3  f1=0.8
    #   class 2: tp=0 fp=1 fn=1 -> p=0    r=0    f1=0
    golds = [0, 1, 1, 1, 2]
    preds = [0, 1, 1, 2, 0]
    prf = per_class_prf(preds, golds)
    assert prf[0] == pytest.approx((0.5, 1.0, 2 / 3))
    assert prf[1] == pytest.approx((1.0, 2 / 3, 0.8))
    assert prf[2] == (0.0, 0.0, 0.0)
    assert macro_f1(preds, golds) == pytest.approx((2 / 3 + 0.8 + 0.0) / 3)


def test_macro_f1_perfect_is_one():
    assert macro_f1([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_zero_support_class_contributes_zero():
    # No neutral instances and none predicted: class f1 is 0, still averaged.
    preds = [0, 1, 0, 1]
    golds = [0, 1, 0, 1]
    assert macro_f1(preds, golds) == pytest.approx(2 / 3)


def test_zero_denominators_hand_example():
    # golds [0,0,1,1], preds [0,2,0,2]: class 1 is gold but never predicted,
    # class 2 is predicted but never gold.
    #   class 0: tp=1 predicted=2 gold=2 -> p=0.5  r=0.5  f1=0.5
    #   class 1: tp=0 predicted=0 gold=2 -> p=0/0 := 0, r=0, f1=0
    #   class 2: tp=0 predicted=2 gold=0 -> p=0, r=0/0 := 0, f1=0
    # This is scikit-learn's zero_division=0.
    golds = [0, 0, 1, 1]
    preds = [0, 2, 0, 2]
    assert per_class_prf(preds, golds) == [(0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
    assert macro_f1(preds, golds) == pytest.approx(0.5 / 3)
    assert accuracy(preds, golds) == 0.25


def test_confusion_matrix_hand_example():
    m = confusion_matrix([0, 1, 2, 0], [0, 1, 1, 0])
    expected = np.array([[2, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert np.array_equal(m, expected)


def test_report_internal_consistency():
    rng = make_rng(50)
    golds = rng.integers(0, 3, size=120).tolist()
    preds = rng.integers(0, 3, size=120).tolist()
    report = EvalReport.from_predictions(preds, golds)
    m = report.confusion
    assert m.sum() == report.n == 120
    assert report.accuracy == pytest.approx(np.trace(m) / m.sum())
    for c in range(3):
        p, r, f1 = report.per_class[c]
        gold = m[c, :].sum()
        predicted = m[:, c].sum()
        if gold:
            assert r == pytest.approx(m[c, c] / gold)
        if predicted:
            assert p == pytest.approx(m[c, c] / predicted)
        if p + r:
            assert f1 == pytest.approx(2 * p * r / (p + r))


def test_report_table_and_json_line():
    report = EvalReport.from_predictions([0, 1, 2, 0], [0, 1, 1, 0])
    text = report.table()
    assert "accuracy=0.7500" in text
    assert "positive" in text and "neutral" in text
    line = report.json_line()
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
        assert accuracy(preds, golds) == pytest.approx(
            sk.accuracy_score(golds, preds), abs=1e-12)
        assert macro_f1(preds, golds) == pytest.approx(
            sk.f1_score(golds, preds, labels=[0, 1, 2], average="macro",
                        zero_division=0), abs=1e-12)
