"""Classification metrics: an evaluation report read off one 3x3 confusion
matrix (gold on rows, prediction on columns).

Per-class precision, recall, and F1 treat zero denominators as 0 (a class
never predicted has precision 0; a class with no gold instances has recall
0), and macro F1 averages over all three classes regardless of support.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import POLARITIES

N_CLASSES = len(POLARITIES)


@dataclass
class EvalReport:
    n: int
    accuracy: float
    macro_f1: float
    per_class: list[tuple[float, float, float]]
    confusion: np.ndarray

    @classmethod
    def from_predictions(cls, preds, golds) -> "EvalReport":
        """Check the labels once, count the confusion matrix once and read
        every score off it as a Python float."""
        if len(preds) != len(golds):
            raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
        if len(preds) == 0:
            raise ValueError("no predictions to score")
        pairs = np.array([preds, golds]).astype(np.int64)
        bad = (pairs < 0) | (pairs >= N_CLASSES)
        if bad.any():
            raise ValueError(f"label {pairs[bad][0]} outside 0..{N_CLASSES - 1}")
        m = np.bincount(pairs[1] * N_CLASSES + pairs[0], minlength=N_CLASSES ** 2)
        m = m.reshape(N_CLASSES, N_CLASSES)
        per_class = []
        for tp, predicted, gold in zip(m.diagonal().tolist(), m.sum(axis=0).tolist(),
                                       m.sum(axis=1).tolist()):
            p = tp / predicted if predicted else 0.0
            r = tp / gold if gold else 0.0
            per_class.append((p, r, 2 * p * r / (p + r) if p + r else 0.0))
        return cls(n=len(preds), accuracy=int(m.trace()) / len(preds),
                   macro_f1=sum(f1 for _, _, f1 in per_class) / N_CLASSES,
                   per_class=per_class, confusion=m)

    def table(self) -> str:
        lines = [f"n={self.n}  accuracy={self.accuracy:.4f}  macro_f1={self.macro_f1:.4f}"]
        lines.append(f"{'class':<26}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
        for c, name in enumerate(POLARITIES):
            p, r, f1 = self.per_class[c]
            support = int(self.confusion[c, :].sum())
            lines.append(f"{name:<26}{p:>10.4f}{r:>10.4f}{f1:>10.4f}{support:>10d}")
        lines.append("confusion (rows gold, cols pred): " + " ".join(POLARITIES))
        for c, name in enumerate(POLARITIES):
            row = " ".join(f"{int(v):6d}" for v in self.confusion[c])
            lines.append(f"{name:<26}{row}")
        return "\n".join(lines)

    def json_line(self) -> str:
        payload = {
            "n": self.n,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class": {
                name: {"precision": p, "recall": r, "f1": f1}
                for name, (p, r, f1) in zip(POLARITIES, self.per_class)
            },
            "confusion": self.confusion.tolist(),
        }
        return json.dumps(payload)
