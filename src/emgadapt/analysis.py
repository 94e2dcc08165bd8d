"""Confusion-matrix analyses: differences, top-4 overlap, recognition correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionMatrix:
    """Counts with entry (r, c) = #(predicted r, true c)."""

    counts: np.ndarray  # G x G int64

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        g = self.counts.shape[0]
        if self.counts.ndim != 2 or self.counts.shape != (g, g):
            raise ValueError("counts must be a square matrix")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def normalized(self) -> np.ndarray:
        """Column-stochastic form: each true-class column sums to 1 (0 if empty)."""
        col = self.counts.sum(axis=0, dtype=float)
        safe = np.where(col > 0, col, 1.0)
        return self.counts / safe

    def recognition(self) -> np.ndarray:
        """Per-class recognition rate: the diagonal of the normalized matrix."""
        return np.diag(self.normalized()).copy()


def confusion(predicted: np.ndarray, true: np.ndarray, num_classes: int) -> ConfusionMatrix:
    predicted = np.asarray(predicted, dtype=int)
    true = np.asarray(true, dtype=int)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise ValueError("predicted and true must be 1-d arrays of equal length")
    if predicted.size:
        if min(predicted.min(), true.min()) < 0 or max(predicted.max(), true.max()) >= num_classes:
            raise ValueError("labels out of range")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (predicted, true), 1)
    return ConfusionMatrix(counts)


def confusion_diff(a: ConfusionMatrix, b: ConfusionMatrix) -> np.ndarray:
    """normalized(a) - normalized(b); entries lie in [-1, 1]."""
    if a.num_classes != b.num_classes:
        raise ValueError("confusion matrices have different class counts")
    return a.normalized() - b.normalized()


def top4_sets(m: ConfusionMatrix) -> list[tuple[int, ...]]:
    """Per true class, ids of the 4 largest column entries (ties: smaller id)."""
    g = m.num_classes
    if g < 4:
        raise ValueError("top-4 overlap needs at least 4 classes")
    norm = m.normalized()
    out = []
    for c in range(g):
        order = np.lexsort((np.arange(g), -norm[:, c]))
        out.append(tuple(int(r) for r in sorted(order[:4])))
    return out


def top4_similarity(a: ConfusionMatrix, b: ConfusionMatrix) -> tuple[float, list[int]]:
    """Fraction of classes whose top-4 sets share >= 3 ids, plus those classes."""
    if a.num_classes != b.num_classes:
        raise ValueError("confusion matrices have different class counts")
    sets_a = top4_sets(a)
    sets_b = top4_sets(b)
    matching = [
        c for c in range(a.num_classes) if len(set(sets_a[c]) & set(sets_b[c])) >= 3
    ]
    return len(matching) / a.num_classes, matching


def similarity_cell(matching: int, num_classes: int) -> str:
    """Render an overlap count like '72% (13/18)' (half-up percent)."""
    pct = int(math.floor(100.0 * matching / num_classes + 0.5))
    return f"{pct}% ({matching}/{num_classes})"


def pearson(u: np.ndarray, v: np.ndarray) -> float:
    """Pearson correlation; NaN when either side has zero variance."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("pearson expects two equal-length vectors")
    du = u - u.mean()
    dv = v - v.mean()
    su = float(np.sqrt((du * du).sum()))
    sv = float(np.sqrt((dv * dv).sum()))
    if su == 0.0 or sv == 0.0:
        return float("nan")
    return float((du * dv).sum() / (su * sv))


def recognition_correlation(
    runs: dict[str, ConfusionMatrix],
) -> tuple[list[str], np.ndarray]:
    """Pearson correlation of per-class recognition between labeled runs.

    Rows and columns follow the dict's insertion order.  Off-diagonal
    entries with a zero-variance side are NaN; the diagonal is 1.
    """
    keys = list(runs.keys())
    g = {runs[k].num_classes for k in keys}
    if len(g) > 1:
        raise ValueError("runs disagree on class count")
    diags = [runs[k].recognition() for k in keys]
    n = len(keys)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = 1.0 if i == j else pearson(diags[i], diags[j])
    return keys, out
