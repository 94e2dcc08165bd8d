"""Hyperparameter selection by stratified k-fold cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lssvm
from .kernels import KernelSpec, gram
from .signals import Dataset


@dataclass(frozen=True)
class Grid:
    """Search grid for (C, gamma) plus folding controls."""

    C_values: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    gamma_values: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not self.C_values or not self.gamma_values:
            raise ValueError("grid must contain at least one C and one gamma")
        for name, values in (("C_values", self.C_values), ("gamma_values", self.gamma_values)):
            if not all(math.isfinite(v) and v > 0 for v in values):
                raise ValueError(f"grid {name} must be finite and positive, got {values}")
            if len(set(values)) != len(values):
                raise ValueError(f"grid {name} contains duplicates: {values}")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Deal each class's shuffled members round-robin into `folds` folds.

    The dealing position carries over between classes, so fold sizes differ
    by at most one globally and per class.  A class with fewer members than
    folds simply lands in that many folds.
    """
    labels = np.asarray(labels, dtype=int)
    n = labels.shape[0]
    if folds > n:
        raise ValueError(f"folds ({folds}) exceeds sample count ({n})")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(folds)]
    pos = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        for idx in members:
            buckets[pos % folds].append(int(idx))
            pos += 1
    out = [np.array(sorted(b), dtype=int) for b in buckets]
    if any(len(b) == 0 for b in out):
        raise ValueError("degenerate folds: a fold received no samples")
    return out


FitPredict = Callable[[np.ndarray, np.ndarray, dict], np.ndarray]


def cross_validate(
    labels: np.ndarray,
    candidates: Sequence[dict],
    fit_predict: FitPredict,
    folds: int,
    seed: int,
) -> list[dict]:
    """Mean CV accuracy for every candidate, in candidate order.

    fit_predict(train_idx, val_idx, candidate) must return predicted labels
    for the validation indices.
    """
    labels = np.asarray(labels, dtype=int)
    fold_idx = stratified_folds(labels, folds, seed)
    table = []
    for cand in candidates:
        accs = []
        for f in range(folds):
            val = fold_idx[f]
            train = np.concatenate([fold_idx[j] for j in range(folds) if j != f])
            pred = np.asarray(fit_predict(train, val, cand))
            accs.append(float(np.mean(pred == labels[val])))
        table.append(dict(cand, accuracy=float(np.mean(accs))))
    return table


def best_candidate(table: list[dict]) -> dict:
    """First row with the highest accuracy (candidate order breaks ties)."""
    best = table[0]
    for row in table[1:]:
        if row["accuracy"] > best["accuracy"]:
            best = row
    return best


Predictor = Callable[[np.ndarray], list[np.ndarray]]


def select(
    train: Dataset,
    fit_fn: Callable[[Dataset, float, Sequence[float]], Predictor],
    grid: Grid,
) -> tuple[dict, list[dict]]:
    """Pick (C, gamma) by stratified CV accuracy.

    fit_fn(train_subset, gamma, C_values) trains one model per C on the
    subset with that gamma and returns a predictor mapping a feature matrix
    to a list of label arrays, one per C in `C_values` order.  It is called
    once per (fold, gamma), with the C values ascending, so a kernel fit_fn
    can build each Gram once and reuse it for every C.

    The table lists the candidates with C ascending then gamma ascending,
    so ties resolve to the smaller C and then the smaller gamma; each
    accuracy is the mean of the per-fold accuracies in fold order.
    Returns (best row, full table).
    """
    C_values = sorted(grid.C_values)
    gamma_values = sorted(grid.gamma_values)
    labels = train.labels
    fold_idx = stratified_folds(labels, grid.folds, grid.seed)
    # accs[i][j] collects the per-fold accuracies of (C_values[i], gamma_values[j])
    accs = [[[] for _ in gamma_values] for _ in C_values]
    for f, val in enumerate(fold_idx):
        sub = train.subset(np.concatenate([fold_idx[j] for j in range(grid.folds) if j != f]))
        X_val = train.features[val]
        for j, gamma in enumerate(gamma_values):
            preds = fit_fn(sub, gamma, C_values)(X_val)
            for i, pred in enumerate(preds):
                accs[i][j].append(float(np.mean(pred == labels[val])))
    table = [
        {"C": c, "gamma": g, "accuracy": float(np.mean(accs[i][j]))}
        for i, c in enumerate(C_values)
        for j, g in enumerate(gamma_values)
    ]
    return best_candidate(table), table


def lssvm_fit_fn(sub: Dataset, gamma: float, C_values: Sequence[float]) -> Predictor:
    """`select` fit_fn: gaussian one-vs-all LS-SVMs sharing one train and one query Gram."""
    spec = KernelSpec("gaussian", gamma)
    models = lssvm.fit_for_each_C(sub, spec, C_values)

    def predict(X: np.ndarray) -> list[np.ndarray]:
        kq = gram(spec, X, sub.features)
        return [np.argmax(kq @ m.alphas + m.biases, axis=1) for m in models]

    return predict
