"""Hyperparameter selection by stratified k-fold cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lssvm
from .kernels import KernelSpec
from .signals import Dataset


def as_int(name: str, value, low: int) -> int:
    """`value` as a Python int >= `low`; numpy integers pass, and floats, bools and others raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name}: expected an int >= {low}, got {value!r}")
    return int(value)


def check_grid_values(name: str, values: Sequence[float]) -> None:
    """Reject an empty grid axis, a non-finite or non-positive value, or a duplicate."""
    if not values:
        raise ValueError(f"grid {name} must contain at least one value")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"grid {name} must be finite and positive, got {values}")
    if len(set(values)) != len(values):
        raise ValueError(f"grid {name} contains duplicates: {values}")


@dataclass(frozen=True)
class Grid:
    """Search grid for (C, gamma) plus folding controls."""

    C_values: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    gamma_values: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        check_grid_values("C_values", self.C_values)
        check_grid_values("gamma_values", self.gamma_values)
        # plain Python ints, so that a run manifest can dump the grid as JSON
        object.__setattr__(self, "folds", as_int("folds", self.folds, 2))
        object.__setattr__(self, "seed", as_int("seed", self.seed, 0))


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


def cross_validate(
    labels: np.ndarray,
    candidates: Sequence[dict],
    fit_fold: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
    folds: int,
    seed: int,
) -> tuple[dict, list[dict]]:
    """Pick the candidate with the best mean stratified k-fold accuracy.

    fit_fold(train_idx, val_idx) is called once per fold, in fold order.  It
    trains every candidate on the training indices and returns the predicted
    labels of the validation indices, one array per candidate in candidate
    order, so a caller can share work across its candidates within a fold.

    Each table row is the candidate plus its accuracy, the mean of the
    per-fold accuracies in fold order.  The best row is the first with the
    highest accuracy, so candidate order breaks ties.
    Returns (best row, full table).
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    labels = np.asarray(labels, dtype=int)
    fold_idx = stratified_folds(labels, folds, seed)
    accs: list[list[float]] = [[] for _ in candidates]
    for f, val in enumerate(fold_idx):
        train = np.concatenate([fold_idx[j] for j in range(folds) if j != f])
        for acc, pred in zip(accs, fit_fold(train, val), strict=True):
            acc.append(float(np.mean(np.asarray(pred) == labels[val])))
    table = [dict(cand, accuracy=float(np.mean(a))) for cand, a in zip(candidates, accs)]
    return max(table, key=lambda row: row["accuracy"]), table


Predictor = Callable[[np.ndarray], list[np.ndarray]]


def select(
    train: Dataset,
    fit_fn: Callable[[Dataset, float, Sequence[float]], Predictor],
    grid: Grid,
) -> tuple[dict, list[dict]]:
    """Pick (C, gamma) by stratified CV accuracy through `cross_validate`.

    fit_fn(train_subset, gamma, C_values) trains one model per C on the
    subset with that gamma and returns a predictor mapping a feature matrix
    to a list of label arrays, one per C in `C_values` order.  It is called
    once per (fold, gamma), with the C values ascending, so a kernel fit_fn
    can build each Gram once and reuse it for every C.

    The table lists the candidates with C ascending then gamma ascending,
    so ties resolve to the smaller C and then the smaller gamma.
    Returns (best row, full table).
    """
    C_values = sorted(grid.C_values)
    gamma_values = sorted(grid.gamma_values)

    def fit_fold(train_idx, val_idx):
        sub = train.subset(train_idx)
        X_val = train.features[val_idx]
        per_gamma = [fit_fn(sub, gamma, C_values)(X_val) for gamma in gamma_values]
        # transpose gamma-major predictions into the table's C-major order
        return [pred for per_C in zip(*per_gamma, strict=True) for pred in per_C]

    candidates = [{"C": c, "gamma": g} for c in C_values for g in gamma_values]
    return cross_validate(train.labels, candidates, fit_fold, grid.folds, grid.seed)


def lssvm_fit_fn(sub: Dataset, gamma: float, C_values: Sequence[float]) -> Predictor:
    """`select` fit_fn: gaussian one-vs-all LS-SVMs sharing one train and one query Gram."""
    spec = KernelSpec("gaussian", gamma)
    models = lssvm.fit_for_each_C(sub, spec, C_values)
    return lambda X: lssvm.predict_for_each_C(models, X)
