"""Hyperparameter selection by stratified k-fold cross-validation: the protocol alone.
It trains no model; a caller passes the fold labeller, `lssvm.kfold_labels` for an LS-SVM."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    by at most one globally and per class, and no fold is empty.  A class
    with fewer members than folds simply lands in that many folds.
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
    return [np.array(sorted(b), dtype=int) for b in buckets]


def training_rows(folds: Sequence[np.ndarray], f: int) -> np.ndarray:
    """Indices of every fold except fold f, in fold order."""
    return np.concatenate([rows for j, rows in enumerate(folds) if j != f])


def cross_validate(
    labels: np.ndarray,
    candidates: Sequence[dict],
    fold_labels: Callable[[list[np.ndarray]], Sequence[Sequence[np.ndarray]]],
    folds: int,
    seed: int,
) -> tuple[dict, list[dict]]:
    """Pick the candidate with the best mean stratified k-fold accuracy.

    fold_labels(val_folds) is called once with the `stratified_folds` index
    arrays.  It returns, per fold in order, the labels of that fold's rows
    from each candidate, in order, trained on the other folds' rows.

    Each table row is the candidate plus its accuracy, the mean of the
    per-fold accuracies in fold order.  The best row is the first with the
    highest accuracy, so candidate order breaks ties.
    Returns (best row, full table).
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    labels = np.asarray(labels, dtype=int)
    val_folds = stratified_folds(labels, folds, seed)
    accs: list[list[float]] = [[] for _ in candidates]
    for val, preds in zip(val_folds, fold_labels(val_folds), strict=True):
        for acc, pred in zip(accs, preds, strict=True):
            acc.append(float(np.mean(np.asarray(pred) == labels[val])))
    table = [dict(cand, accuracy=float(np.mean(a))) for cand, a in zip(candidates, accs)]
    return max(table, key=lambda row: row["accuracy"]), table


def select(
    train: Dataset,
    fit_fn: Callable[[Dataset, KernelSpec, list[float], list[np.ndarray]], list[list[np.ndarray]]],
    grid: Grid,
) -> tuple[dict, list[dict]]:
    """Pick (C, gamma) by stratified CV accuracy through `cross_validate`.

    fit_fn(train, KernelSpec("gaussian", gamma), C_values, folds) is called
    once per gamma, ascending, with the C values ascending and the folds that
    `cross_validate` deals, and returns per fold the labels at every C, as
    `lssvm.kfold_labels` does, so one call can share work across folds and C.

    The table lists the candidates with C ascending then gamma ascending,
    so ties resolve to the smaller C and then the smaller gamma.
    Returns (best row, full table).
    """
    C_values = sorted(grid.C_values)
    gamma_values = sorted(grid.gamma_values)

    def fold_labels(folds):
        per_gamma = [fit_fn(train, KernelSpec("gaussian", g), C_values, folds) for g in gamma_values]
        # per fold, transpose gamma-major labels into the table's C-major order
        return [
            [pred for per_C in zip(*per_fold, strict=True) for pred in per_C]
            for per_fold in zip(*per_gamma, strict=True)
        ]

    candidates = [{"C": c, "gamma": g} for c in C_values for g in gamma_values]
    return cross_validate(train.labels, candidates, fold_labels, grid.folds, grid.seed)

