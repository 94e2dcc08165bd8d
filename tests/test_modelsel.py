"""Stratified folding and grid search behavior."""

import numpy as np
import pytest

from emgadapt import lssvm
from emgadapt.kernels import KernelSpec
from emgadapt.model_selection import (
    Grid,
    cross_validate,
    lssvm_fit_fn,
    select,
    stratified_folds,
)
from emgadapt.signals import Dataset


def _blobs(rng, n_per=20, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + 0.3 * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(
        features=feats, labels=labels, num_classes=len(centers), feature_names=["x", "y"]
    )


def test_folds_partition_all_indices():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(10, 60))
        g = int(rng.integers(2, 5))
        labels = rng.integers(0, g, size=n)
        folds = int(rng.integers(2, 6))
        if folds > n:
            continue
        parts = stratified_folds(labels, folds, seed=int(rng.integers(1000)))
        joined = np.sort(np.concatenate(parts))
        assert np.array_equal(joined, np.arange(n))


def test_folds_balanced_globally_and_per_class():
    labels = np.repeat([0, 1, 2], [17, 11, 7])
    parts = stratified_folds(labels, 5, seed=3)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    for cls in (0, 1, 2):
        per = [int(np.sum(labels[p] == cls)) for p in parts]
        assert max(per) - min(per) <= 1


def test_folds_errors_and_determinism():
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        stratified_folds(labels, 5, seed=0)
    a = stratified_folds(labels, 2, seed=7)
    b = stratified_folds(labels, 2, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_cross_validate_accuracy_oracle():
    labels = np.array([0, 1] * 10)

    def fit_fold(train_idx, val_idx):
        truth = labels[val_idx]
        return [truth, (truth + 1) % 2]

    best, table = cross_validate(
        labels, [{"right": True}, {"right": False}], fit_fold, 4, seed=0
    )
    assert table == [{"right": True, "accuracy": 1.0}, {"right": False, "accuracy": 0.0}]
    assert best is table[0]


def test_cross_validate_prefers_earlier_candidates_on_ties():
    labels = np.array([0, 1] * 10)
    candidates = [{"C": 1.0}, {"C": 10.0}, {"C": 100.0}]

    def fit_fold_with(right):
        def fit_fold(train_idx, val_idx):
            truth = labels[val_idx]
            return [truth if r else 1 - truth for r in right]

        return fit_fold

    best, table = cross_validate(labels, candidates, fit_fold_with((True, True, False)), 2, 0)
    assert best is table[0]
    best, table = cross_validate(labels, candidates, fit_fold_with((False, True, True)), 2, 0)
    assert best is table[1]


def test_cross_validate_calls_fit_fold_once_per_fold():
    labels = np.repeat([0, 1, 2], [7, 6, 5])
    folds = stratified_folds(labels, 3, seed=11)
    calls = []

    def fit_fold(train_idx, val_idx):
        calls.append((train_idx, val_idx))
        return [labels[val_idx], np.zeros_like(val_idx)]

    cross_validate(labels, [{"k": 0}, {"k": 1}], fit_fold, 3, seed=11)
    assert len(calls) == 3
    for (train_idx, val_idx), fold in zip(calls, folds):
        assert np.array_equal(val_idx, fold)
        assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(len(labels)))


@pytest.mark.parametrize("returned", [0, 1, 3], ids=["none", "too-few", "too-many"])
def test_cross_validate_rejects_a_wrong_number_of_predictions(returned):
    labels = np.array([0, 1] * 6)

    def fit_fold(train_idx, val_idx):
        return [labels[val_idx]] * returned

    with pytest.raises(ValueError):
        cross_validate(labels, [{"k": 0}, {"k": 1}], fit_fold, 3, seed=0)


def test_cross_validate_rejects_an_empty_candidate_list():
    labels = np.array([0, 1] * 6)
    with pytest.raises(ValueError, match="candidate"):
        cross_validate(labels, [], lambda train_idx, val_idx: [], 3, seed=0)


def test_select_candidate_ordering():
    rng = np.random.default_rng(1)
    ds = _blobs(rng, n_per=10)
    grid = Grid(C_values=(10.0, 1.0), gamma_values=(1.0, 0.1), folds=2)
    best, table = select(ds, lssvm_fit_fn, grid)
    # table visits C ascending then gamma ascending regardless of input order
    assert [(r["C"], r["gamma"]) for r in table] == [
        (1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0)
    ]
    assert {"C", "gamma", "accuracy"} <= set(best)


def test_select_finds_workable_parameters():
    rng = np.random.default_rng(8)
    ds = _blobs(rng)
    grid = Grid(C_values=(0.01, 1.0, 100.0), gamma_values=(0.01, 1.0), folds=5)
    best, _ = select(ds, lssvm_fit_fn, grid)
    assert best["accuracy"] >= 0.95


def test_select_is_deterministic():
    rng = np.random.default_rng(12)
    ds = _blobs(rng, n_per=8)
    grid = Grid(C_values=(1.0, 10.0), gamma_values=(0.1, 1.0), folds=2, seed=5)
    a = select(ds, lssvm_fit_fn, grid)
    b = select(ds, lssvm_fit_fn, grid)
    assert a == b


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(C_values=())
    with pytest.raises(ValueError):
        Grid(C_values=(1.0,), gamma_values=(-1.0,))
    with pytest.raises(ValueError):
        Grid(folds=1)


@pytest.mark.parametrize(
    "C_values, gamma_values",
    [
        ((float("nan"), 1.0), (1.0,)),
        ((1.0,), (float("inf"),)),
        ((float("-inf"),), (1.0,)),
        ((1.0, 10.0, 1.0), (1.0,)),
        ((1.0,), (0.1, 0.1)),
        ((float("nan"), 1.0, 1.0), (float("inf"),)),
    ],
)
def test_grid_rejects_non_finite_and_duplicate_values(C_values, gamma_values):
    with pytest.raises(ValueError, match="grid"):
        Grid(C_values=C_values, gamma_values=gamma_values)


def _reference_table(ds, grid):
    """Per-candidate CV: one lssvm.fit and one lssvm.predict per (C, gamma, fold)."""
    folds = stratified_folds(ds.labels, grid.folds, grid.seed)
    table = []
    for c in sorted(grid.C_values):
        for g in sorted(grid.gamma_values):
            accs = []
            for f, val in enumerate(folds):
                train = np.concatenate([folds[j] for j in range(grid.folds) if j != f])
                model = lssvm.fit(ds.subset(train), KernelSpec("gaussian", g), c)
                pred = lssvm.predict(model, ds.features[val])[0]
                accs.append(float(np.mean(pred == ds.labels[val])))
            table.append({"C": c, "gamma": g, "accuracy": float(np.mean(accs))})
    return table


def _noisy_blobs(seed, counts):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(len(counts), 3)) * 1.5
    feats = np.concatenate([c + rng.normal(size=(n, 3)) for c, n in zip(centers, counts)])
    labels = np.repeat(np.arange(len(counts)), counts)
    return Dataset(feats, labels, len(counts), ["a", "b", "c"])


@pytest.mark.parametrize(
    "seed, counts, grid",
    [
        (0, (12, 12, 12), Grid(C_values=(0.1, 1.0, 10.0), gamma_values=(0.1, 1.0), folds=3)),
        (1, (15, 9, 11, 7), Grid(C_values=(100.0, 0.01, 1.0), gamma_values=(3.0, 0.03, 0.3), folds=4, seed=9)),
        (2, (10, 10, 1), Grid(C_values=(0.5, 5.0, 50.0), gamma_values=(0.2, 2.0), folds=3, seed=4)),
    ],
    ids=["sorted-grid", "unsorted-grid", "fold-lacks-a-class"],
)
def test_select_table_equals_the_per_candidate_reference(seed, counts, grid):
    ds = _noisy_blobs(seed, counts)
    if min(counts) < grid.folds:
        # some training fold must lack a class, so the default-mask path runs
        folds = stratified_folds(ds.labels, grid.folds, grid.seed)
        assert any(len(np.unique(np.delete(ds.labels, f))) < ds.num_classes for f in folds)
    best, table = select(ds, lssvm_fit_fn, grid)
    reference = _reference_table(ds, grid)
    assert table == reference
    top = max(row["accuracy"] for row in reference)
    assert best == next(row for row in reference if row["accuracy"] == top)
    assert len({row["accuracy"] for row in table}) > 1


def test_select_fits_once_per_fold_and_gamma_with_every_C():
    ds = _noisy_blobs(3, (10, 10, 10))
    grid = Grid(C_values=(10.0, 0.1, 1.0), gamma_values=(1.0, 0.1), folds=4)
    calls = []

    def counted(sub, gamma, C_values):
        calls.append((len(sub), gamma, tuple(C_values)))
        return lssvm_fit_fn(sub, gamma, C_values)

    select(ds, counted, grid)
    assert len(calls) == grid.folds * len(grid.gamma_values)
    assert {c[2] for c in calls} == {(0.1, 1.0, 10.0)}
    assert [c[1] for c in calls] == [0.1, 1.0] * grid.folds

