"""Stratified folding and grid search behavior."""

import numpy as np
import pytest

from emgadapt import lssvm, model_selection
from emgadapt.kernels import KernelSpec
from emgadapt.model_selection import (
    Grid,
    cross_validate,
    kfold_labels,
    select,
    spectral_cv_is_cheaper,
    stratified_folds,
    training_rows,
)
from emgadapt.signals import Dataset


def _blobs(rng, n_per=20, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + 0.3 * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(features=feats, labels=labels, num_classes=len(centers))


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

    def fold_labels(folds):
        return [[labels[val], (labels[val] + 1) % 2] for val in folds]

    best, table = cross_validate(
        labels, [{"right": True}, {"right": False}], fold_labels, 4, seed=0
    )
    assert table == [{"right": True, "accuracy": 1.0}, {"right": False, "accuracy": 0.0}]
    assert best is table[0]


def test_cross_validate_prefers_earlier_candidates_on_ties():
    labels = np.array([0, 1] * 10)
    candidates = [{"C": 1.0}, {"C": 10.0}, {"C": 100.0}]

    def fold_labels_with(right):
        def fold_labels(folds):
            return [[labels[val] if r else 1 - labels[val] for r in right] for val in folds]

        return fold_labels

    best, table = cross_validate(labels, candidates, fold_labels_with((True, True, False)), 2, 0)
    assert best is table[0]
    best, table = cross_validate(labels, candidates, fold_labels_with((False, True, True)), 2, 0)
    assert best is table[1]


def test_cross_validate_calls_fold_labels_once_with_the_stratified_folds():
    labels = np.repeat([0, 1, 2], [7, 6, 5])
    want = stratified_folds(labels, 3, seed=11)
    calls = []

    def fold_labels(folds):
        calls.append(folds)
        return [[labels[val], np.zeros_like(val)] for val in folds]

    best, table = cross_validate(labels, [{"k": 0}, {"k": 1}], fold_labels, 3, seed=11)
    assert len(calls) == 1
    assert len(calls[0]) == len(want)
    assert all(np.array_equal(got, fold) for got, fold in zip(calls[0], want))
    assert best is table[0] and table[0]["accuracy"] == 1.0


@pytest.mark.parametrize("returned", [0, 1, 3], ids=["none", "too-few", "too-many"])
def test_cross_validate_rejects_a_wrong_number_of_predictions(returned):
    labels = np.array([0, 1] * 6)

    def fold_labels(folds):
        return [[labels[val]] * returned for val in folds]

    with pytest.raises(ValueError):
        cross_validate(labels, [{"k": 0}, {"k": 1}], fold_labels, 3, seed=0)


@pytest.mark.parametrize("returned", [2, 4], ids=["too-few", "too-many"])
def test_cross_validate_rejects_a_wrong_number_of_folds(returned):
    labels = np.array([0, 1] * 6)

    def fold_labels(folds):
        return [[labels[folds[0]]] * 2] * returned

    with pytest.raises(ValueError):
        cross_validate(labels, [{"k": 0}, {"k": 1}], fold_labels, 3, seed=0)


def test_cross_validate_rejects_an_empty_candidate_list():
    labels = np.array([0, 1] * 6)
    with pytest.raises(ValueError, match="candidate"):
        cross_validate(labels, [], lambda folds: [], 3, seed=0)


def test_select_candidate_ordering():
    rng = np.random.default_rng(1)
    ds = _blobs(rng, n_per=10)
    grid = Grid(C_values=(10.0, 1.0), gamma_values=(1.0, 0.1), folds=2)
    best, table = select(ds, kfold_labels, grid)
    # table visits C ascending then gamma ascending regardless of input order
    assert [(r["C"], r["gamma"]) for r in table] == [
        (1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0)
    ]
    assert {"C", "gamma", "accuracy"} <= set(best)


def test_select_finds_workable_parameters():
    rng = np.random.default_rng(8)
    ds = _blobs(rng)
    grid = Grid(C_values=(0.01, 1.0, 100.0), gamma_values=(0.01, 1.0), folds=5)
    best, _ = select(ds, kfold_labels, grid)
    assert best["accuracy"] >= 0.95


def test_select_is_deterministic():
    rng = np.random.default_rng(12)
    ds = _blobs(rng, n_per=8)
    grid = Grid(C_values=(1.0, 10.0), gamma_values=(0.1, 1.0), folds=2, seed=5)
    a = select(ds, kfold_labels, grid)
    b = select(ds, kfold_labels, grid)
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
    return Dataset(feats, labels, len(counts))


SELECT_CASES = [
    (0, (12, 12, 12), Grid(C_values=(0.1, 1.0, 10.0), gamma_values=(0.1, 1.0), folds=3)),
    (1, (15, 9, 11, 7), Grid(C_values=(100.0, 0.01, 1.0), gamma_values=(3.0, 0.03, 0.3), folds=4, seed=9)),
    (2, (10, 10, 1), Grid(C_values=(0.5, 5.0, 50.0), gamma_values=(0.2, 2.0), folds=3, seed=4)),
    (4, (14, 13, 12, 11), Grid(C_values=(1000.0, 0.01, 10.0, 0.1, 100.0, 1.0), gamma_values=(0.05, 0.5), folds=5, seed=2)),
]
SELECT_IDS = ["sorted-grid", "unsorted-grid", "fold-lacks-a-class", "5-folds-6-C"]


@pytest.mark.parametrize("seed, counts, grid", SELECT_CASES, ids=SELECT_IDS)
def test_select_table_equals_the_per_candidate_reference(seed, counts, grid):
    ds = _noisy_blobs(seed, counts)
    if min(counts) < grid.folds:
        # some training fold must lack a class, so the default-mask path runs
        folds = stratified_folds(ds.labels, grid.folds, grid.seed)
        assert any(len(np.unique(np.delete(ds.labels, f))) < ds.num_classes for f in folds)
    best, table = select(ds, kfold_labels, grid)
    reference = _reference_table(ds, grid)
    assert table == reference
    top = max(row["accuracy"] for row in reference)
    assert best == next(row for row in reference if row["accuracy"] == top)
    assert len({row["accuracy"] for row in table}) > 1


@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
@pytest.mark.parametrize("seed, counts, grid", SELECT_CASES, ids=SELECT_IDS)
def test_select_table_equals_the_reference_on_either_path(seed, counts, grid, spectral, monkeypatch):
    monkeypatch.setattr(model_selection, "spectral_cv_is_cheaper", lambda n, folds, num_C: spectral)
    ds = _noisy_blobs(seed, counts)
    assert select(ds, kfold_labels, grid)[1] == _reference_table(ds, grid)


@pytest.mark.parametrize("kind", ["gaussian", "linear"])
@pytest.mark.parametrize("seed, counts, grid", SELECT_CASES, ids=SELECT_IDS)
def test_kfold_scores_equal_per_fold_retraining(seed, counts, grid, kind):
    ds = _noisy_blobs(seed, counts)
    folds = stratified_folds(ds.labels, grid.folds, grid.seed)
    if kind == "gaussian":
        specs = [KernelSpec("gaussian", gamma) for gamma in grid.gamma_values]
    else:  # rank 3 (three features): most eigenvalues of K are round-off
        specs = [KernelSpec("linear")]
    for spec in specs:
        got = lssvm.kfold_scores(ds, spec, grid.C_values, folds)
        assert len(got) == len(folds)
        for f, val in enumerate(folds):
            assert len(got[f]) == len(grid.C_values)
            for C, scores in zip(grid.C_values, got[f]):
                model = lssvm.fit(ds.subset(training_rows(folds, f)), spec, C)
                want = lssvm.predict(model, ds.features[val])[1]
                assert np.max(np.abs(scores - want)) <= 1e-8
                # an absent class keeps its default solution's constant exactly
                absent = np.setdiff1d(np.arange(ds.num_classes), ds.labels[training_rows(folds, f)])
                assert np.all(scores[:, absent] == -1.0)


@pytest.mark.parametrize("n", [40, 100, 160, 250, 500, 600, 1000])
def test_cost_rule_picks_direct_for_the_cohort_grid_and_spectral_for_the_cli_grid(n):
    assert not spectral_cv_is_cheaper(n, 3, 3)
    assert spectral_cv_is_cheaper(n, 5, 6)


def test_spectral_scorer_peak_memory_holds_one_gamma_at_a_time(peak_bytes):
    rng = np.random.default_rng(6)
    n = 400
    ds = _noisy_blobs(7, (100, 100, 100, 100))
    ds = Dataset(ds.features + rng.normal(size=ds.features.shape), ds.labels, 4)
    grid = Grid(C_values=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0), gamma_values=(0.01, 0.1, 1.0, 10.0), folds=5)
    assert spectral_cv_is_cheaper(n, grid.folds, len(grid.C_values))
    select(ds, kfold_labels, grid)  # first-call allocations that outlive it stay out of the count
    _, peak = peak_bytes(lambda: select(ds, kfold_labels, grid))
    # measured 2.07 N x N arrays: one gamma's Gram while eigh writes its
    # eigenvectors, plus fold-sized work; keeping every gamma's eigenvectors
    # alive would reach 5
    assert peak < 2.5 * n * n * 8


def test_kfold_scores_reject_a_shift_below_the_eigenvalue_round_off(monkeypatch):
    # check_ridge rejects C = 1e12 here first; without it the eigenvalue check must
    monkeypatch.setattr(lssvm, "check_ridge", lambda kernel_diag, C_values: None)
    rng = np.random.default_rng(10)
    X = rng.normal(size=(50, 3))
    ds = Dataset(np.concatenate([X, X]), rng.integers(0, 3, size=100), 3)
    folds = stratified_folds(ds.labels, 5, 0)
    spec = KernelSpec("gaussian", 0.01)
    with pytest.raises(lssvm.NumericalError, match="smallest eigenvalue"):
        lssvm.kfold_scores(ds, spec, [1.0, 1e12], folds)
    assert all(np.isfinite(s).all() for per_C in lssvm.kfold_scores(ds, spec, [1e3], folds) for s in per_C)


@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
def test_either_cv_path_rejects_exactly_the_ridges_below_the_floor(spectral, monkeypatch):
    # rank-deficient kernels (one feature, duplicated rows, a tiny gamma) at a
    # C just above and just below 1 / (2 n eps trace(K)): the path decides the speed only
    monkeypatch.setattr(model_selection, "spectral_cv_is_cheaper", lambda n, folds, num_C: spectral)
    rng = np.random.default_rng(20)
    for trial in range(40):
        n, d = int(rng.integers(8, 60)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d)) * 10 ** rng.uniform(-3, 3)
        if trial % 3 == 0:
            X = np.concatenate([X, X])[:n]
        spec = KernelSpec("linear") if trial % 2 else KernelSpec("gaussian", 10 ** rng.uniform(-7, 1))
        ds = Dataset(X, rng.integers(0, 3, size=n), 3)
        folds = stratified_folds(ds.labels, 3, trial)
        trace = np.sum(X * X) if spec.kind == "linear" else n
        floor = 2 * n * np.finfo(float).eps * trace
        kfold_labels(ds, spec, [1.0 / (1.001 * floor)], folds)
        with pytest.raises(lssvm.NumericalError, match="singular to working precision"):
            kfold_labels(ds, spec, [1.0, 1.0 / (0.999 * floor)], folds)


def test_kfold_scores_validation():
    ds = _noisy_blobs(0, (3, 3))
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(ValueError, match="C must be"):
        lssvm.kfold_scores(ds, spec, [1.0, 0.0], [np.arange(3)])
    with pytest.raises(ValueError, match="fold"):
        lssvm.kfold_scores(ds, spec, [1.0], [np.arange(5)])
    with pytest.raises(ValueError, match="fold"):
        lssvm.kfold_scores(ds, spec, [1.0], [np.arange(0)])


def test_select_fits_once_per_fold_and_gamma_with_every_C():
    ds = _noisy_blobs(3, (10, 10, 10))
    grid = Grid(C_values=(10.0, 0.1, 1.0), gamma_values=(1.0, 0.1), folds=4)
    calls = []

    def counted(train, kernel_spec, C_values, folds):
        calls.append((train, kernel_spec, tuple(C_values), folds))
        return kfold_labels(train, kernel_spec, C_values, folds)

    select(ds, counted, grid)
    # one call per gamma covers every fold and every C
    assert [c[1] for c in calls] == [KernelSpec("gaussian", 0.1), KernelSpec("gaussian", 1.0)]
    assert all(c[0] is ds and c[2] == (0.1, 1.0, 10.0) for c in calls)
    want = stratified_folds(ds.labels, grid.folds, grid.seed)
    for c in calls:
        assert len(c[3]) == grid.folds
        assert all(np.array_equal(a, b) for a, b in zip(c[3], want))


def test_select_deals_the_folds_once(monkeypatch):
    ds = _noisy_blobs(3, (10, 10, 10))
    grid = Grid(C_values=(0.1, 1.0), gamma_values=(0.1, 1.0, 10.0), folds=3)
    calls = []

    def counted(labels, folds, seed):
        calls.append((folds, seed))
        return stratified_folds(labels, folds, seed)

    monkeypatch.setattr(model_selection, "stratified_folds", counted)
    select(ds, kfold_labels, grid)
    assert calls == [(grid.folds, grid.seed)]
