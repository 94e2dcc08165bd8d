"""Stratified folding and grid search behavior."""

import numpy as np
import pytest

from emgadapt import lssvm, model_selection
from emgadapt.kernels import KernelSpec, gram
from emgadapt.lssvm import kfold_labels, spectral_cv_is_cheaper
from emgadapt.model_selection import (
    Grid,
    cross_validate,
    select,
    stratified_folds,
    training_rows,
)
from emgadapt.multi_adapt import fit_ma
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
    # from as many rows as folds upward, every fold gets a row and sizes differ by at most 1
    for folds in range(2, 8):
        for n in range(folds, folds + 12):
            for g in range(1, 6):
                labels = rng.integers(0, g, size=n)
                parts = stratified_folds(labels, folds, seed=int(rng.integers(1000)))
                assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))
                sizes = [len(p) for p in parts]
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


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
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: spectral)
    ds = _noisy_blobs(seed, counts)
    assert select(ds, kfold_labels, grid)[1] == _reference_table(ds, grid)


def _assert_kfold_scores_equal_per_fold_retraining(ds, spec, C_values, folds):
    got = lssvm.kfold_scores(ds, spec, C_values, folds)
    assert len(got) == len(folds)
    for f, val in enumerate(folds):
        assert len(got[f]) == len(C_values)
        for C, scores in zip(C_values, got[f]):
            model = lssvm.fit(ds.subset(training_rows(folds, f)), spec, C)
            want = lssvm.predict(model, ds.features[val])[1]
            assert np.max(np.abs(scores - want)) <= 1e-8
            # an absent class keeps its default solution's constant exactly
            absent = np.setdiff1d(np.arange(ds.num_classes), ds.labels[training_rows(folds, f)])
            assert np.all(scores[:, absent] == -1.0)


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
        _assert_kfold_scores_equal_per_fold_retraining(ds, spec, grid.C_values, folds)


SPLIT_SHAPES = ["shuffled-blocks", "blocks-and-singleton-rows", "all-singletons",
                "linear-with-negative-entries", "linear-with-more-features-than-rows"]


def _split_case(shape):
    """(dataset, kernel, block of each row): the connected blocks that the Gram's
    entries at or above (eps / n) max_i K_ii form, each of them dense."""
    rng = np.random.default_rng(31)
    if shape in ("shuffled-blocks", "blocks-and-singleton-rows"):
        # 4 clusters 20 apart on the first axis: at gamma = 1 every entry across
        # clusters underflows to 0 and every entry within one stays above 1e-5
        block = np.repeat(np.arange(4), 12)
        feats = 0.5 * rng.normal(size=(48, 3))
        feats[:, 0] += 20.0 * block
        if shape == "blocks-and-singleton-rows":  # and 4 rows 1000 apart, each a block of its own
            block = np.concatenate([block, 4 + np.arange(4)])
            feats = np.concatenate([feats, 1000.0 * np.arange(1, 5)[:, None] * np.ones(3)])
        perm = rng.permutation(len(block))
        return Dataset(feats[perm], perm % 3, 3), KernelSpec("gaussian", 1.0), block[perm]
    ds = _noisy_blobs(3, (14, 13, 13))
    if shape == "all-singletons":  # every squared distance times gamma exceeds 40
        return ds, KernelSpec("gaussian", 1e4), np.arange(len(ds))
    if shape == "linear-with-more-features-than-rows":  # d >= N: the dense eigh of the Gram
        feats = rng.normal(size=(len(ds), 48)) + 3.0 * ds.features[:, :1]
        feats -= feats.mean(axis=0)
        return Dataset(feats, ds.labels, ds.num_classes), KernelSpec("linear"), np.zeros(len(ds), dtype=int)
    # d < N: the thin spectrum.  Centered features, so about half of the linear Gram's
    # entries are negative, and one all-zero row, K_ii = 0, a block of its own
    feats = ds.features - ds.features.mean(axis=0)
    feats[7] = 0.0
    block = np.zeros(len(ds), dtype=int)
    block[7] = 1
    return Dataset(feats, ds.labels, ds.num_classes), KernelSpec("linear"), block


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_kfold_scores_equal_per_fold_retraining_where_the_gram_splits(shape):
    ds, spec, _ = _split_case(shape)
    folds = stratified_folds(ds.labels, 5, 1)
    _assert_kfold_scores_equal_per_fold_retraining(ds, spec, (0.1, 1.0, 10.0, 100.0), folds)


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_gram_eigh_decomposes_the_flushed_gram_one_block_at_a_time(shape, monkeypatch):
    ds, spec, block = _split_case(shape)
    k = gram(spec, ds.features, ds.features)
    n, eps = len(k), np.finfo(float).eps
    flushed = np.where(np.abs(k) < eps / n * np.diag(k).max(), 0.0, k)
    same = block[:, None] == block[None, :]
    nonzero = np.diag(k) != 0  # the all-zero row has no non-zero entry at all
    assert np.all(flushed[~same] == 0.0) and np.all(flushed[same & np.outer(nonzero, nonzero)] != 0.0)
    if spec.kind == "linear":  # the rule looks at |K_ij|: negative entries stay
        assert np.array_equal(flushed < 0, k < 0) and np.sum(k < 0) > n * n / 4
    thin = spec.kind == "linear" and ds.features.shape[1] < n
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    lam, vecs, rows = lssvm._gram_eigh(spec, ds.features)
    m, cols = vecs.shape
    assert np.array_equal(np.sort(rows), np.arange(n)) and len(lam) == n
    if thin:  # the thin SVD of X: no Gram, no eigh, and K's null space at lam = 0
        assert sizes == [] and (m, cols) == ds.features.shape and np.all(lam[cols:] == 0.0)
    else:  # one eigh per block of 2+ rows, none for a single row, which keeps no eigenvector
        assert sorted(sizes) == sorted(c for c in np.bincount(block) if c > 1)
        assert m == cols == np.sum(np.bincount(block)[block] > 1)
        assert np.array_equal(lam[m:], np.diag(k)[rows[m:]])
    # K = sum_j lam[j] q_j q_j^T: q_j is vecs' column j on rows[:m], then e_i for each singleton row i
    q = np.zeros((n, cols + n - m))
    q[rows[:m], :cols] = vecs
    q[rows[m:], np.arange(cols, cols + n - m)] = 1.0
    assert np.linalg.norm((q * lam[: q.shape[1]]) @ q.T - flushed, 2) <= n * eps * np.linalg.norm(k, 2)
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2) <= n * eps


def _reference_kfold_scores_one_block(train, kernel_spec, C_values, folds):
    """The held-out scores from one dense eigh of the whole Gram, with no singleton rows and
    no thin spectrum: what `kfold_scores` must give bit for bit where the Gram is one block."""
    n, g = len(train), train.num_classes
    targets = lssvm.ova_targets(train.labels, g)
    lam, vecs = np.linalg.eigh(gram(kernel_spec, train.features, train.features))
    proj = vecs.T @ np.column_stack((np.ones(n), targets))
    per_C = []
    for C in C_values:
        d = 1.0 / (lam + 1.0 / C)
        sol = vecs @ (d[:, None] * proj)
        u = sol[:, 0]
        s = u.sum()
        per_C.append((np.sqrt(d), u, s, sol[:, 1:] - np.outer(u, u @ targets) / s))
    out = []
    for f in folds:
        absent = np.ones(g, dtype=bool)
        absent[np.delete(train.labels, f)] = False
        scores = []
        for root_d, u, s, alphas in per_C:
            w = vecs[f] * root_d
            held_out = targets[f] - np.linalg.solve(w @ w.T - np.outer(u[f], u[f]) / s, alphas[f])
            held_out[:, absent] = -1.0
            scores.append(held_out)
        out.append(scores)
    return out


def test_kfold_scores_keep_the_bits_of_one_dense_eigh_where_the_gram_is_one_block():
    ds = _noisy_blobs(2, (10, 10, 1))  # a fold lacks a class: its column stays -1
    spec = KernelSpec("gaussian", 0.1)
    k = gram(spec, ds.features, ds.features)
    assert np.all(k >= np.finfo(float).eps / len(k))  # no entry is flushed: one block
    folds = stratified_folds(ds.labels, 5, 3)
    C_values = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    got = lssvm.kfold_scores(ds, spec, C_values, folds)
    want = _reference_kfold_scores_one_block(ds, spec, C_values, folds)
    for got_f, want_f in zip(got, want, strict=True):
        for a, b in zip(got_f, want_f, strict=True):
            assert a.tobytes() == b.tobytes()


def _cost_rule_with_n(n, folds, num_C):
    """The cost rule's two counts with the row count n kept, each term n^3 times the n-free one's."""
    fold = n / folds
    direct = folds * num_C * (n - fold) ** 3
    spectral = lssvm.EIGH_LU_EQUIVALENTS * n**3 + folds * num_C * 3 * fold**2 * n
    return spectral < direct


@pytest.mark.parametrize(
    "folds, num_C, spectral",
    [(3, 3, False), (5, 6, True), (2, 6, False), (3, 6, False), (4, 6, False)],
    ids=["cohort-grid", "cli-grid", "hl2l-2-folds", "hl2l-3-folds", "hl2l-4-folds"],
)
def test_cost_rule_picks_the_path_of_each_grid_in_use(folds, num_C, spectral):
    # H-L2L clamps the grid's folds to its stack's rows; its stacks take 2-4 folds
    assert spectral_cv_is_cheaper(folds, num_C) == spectral


def test_cost_rule_without_n_agrees_with_the_counts_that_keep_it():
    for folds in range(2, 21):
        for num_C in range(1, 21):
            want = spectral_cv_is_cheaper(folds, num_C)
            for n in (folds, 40, 199, 1000, 2160, 12747):
                assert _cost_rule_with_n(n, folds, num_C) == want, (n, folds, num_C)


def _folds_that_leave_rows_out():
    """30 shuffled rows of 3 classes and 3 folds over 20 of them: 10 rows are in no fold."""
    ds = _noisy_blobs(11, (10, 10, 10))
    held = np.random.default_rng(4).permutation(len(ds))[:20]
    return ds, [np.sort(held[:7]), np.sort(held[7:14]), np.sort(held[14:])]


@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
@pytest.mark.parametrize("spec", [KernelSpec("gaussian", 0.5), KernelSpec("linear")], ids=["gaussian", "linear"])
def test_either_cv_path_trains_a_fold_on_every_row_outside_it(spec, spectral, monkeypatch):
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: spectral)
    ds, folds = _folds_that_leave_rows_out()
    C_values = (0.1, 1.0, 10.0)
    got = kfold_labels(ds, spec, C_values, folds)
    assert len(got) == len(folds)
    for val, per_C in zip(folds, got, strict=True):
        rest = ds.subset(np.setdiff1d(np.arange(len(ds)), val))
        for C, labels in zip(C_values, per_C, strict=True):
            assert np.array_equal(labels, lssvm.predict(lssvm.fit(rest, spec, C), ds.features[val])[0])


@pytest.mark.parametrize(
    "folds, message",
    [
        ([np.arange(0, 6), np.arange(0)], r"fold 1 \(0 rows\) must hold 1 to 28 of the rows 0\.\.29"),
        ([np.arange(0, 6), np.arange(5, 12)], "row 5 is held out more than once"),
        ([np.arange(0, 6), np.array([6, 30])], r"fold 1 \(2 rows\) must hold 1 to 28 of the rows 0\.\.29"),
        ([np.arange(0, 6), np.array([6, -1])], r"fold 1 \(2 rows\) must hold 1 to 28 of the rows 0\.\.29"),
        ([np.arange(0, 1), np.arange(1, 30)], r"fold 1 \(29 rows\) must hold 1 to 28 .* at least 2 training"),
    ],
    ids=["empty", "overlapping", "past-the-end", "negative", "one-training-row"],
)
def test_either_cv_path_raises_the_same_error_on_bad_folds(folds, message, monkeypatch):
    ds = _noisy_blobs(11, (10, 10, 10))
    errors = []
    for spectral in (False, True):
        monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda f, num_C: spectral)
        with pytest.raises(ValueError, match=message) as exc:
            kfold_labels(ds, KernelSpec("gaussian", 1.0), [1.0, 10.0], folds)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_spectral_scorer_peak_memory_holds_one_gamma_at_a_time(peak_bytes):
    rng = np.random.default_rng(6)
    n = 400
    ds = _noisy_blobs(7, (100, 100, 100, 100))
    ds = Dataset(ds.features + rng.normal(size=ds.features.shape), ds.labels, 4)
    grid = Grid(C_values=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0), gamma_values=(0.01, 0.1, 1.0, 10.0), folds=5)
    assert spectral_cv_is_cheaper(grid.folds, len(grid.C_values))
    select(ds, kfold_labels, grid)  # first-call allocations that outlive it stay out of the count
    _, peak = peak_bytes(lambda: select(ds, kfold_labels, grid))
    # measured 2.07 N x N arrays: one gamma's Gram while eigh writes its
    # eigenvectors, plus fold-sized work; keeping every gamma's eigenvectors
    # alive would reach 5
    assert peak < 2.5 * n * n * 8


def test_spectral_scorer_peak_memory_holds_where_the_gram_splits(peak_bytes):
    # 360 rows as above and 40 rows 1000 apart: one block of 360 rows and 40
    # singleton rows at gamma <= 1, then smaller blocks and more singleton rows
    # at gamma 100 and every row a singleton at gamma 1000
    rng = np.random.default_rng(6)
    n = 400
    ds = _noisy_blobs(7, (90, 90, 90, 90))
    far = 1000.0 * np.arange(1, 41)[:, None] * np.ones(3)
    ds = Dataset(np.concatenate([ds.features + rng.normal(size=ds.features.shape), far]),
                 np.concatenate([ds.labels, np.arange(40) % 4]), 4)
    grid = Grid(C_values=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0), gamma_values=(0.01, 1.0, 100.0, 1000.0), folds=5)
    assert spectral_cv_is_cheaper(grid.folds, len(grid.C_values))
    select(ds, kfold_labels, grid)
    _, peak = peak_bytes(lambda: select(ds, kfold_labels, grid))
    # measured 1.96 N x N arrays (2.00 before singleton rows kept no eigenvector):
    # the flush works 256 rows at a time, and the Gram is freed once its 360-row
    # block is copied out, so no gamma holds more than the dense eigh's arrays
    assert peak < 2.5 * n * n * 8


def test_spectral_scorer_peak_memory_of_a_thin_linear_spectrum_stays_below_one_gram(peak_bytes):
    n = 400
    ds = _noisy_blobs(7, (100, 100, 100, 100))
    C_values = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    folds = stratified_folds(ds.labels, 5, 0)
    assert spectral_cv_is_cheaper(len(folds), len(C_values)) and ds.features.shape[1] < n
    kfold_labels(ds, KernelSpec("linear"), C_values, folds)
    _, peak = peak_bytes(lambda: kfold_labels(ds, KernelSpec("linear"), C_values, folds))
    # measured 0.43 N x N arrays: the thin SVD of X and a few |F| x |F| arrays per
    # fold (|F| = N / 5), never the Gram; a dense eigh of the Gram measured 2.02
    assert peak < n * n * 8


@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
def test_either_cv_path_names_an_overflowing_gram(spectral, monkeypatch):
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: spectral)
    rng = np.random.default_rng(16)
    # finite rows whose squared norms overflow: unchecked, half the Gram was NaN
    ds = Dataset(rng.normal(size=(60, 10)) * 1e160, np.arange(60) % 3, 3)
    grid = Grid(C_values=(0.1, 1.0, 10.0), gamma_values=(1.0, 100.0), folds=3)
    with pytest.raises(ValueError, match="overflow"):
        select(ds, kfold_labels, grid)
    with pytest.raises(ValueError, match="overflow"):
        kfold_labels(ds, KernelSpec("linear"), grid.C_values, stratified_folds(ds.labels, grid.folds, 0))


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
    # the thin spectrum of a linear kernel (3 features, 100 rows) counts K's null space at 0
    thin = Dataset(100.0 * ds.features, ds.labels, 3)
    with pytest.raises(lssvm.NumericalError, match="smallest eigenvalue 1e-12"):
        lssvm.kfold_scores(thin, KernelSpec("linear"), [1.0, 1e12], folds)
    assert all(np.isfinite(s).all() for per_C in lssvm.kfold_scores(thin, KernelSpec("linear"), [1e3], folds)
               for s in per_C)


@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
def test_either_cv_path_rejects_exactly_the_ridges_below_the_floor(spectral, monkeypatch):
    # rank-deficient kernels (one feature, duplicated rows, a tiny gamma) at a
    # C just above and just below 1 / (2 n eps trace(K)): the path decides the speed only
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: spectral)
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


@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
def test_either_cv_path_rejects_a_fold_that_leaves_one_training_row(spectral, monkeypatch):
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: spectral)
    ds = _noisy_blobs(0, (2, 1))
    with pytest.raises(ValueError, match="at least 2 training"):
        kfold_labels(ds, KernelSpec("gaussian", 1.0), [1.0], [np.array([0, 1]), np.array([2])])


@pytest.mark.parametrize("C", [0.0, -1.0, float("nan")])
def test_every_solve_rejects_a_C_that_is_not_positive(C, monkeypatch):
    # check_ridge is the one check: each caller meets it before any 1 / C
    ds = _noisy_blobs(0, (4, 4, 4))
    spec = KernelSpec("gaussian", 1.0)
    folds = stratified_folds(ds.labels, 3, 0)
    for spectral in (False, True):
        monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda f, num_C: spectral)
        with pytest.raises(ValueError, match="C must be > 0"):
            kfold_labels(ds, spec, [1.0, C], folds)
    s_train = np.random.default_rng(0).normal(size=(len(ds), 2, 3))
    with pytest.raises(ValueError, match="C must be > 0"):
        fit_ma(ds, s_train, spec, C)
    with pytest.raises(ValueError, match="C must be > 0"):
        fit_ma(ds, s_train, spec, C, beta=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="C must be > 0"):
        lssvm.solve_dual_system(gram(spec, ds.features, ds.features), C, lssvm.ova_targets(ds.labels, 3))
    with pytest.raises(ValueError, match="C must be > 0"):
        lssvm.fit(ds, spec, C)


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
