"""Dual solver correctness: KKT system, dense oracle, exact leave-one-out."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm, model_selection
from emgadapt.kernels import KernelSpec, gram
from emgadapt.lssvm import (
    LssvmModel,
    NumericalError,
    _bordered_matrix,
    bordered_inverse_block,
    kfold_scores,
    ova_targets,
    solve_dual_system,
)
from emgadapt.signals import Dataset


def _dataset(features, labels, num_classes=None):
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def _random_dataset(rng, n=None, g=None, d=None):
    n = n or int(rng.integers(6, 30))
    g = g or int(rng.integers(2, 5))
    d = d or int(rng.integers(1, 5))
    feats = rng.normal(size=(n, d))
    labels = np.concatenate([np.arange(g), rng.integers(0, g, size=n - g)])
    rng.shuffle(labels)
    return _dataset(feats, labels, num_classes=g)


def test_ova_targets():
    y = ova_targets(np.array([0, 2, 1]), 3)
    assert_allclose(y, [[1, -1, -1], [-1, -1, 1], [-1, 1, -1]])


def test_fit_matches_independent_dense_solve():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ds = _random_dataset(rng)
        c = float(10.0 ** rng.uniform(-1, 2))
        gamma = float(10.0 ** rng.uniform(-1, 1))
        model = lssvm.fit(ds, KernelSpec("gaussian", gamma), c)
        # independent construction of the bordered system
        n = len(ds)
        k = gram(KernelSpec("gaussian", gamma), ds.features, ds.features)
        m = np.zeros((n + 1, n + 1))
        m[0, 1:] = 1.0
        m[1:, 0] = 1.0
        m[1:, 1:] = k + np.eye(n) / c
        for g in range(ds.num_classes):
            rhs = np.concatenate([[0.0], ova_targets(ds.labels, ds.num_classes)[:, g]])
            sol = np.linalg.solve(m, rhs)
            assert abs(model.biases[g] - sol[0]) <= 1e-8
            assert np.max(np.abs(model.alphas[:, g] - sol[1:])) <= 1e-8


def _kkt_cases(rng):
    """(dataset, kernel, C, relative): 20 Gaussian cases at moderate C, then 200
    rank-deficient linear Grams (d < n, columns scaled 1e-2 to 1e2) at C up to
    1/(1.5 floor), where floor = 2 n eps trace(K) is `check_ridge`'s.  `relative`
    scales the residual bound by max(1, max|alpha|), which grows like C there."""
    for _ in range(20):
        ds = _random_dataset(rng)
        yield ds, KernelSpec("gaussian", 1.0), float(10.0 ** rng.uniform(-1, 2)), False
    for _ in range(200):
        ds = _random_dataset(rng)
        d = int(rng.integers(1, min(len(ds), 5)))
        feats = rng.normal(size=(len(ds), d)) * 10.0 ** rng.uniform(-2, 2, size=d)
        ds = Dataset(feats, ds.labels, ds.num_classes)
        floor = 2.0 * len(ds) * np.finfo(float).eps * float(np.sum(feats**2))
        yield ds, KernelSpec("linear"), float(10.0 ** rng.uniform(-1, -np.log10(1.5 * floor))), True


def test_fit_satisfies_kkt_equations():
    for ds, spec, c, relative in _kkt_cases(np.random.default_rng(5)):
        model = lssvm.fit(ds, spec, c)
        k = gram(spec, ds.features, ds.features)
        y = ova_targets(ds.labels, ds.num_classes)
        # stationarity rows: (K + I/C) alpha + b = y;  constraint: sum alpha = 0
        resid = k @ model.alphas + model.alphas / c + model.biases - y
        bound = 1e-8 * (max(1.0, np.max(np.abs(model.alphas))) if relative else 1.0)
        assert np.max(np.abs(resid)) <= bound
        assert np.max(np.abs(model.alphas.sum(axis=0))) <= bound


def test_in_sample_residual_equals_alpha_over_c():
    rng = np.random.default_rng(2)
    ds = _random_dataset(rng, n=15, g=3, d=2)
    c = 7.5
    model = lssvm.fit(ds, KernelSpec("gaussian", 0.5), c)
    y = ova_targets(ds.labels, ds.num_classes)
    f = lssvm.decision_scores(model, ds.features)
    assert_allclose(y - f, model.alphas / c, atol=1e-9)


def test_hand_checkable_two_class_fit():
    # symmetric two-point problem: alpha = +/- a, b = 0 by symmetry
    ds = _dataset([[1.0], [-1.0]], [1, 0], num_classes=2)
    c = 2.0
    model = lssvm.fit(ds, KernelSpec("linear"), c)
    # class-1 targets: y = [+1, -1]; system: (K + I/C) a + b 1 = y, sum a = 0
    # K = [[1,-1],[-1,1]] -> a = [t, -t] with (1 + 1/C) t + t = 1 -> t = 0.4
    assert_allclose(model.alphas[:, 1], [0.4, -0.4], atol=1e-12)
    assert abs(model.biases[1]) <= 1e-12
    assert_allclose(model.alphas[:, 0], [-0.4, 0.4], atol=1e-12)


def test_absent_class_gets_constant_negative_machine():
    ds = _dataset([[0.0], [1.0], [2.0]], [0, 2, 0], num_classes=3)
    model = lssvm.fit(ds, KernelSpec("gaussian", 1.0), 10.0)
    assert np.all(model.alphas[:, 1] == 0.0)
    assert model.biases[1] == -1.0
    scores = lssvm.decision_scores(model, np.array([[0.5], [5.0]]))
    assert np.all(scores[:, 1] == -1.0)


def test_predict_ties_resolve_to_smaller_class_id():
    model = LssvmModel(
        kernel=KernelSpec("linear"),
        C=1.0,
        num_classes=3,
        support_inputs=np.zeros((2, 1)),
        alphas=np.zeros((2, 3)),
        biases=np.array([0.5, 0.5, -1.0]),
    )
    labels, scores = lssvm.predict(model, np.array([[3.0]]))
    assert labels[0] == 0
    assert scores[0, 0] == scores[0, 1]


def test_separable_data_classified_perfectly():
    rng = np.random.default_rng(9)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    feats = np.concatenate([c + 0.2 * rng.normal(size=(20, 2)) for c in centers])
    labels = np.repeat([0, 1, 2], 20)
    ds = _dataset(feats, labels)
    model = lssvm.fit(ds, KernelSpec("gaussian", 1.0), 100.0)
    pred, _ = lssvm.predict(model, ds.features)
    assert np.mean(pred == labels) == 1.0


def _loo_residuals(ds, spec, c):
    """Leave-one-out residuals y_i - f_without_i(x_i) from the scorer's singleton folds."""
    folds = [np.array([i]) for i in range(len(ds))]
    scores = kfold_scores(ds, spec, [c], folds)
    return ova_targets(ds.labels, ds.num_classes) - np.concatenate([f[0] for f in scores])


def test_loo_residuals_match_explicit_retraining():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ds = _random_dataset(rng, n=int(rng.integers(8, 31)), g=int(rng.integers(2, 5)))
        c = float(10.0 ** rng.uniform(-1, 2))
        gamma = float(10.0 ** rng.uniform(-1, 1))
        spec = KernelSpec("gaussian", gamma)
        got = _loo_residuals(ds, spec, c)
        y = ova_targets(ds.labels, ds.num_classes)
        n = len(ds)
        for i in range(int(rng.integers(2, 5))):  # spot-check a few rows per instance
            row = int(rng.integers(0, n))
            keep = np.delete(np.arange(n), row)
            kmat = gram(spec, ds.features[keep], ds.features[keep])
            alphas, biases = solve_dual_system(kmat, c, y[keep])
            kq = gram(spec, ds.features[row : row + 1], ds.features[keep])
            f = (kq @ alphas + biases)[0]
            assert np.max(np.abs(got[row] - (y[row] - f))) <= 1e-6


def test_loo_residuals_use_the_inverse_diagonal():
    rng = np.random.default_rng(4)
    ds = _random_dataset(rng, n=12, g=3, d=2)
    spec = KernelSpec("gaussian", 2.0)
    kmat = gram(spec, ds.features, ds.features)
    h, d = bordered_inverse_block(kmat, 5.0)
    y = ova_targets(ds.labels, ds.num_classes)
    expect = (h @ y) / d[:, None]
    assert_allclose(_loo_residuals(ds, spec, 5.0), expect, atol=1e-12)


def test_validation_errors():
    ds = _dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError):
        lssvm.fit(ds, KernelSpec("linear"), 0.0)
    with pytest.raises(ValueError):
        lssvm.fit(_dataset([[0.0]], [0], num_classes=1), KernelSpec("linear"), 1.0)
    with pytest.raises(ValueError):
        _loo_residuals(ds, KernelSpec("linear"), 1.0)  # needs >= 3 samples


def test_a_query_of_the_wrong_dimension_names_both_dimensions():
    model = lssvm.fit(_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 1, 2]), KernelSpec("linear"), 1.0)
    with pytest.raises(ValueError, match="^query dimension 3 does not match model dimension 2$"):
        lssvm.decision_scores(model, np.zeros((4, 3)))


@pytest.mark.parametrize(
    "spec", [KernelSpec("gaussian", 1.0), KernelSpec("linear")], ids=["gaussian", "linear"]
)
def test_fit_names_an_overflowing_gram(spec):
    # finite rows whose squared norms overflow: the solve used to blame "non-finite values"
    rng = np.random.default_rng(16)
    ds = _dataset(rng.normal(size=(60, 10)) * 1e160, np.arange(60) % 3)
    with pytest.raises(ValueError, match="overflow"):
        lssvm.fit(ds, spec, 1.0)


def test_degenerate_system_raises_numerical_error():
    # K + I/C = all-ones matrix gives the bordered system two identical rows
    kmat = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError):
        solve_dual_system(kmat, 1.0, np.ones((2, 1)))


def test_direct_solves_reject_a_ridge_below_the_floor():
    # 16 rows x 12 features: the linear Gram is rank deficient, and at C = 1e15
    # the solve returned |alpha| ~ 7e14 of round-off with no error
    rng = np.random.default_rng(21)
    ds = _random_dataset(rng, n=16, g=3, d=12)
    kmat = gram(KernelSpec("linear"), ds.features, ds.features)
    floor = 2 * 16 * np.finfo(float).eps * np.trace(kmat)
    assert np.isfinite(lssvm.fit(ds, KernelSpec("linear"), 1.0 / (1.01 * floor)).alphas).all()
    for C in (1.0 / (0.99 * floor), 1e15):
        with pytest.raises(NumericalError, match="singular to working precision"):
            lssvm.fit(ds, KernelSpec("linear"), C)
        with pytest.raises(NumericalError, match="singular to working precision"):
            bordered_inverse_block(kmat, C)


@pytest.mark.parametrize("n", [1, 2, 50, 400])
def test_bordered_matrix_equals_the_identity_sum_construction(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 4))
    kmat = gram(KernelSpec("gaussian", 0.3), X, X)
    for C in (1e-3, 0.7, 1.0, 3.0, 1e4):
        want = np.zeros((n + 1, n + 1))
        want[0, 1:] = 1.0
        want[1:, 0] = 1.0
        want[1:, 1:] = kmat + np.eye(n) / C
        assert np.array_equal(_bordered_matrix(kmat, C), want)


def test_decision_scores_of_a_large_query_peak_far_below_its_full_gram(peak_bytes):
    rng = np.random.default_rng(5)
    model = LssvmModel(
        kernel=KernelSpec("gaussian", 0.1),
        C=1.0,
        num_classes=8,
        support_inputs=rng.normal(size=(1000, 8)),
        alphas=rng.normal(size=(1000, 8)),
        biases=rng.normal(size=8),
    )
    X = rng.normal(size=(20000, 8))
    scores, peak = peak_bytes(lambda: lssvm.decision_scores(model, X))
    assert scores.shape == (20000, 8)
    # the full 20000 x 1000 query Gram alone would be 160 MB
    assert peak < 40e6


@pytest.mark.parametrize(
    "spec", [KernelSpec("gaussian", 0.5), KernelSpec("linear")], ids=["gaussian", "linear"]
)
def test_kfold_labels_direct_path_equals_predict_of_each_model(spec, monkeypatch):
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: False)
    rng = np.random.default_rng(9)
    ds = _random_dataset(rng, n=40, g=4, d=3)
    C_values = (0.1, 1.0, 10.0)
    folds = model_selection.stratified_folds(ds.labels, 3, seed=2)
    got = lssvm.kfold_labels(ds, spec, C_values, folds)
    assert len(got) == len(folds)
    for f, val in enumerate(folds):
        assert len(got[f]) == len(C_values)
        train = ds.subset(model_selection.training_rows(folds, f))
        for labels, C in zip(got[f], C_values):
            assert np.array_equal(labels, lssvm.predict(lssvm.fit(train, spec, C), ds.features[val])[0])
