"""No Transfer and Prior Features baselines."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm
from emgadapt.baselines import fit_no_transfer, fit_prior_features, prior_feature_matrix
from emgadapt.kernels import KernelSpec
from emgadapt.model_selection import Grid, stratified_folds
from emgadapt.multi_adapt import source_scores
from emgadapt.signals import Dataset, NormStats


def _blobs(rng, n_per=20, spread=0.3, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(features=feats, labels=labels, num_classes=len(centers))


GRID = Grid(C_values=(0.1, 1.0, 10.0, 100.0), gamma_values=(0.1, 1.0), folds=3)


def test_no_transfer_learns_separable_blobs():
    rng = np.random.default_rng(0)
    train = _blobs(rng)
    test = _blobs(rng)
    model = fit_no_transfer(train, GRID)
    pred, _ = lssvm.predict(model, test.features)
    assert np.mean(pred == test.labels) >= 0.95
    assert model.kernel.kind == "gaussian"


def test_prior_feature_matrix_layout():
    scores = np.arange(12.0).reshape(2, 2, 3)  # N=2, K=2, G=3
    flat = prior_feature_matrix(scores)
    assert flat.shape == (2, 6)
    # row 0 = source 1 scores then source 2 scores
    assert_allclose(flat[0], [0, 1, 2, 3, 4, 5])


def test_prior_features_uses_source_scores_only():
    rng = np.random.default_rng(4)
    src_train = _blobs(rng, n_per=30)
    sources = [
        lssvm.fit(src_train, KernelSpec("gaussian", 1.0), 10.0),
        lssvm.fit(_blobs(rng, n_per=30), KernelSpec("gaussian", 1.0), 10.0),
    ]
    target_train = _blobs(rng, n_per=15)
    target_test = _blobs(rng, n_per=15)
    s_train = source_scores(sources, target_train.features)
    model, stats = fit_prior_features(target_train, s_train, GRID)
    assert model.kernel.kind == "linear"
    assert isinstance(stats, NormStats)
    # the machine lives in stacked score space: K * G inputs
    assert model.support_inputs.shape[1] == len(sources) * 3
    s_test = source_scores(sources, target_test.features)
    pred, _ = lssvm.predict(model, stats.apply(prior_feature_matrix(s_test)))
    # sources match the target distribution here, so this should be easy
    assert np.mean(pred == target_test.labels) >= 0.9


def test_prior_features_requires_sources():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        fit_prior_features(_blobs(rng), np.zeros((60, 0, 3)), GRID)


def test_prior_features_normalization_is_train_statistics():
    rng = np.random.default_rng(9)
    train = _blobs(rng, n_per=12)
    source = lssvm.fit(_blobs(rng, n_per=20), KernelSpec("gaussian", 1.0), 10.0)
    _, stats = fit_prior_features(train, source_scores([source], train.features), GRID)
    flat = prior_feature_matrix(source_scores([source], train.features))
    assert_allclose(stats.mean, flat.mean(axis=0), atol=1e-12)
    assert_allclose(stats.std, flat.std(axis=0), atol=1e-12)


def _noisy_blobs(rng, counts, shift=0.0):
    centers = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])[: len(counts)] + shift
    feats = np.concatenate([c + rng.normal(size=(n, 2)) for c, n in zip(centers, counts)])
    labels = np.repeat(np.arange(len(counts)), counts)
    return Dataset(features=feats, labels=labels, num_classes=3)


def _reference_prior_features(train, sources, grid):
    """Per-(C, fold) CV with lssvm.fit and lssvm.predict on the normalized score dataset."""
    flat = prior_feature_matrix(source_scores(sources, train.features))
    stats = NormStats(mean=flat.mean(axis=0), std=flat.std(axis=0))
    ds = Dataset(stats.apply(flat), train.labels, train.num_classes)
    folds = stratified_folds(ds.labels, grid.folds, grid.seed)
    accuracies = []
    for c in sorted(grid.C_values):
        accs = []
        for f, val in enumerate(folds):
            tr = np.concatenate([folds[j] for j in range(grid.folds) if j != f])
            model = lssvm.fit(ds.subset(tr), KernelSpec("linear"), c)
            pred = lssvm.predict(model, ds.features[val])[0]
            accs.append(float(np.mean(pred == ds.labels[val])))
        accuracies.append(float(np.mean(accs)))
    best_C = sorted(grid.C_values)[accuracies.index(max(accuracies))]
    return lssvm.fit(ds, KernelSpec("linear"), best_C), stats, accuracies


@pytest.mark.parametrize(
    "seed, counts, grid",
    [
        (0, (14, 12, 13), Grid(C_values=(100.0, 0.001, 0.1, 10.0), folds=3, seed=2)),
        (1, (12, 12, 1), Grid(C_values=(0.01, 1.0, 100.0), folds=3, seed=5)),
    ],
    ids=["balanced", "fold-lacks-a-class"],
)
@pytest.mark.parametrize("spectral", [False, True], ids=["direct", "spectral"])
def test_prior_features_equals_the_per_C_reference(seed, counts, grid, spectral, monkeypatch):
    monkeypatch.setattr(lssvm, "spectral_cv_is_cheaper", lambda folds, num_C: spectral)
    rng = np.random.default_rng(seed)
    sources = [
        lssvm.fit(_noisy_blobs(rng, (15, 15, 15), shift), KernelSpec("gaussian", 1.0), 1.0)
        for shift in (0.0, 0.5)
    ]
    train = _noisy_blobs(rng, counts)
    if min(counts) < grid.folds:
        # some training fold must lack a class, so the default-mask path runs
        folds = stratified_folds(train.labels, grid.folds, grid.seed)
        assert any(len(np.unique(np.delete(train.labels, f))) < train.num_classes for f in folds)
    model, model_stats = fit_prior_features(train, source_scores(sources, train.features), grid)
    reference, stats, accuracies = _reference_prior_features(train, sources, grid)
    assert len(set(accuracies)) > 1
    assert model.C == reference.C
    assert model.alphas.tobytes() == reference.alphas.tobytes()
    assert model.biases.tobytes() == reference.biases.tobytes()
    assert model_stats.mean.tobytes() == stats.mean.tobytes()
    assert model_stats.std.tobytes() == stats.std.tobytes()


def test_prior_features_builds_one_gram_per_fold(monkeypatch):
    rng = np.random.default_rng(3)
    sources = [lssvm.fit(_noisy_blobs(rng, (15, 15, 15)), KernelSpec("gaussian", 1.0), 1.0)]
    calls = []
    solve = lssvm.solve_dual_system

    def counted(kmat, C, targets):
        calls.append((kmat, C))
        return solve(kmat, C, targets)

    monkeypatch.setattr(lssvm, "solve_dual_system", counted)
    train = _noisy_blobs(rng, (10, 10, 10))
    model, _ = fit_prior_features(train, source_scores(sources, train.features), GRID)
    # the solves grouped by the Gram they ran on, in first-use order (`calls`
    # holds every Gram, so no id is reused): one per fold, shared by every C,
    # then the final fit's
    grams = {id(kmat): kmat for kmat, _ in calls}.values()
    per_gram = [tuple(C for kmat, C in calls if kmat is seen) for seen in grams]
    assert per_gram == [tuple(sorted(GRID.C_values))] * GRID.folds + [(model.C,)]
