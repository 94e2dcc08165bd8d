"""Two-layer stacking: split arithmetic, score stacking, end-to-end behavior."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm
from emgadapt.hl2l import (
    fit_hl2l,
    predict_hl2l,
    stack_scores,
    stacking_dataset,
    stratified_split,
)
from emgadapt.kernels import KernelSpec
from emgadapt.multi_adapt import source_scores
from emgadapt.signals import Dataset


def _blobs(rng, n_per=15, spread=0.4, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(
        features=feats, labels=labels, num_classes=len(centers), feature_names=["x", "y"]
    )


def _source(rng):
    return lssvm.fit(_blobs(rng, n_per=25), KernelSpec("gaussian", 1.0), 10.0)


# ---------------------------------------------------------------------------
# splitting


def test_split_covers_indices_without_overlap():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 80))
        labels = rng.integers(0, 4, size=n)
        a, b = stratified_split(labels, seed=int(rng.integers(100)))
        assert np.array_equal(np.sort(np.concatenate([a, b])), np.arange(n))


def test_split_sizes_per_class_round_half_up():
    labels = np.repeat(np.arange(4), [10, 7, 3, 1])
    a, b = stratified_split(labels, seed=1)
    for cls, n in enumerate([10, 7, 3, 1]):
        want_a = min(max(int(math.floor(0.63 * n + 0.5)), 1), n)
        assert int(np.sum(labels[a] == cls)) == want_a
        assert int(np.sum(labels[b] == cls)) == n - want_a
    # the single-sample class went entirely to the first side
    assert int(np.sum(labels[b] == 3)) == 0


def test_split_is_deterministic_per_seed():
    labels = np.array([0, 0, 1, 1, 1])
    a1, b1 = stratified_split(labels, seed=9)
    a2, b2 = stratified_split(labels, seed=9)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


# ---------------------------------------------------------------------------
# stacking geometry


def test_stack_scores_layout_target_first():
    t = np.array([[1.0, 2.0]])
    s = np.array([[[3.0, 4.0], [5.0, 6.0]]])  # M=1, K=2, G=2
    out = stack_scores(t, s)
    assert_allclose(out, [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        stack_scores(np.zeros((2, 2)), s)


def test_stacking_dataset_dimension_is_k_plus_one_times_g():
    rng = np.random.default_rng(3)
    train = _blobs(rng, n_per=12)
    sources = [_source(rng), _source(rng)]
    s_train = source_scores(sources, train.features)
    layer1, raw = stacking_dataset(train, s_train, KernelSpec("gaussian", 1.0), 10.0, seed=0)
    g, k = train.num_classes, len(sources)
    assert raw.dim == (k + 1) * g
    # the held-out side is the complement of the layer-1 side
    assert len(raw) + layer1.support_inputs.shape[0] == len(train)


def test_stacking_requires_enough_samples():
    rng = np.random.default_rng(1)
    tiny = _blobs(rng, n_per=1)  # 3 samples, every class single -> no 37% side
    with pytest.raises(ValueError):
        stacking_dataset(
            tiny, source_scores([_source(rng)], tiny.features), KernelSpec("gaussian", 1.0), 10.0
        )


# ---------------------------------------------------------------------------
# end to end


def test_fit_predict_end_to_end():
    rng = np.random.default_rng(5)
    train = _blobs(rng, n_per=15)
    test = _blobs(rng, n_per=40)
    sources = [_source(rng), _source(rng)]
    model = fit_hl2l(
        train, source_scores(sources, train.features),
        KernelSpec("gaussian", 1.0), 10.0, KernelSpec("gaussian", 0.1), 10.0, seed=2,
    )
    pred, scores = predict_hl2l(model, test.features, source_scores(sources, test.features))
    assert pred.shape == (len(test),)
    assert scores.shape == (len(test), 3)
    assert np.mean(pred == test.labels) >= 0.85
    assert model.layer2.norm_stats is not None


def test_layer2_normalization_uses_stack_statistics():
    rng = np.random.default_rng(7)
    train = _blobs(rng, n_per=10)
    sources = [_source(rng)]
    k1 = KernelSpec("gaussian", 1.0)
    s_train = source_scores(sources, train.features)
    model = fit_hl2l(train, s_train, k1, 10.0, KernelSpec("gaussian", 0.5), 5.0, seed=4)
    _, raw = stacking_dataset(train, s_train, k1, 10.0, seed=4)
    assert_allclose(model.layer2.norm_stats.mean, raw.features.mean(axis=0), atol=1e-12)


def test_fit_is_deterministic_given_seed():
    rng = np.random.default_rng(9)
    train = _blobs(rng, n_per=10)
    sources = [_source(rng)]
    s_train = source_scores(sources, train.features)
    args = (train, s_train, KernelSpec("gaussian", 1.0), 10.0, KernelSpec("gaussian", 0.5), 5.0)
    a = fit_hl2l(*args, seed=3)
    b = fit_hl2l(*args, seed=3)
    assert np.array_equal(a.layer2.alphas, b.layer2.alphas)
    c = fit_hl2l(*args, seed=4)
    assert not np.array_equal(a.layer1.alphas, c.layer1.alphas)
