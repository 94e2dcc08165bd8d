"""Two-layer stacking: split arithmetic, score stacking, end-to-end behavior."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from emgadapt import hl2l, lssvm
from emgadapt.hl2l import (
    fit_hl2l,
    predict_hl2l,
    select_hl2l,
    stack_scores,
    stacking_dataset,
    stratified_split,
)
from emgadapt.kernels import KernelSpec
from emgadapt.model_selection import Grid, select
from emgadapt.multi_adapt import source_scores
from emgadapt.signals import Dataset, NormStats


def _blobs(rng, n_per=15, spread=0.4, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(features=feats, labels=labels, num_classes=len(centers))


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
    layer1, _, stack = stacking_dataset(train, s_train, KernelSpec("gaussian", 1.0), 10.0, seed=0)
    g, k = train.num_classes, len(sources)
    assert stack.dim == (k + 1) * g
    # the held-out side is the complement of the layer-1 side
    assert len(stack) + layer1.support_inputs.shape[0] == len(train)


def test_stacking_dataset_normalizes_the_raw_stack_with_its_own_statistics():
    rng = np.random.default_rng(11)
    train = _blobs(rng, n_per=12)
    s_train = source_scores([_source(rng), _source(rng)], train.features)
    layer1, stats, stack = stacking_dataset(train, s_train, KernelSpec("gaussian", 1.0), 10.0, seed=6)
    # the raw stack, rebuilt from layer 1 on the held-out side
    _, side_b = stratified_split(train.labels, seed=6)
    raw = stack_scores(lssvm.decision_scores(layer1, train.features[side_b]), s_train[side_b])
    assert stats.mean.tobytes() == raw.mean(axis=0).tobytes()
    assert stats.std.tobytes() == raw.std(axis=0).tobytes()
    assert stack.features.tobytes() == stats.apply(raw).tobytes()
    assert_array_equal(stack.labels, train.labels[side_b])
    assert stack.num_classes == train.num_classes


def test_stacking_requires_enough_samples():
    rng = np.random.default_rng(1)
    tiny = _blobs(rng, n_per=1)  # 3 samples, every class single -> no 37% side
    with pytest.raises(ValueError):
        stacking_dataset(
            tiny, source_scores([_source(rng)], tiny.features), KernelSpec("gaussian", 1.0), 10.0, seed=0
        )


def test_stacking_needs_two_rows_more_than_sources():
    rng = np.random.default_rng(2)
    two = ((0, 0), (4, 0))
    sources = [lssvm.fit(_blobs(rng, n_per=25, centers=two), KernelSpec("gaussian", 1.0), 10.0)
               for _ in range(3)]
    # k + 2 = 5 rows: class 0's 3 rows split 2 + 1 and class 1's 2 rows 1 + 1, a 2-row stack
    train = _blobs(rng, n_per=3, centers=two).subset(np.arange(5))
    k1 = KernelSpec("gaussian", 1.0)
    assert len(stacking_dataset(train, source_scores(sources, train.features), k1, 10.0, seed=0)[2]) == 2
    # 4 rows split 1 + 1 per class would stack 2 rows too; only the k + 2 guard rejects them
    four = train.subset(np.array([0, 1, 3, 4]))
    with pytest.raises(ValueError, match="^not enough training samples for stacking$"):
        stacking_dataset(four, source_scores(sources, four.features), k1, 10.0, seed=0)


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
    assert isinstance(model.norm_stats, NormStats)


def test_layer2_trains_on_the_stack_stacking_dataset_gives():
    rng = np.random.default_rng(12)
    train = _blobs(rng, n_per=10)
    s_train = source_scores([_source(rng)], train.features)
    k1 = KernelSpec("gaussian", 1.0)
    model = fit_hl2l(train, s_train, k1, 10.0, KernelSpec("gaussian", 0.5), 5.0, seed=8)
    layer1, stats, stack = stacking_dataset(train, s_train, k1, 10.0, seed=8)
    assert model.layer1.alphas.tobytes() == layer1.alphas.tobytes()
    assert model.norm_stats.mean.tobytes() == stats.mean.tobytes()
    assert model.norm_stats.std.tobytes() == stats.std.tobytes()
    assert model.layer2.support_inputs.tobytes() == stack.features.tobytes()


def test_predict_normalizes_the_stacked_scores_before_layer2():
    rng = np.random.default_rng(13)
    train, test = _blobs(rng, n_per=10), _blobs(rng, n_per=7)
    sources = [_source(rng), _source(rng)]
    model = fit_hl2l(
        train, source_scores(sources, train.features),
        KernelSpec("gaussian", 1.0), 10.0, KernelSpec("gaussian", 0.5), 5.0, seed=1,
    )
    s_test = source_scores(sources, test.features)
    pred, scores = predict_hl2l(model, test.features, s_test)
    stacked = stack_scores(lssvm.decision_scores(model.layer1, test.features), s_test)
    want = lssvm.decision_scores(model.layer2, model.norm_stats.apply(stacked))
    assert scores.tobytes() == want.tobytes()
    assert_array_equal(pred, np.argmax(want, axis=1))
    # the raw stack is not what layer 2 was trained on: without the normalization the scores move
    assert not np.array_equal(lssvm.decision_scores(model.layer2, stacked), want)


def test_layer2_normalization_uses_stack_statistics():
    rng = np.random.default_rng(7)
    train = _blobs(rng, n_per=10)
    sources = [_source(rng)]
    k1 = KernelSpec("gaussian", 1.0)
    s_train = source_scores(sources, train.features)
    model = fit_hl2l(train, s_train, k1, 10.0, KernelSpec("gaussian", 0.5), 5.0, seed=4)
    layer1, _, _ = stacking_dataset(train, s_train, k1, 10.0, seed=4)
    _, side_b = stratified_split(train.labels, seed=4)
    raw = stack_scores(lssvm.decision_scores(layer1, train.features[side_b]), s_train[side_b])
    assert_allclose(model.norm_stats.mean, raw.mean(axis=0), atol=1e-12)


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


# ---------------------------------------------------------------------------
# layer-2 selection


def test_hl2l_cell_selects_layer2_on_the_stack_layer2_trains_on(monkeypatch):
    rng = np.random.default_rng(14)
    train = _blobs(rng, n_per=10)
    s_train = source_scores([_source(rng), _source(rng)], train.features)
    selected, fitted = [], []

    def recorded_select(*args):
        selected.append((args[0], select(*args)))
        return selected[-1][1]

    def recorded_fit(*args, **kwargs):
        fitted.append(fit_hl2l(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(hl2l, "select", recorded_select)
    monkeypatch.setattr(hl2l, "fit_hl2l", recorded_fit)
    grid = Grid(C_values=(1.0, 10.0), gamma_values=(0.1, 1.0), folds=3, seed=5)
    got = select_hl2l(train, s_train, KernelSpec("gaussian", 1.0), 10.0, grid, seed=2)
    [(stack, (best, _))], [model] = selected, fitted
    assert got is model
    assert len(stack) < len(train)  # the held-out side only
    assert stack.features.tobytes() == model.layer2.support_inputs.tobytes()
    # labels too: layer 2 is the fit of the selected set at the selected (C, gamma)
    refit = lssvm.fit(stack, KernelSpec("gaussian", best["gamma"]), best["C"])
    assert model.layer2.alphas.tobytes() == refit.alphas.tobytes()
    assert model.layer2.biases.tobytes() == refit.biases.tobytes()


def test_select_hl2l_names_layer2_when_the_stack_is_too_small_for_its_cv():
    rng = np.random.default_rng(15)
    two = ((0, 0), (4, 0))
    train = _blobs(rng, n_per=3, centers=two)  # 2 of each class's 3 rows go to layer 1
    source = lssvm.fit(_blobs(rng, n_per=25, centers=two), KernelSpec("gaussian", 1.0), 10.0)
    s_train = source_scores([source], train.features)
    k1 = KernelSpec("gaussian", 1.0)
    assert len(stacking_dataset(train, s_train, k1, 10.0, seed=0)[2]) == 2
    grid = Grid(C_values=(1.0, 10.0), gamma_values=(0.1, 1.0), folds=2, seed=0)
    with pytest.raises(ValueError, match=r"^layer 2's 2-fold CV on the stack of 2 rows: fold 0 \(1 rows\) must hold "
                                         r"1 to 0 of the 2 rows, so that at least 2 training rows stay outside it$"):
        select_hl2l(train, s_train, k1, 10.0, grid, seed=0)
    # at a given (C, gamma) layer 2 still trains on the 2 rows
    model = fit_hl2l(train, s_train, k1, 10.0, KernelSpec("gaussian", 0.5), 5.0, seed=0)
    assert model.layer2.support_inputs.shape[0] == 2


def test_select_hl2l_names_layer2_and_its_folds_when_a_fold_would_train_on_one_row():
    rng = np.random.default_rng(16)
    train = _blobs(rng, n_per=3)  # 2 of each class's 3 rows go to layer 1: a 3-row stack
    s_train = source_scores([_source(rng)], train.features)
    k1 = KernelSpec("gaussian", 1.0)
    assert len(stacking_dataset(train, s_train, k1, 10.0, seed=0)[2]) == 3
    grid = Grid(C_values=(1.0, 10.0), gamma_values=(0.1, 1.0), folds=2, seed=0)
    # 2 folds of 2 and 1 rows: the 2-row fold trains on 1 row
    with pytest.raises(ValueError, match=r"^layer 2's 2-fold CV on the stack of 3 rows: fold 0 \(2 rows\) must hold "
                                         r"1 to 1 of the 3 rows"):
        select_hl2l(train, s_train, k1, 10.0, grid, seed=0)
    for folds in (3, 5):  # clamped to 3 folds of 1 row, each trained on 2
        model = select_hl2l(train, s_train, k1, 10.0, Grid(C_values=(1.0, 10.0), gamma_values=(0.1, 1.0), folds=folds), seed=0)
        assert model.layer2.support_inputs.shape[0] == 3
