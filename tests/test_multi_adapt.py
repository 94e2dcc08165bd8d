"""Hyperplane borrowing: projection, LOO bound geometry, degeneracy to No Transfer."""

import re
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm, mkal
from emgadapt.baselines import fit_prior_features, predict_prior_features
from emgadapt.hl2l import fit_hl2l, predict_hl2l, stacking_dataset
from emgadapt.kernels import KernelSpec, gram
from emgadapt.lssvm import bordered_inverse_block, ova_targets, solve_dual_system
from emgadapt.mkal import MkalSelection, fit_mkal, predict_mkal, select_mkal
from emgadapt.model_selection import Grid
from emgadapt.multi_adapt import (
    BetaWeights,
    check_score_tensor,
    fit_ma,
    loo_hinge_bound,
    predict_ma,
    project_beta,
    source_scores,
)
from emgadapt.signals import Dataset


def _blobs(rng, n_per=15, spread=0.4, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(features=feats, labels=labels, num_classes=len(centers))


def _source(rng, scramble=False):
    ds = _blobs(rng, n_per=25)
    if scramble:
        ds = Dataset(ds.features, rng.permutation(ds.labels), ds.num_classes)
    return lssvm.fit(ds, KernelSpec("gaussian", 1.0), 10.0)


# ---------------------------------------------------------------------------
# projection


def test_project_beta_clips_and_rescales():
    v = np.array([[0.8, -0.3], [0.8, 0.2]])
    out = project_beta(v)
    assert np.all(out >= 0)
    assert_allclose(np.linalg.norm(out[:, 0]), 1.0)  # rescaled onto the ball
    assert_allclose(out[:, 1], [0.0, 0.2])  # inside: untouched after clipping
    assert_allclose(project_beta(out), out)  # idempotent


def test_beta_weights_validation():
    BetaWeights(np.array([[0.6], [0.8]]))  # norm exactly 1 is fine
    with pytest.raises(ValueError):
        BetaWeights(np.array([[-0.1], [0.0]]))
    with pytest.raises(ValueError):
        BetaWeights(np.array([[0.9], [0.9]]))


# ---------------------------------------------------------------------------
# the LOO-prediction affine map


def test_loo_predictions_affine_in_beta_match_explicit_retraining():
    rng = np.random.default_rng(17)
    train = _blobs(rng, n_per=6)
    sources = [_source(rng), _source(rng)]
    spec = KernelSpec("gaussian", 0.8)
    c = 5.0
    n, g, k = len(train), train.num_classes, len(sources)

    s_tensor = source_scores(sources, train.features)
    kmat = gram(spec, train.features, train.features)
    y = ova_targets(train.labels, g)
    h, d = bordered_inverse_block(kmat, c)
    base_loo = y - (h @ y) / d[:, None]
    v = np.einsum("ij,jkg->ikg", h, s_tensor) / d[:, None, None]

    beta = project_beta(rng.uniform(0.0, 1.0, size=(k, g)))
    yhat_affine = base_loo + np.einsum("ikg,kg->ig", v, beta)

    # oracle: for each held-out sample retrain on the rest with the modified
    # targets and evaluate the full score (dual part + borrowed part)
    ytil = y - np.einsum("ikg,kg->ig", s_tensor, beta)
    for row in range(n):
        keep = np.delete(np.arange(n), row)
        alphas, biases = solve_dual_system(kmat[np.ix_(keep, keep)], c, ytil[keep])
        kq = kmat[row][keep]
        f = kq @ alphas + biases + np.einsum("kg,kg->g", s_tensor[row], beta)
        assert np.max(np.abs(yhat_affine[row] - f)) <= 1e-6


def test_loo_hinge_bound_matches_direct_formula():
    rng = np.random.default_rng(3)
    y = np.sign(rng.normal(size=(8, 2)))
    base = rng.normal(size=(8, 2))
    v = rng.normal(size=(8, 3, 2))
    beta = rng.uniform(size=(3, 2))
    yhat = base + np.einsum("ikg,kg->ig", v, beta)
    want = np.maximum(0.0, 1.0 - y * yhat).sum()
    assert loo_hinge_bound(y, yhat) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# degeneracy and transfer behavior


def test_beta_zero_equals_no_transfer_exactly():
    rng = np.random.default_rng(23)
    for _ in range(10):
        train = _blobs(rng, n_per=int(rng.integers(4, 9)), spread=0.8)
        sources = [_source(rng)]
        c = float(10.0 ** rng.uniform(-1, 2))
        spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-1, 1)))
        query = rng.normal(size=(40, 2)) * 3.0

        plain = lssvm.fit(train, spec, c)
        s_train = source_scores(sources, train.features)
        ma = fit_ma(train, s_train, spec, c, beta=np.zeros((1, train.num_classes)))
        labels_plain, scores_plain = lssvm.predict(plain, query)
        labels_ma, scores_ma = predict_ma(ma, query, source_scores(sources, query))
        assert np.array_equal(labels_ma, labels_plain)
        assert np.array_equal(scores_ma, scores_plain)


def test_fitted_beta_prefers_the_informative_source():
    rng = np.random.default_rng(31)
    good = _source(rng)
    bad = _source(rng, scramble=True)
    train = _blobs(rng, n_per=4, spread=0.6)  # tiny target set: transfer matters
    s_train = source_scores([good, bad], train.features)
    model = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 10.0)
    norms = np.linalg.norm(model.beta.values, axis=1)
    assert norms[0] > norms[1]


def test_fitted_beta_is_no_worse_than_beta_zero_on_the_loo_bound():
    rng = np.random.default_rng(12)
    for _ in range(6):
        train = _blobs(rng, n_per=int(rng.integers(3, 7)), spread=0.9)
        sources = [_source(rng), _source(rng, scramble=True)]
        spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-1, 1)))
        c = float(10.0 ** rng.uniform(-1, 2))
        model = fit_ma(train, source_scores(sources, train.features), spec, c)

        y = ova_targets(train.labels, train.num_classes)
        h, d = bordered_inverse_block(gram(spec, train.features, train.features), c)
        base_loo = y - (h @ y) / d[:, None]
        v = np.einsum("ij,jkg->ikg", h, source_scores(sources, train.features)) / d[:, None, None]
        fitted = loo_hinge_bound(y, base_loo + np.einsum("ikg,kg->ig", v, model.beta.values))
        assert fitted <= loo_hinge_bound(y, base_loo)  # beta = 0


def test_model_keeps_the_loo_bound_of_its_beta():
    rng = np.random.default_rng(13)
    for _ in range(4):
        train = _blobs(rng, n_per=int(rng.integers(3, 7)), spread=0.9)
        s_train = source_scores([_source(rng), _source(rng, scramble=True)], train.features)
        spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-1, 1)))
        c = float(10.0 ** rng.uniform(-1, 2))
        model = fit_ma(train, s_train, spec, c)

        y = ova_targets(train.labels, train.num_classes)
        h, d = bordered_inverse_block(gram(spec, train.features, train.features), c)
        base_loo = y - (h @ y) / d[:, None]
        v = np.einsum("ij,jkg->ikg", h, s_train) / d[:, None, None]
        yhat_loo = base_loo + np.einsum("ikg,kg->ig", v, model.beta.values)
        assert model.loo_bound == loo_hinge_bound(y, yhat_loo)
        assert fit_ma(train, s_train, spec, c, beta=model.beta.values).loo_bound is None


def test_transfer_helps_small_training_sets():
    rng = np.random.default_rng(5)
    sources = [_source(rng) for _ in range(3)]
    train = _blobs(rng, n_per=3, spread=0.9)
    test = _blobs(rng, n_per=40)
    spec = KernelSpec("gaussian", 1.0)
    ma = fit_ma(train, source_scores(sources, train.features), spec, 10.0)
    plain = lssvm.fit(train, spec, 10.0)
    s_test = source_scores(sources, test.features)
    acc_ma = np.mean(predict_ma(ma, test.features, s_test)[0] == test.labels)
    acc_plain = np.mean(lssvm.predict(plain, test.features)[0] == test.labels)
    assert acc_ma >= acc_plain


def test_predict_adds_borrowed_scores_back():
    rng = np.random.default_rng(2)
    train = _blobs(rng, n_per=5)
    sources = [_source(rng)]
    beta = project_beta(rng.uniform(size=(1, 3)))
    s_train = source_scores(sources, train.features)
    model = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 5.0, beta=beta)
    query = rng.normal(size=(7, 2))
    _, scores = predict_ma(model, query, source_scores(sources, query))
    base = lssvm.decision_scores(model.base, query)
    borrowed = np.einsum("mkg,kg->mg", source_scores(sources, query), beta)
    assert_allclose(scores, base + borrowed, atol=1e-12)


def test_fit_ma_solves_an_absent_class_only_when_it_is_borrowed():
    rng = np.random.default_rng(11)
    corners = ((0, 0), (4, 0), (0, 4), (4, 4))
    sources = [lssvm.fit(_blobs(rng, n_per=10, centers=corners), KernelSpec("gaussian", 1.0), 10.0)]
    two = _blobs(rng, n_per=6, centers=corners[:2])
    train = Dataset(two.features, two.labels, 4)  # classes 2 and 3 are absent
    beta = np.zeros((1, 4))
    beta[0, 3] = 0.5  # class 3 is borrowed, class 2 is not
    s_train = source_scores(sources, train.features)
    model = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 5.0, beta=beta)
    assert np.all(model.base.alphas[:, 2] == 0.0) and model.base.biases[2] == -1.0
    # the borrowed column is the dense bordered solve of its modified targets
    kmat = gram(KernelSpec("gaussian", 1.0), train.features, train.features)
    n = len(train)
    m = np.zeros((n + 1, n + 1))
    m[0, 1:] = m[1:, 0] = 1.0
    m[1:, 1:] = kmat + np.eye(n) / 5.0
    sol = np.linalg.solve(m, np.concatenate([[0.0], -1.0 - 0.5 * s_train[:, 0, 3]]))
    assert np.max(np.abs(model.base.alphas[:, 3])) > 1e-3
    assert_allclose(model.base.alphas[:, 3], sol[1:], atol=1e-10)
    assert abs(model.base.biases[3] - sol[0]) <= 1e-10


def test_fit_ma_is_deterministic():
    rng = np.random.default_rng(40)
    train = _blobs(rng, n_per=5)
    sources = [_source(rng)]
    s_train = source_scores(sources, train.features)
    a = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 5.0)
    b = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 5.0)
    assert np.array_equal(a.beta.values, b.beta.values)
    assert np.array_equal(a.base.alphas, b.base.alphas)


def test_validation_errors():
    rng = np.random.default_rng(0)
    train = _blobs(rng, n_per=5)
    with pytest.raises(ValueError):
        fit_ma(train, np.zeros((len(train), 0, 3)), KernelSpec("gaussian", 1.0), 1.0)
    src = _source(rng)
    s_train = source_scores([src], train.features)
    with pytest.raises(ValueError):
        fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 1.0, beta=np.zeros((2, 3)))
    model = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 1.0)
    query = rng.normal(size=(4, 2))
    with pytest.raises(ValueError):  # one row of scores must not broadcast over four queries
        predict_ma(model, query, source_scores([src], query[:1]))


def test_fit_ma_fits_at_3_rows_and_raises_at_2():
    rng = np.random.default_rng(3)
    train = _blobs(rng, n_per=1)  # one row of each of the 3 classes
    s_train = source_scores([_source(rng)], train.features)
    model = fit_ma(train, s_train, KernelSpec("gaussian", 1.0), 1.0)
    assert model.base.support_inputs.shape == (3, 2) and model.loo_bound is not None
    with pytest.raises(ValueError, match="^need at least 3 training samples$"):
        fit_ma(train.subset(np.arange(2)), s_train[:2], KernelSpec("gaussian", 1.0), 1.0)


# ---------------------------------------------------------------------------
# the score tensor every method takes

SPEC = KernelSpec("gaussian", 1.0)
MKAL_GRID = MkalSelection(p_grid=(1.5, 2.0), lambda_grid=(1e-2,))


def _select_mkal(train, s):
    """`select_mkal` over MKAL_GRID with 2 online and 4 batch epochs, for speed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mkal, "EPOCHS_ONLINE", 2)
        mp.setattr(mkal, "EPOCHS_BATCH", 4)
        return select_mkal(train, s, MKAL_GRID, 1.0, 2, 0, 0)


FITS = {
    "MA": lambda train, s: fit_ma(train, s, SPEC, 1.0),
    "PriorFeatures": lambda train, s: fit_prior_features(train, s, Grid(C_values=(1.0,), folds=2)),
    "stacking": lambda train, s: stacking_dataset(train, s, SPEC, 1.0, 0),
    "HL2L": lambda train, s: fit_hl2l(train, s, SPEC, 1.0, SPEC, 1.0, 0),
    "MKAL": lambda train, s: fit_mkal(train, s, 1.25, 1e-3, 1.0, 0),
    "select_mkal": _select_mkal,
}


def _prior_features_predict(train, s):
    model, stats = FITS["PriorFeatures"](train, s)
    return lambda X, s_x: predict_prior_features(model, stats, s_x)  # it reads no X


# each method's query path (X, s_x), from a model trained on (train, s)
PREDICTS = {
    "MA": lambda train, s: partial(predict_ma, fit_ma(train, s, SPEC, 1.0)),
    "PriorFeatures": _prior_features_predict,
    "HL2L": lambda train, s: partial(predict_hl2l, fit_hl2l(train, s, SPEC, 1.0, SPEC, 1.0, 0)),
    "MKAL": lambda train, s: partial(predict_mkal, fit_mkal(train, s, 1.25, 1e-3, 1.0, 0)),
    "select_mkal": lambda train, s: partial(predict_mkal, FITS["select_mkal"](train, s)),
}
BAD_TENSORS = {
    "short-N": lambda s: s[:-1],
    "no-sources": lambda s: s[:, :0],
    "wrong-G": lambda s: s[:, :, :-1],
    "2-D": lambda s: s[:, 0],
}
PREDICT_BAD = {**BAD_TENSORS, "extra-source": lambda s: np.concatenate([s, s[:, :1]], axis=1)}
# the one message of multi_adapt.check_score_tensor, K a count or "K >= 1"
SHAPE_ERROR = r"^source score tensor must be \(\d+, (\d+|K >= 1), \d+\), got \("


def _scored_blobs():
    rng = np.random.default_rng(50)
    train = _blobs(rng, n_per=5)
    return train, source_scores([_source(rng), _source(rng)], train.features)


@pytest.mark.parametrize("bad", sorted(BAD_TENSORS))
@pytest.mark.parametrize("method", sorted(FITS))
def test_methods_reject_a_score_tensor_of_the_wrong_shape(method, bad):
    train, s_train = _scored_blobs()
    FITS[method](train, s_train)  # the well-shaped tensor trains
    with pytest.raises(ValueError, match=SHAPE_ERROR):
        FITS[method](train, BAD_TENSORS[bad](s_train))


@pytest.mark.parametrize(
    "method, bad",
    [(m, b) for m in sorted(PREDICTS) for b in sorted(PREDICT_BAD)
     if (m, b) != ("PriorFeatures", "short-N")],  # its query rows are the tensor's own
)
def test_predictions_reject_a_score_tensor_of_the_wrong_shape(method, bad):
    train, s_train = _scored_blobs()
    predict = PREDICTS[method](train, s_train)
    predict(train.features, s_train)  # the tensor the model was trained on predicts
    with pytest.raises(ValueError, match=SHAPE_ERROR):
        predict(train.features, PREDICT_BAD[bad](s_train))


@pytest.mark.parametrize("method", sorted(PREDICTS))
def test_methods_take_the_score_tensor_as_nested_lists(method):
    train, s_train = _scored_blobs()
    from_lists = PREDICTS[method](train, s_train.tolist())(train.features, s_train.tolist())
    from_array = PREDICTS[method](train, s_train)(train.features, s_train)
    assert all(np.array_equal(a, b) for a, b in zip(from_lists, from_array, strict=True))


def test_check_score_tensor_returns_the_tensor_as_float():
    s = np.arange(24).reshape(4, 2, 3)
    for num_sources in (None, 2):
        out = check_score_tensor(s, 4, 3, num_sources)
        assert out.dtype == float and np.array_equal(out, s)
    with pytest.raises(ValueError, match=re.escape("source score tensor must be (4, 3, 3), got (4, 2, 3)")):
        check_score_tensor(s, 4, 3, 3)
