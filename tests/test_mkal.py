"""Multi-kernel training: group norm, objective bound, block behavior."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm
from emgadapt.kernels import KernelSpec, gram
from emgadapt.mkal import (
    MkalConfig,
    fit_mkal,
    group_norm,
    mkal_objective,
    model_objective,
    predict_mkal,
)
from emgadapt.signals import Dataset


def _blobs(rng, n_per=15, spread=0.4, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(
        features=feats, labels=labels, num_classes=len(centers), feature_names=["x", "y"]
    )


def _source(rng, scramble=False):
    ds = _blobs(rng, n_per=25)
    labels = rng.permutation(ds.labels) if scramble else ds.labels
    ds = Dataset(ds.features, labels, ds.num_classes, ds.feature_names)
    return lssvm.fit(ds, KernelSpec("gaussian", 1.0), 10.0)


def _zero_source(num_classes=3, dim=2):
    """A source whose scores are identically zero for every input."""
    return lssvm.LssvmModel(
        kernel=KernelSpec("gaussian", 1.0),
        C=1.0,
        num_classes=num_classes,
        support_inputs=np.zeros((2, dim)),
        alphas=np.zeros((2, num_classes)),
        biases=np.zeros(num_classes),
    )


def test_group_norm_identities():
    norms = np.array([3.0, 4.0])
    assert group_norm(norms, 2.0) == pytest.approx(5.0)
    assert group_norm(norms, 1.0001) == pytest.approx(7.0, rel=1e-3)
    # p closer to 1 weights small blocks more heavily: larger value overall
    assert group_norm(norms, 1.2) > group_norm(norms, 1.8)
    with pytest.raises(ValueError):
        group_norm(np.array([-1.0]), 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MkalConfig(p=1.0)
    with pytest.raises(ValueError):
        MkalConfig(p=2.5)
    with pytest.raises(ValueError):
        MkalConfig(lam=0.0)
    MkalConfig(p=2.0, lam=1e-3)


def test_objective_never_exceeds_one():
    rng = np.random.default_rng(1)
    train = _blobs(rng, n_per=8)
    sources = [_source(rng)]
    for lam in (1e-3, 1e-1, 1e3):
        model = fit_mkal(train, sources, MkalConfig(lam=lam, gamma=1.0, seed=2))
        assert model_objective(model, train) <= 1.0 + 1e-9


def test_zero_budget_returns_the_zero_model():
    rng = np.random.default_rng(2)
    train = _blobs(rng, n_per=8)
    cfg = MkalConfig(lam=1e-2, gamma=1.0, epochs_online=0, epochs_batch=0)
    model = fit_mkal(train, [_source(rng)], cfg)
    assert np.all(model.dual_coeffs == 0.0)
    assert_allclose(model.block_norms, 0.0)
    assert model_objective(model, train) == pytest.approx(1.0)


def test_absurd_regularization_keeps_the_model_negligible():
    rng = np.random.default_rng(2)
    train = _blobs(rng, n_per=8)
    model = fit_mkal(train, [_source(rng)], MkalConfig(lam=1e6, gamma=1.0))
    assert np.all(model.block_norms <= 1e-5)
    assert model_objective(model, train) <= 1.0 + 1e-9


def test_trained_model_beats_the_zero_model_and_classifies():
    rng = np.random.default_rng(3)
    train = _blobs(rng, n_per=10)
    test = _blobs(rng, n_per=30)
    sources = [_source(rng), _source(rng)]
    model = fit_mkal(train, sources, MkalConfig(lam=1e-2, gamma=1.0, seed=0))
    assert model_objective(model, train) < 1.0
    from emgadapt.multi_adapt import source_scores

    pred, _ = predict_mkal(model, test.features, source_scores(sources, test.features))
    assert np.mean(pred == test.labels) >= 0.85


def test_zero_score_sources_reduce_to_a_single_kernel_machine():
    rng = np.random.default_rng(4)
    train = _blobs(rng, n_per=8)
    cfg = MkalConfig(lam=1e-2, gamma=0.5, seed=7)
    one = fit_mkal(train, [_zero_source()], cfg)
    two = fit_mkal(train, [_zero_source(), _zero_source()], cfg)
    # dead blocks never influence training: block-0 trajectories coincide
    assert np.array_equal(one.dual_coeffs[0], two.dual_coeffs[0])

    query = rng.normal(size=(25, 2)) * 2.0
    scores_single = gram(cfg_kernel(cfg), query, train.features) @ one.dual_coeffs[0]
    labels_single = np.argmax(scores_single, axis=1)
    s_q = np.zeros((25, 1, 3))
    pred, scores = predict_mkal(one, query, s_q)
    assert np.array_equal(pred, labels_single)
    assert_allclose(scores, scores_single, atol=1e-12)


def cfg_kernel(cfg: MkalConfig) -> KernelSpec:
    return KernelSpec("gaussian", cfg.gamma)


def test_identical_sources_get_identical_blocks():
    rng = np.random.default_rng(5)
    train = _blobs(rng, n_per=8)
    src = _source(rng)
    model = fit_mkal(train, [src, src], MkalConfig(p=2.0, lam=1e-2, gamma=1.0, seed=1))
    assert_allclose(model.block_norms[1], model.block_norms[2], atol=1e-12)
    assert np.array_equal(model.dual_coeffs[1], model.dual_coeffs[2])


def test_informative_source_outweighs_scrambled_source():
    rng = np.random.default_rng(6)
    train = _blobs(rng, n_per=10)
    good = _source(rng)
    bad = _source(rng, scramble=True)
    model = fit_mkal(train, [good, bad], MkalConfig(p=1.25, lam=1e-2, gamma=1.0, seed=0))
    assert model.block_norms[1] > model.block_norms[2]


def test_objective_evaluator_matches_manual_computation():
    rng = np.random.default_rng(7)
    train = _blobs(rng, n_per=5)
    src = _source(rng)
    from emgadapt.multi_adapt import source_scores

    s_tensor = source_scores([src], train.features)
    duals = rng.normal(size=(2, len(train), 3)) * 0.1
    kernel0 = KernelSpec("gaussian", 1.0)
    got = mkal_objective(train, s_tensor, duals, kernel0, p=1.5, lam=0.01)

    g0 = gram(kernel0, train.features, train.features)
    g1 = s_tensor[:, 0, :] @ s_tensor[:, 0, :].T
    scores = g0 @ duals[0] + g1 @ duals[1]
    own = scores[np.arange(len(train)), train.labels]
    masked = scores.copy()
    masked[np.arange(len(train)), train.labels] = -np.inf
    loss = np.maximum(0.0, 1.0 - (own - masked.max(axis=1))).mean()
    sq0 = np.einsum("iy,ij,jy->", duals[0], g0, duals[0])
    sq1 = np.einsum("iy,ij,jy->", duals[1], g1, duals[1])
    reg = 0.01 / 2.0 * (np.sqrt(sq0) ** 1.5 + np.sqrt(sq1) ** 1.5) ** (2.0 / 1.5)
    assert got == pytest.approx(reg + loss, abs=1e-12)


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    train = _blobs(rng, n_per=8)
    sources = [_source(rng)]
    cfg = MkalConfig(lam=1e-2, gamma=1.0, seed=3)
    a = fit_mkal(train, sources, cfg)
    b = fit_mkal(train, sources, cfg)
    assert np.array_equal(a.dual_coeffs, b.dual_coeffs)


def test_custom_raw_kernel_block():
    rng = np.random.default_rng(9)
    train = _blobs(rng, n_per=6)
    sources = [_source(rng)]
    model = fit_mkal(
        train, sources, MkalConfig(lam=1e-2, seed=0), kernel0=KernelSpec("linear")
    )
    assert model.kernel0 == KernelSpec("linear")
