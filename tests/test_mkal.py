"""Multi-kernel training: group norm, objective bound, block behavior."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from emgadapt import lssvm, mkal
from emgadapt.kernels import KernelSpec, gram
from emgadapt.mkal import (
    MkalConfig,
    MkalModel,
    MkalSelection,
    _block_grams,
    _block_sq_norms,
    _hinge_losses,
    fit_for_each_config,
    fit_mkal,
    group_norm,
    predict_mkal,
    select_mkal,
)
from emgadapt.model_selection import stratified_folds
from emgadapt.multi_adapt import source_scores
from emgadapt.signals import Dataset


def mkal_objective(
    train: Dataset,
    s_tensor: np.ndarray,
    duals: np.ndarray,
    kernel0: KernelSpec,
    p: float,
    lam: float,
) -> float:
    """Full objective recomputed from scratch: the oracle for the trainer's objective."""
    grams = _block_grams(kernel0, train.features, s_tensor)
    scores = sum(km @ duals[k] for k, km in enumerate(grams))
    loss = float(np.mean(_hinge_losses(scores, train.labels))) if len(train) else 0.0
    norms = np.sqrt(np.maximum(_block_sq_norms(grams, duals), 0.0))
    return lam / 2.0 * group_norm(norms, p) ** 2 + loss


def model_objective(model: MkalModel, train: Dataset) -> float:
    """Objective of a trained model on its own training set."""
    return mkal_objective(
        train, model.train_source_scores, model.dual_coeffs, model.kernel0, model.p, model.lam
    )


def _blobs(rng, n_per=15, spread=0.4, centers=((0, 0), (4, 0), (0, 4))):
    feats = np.concatenate(
        [np.asarray(c, dtype=float) + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(features=feats, labels=labels, num_classes=len(centers))


def _source(rng, scramble=False):
    ds = _blobs(rng, n_per=25)
    labels = rng.permutation(ds.labels) if scramble else ds.labels
    ds = Dataset(ds.features, labels, ds.num_classes)
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
        s_train = source_scores(sources, train.features)
        model = fit_mkal(train, s_train, MkalConfig(lam=lam, gamma=1.0, seed=2))
        assert model_objective(model, train) <= 1.0 + 1e-9


def test_zero_budget_returns_the_zero_model():
    rng = np.random.default_rng(2)
    train = _blobs(rng, n_per=8)
    cfg = MkalConfig(lam=1e-2, gamma=1.0, epochs_online=0, epochs_batch=0)
    model = fit_mkal(train, source_scores([_source(rng)], train.features), cfg)
    assert np.all(model.dual_coeffs == 0.0)
    assert_allclose(model.block_norms, 0.0)
    assert model_objective(model, train) == pytest.approx(1.0)


def test_absurd_regularization_keeps_the_model_negligible():
    rng = np.random.default_rng(2)
    train = _blobs(rng, n_per=8)
    s_train = source_scores([_source(rng)], train.features)
    model = fit_mkal(train, s_train, MkalConfig(lam=1e6, gamma=1.0))
    assert np.all(model.block_norms <= 1e-5)
    assert model_objective(model, train) <= 1.0 + 1e-9


def test_trained_model_beats_the_zero_model_and_classifies():
    rng = np.random.default_rng(3)
    train = _blobs(rng, n_per=10)
    test = _blobs(rng, n_per=30)
    sources = [_source(rng), _source(rng)]
    s_train = source_scores(sources, train.features)
    model = fit_mkal(train, s_train, MkalConfig(lam=1e-2, gamma=1.0, seed=0))
    assert model_objective(model, train) < 1.0
    pred, _ = predict_mkal(model, test.features, source_scores(sources, test.features))
    assert np.mean(pred == test.labels) >= 0.85


def test_zero_score_sources_reduce_to_a_single_kernel_machine():
    rng = np.random.default_rng(4)
    train = _blobs(rng, n_per=8)
    cfg = MkalConfig(lam=1e-2, gamma=0.5, seed=7)
    one = fit_mkal(train, source_scores([_zero_source()], train.features), cfg)
    two = fit_mkal(train, source_scores([_zero_source(), _zero_source()], train.features), cfg)
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
    s_train = source_scores([src, src], train.features)
    model = fit_mkal(train, s_train, MkalConfig(p=2.0, lam=1e-2, gamma=1.0, seed=1))
    assert_allclose(model.block_norms[1], model.block_norms[2], atol=1e-12)
    assert np.array_equal(model.dual_coeffs[1], model.dual_coeffs[2])


def test_informative_source_outweighs_scrambled_source():
    rng = np.random.default_rng(6)
    train = _blobs(rng, n_per=10)
    good = _source(rng)
    bad = _source(rng, scramble=True)
    s_train = source_scores([good, bad], train.features)
    model = fit_mkal(train, s_train, MkalConfig(p=1.25, lam=1e-2, gamma=1.0, seed=0))
    assert model.block_norms[1] > model.block_norms[2]


def test_objective_evaluator_matches_manual_computation():
    rng = np.random.default_rng(7)
    train = _blobs(rng, n_per=5)
    src = _source(rng)
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
    a = fit_mkal(train, source_scores(sources, train.features), cfg)
    b = fit_mkal(train, source_scores(sources, train.features), cfg)
    assert np.array_equal(a.dual_coeffs, b.dual_coeffs)


def test_raw_block_is_gaussian_at_the_config_gamma():
    rng = np.random.default_rng(9)
    train = _blobs(rng, n_per=6)
    sources = [_source(rng)]
    s_train = source_scores(sources, train.features)
    model = fit_mkal(train, s_train, MkalConfig(lam=1e-2, gamma=0.7, seed=0))
    assert model.kernel0 == KernelSpec("gaussian", 0.7)


def _einsum_sq_norms(grams, duals):
    return np.array(
        [float(np.einsum("iy,ij,jy->", duals[k], grams[k], duals[k])) for k in range(len(grams))]
    )


def _reference_fit(train, s_tensor, cfg):
    """The trainer as first written: one Python step per block, every
    shrink through group_norm, batch-phase norms recomputed by einsum.
    Returns the best duals and their block norms."""
    n, g = len(train), train.num_classes
    grams = _block_grams(KernelSpec("gaussian", cfg.gamma), train.features, s_tensor)
    nb = len(grams)
    labels = train.labels
    c_hat = np.zeros((nb, n, g))
    f_hat = np.zeros((nb, n, g))
    sq_hat = np.zeros(nb)
    m = np.ones(nb)

    def shrink_factors(sq_true, eta):
        norms = np.sqrt(np.maximum(sq_true, 0.0))
        q = group_norm(norms, cfg.p)
        if q <= 0.0:
            return np.ones_like(norms)
        gg = np.where(norms > 0.0, (np.where(norms > 0.0, norms, 1.0) / q) ** (cfg.p - 2.0), 0.0)
        return np.maximum(0.0, 1.0 - eta * cfg.lam * gg)

    def apply_shrink(eta):
        nonlocal m
        m = m * shrink_factors(m * m * sq_hat, eta)
        for kb in np.flatnonzero(m < 1e-6):
            c_hat[kb] *= m[kb]
            f_hat[kb] *= m[kb]
            sq_hat[kb] *= m[kb] * m[kb]
            m[kb] = 1.0

    def objective_now():
        scores = (m[:, None, None] * f_hat).sum(axis=0)
        loss = float(np.mean(_hinge_losses(scores, labels)))
        norms = np.sqrt(np.maximum(m * m * sq_hat, 0.0))
        return cfg.lam / 2.0 * group_norm(norms, cfg.p) ** 2 + loss

    best_obj, best_duals = 1.0, np.zeros((nb, n, g))
    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.epochs_online):
        for i in rng.permutation(n):
            t += 1
            fi = (m[:, None] * f_hat[:, i, :]).sum(axis=0)
            yi = labels[i]
            masked = fi.copy()
            masked[yi] = -np.inf
            yhat = int(np.argmax(masked))
            violated = 1.0 - (fi[yi] - fi[yhat]) > 0.0
            eta = 1.0 / (cfg.lam * t)
            apply_shrink(eta)
            if not violated:
                continue
            for kb in range(nb):
                col = grams[kb][:, i]
                delta = eta / m[kb]
                sq_hat[kb] += (
                    2.0 * delta * (f_hat[kb, i, yi] - f_hat[kb, i, yhat])
                    + 2.0 * delta * delta * col[i]
                )
                c_hat[kb, i, yi] += delta
                c_hat[kb, i, yhat] -= delta
                f_hat[kb, :, yi] += delta * col
                f_hat[kb, :, yhat] -= delta * col
        for kb in range(nb):
            f_hat[kb] = grams[kb] @ c_hat[kb]
        sq_hat = _einsum_sq_norms(grams, c_hat)
        obj = objective_now()
        if obj < best_obj:
            best_obj, best_duals = obj, m[:, None, None] * c_hat
    for _ in range(cfg.epochs_batch):
        t += 1
        eta = 1.0 / (cfg.lam * t)
        scores = (m[:, None, None] * f_hat).sum(axis=0)
        own = scores[np.arange(n), labels]
        masked = scores.copy()
        masked[np.arange(n), labels] = -np.inf
        yhat = np.argmax(masked, axis=1)
        violated = (1.0 - (own - masked[np.arange(n), yhat])) > 0.0
        apply_shrink(eta)
        if np.any(violated):
            du = np.zeros((n, g))
            rows = np.flatnonzero(violated)
            np.add.at(du, (rows, labels[rows]), 1.0)
            np.add.at(du, (rows, yhat[rows]), -1.0)
            for kb in range(nb):
                delta = eta / (n * m[kb])
                c_hat[kb] += delta * du
                f_hat[kb] += delta * (grams[kb] @ du)
            sq_hat = _einsum_sq_norms(grams, c_hat)
        obj = objective_now()
        if obj < best_obj:
            best_obj, best_duals = obj, m[:, None, None] * c_hat
    return best_duals, np.sqrt(np.maximum(_einsum_sq_norms(grams, best_duals), 0.0))


@pytest.mark.parametrize("n_sources", [1, 3])
@pytest.mark.parametrize("lam", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("p", [1.25, 2.0])
def test_fit_matches_the_per_block_reference_trainer(p, lam, n_sources):
    rng = np.random.default_rng(10)
    train = _blobs(rng, n_per=12, spread=0.8)
    test = _blobs(rng, n_per=10, spread=0.8)
    sources = [_source(rng, scramble=(k == 2)) for k in range(n_sources)]
    cfg = MkalConfig(p=p, lam=lam, gamma=0.5, seed=4)
    s_train = source_scores(sources, train.features)
    model = fit_mkal(train, s_train, cfg)
    duals, norms = _reference_fit(train, s_train, cfg)
    assert_allclose(model.dual_coeffs, duals, rtol=1e-9)
    assert_allclose(model.block_norms, norms, rtol=1e-9)
    ref = dataclasses.replace(model, dual_coeffs=duals, block_norms=norms)
    s_test = source_scores(sources, test.features)
    assert np.array_equal(
        predict_mkal(model, test.features, s_test)[0], predict_mkal(ref, test.features, s_test)[0]
    )


def test_block_sq_norms_match_the_einsum_form():
    rng = np.random.default_rng(12)
    grams, duals = [], []
    for n, rank in ((7, 7), (40, 5), (120, 120)):
        a = rng.normal(size=(n, rank))
        grams.append(a @ a.T)
        duals.append(rng.normal(size=(n, 4)))
    for km, c in zip(grams, duals):
        got = _block_sq_norms([km], c[None])
        assert_allclose(got, _einsum_sq_norms([km], c[None]), rtol=1e-12)


def test_model_reports_the_objective_and_epoch_it_kept():
    rng = np.random.default_rng(13)
    train = _blobs(rng, n_per=8)
    s_train = source_scores([_source(rng), _source(rng)], train.features)
    for lam in (1e-3, 1e-2, 1e-1):
        model = fit_mkal(train, s_train, MkalConfig(p=1.5, lam=lam, gamma=1.0, seed=1))
        assert abs(model.best_objective - model_objective(model, train)) <= 1e-12
        assert model.best_objective < 1.0 and 1 <= model.best_epoch <= 25


def test_zero_budget_reports_the_zero_model():
    rng = np.random.default_rng(14)
    train = _blobs(rng, n_per=4)
    cfg = MkalConfig(lam=1e-2, epochs_online=0, epochs_batch=0)
    model = fit_mkal(train, source_scores([_source(rng)], train.features), cfg)
    assert (model.best_objective, model.best_epoch) == (1.0, None)


def _assert_lockstep_matches_one_at_a_time(train, s_train, cfgs):
    models = fit_for_each_config(train, s_train, cfgs)
    assert len(models) == len(cfgs)
    for cfg, model in zip(cfgs, models):
        alone = fit_mkal(train, s_train, cfg)
        assert (model.p, model.lam) == (cfg.p, cfg.lam)
        assert np.array_equal(model.dual_coeffs, alone.dual_coeffs)
        assert np.array_equal(model.block_norms, alone.block_norms)
        assert model.best_objective == alone.best_objective
        assert model.best_epoch == alone.best_epoch


def _random_problem(rng, n, k, g, absent_class=False):
    labels = rng.integers(0, g - 1 if absent_class else g, size=n)
    feats = rng.normal(size=(n, 3)) + labels[:, None]
    s_train = rng.normal(size=(n, k, g)) + 2.0 * (np.arange(g) == labels[:, None])[:, None, :]
    return Dataset(feats, labels, g), s_train


def _configs(grid, **shared):
    return [MkalConfig(p=p, lam=lam, gamma=0.5, seed=3, **shared) for p, lam in grid]


LOCKSTEP_CASES = {
    "unsorted-p": dict(grid=[(2.0, 1e-2), (1.05, 1e-2), (1.5, 1e-2), (1.25, 1e-2)]),
    "repeated-p": dict(grid=[(1.25, 1e-1), (2.0, 1e-3), (1.25, 1e-3), (1.25, 1e-2)]),
    "absent-class": dict(grid=[(1.25, 1e-2), (2.0, 1e-2)], absent_class=True),
    "no-online-epochs": dict(grid=[(1.5, 1e-2), (2.0, 1e-1)], epochs_online=0),
    "no-batch-epochs": dict(grid=[(1.5, 1e-2), (2.0, 1e-1)], epochs_batch=0),
    "one-source": dict(grid=[(1.05, 1e-3), (1.5, 1e-2), (2.0, 1e-1)], k=1),
    # the 16 candidates of a CLI run: p from 1.05 to 2.0, lam from 1e-4 to 1e-1
    "cli-default-grid": dict(
        grid=list(itertools.product(MkalSelection().p_grid, MkalSelection().lambda_grid))
    ),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_fit_matches_one_fit_per_config(case):
    spec = dict(LOCKSTEP_CASES[case])
    rng = np.random.default_rng(15)
    train, s_train = _random_problem(
        rng, 30, spec.pop("k", 3), 4, absent_class=spec.pop("absent_class", False)
    )
    cfgs = _configs(spec.pop("grid"), **spec)
    _assert_lockstep_matches_one_at_a_time(train, s_train, cfgs)


def test_block_grams_are_exactly_symmetric():
    # the online step reads row i of every block Gram as its column i
    rng = np.random.default_rng(18)
    train, s_train = _random_problem(rng, 301, 5, 7)
    g = _block_grams(KernelSpec("gaussian", 0.3), train.features, s_train)
    assert g.shape == (6, 301, 301)
    assert np.array_equal(g, g.transpose(0, 2, 1))


def test_lockstep_fit_holds_about_one_gram_stack(peak_bytes):
    rng = np.random.default_rng(19)
    n, k = 400, 6
    train, s_train = _random_problem(rng, n, k, 4)
    cfgs = _configs([(1.25, 1e-2), (2.0, 1e-2)], epochs_online=1, epochs_batch=2)
    _, peak = peak_bytes(lambda: fit_for_each_config(train, s_train, cfgs))
    # measured 1.25 stacks of (K+1) x N x N floats: the stack, the raw
    # block's Gram before it is copied in, and the candidate state; a
    # transposed twin of the stack read 2.17
    assert peak < 1.6 * (k + 1) * n * n * 8


def test_lockstep_fit_matches_when_multipliers_fold_back(monkeypatch):
    folds = []
    real = mkal._fold_small_multipliers

    def spy(m, *state):
        folds.append(int(np.sum(m < 1e-6)))
        real(m, *state)

    monkeypatch.setattr(mkal, "_fold_small_multipliers", spy)
    rng = np.random.default_rng(16)
    train, s_train = _random_problem(rng, 25, 4, 3)
    cfgs = _configs([(1.05, 1e-1), (2.0, 1e3), (1.25, 1e3)])
    fit_for_each_config(train, s_train, cfgs)
    assert sum(folds) > 0
    _assert_lockstep_matches_one_at_a_time(train, s_train, cfgs)


@pytest.mark.parametrize(
    "other",
    [dict(gamma=2.0), dict(seed=4), dict(epochs_online=2), dict(epochs_batch=3)],
    ids=["gamma", "seed", "epochs-online", "epochs-batch"],
)
def test_lockstep_fit_rejects_configs_that_do_not_share_rows_order_or_budget(other):
    rng = np.random.default_rng(17)
    train, s_train = _random_problem(rng, 10, 2, 3)
    base = MkalConfig(p=1.5, lam=1e-2)
    with pytest.raises(ValueError, match="share"):
        fit_for_each_config(train, s_train, [base, dataclasses.replace(base, p=2.0, **other)])
    with pytest.raises(ValueError, match="at least one config"):
        fit_for_each_config(train, s_train, [])


def _reference_select(train, s_train, sel, gamma, folds, cv_seed, fit_seed):
    """Brute force: each candidate trained alone on each fold that `stratified_folds` deals;
    the first of the best mean accuracies in lam-then-p order is refit on every row.
    Returns (model, mean accuracy per candidate)."""
    val = stratified_folds(train.labels, folds, cv_seed)
    accs = {}
    for lam in sorted(sel.lambda_grid):
        for p in sorted(sel.p_grid):
            cfg = MkalConfig(p, lam, gamma, sel.epochs_online, sel.epochs_batch, fit_seed)
            hits = []
            for f, va in enumerate(val):
                tr = np.concatenate(val[:f] + val[f + 1:])
                model = fit_mkal(train.subset(tr), s_train[tr], cfg)
                hits.append(np.mean(predict_mkal(model, train.features[va], s_train[va])[0]
                                    == train.labels[va]))
            accs[cfg] = np.mean(hits)
    return fit_mkal(train, s_train, max(accs, key=accs.get)), list(accs.values())


@pytest.mark.parametrize("problem_seed, tied", [(1, True), (2, False)], ids=["tied-best", "one-best"])
def test_select_mkal_matches_a_brute_force_search(problem_seed, tied):
    train, s_train = _random_problem(np.random.default_rng(problem_seed), 24, 2, 3)
    # both axes given out of order: candidates run lam ascending, then p ascending
    sel = MkalSelection(p_grid=(2.0, 1.25), lambda_grid=(1e-1, 1e-2), epochs_online=2, epochs_batch=4)
    want, accs = _reference_select(train, s_train, sel, 0.5, 3, cv_seed=1, fit_seed=2)
    assert (accs.count(max(accs)) > 1) == tied
    got = select_mkal(train, s_train, sel, 0.5, 3, cv_seed=1, fit_seed=2)
    assert (got.p, got.lam) == (want.p, want.lam)
    assert got.dual_coeffs.tobytes() == want.dual_coeffs.tobytes()
    assert got.best_objective == want.best_objective


def test_mkal_selection_configs_run_lam_then_p_ascending():
    sel = MkalSelection(p_grid=(2.0, 1.25), lambda_grid=(1e-1, 1e-2), epochs_online=3, epochs_batch=7)
    assert sel.configs(0.5, 9) == [
        MkalConfig(p, lam, gamma=0.5, epochs_online=3, epochs_batch=7, seed=9)
        for lam, p in [(1e-2, 1.25), (1e-2, 2.0), (1e-1, 1.25), (1e-1, 2.0)]
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    k=st.integers(1, 3),
    g=st.integers(2, 4),
    grid=st.lists(
        st.tuples(st.sampled_from([1.05, 1.25, 1.5, 2.0]), st.sampled_from([1e-3, 1e-1, 1e3])),
        min_size=1, max_size=6, unique=True,
    ),
    epochs=st.tuples(st.integers(0, 3), st.integers(0, 4)),
)
# p = 2 beside another p: numpy's pow against the square and root one candidate gets
@example(seed=2048, n=18, k=2, g=3, grid=[(1.05, 1e-3), (2.0, 0.1)], epochs=(2, 2))
def test_every_lockstep_model_equals_its_own_fit(seed, n, k, g, grid, epochs):
    rng = np.random.default_rng(seed)
    train, s_train = _random_problem(rng, n, k, g)
    cfgs = _configs(grid, epochs_online=epochs[0], epochs_batch=epochs[1])
    _assert_lockstep_matches_one_at_a_time(train, s_train, cfgs)
