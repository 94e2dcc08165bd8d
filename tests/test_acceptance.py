"""Acceptance suite: one test per criterion, so a verbose run reports a
single pass/fail line for each.

1.  Closed-form leave-one-out residuals equal explicit retraining.
2.  The dual solver satisfies its bordered system and a dense oracle.
3.  Degenerate settings collapse to their simple forms (MA, MKAL, H-L2L).
4.  Adaptation beats the no-transfer baseline on a small synthetic cohort.
5.  Adaptation reaches the full-size baseline accuracy at half the data.
6.  Small training sets bias predictions toward frequent classes; the
    adaptive methods lift the worst-recognized class.
7.  Analysis operations match brute-force oracles.
8.  Gram matrices are symmetric and near-PSD.
9.  Window and feature-dimension arithmetic.
10. The command-line pipeline is byte-identical across reruns and --jobs.

Criteria 4-6 share one experiment run (a 9-subject cohort with strong
repetition-to-repetition variability, where borrowing from source subjects
is clearly worth more than 40 of the target's own samples).
"""

import time
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm, synth
from emgadapt.analysis import (
    ConfusionMatrix,
    confusion,
    confusion_diff,
    pearson,
    similarity_cell,
    top4_sets,
    top4_similarity,
)
from emgadapt.cli import main
from emgadapt.harness import ExperimentConfig, MkalSelection, SubjectData, run_experiment
from emgadapt.hl2l import fit_hl2l, predict_hl2l
from emgadapt.kernels import KernelSpec, gram
from emgadapt.mkal import MkalConfig, fit_mkal, predict_mkal
from emgadapt.model_selection import Grid
from emgadapt.multi_adapt import fit_ma, predict_ma, source_scores
from emgadapt.signals import Dataset, Recording, WindowSpec, segment, window_count


def _blob_dataset(rng, num_classes, n_per, dim=3, spread=0.7):
    centers = rng.normal(size=(num_classes, dim)) * 3.0
    feats = np.concatenate([c + spread * rng.normal(size=(n_per, dim)) for c in centers])
    labels = np.repeat(np.arange(num_classes), n_per)
    return Dataset(features=feats, labels=labels, num_classes=num_classes)


def _zero_source(num_classes, dim):
    """A source model whose scores are identically zero for every input."""
    return lssvm.LssvmModel(
        kernel=KernelSpec("gaussian", 1.0),
        C=1.0,
        num_classes=num_classes,
        support_inputs=np.zeros((2, dim)),
        alphas=np.zeros((2, num_classes)),
        biases=np.zeros(num_classes),
    )


# ---------------------------------------------------------------------------
# 1-2: solver correctness


def test_criterion_01_closed_form_loo_equals_explicit_retraining():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        g = int(rng.integers(2, 5))
        n_per = int(rng.integers(3, 30 // g + 1))  # N <= 30, every class kept >= 2
        ds = _blob_dataset(rng, g, n_per)
        c_reg = float(10.0 ** rng.uniform(-1, 2))
        spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-1.5, 0)))
        singletons = [np.array([i]) for i in range(len(ds))]
        held_out = lssvm.kfold_scores(ds, spec, [c_reg], singletons)
        targets = lssvm.ova_targets(ds.labels, g)
        residuals = targets - np.concatenate([f[0] for f in held_out])
        for i in range(len(ds)):
            keep = np.delete(np.arange(len(ds)), i)
            model = lssvm.fit(ds.subset(keep), spec, c_reg)
            scores = lssvm.decision_scores(model, ds.features[i : i + 1])[0]
            worst = max(worst, float(np.max(np.abs(residuals[i] - (targets[i] - scores)))))
    assert worst <= 1e-6
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_dual_solution_satisfies_system_and_dense_oracle():
    rng = np.random.default_rng(202)
    worst_system = 0.0
    worst_oracle = 0.0
    for _ in range(20):
        g = int(rng.integers(2, 5))
        ds = _blob_dataset(rng, g, int(rng.integers(3, 9)))
        c_reg = float(10.0 ** rng.uniform(-1, 2))
        spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-1.5, 0)))
        model = lssvm.fit(ds, spec, c_reg)
        n = len(ds)
        bordered = np.zeros((n + 1, n + 1))
        bordered[0, 1:] = 1.0
        bordered[1:, 0] = 1.0
        bordered[1:, 1:] = gram(spec, ds.features, ds.features) + np.eye(n) / c_reg
        targets = lssvm.ova_targets(ds.labels, g)
        for cls in range(g):
            sol = np.concatenate(([model.biases[cls]], model.alphas[:, cls]))
            rhs = np.concatenate(([0.0], targets[:, cls]))
            worst_system = max(worst_system, float(np.max(np.abs(bordered @ sol - rhs))))
            ref, *_ = np.linalg.lstsq(bordered, rhs, rcond=None)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(sol - ref))))
    assert worst_system <= 1e-8
    assert worst_oracle <= 1e-8


# ---------------------------------------------------------------------------
# 3: degeneracy identities


def test_criterion_03_degenerate_settings_collapse_to_simple_forms():
    rng = np.random.default_rng(303)

    # MA with all mixing weights at zero is exactly the no-transfer model
    for _ in range(10):
        g = int(rng.integers(2, 5))
        ds = _blob_dataset(rng, g, int(rng.integers(3, 7)), dim=2)
        src = lssvm.fit(_blob_dataset(rng, g, 6, dim=2), KernelSpec("gaussian", 0.5), 10.0)
        c_reg = float(10.0 ** rng.uniform(-1, 2))
        spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-1, 0.5)))
        query = rng.normal(size=(30, 2)) * 2.5
        plain = lssvm.fit(ds, spec, c_reg)
        ma = fit_ma(ds, source_scores([src], ds.features), spec, c_reg, beta=np.zeros((1, g)))
        labels_ma, scores_ma = predict_ma(ma, query, source_scores([src], query))
        labels_plain, scores_plain = lssvm.predict(plain, query)
        assert np.array_equal(labels_ma, labels_plain)
        assert np.array_equal(scores_ma, scores_plain)

    # MKAL whose source blocks never score is the raw-kernel machine alone
    ds = _blob_dataset(rng, 3, 8, dim=2)
    cfg = MkalConfig(lam=1e-2, gamma=0.5, seed=7)
    model = fit_mkal(ds, source_scores([_zero_source(3, 2)], ds.features), cfg)
    query = rng.normal(size=(25, 2)) * 2.0
    single = gram(KernelSpec("gaussian", cfg.gamma), query, ds.features) @ model.dual_coeffs[0]
    pred, scores = predict_mkal(model, query, np.zeros((25, 1, 3)))
    assert np.array_equal(pred, np.argmax(single, axis=1))
    assert_allclose(scores, single, atol=1e-12)

    # H-L2L stacks one score block per source plus the target block
    for k in (1, 2, 3):
        g = 3
        train = _blob_dataset(rng, g, 10, dim=2)
        sources = [
            lssvm.fit(_blob_dataset(rng, g, 8, dim=2), KernelSpec("gaussian", 0.5), 10.0)
            for _ in range(k)
        ]
        hl = fit_hl2l(
            train, source_scores(sources, train.features),
            KernelSpec("gaussian", 0.5), 10.0,
            KernelSpec("gaussian", 0.1), 10.0,
            seed=k,
        )
        assert hl.layer2.support_inputs.shape[1] == (k + 1) * g
        query = rng.normal(size=(12, 2))
        labels, scores = predict_hl2l(hl, query, source_scores(sources, query))
        assert labels.shape == (12,)
        assert scores.shape == (12, g)


# ---------------------------------------------------------------------------
# 4-6: qualitative transfer behavior on a synthetic cohort

COHORT_SIZES = (40, 80, 160)
COHORT_SEEDS = tuple(range(10))
ADAPTIVE = ("MA", "MKAL", "HL2L")


@pytest.fixture(scope="module")
def cohort_run():
    """One small-data experiment: 1 target, 8 sources, G=8, 10 seeds."""
    t0 = time.monotonic()
    specs = synth.generate_cohort(
        9,
        base_seed=0,
        shift_strength=0.3,
        amputee_fraction=0.12,  # exactly one subject, used as the target role
        num_classes=8,
        channels=24,
        noise_floor=1.0,
        amputee_degradation=0.0,  # the target is statistically intact
        profile_range=(0.5, 1.5),
        rep_variability=0.6,
    )
    subjects = []
    for spec in specs:
        train, test = synth.subject_datasets(
            spec,
            reps=8,
            movement_ms=1200.0,
            rest_ms=500.0,
            rate_hz=100.0,
            window=WindowSpec(window_ms=200.0, step_ms=50.0),
            test_reps=(5, 6, 7, 8),
        )
        subjects.append(SubjectData(spec.subject_id, spec.condition, train, test))
    config = ExperimentConfig(
        experiment="AI",
        methods=("NoTransfer", "PriorFeatures", "MA", "MKAL", "HL2L"),
        size_schedule=COHORT_SIZES,
        seeds=COHORT_SEEDS,
        grid=Grid(C_values=(1.0, 10.0, 100.0), gamma_values=(0.001, 0.003, 0.01), folds=3, seed=0),
        mkal=MkalSelection(p_grid=(1.25, 2.0), lambda_grid=(1e-3, 1e-2, 1e-1)),
        source_train_cap=600,
        base_seed=0,
        jobs=1,
    )
    result = run_experiment(config, subjects)
    return {
        "cells": {(c.method, c.seed_index, c.size): c for c in result.cells},
        "elapsed": time.monotonic() - t0,
        "target": next(s for s in subjects if s.condition == "amputee"),
        "config": config,
    }


def _mean_accuracy(cells, method, size):
    return float(np.mean([cells[(method, k, size)].accuracy for k in COHORT_SEEDS]))


def test_criterion_04_adaptation_beats_no_transfer_at_the_smallest_size(cohort_run):
    cells = cohort_run["cells"]
    baseline = _mean_accuracy(cells, "NoTransfer", 40)
    for method in ADAPTIVE:
        assert _mean_accuracy(cells, method, 40) >= baseline + 0.05
    chance = 1.0 / 8.0
    assert _mean_accuracy(cells, "PriorFeatures", 40) >= chance + 0.10
    assert cohort_run["elapsed"] < 600.0


def test_criterion_05_adaptation_reaches_full_size_accuracy_at_half_size(cohort_run):
    cells = cohort_run["cells"]
    # the best adaptive method by overall mean accuracy across the schedule
    best = max(
        ADAPTIVE,
        key=lambda m: np.mean([_mean_accuracy(cells, m, s) for s in COHORT_SIZES]),
    )
    largest = COHORT_SIZES[-1]
    hits = 0
    for k in COHORT_SEEDS:
        ceiling = cells[("NoTransfer", k, largest)].accuracy
        reached = [s for s in COHORT_SIZES if cells[(best, k, s)].accuracy >= ceiling]
        if reached and min(reached) <= largest // 2:
            hits += 1
    assert hits >= 8


def test_criterion_06_small_sets_bias_toward_frequent_classes(cohort_run):
    cells = cohort_run["cells"]
    target = cohort_run["target"]
    base_seed = cohort_run["config"].base_seed
    pool_labels = target.train.labels
    tkey = zlib.crc32(target.subject_id.encode("utf-8"))

    # the most-predicted class tracks the modal class of the drawn subset
    hits = 0
    for k in COHORT_SEEDS:
        perm = np.random.default_rng(
            np.random.SeedSequence(base_seed, spawn_key=(2, tkey, k))
        ).permutation(len(pool_labels))
        modal = int(np.bincount(pool_labels[perm[:40]], minlength=8).argmax())
        counts = cells[("NoTransfer", k, 40)].confusion.counts
        most_predicted = int(counts.sum(axis=1).argmax())
        hits += most_predicted == modal
    assert hits >= 7

    # adaptation lifts the worst-recognized class (mean over seeds of the
    # per-seed minimum per-class recall)
    def mean_min_recall(method):
        vals = []
        for k in COHORT_SEEDS:
            recall = cells[(method, k, 40)].confusion.recognition()
            vals.append(float(recall.min()))
        return float(np.mean(vals))

    floor = mean_min_recall("NoTransfer")
    for method in ADAPTIVE:
        assert mean_min_recall(method) > floor


# ---------------------------------------------------------------------------
# 7-9: analysis oracles, kernel properties, pipeline arithmetic


def test_criterion_07_analysis_operations_match_brute_force_oracles():
    # confusion tally by hand
    predicted = np.array([0, 1, 1, 2, 0, 2, 1])
    true = np.array([0, 1, 2, 2, 1, 0, 1])
    tally = np.zeros((3, 3), dtype=int)
    for p, t in zip(predicted, true):
        tally[p, t] += 1
    assert np.array_equal(confusion(predicted, true, 3).counts, tally)

    # top-4 sets and similarity against explicit sorting (tie-free matrices)
    rng = np.random.default_rng(707)
    g = 8
    for _ in range(5):
        a = np.stack([10 * rng.permutation(g) + 5 for _ in range(g)], axis=1)
        b = np.stack([10 * rng.permutation(g) + 5 for _ in range(g)], axis=1)
        want_a = [tuple(sorted(np.argsort(-a[:, c])[:4])) for c in range(g)]
        want_b = [tuple(sorted(np.argsort(-b[:, c])[:4])) for c in range(g)]
        assert top4_sets(ConfusionMatrix(a)) == want_a
        frac, matching = top4_similarity(ConfusionMatrix(a), ConfusionMatrix(b))
        want_match = [c for c in range(g) if len(set(want_a[c]) & set(want_b[c])) >= 3]
        assert matching == want_match
        assert frac == pytest.approx(len(want_match) / g, abs=1e-15)

    # Pearson correlation against the library routine
    for _ in range(10):
        u = rng.normal(size=40)
        v = rng.normal(size=40)
        assert abs(pearson(u, v) - np.corrcoef(u, v)[0, 1]) <= 1e-12

    # difference-matrix entries are bounded
    for _ in range(10):
        d = confusion_diff(
            ConfusionMatrix(rng.integers(1, 25, size=(6, 6))),
            ConfusionMatrix(rng.integers(1, 25, size=(6, 6))),
        )
        assert np.all(d >= -1.0) and np.all(d <= 1.0)

    assert similarity_cell(13, 18) == "72% (13/18)"


def test_criterion_08_gram_matrices_are_symmetric_and_near_psd():
    rng = np.random.default_rng(808)
    for i in range(50):
        n = int(rng.integers(5, 40))
        dim = int(rng.integers(1, 12))
        X = rng.normal(size=(n, dim)) * float(10.0 ** rng.uniform(-1, 1))
        if i % 2:
            spec = KernelSpec("gaussian", float(10.0 ** rng.uniform(-3, 1)))
        else:
            spec = KernelSpec("linear")
        k = gram(spec, X, X)
        assert float(np.max(np.abs(k - k.T))) <= 1e-12
        assert float(np.linalg.eigvalsh(k).min()) >= -1e-8 * float(np.trace(k))


def test_criterion_09_window_and_feature_dimension_arithmetic():
    # 200 ms windows every 10 ms over 1 s at 2 kHz: 400/20 samples, 81 windows
    assert window_count(2000, 400, 20) == 81
    rec = Recording(
        subject_id="s00",
        condition="intact",
        sampling_rate_hz=2000.0,
        channels=1,
        num_classes=2,
        samples=np.zeros((2000, 1)),
        labels=np.ones(2000, dtype=int),
        repetitions=np.ones(2000, dtype=int),
    )
    assert len(segment(rec, WindowSpec(window_ms=200.0, step_ms=10.0)).offsets) == 81

    spec = synth.generate_cohort(1, base_seed=9, num_classes=4, channels=5)[0]
    kwargs = dict(reps=3, movement_ms=500.0, rest_ms=300.0, test_reps=(3,))
    train, test = synth.subject_datasets(spec, feature_mode="concat", **kwargs)
    assert train.dim == test.dim == 3 * 5
    train_avg, test_avg = synth.subject_datasets(spec, feature_mode="averaged", **kwargs)
    assert train_avg.dim == test_avg.dim == 5


# ---------------------------------------------------------------------------
# 10: end-to-end determinism


def test_criterion_10_pipeline_is_byte_identical_across_reruns_and_jobs(tmp_path):
    cohort = tmp_path / "cohort"
    feats = tmp_path / "feats"
    assert main([
        "synth", "--subjects", "3", "--classes", "4", "--channels", "3",
        "--reps", "3", "--movement-ms", "300", "--rest-ms", "200",
        "--rate-hz", "100", "--seed", "3", "--shift", "0.3",
        "--out-dir", str(cohort),
    ]) == 0
    assert main([
        "features", "--in-dir", str(cohort), "--out-dir", str(feats),
        "--window-ms", "100", "--step-ms", "50", "--test-reps", "3",
    ]) == 0
    run_flags = [
        "--experiment", "II",
        "--methods", "NoTransfer,PriorFeatures,MA,MKAL,HL2L",
        # sizes leave the stacked model's held-out share (37%) enough
        # samples for 2-fold validation
        "--sizes", "16,24", "--num-seeds", "2", "--grid-c", "1,10",
        "--grid-gamma", "0.1,1", "--folds", "2", "--source-cap", "none",
    ]
    outputs = {}
    for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "2"])):
        out = tmp_path / name
        assert main(["run", "--features", str(feats), "--out-dir", str(out),
                     *run_flags, *extra]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert outputs[name]
    assert outputs["a"] == outputs["b"]
    assert outputs["a"] == outputs["c"]
