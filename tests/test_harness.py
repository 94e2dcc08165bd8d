"""Experiment harness: role assignment, determinism, aggregation, outputs."""

import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from emgadapt import harness, lssvm
from emgadapt.analysis import ConfusionMatrix
from emgadapt.baselines import prior_feature_matrix
from emgadapt.harness import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    MkalSelection,
    SubjectData,
    experiment_roles,
    learning_curves,
    load_confusion_csv,
    pooled_confusions,
    run_experiment,
    train_source_model,
    write_run_outputs,
)
from emgadapt.hl2l import fit_hl2l
from emgadapt.kernels import KernelSpec
from emgadapt.mkal import predict_mkal, select_mkal
from emgadapt.model_selection import Grid, select
from emgadapt.multi_adapt import source_scores
from emgadapt.signals import Dataset, NormStats

GRID = Grid(C_values=(1.0, 10.0), gamma_values=(0.5,), folds=2, seed=0)
MKAL_SEL = MkalSelection(p_grid=(1.5,), lambda_grid=(1e-2,), epochs_online=2, epochs_batch=4)


def _blobs(rng, centers, per_class, spread):
    num_classes, dim = centers.shape
    feats = [centers[g] + spread * rng.standard_normal((per_class, dim)) for g in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), per_class)
    perm = rng.permutation(len(labels))
    X = np.vstack(feats)[perm]
    return Dataset(X, labels[perm], num_classes)


def _cohort(
    seed=0, intact=3, amputee=0, num_classes=3, dim=4, train_per=8, test_per=5, spread=0.3
):
    """Subjects share class centers up to a small per-subject offset."""
    rng = np.random.default_rng(seed)
    base = 2.0 * rng.standard_normal((num_classes, dim))
    subjects = []
    conditions = ["intact"] * intact + ["amputee"] * amputee
    for i, condition in enumerate(conditions):
        centers = base + 0.2 * rng.standard_normal(base.shape)
        train = _blobs(rng, centers, train_per, spread)
        test = _blobs(rng, centers, test_per, spread)
        subjects.append(SubjectData(f"s{i}", condition, train, test))
    return subjects


def _dummy_subjects(conditions):
    data = Dataset(np.zeros((2, 1)), np.array([0, 0]), 1)
    return [SubjectData(f"s{i}", c, data, data) for i, c in enumerate(conditions)]


# ---------------------------------------------------------------------------
# role assignment


def test_roles_intact_to_intact():
    subs = _dummy_subjects(["intact", "intact", "amputee", "intact"])
    pairs = experiment_roles("II", subs)
    assert [t.subject_id for t, _ in pairs] == ["s0", "s1", "s3"]
    for target, sources in pairs:
        ids = [s.subject_id for s in sources]
        assert target.subject_id not in ids
        assert len(ids) == 2
        assert all(s.condition == "intact" for s in sources)


def test_roles_amputee_to_amputee():
    subs = _dummy_subjects(["amputee", "intact", "amputee"])
    pairs = experiment_roles("AA", subs)
    assert [t.subject_id for t, _ in pairs] == ["s0", "s2"]
    assert [s.subject_id for s in pairs[0][1]] == ["s2"]
    assert [s.subject_id for s in pairs[1][1]] == ["s0"]


def test_roles_amputee_from_intact():
    subs = _dummy_subjects(["intact", "amputee", "intact", "amputee"])
    pairs = experiment_roles("AI", subs)
    assert [t.subject_id for t, _ in pairs] == ["s1", "s3"]
    for _, sources in pairs:
        assert [s.subject_id for s in sources] == ["s0", "s2"]


def test_roles_errors():
    with pytest.raises(ValueError):
        experiment_roles("II", _dummy_subjects(["intact"]))  # no sources
    with pytest.raises(ValueError):
        experiment_roles("AA", _dummy_subjects(["intact", "intact"]))  # no targets
    with pytest.raises(ValueError):
        experiment_roles("XX", _dummy_subjects(["intact", "intact"]))


def test_subject_with_an_unknown_condition_is_rejected_not_dropped():
    # "Intact" is neither role: experiment_roles would leave the subject out unseen
    subs = _cohort(seed=1, intact=3, amputee=1)
    with pytest.raises(ValueError, match="subject s1: condition must be one of .* got 'Intact'"):
        run_experiment(
            _small_cfg(experiment="AI"),
            [dataclasses.replace(s, condition="Intact") if s.subject_id == "s1" else s for s in subs],
        )


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="ZZ")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", methods=("NoTransfer", "Magic"))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", methods=())
    with pytest.raises(ValueError, match="duplicates"):
        ExperimentConfig(experiment="II", methods=("MA", "MA"))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", size_schedule=(40, 40))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", size_schedule=(80, 40))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", seeds=())
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(experiment="II", seeds=(7, 7))
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(experiment="II", seeds=(0, -1))
    for seeds in [(1.5,), (True,), ("1",)]:
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(experiment="II", seeds=seeds)
    for base_seed in [1.5, -1, True, "0"]:
        with pytest.raises(ValueError, match="base_seed"):
            ExperimentConfig(experiment="II", base_seed=base_seed)
    assert ExperimentConfig(experiment="II", seeds=(np.int64(3),), base_seed=np.int32(2)).seeds == (3,)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", source_train_cap=1)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="II", jobs=0)


def test_config_turns_numpy_integers_into_ints_the_manifest_can_dump():
    cfg = ExperimentConfig(
        experiment="II", size_schedule=(np.int64(40), np.int32(80)), seeds=[np.int64(1), np.uint8(2)],
        base_seed=np.int64(5), jobs=np.int16(2), source_train_cap=np.int64(300),
    )
    doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert (doc["size_schedule"], doc["seeds"], doc["base_seed"]) == ([40, 80], [1, 2], 5)
    assert (doc["jobs"], doc["source_train_cap"]) == (2, 300)
    assert all(type(v) is int for v in (*cfg.size_schedule, *cfg.seeds, cfg.base_seed, cfg.jobs))
    assert ExperimentConfig(experiment="II", source_train_cap=None).source_train_cap is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("jobs", 1.5), ("jobs", 2.0), ("jobs", True), ("jobs", np.float64(2.0)),
        ("size_schedule", (40.0,)), ("size_schedule", (40, True)),
        ("source_train_cap", 300.0), ("base_seed", np.float32(1.0)),
    ],
)
def test_config_rejects_floats_and_bools_in_int_fields(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(experiment="II", **{field: value})


def test_grid_and_mkal_selection_ints_reach_the_manifest_as_ints():
    cfg = ExperimentConfig(
        experiment="II",
        grid=Grid(folds=np.int64(3), seed=np.int64(1)),
        mkal=MkalSelection(epochs_online=np.int32(2), epochs_batch=np.uint8(4)),
    )
    doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert (doc["grid"]["folds"], doc["grid"]["seed"]) == (3, 1)
    assert (doc["mkal"]["epochs_online"], doc["mkal"]["epochs_batch"]) == (2, 4)
    ints = (cfg.grid.folds, cfg.grid.seed, cfg.mkal.epochs_online, cfg.mkal.epochs_batch)
    assert all(type(v) is int for v in ints)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Grid(folds=2.5), "folds"),
        (lambda: Grid(folds=True), "folds"),
        (lambda: Grid(folds=1), "folds"),
        (lambda: Grid(seed=1.0), "seed"),
        (lambda: Grid(seed=-1), "seed"),
        (lambda: MkalSelection(epochs_online=1.5), "epochs_online"),
        (lambda: MkalSelection(epochs_batch=np.float64(2.0)), "epochs_batch"),
        (lambda: MkalSelection(epochs_batch=False), "epochs_batch"),
    ],
    ids=["folds-float", "folds-bool", "folds-1", "seed-float", "seed-negative",
         "online-float", "batch-numpy-float", "batch-bool"],
)
def test_grid_and_mkal_selection_reject_floats_and_bools_in_int_fields(make, field):
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"p_grid": ()}, "p_grid"),
        ({"lambda_grid": ()}, "lambda_grid"),
        ({"p_grid": (1.5, float("nan"))}, "p_grid"),
        ({"lambda_grid": (float("inf"),)}, "lambda_grid"),
        ({"p_grid": (1.5, 1.25, 1.5)}, "duplicates"),
        ({"lambda_grid": (1e-2, 1e-2)}, "duplicates"),
        ({"p_grid": (1.5, 3.0)}, "p must lie"),
        ({"p_grid": (1.0,)}, "p must lie"),
        ({"lambda_grid": (-1e-2,)}, "lambda_grid"),
        ({"epochs_online": -1}, "epoch"),
        ({"epochs_batch": -1}, "epoch"),
    ],
    ids=[
        "empty-p", "empty-lambda", "nan-p", "inf-lambda", "duplicate-p", "duplicate-lambda",
        "p-above-2", "p-at-1", "negative-lambda", "negative-online-epochs", "negative-batch-epochs",
    ],
)
def test_mkal_selection_rejects_what_mkal_config_or_the_grid_rejects(fields, message):
    with pytest.raises(ValueError, match=message):
        MkalSelection(**fields)


def test_mkal_selection_accepts_the_boundary_values():
    sel = MkalSelection(p_grid=(2.0, 1.0001), lambda_grid=(1e-9,), epochs_online=0, epochs_batch=0)
    assert sel.p_grid == (2.0, 1.0001)


# ---------------------------------------------------------------------------
# source models


def test_source_cap_limits_training_rows():
    subs = _cohort(seed=3, intact=1, train_per=10)  # 30 rows
    cfg = ExperimentConfig(experiment="II", grid=GRID, source_train_cap=12, base_seed=5)
    model = train_source_model(subs[0], cfg)
    assert model.support_inputs.shape[0] == 12
    again = train_source_model(subs[0], cfg)
    assert_array_equal(model.support_inputs, again.support_inputs)

    uncapped = ExperimentConfig(experiment="II", grid=GRID, source_train_cap=None, base_seed=5)
    model = train_source_model(subs[0], uncapped)
    assert model.support_inputs.shape[0] == 30


# ---------------------------------------------------------------------------
# full runs


def _small_cfg(**kw):
    base = dict(
        experiment="II",
        methods=("NoTransfer", "MA"),
        size_schedule=(9, 18),
        seeds=(0, 1),
        grid=GRID,
        mkal=MKAL_SEL,
        source_train_cap=None,
        base_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _same_cells(a, b):
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert (ca.target_id, ca.seed_index, ca.size, ca.method) == (
            cb.target_id,
            cb.seed_index,
            cb.size,
            cb.method,
        )
        assert ca.accuracy == cb.accuracy
        assert_array_equal(ca.confusion.counts, cb.confusion.counts)
        assert ca.params == cb.params


def test_run_experiment_shape_and_determinism():
    subs = _cohort(seed=1)
    cfg = _small_cfg()
    res = run_experiment(cfg, subs)
    assert len(res.cells) == 3 * 2 * 2 * 2  # targets x seeds x sizes x methods
    assert res.source_ids == ["s0", "s1", "s2"]
    assert res.subjects == [(s.subject_id, s.condition) for s in subs]
    _same_cells(res.cells, run_experiment(cfg, subs).cells)


def test_a_seed_runs_the_same_cells_whatever_seeds_run_beside_it():
    subs = _cohort(seed=6, train_per=10, test_per=20, spread=1.5)
    methods = ("NoTransfer", "PriorFeatures", "MA", "MKAL", "HL2L")
    alone = run_experiment(_small_cfg(methods=methods, size_schedule=(18,), seeds=(1,)), subs)
    both = run_experiment(_small_cfg(methods=methods, size_schedule=(18,), seeds=(0, 1)), subs)
    assert {c.seed_index for c in alone.cells} == {0}  # the position in `seeds`
    first = [c for c in both.cells if c.seed_index == 0]
    second = [c for c in both.cells if c.seed_index == 1]
    # the two seeds draw different cells, so matching the second one means something
    assert [c.accuracy for c in first] != [c.accuracy for c in second]
    assert len(second) == len(alone.cells) == 3 * len(methods)
    for a, b in zip(alone.cells, second):
        assert (a.target_id, a.size, a.method) == (b.target_id, b.size, b.method)
        assert a.accuracy == b.accuracy
        assert_array_equal(a.confusion.counts, b.confusion.counts)
        assert a.params == b.params


def test_parallel_run_matches_serial():
    subs = _cohort(seed=2)
    serial = run_experiment(_small_cfg(jobs=1), subs)
    parallel = run_experiment(_small_cfg(jobs=2), subs)
    _same_cells(serial.cells, parallel.cells)


def test_all_methods_produce_cells_with_expected_params():
    subs = _cohort(seed=4, train_per=10)
    cfg = _small_cfg(
        methods=("NoTransfer", "PriorFeatures", "MA", "MKAL", "HL2L"),
        size_schedule=(18,),
        seeds=(0,),
    )
    res = run_experiment(cfg, subs)
    by_method = {}
    for c in res.cells:
        by_method.setdefault(c.method, []).append(c)
    key_sets = {
        "NoTransfer": {"C", "gamma"},
        "PriorFeatures": {"C"},
        "MA": {"C", "gamma"},
        "MKAL": {"p", "lam", "gamma"},
        "HL2L": {"C1", "gamma1", "C2", "gamma2"},
    }
    for method, cells in by_method.items():
        assert len(cells) == 3  # one per target
        for c in cells:
            assert set(c.params) == key_sets[method]
            assert 0.0 <= c.accuracy <= 1.0
    # the shared (C, gamma) pair is reused across methods within a cell
    for target in ("s0", "s1", "s2"):
        mine = {c.method: c for c in res.cells if c.target_id == target}
        assert mine["NoTransfer"].params == mine["MA"].params
        assert mine["HL2L"].params["C1"] == mine["NoTransfer"].params["C"]
        assert mine["HL2L"].params["gamma1"] == mine["NoTransfer"].params["gamma"]
        assert mine["MKAL"].params["gamma"] == mine["NoTransfer"].params["gamma"]


def _cell_inputs():
    """A target's size-18 subset and test set with two fixed source machines' score tensors."""
    target, *sources = _cohort(seed=8, train_per=10)
    models = [lssvm.fit(s.train, KernelSpec("gaussian", 0.5), 10.0) for s in sources]
    sub, test = target.train.subset(np.arange(18)), target.test
    return sub, source_scores(models, sub.features), test, source_scores(models, test.features)


def test_prior_features_cell_scores_the_test_set_under_the_training_normalization(monkeypatch):
    sub, s_sub, test, s_test = _cell_inputs()
    seen, predict = [], lssvm.predict

    def recorded(model, X):
        seen.append((model, X, lssvm.decision_scores(model, X)))
        return predict(model, X)

    monkeypatch.setattr(lssvm, "predict", recorded)
    pred, _ = harness._fit_eval_cell(
        "PriorFeatures", _small_cfg(), sub, s_sub, test, s_test, None, (3, 1, 0, 0)
    )
    [(model, X, scores)] = seen
    flat = prior_feature_matrix(s_sub)
    by_hand = NormStats(mean=flat.mean(axis=0), std=flat.std(axis=0)).apply(prior_feature_matrix(s_test))
    assert X.tobytes() == by_hand.tobytes()
    assert scores.tobytes() == lssvm.decision_scores(model, by_hand).tobytes()
    assert_array_equal(pred, np.argmax(scores, axis=1))


def test_hl2l_cell_selects_layer2_on_the_stack_layer2_trains_on(monkeypatch):
    sub, s_sub, test, s_test = _cell_inputs()
    selected, fitted = [], []

    def recorded_select(train, fit_fn, grid):
        selected.append(train)
        return select(train, fit_fn, grid)

    def recorded_fit(*args, **kwargs):
        fitted.append(fit_hl2l(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(harness, "select", recorded_select)
    monkeypatch.setattr(harness, "fit_hl2l", recorded_fit)
    _, params = harness._fit_eval_cell(
        "HL2L", _small_cfg(), sub, s_sub, test, s_test, {"C": 10.0, "gamma": 0.5}, (3, 1, 0, 0)
    )
    [stack], [model] = selected, fitted
    assert len(stack) < len(sub)  # the held-out side only
    assert stack.features.tobytes() == model.layer2.support_inputs.tobytes()
    # labels too: layer 2 is the fit of the selected set at the selected (C, gamma)
    refit = lssvm.fit(stack, KernelSpec("gaussian", params["gamma2"]), params["C2"])
    assert model.layer2.alphas.tobytes() == refit.alphas.tobytes()
    assert model.layer2.biases.tobytes() == refit.biases.tobytes()


def test_mkal_cell_is_select_mkal_at_the_cell_seeds():
    sub, s_sub, test, s_test = _cell_inputs()
    sel = MkalSelection(p_grid=(2.0, 1.25), lambda_grid=(1e-1, 1e-2), epochs_online=2, epochs_batch=4)
    cfg, key = _small_cfg(mkal=sel), (3, 1, 0, 0)
    pred, params = harness._fit_eval_cell("MKAL", cfg, sub, s_sub, test, s_test, {"gamma": 0.5}, key)
    # the harness's seed tags: 5 deals the CV folds, 4 orders the samples of every fit
    cv_seed, fit_seed = (harness._seed_int(cfg.base_seed, *key, tag) for tag in (5, 4))
    model = select_mkal(sub, s_sub, sel, 0.5, cfg.grid.folds, cv_seed, fit_seed)
    assert pred.tobytes() == predict_mkal(model, test.features, s_test)[0].tobytes()
    assert params == {"p": model.p, "lam": model.lam, "gamma": 0.5}


def test_no_transfer_only_skips_source_training():
    subs = _cohort(seed=5)
    cfg = _small_cfg(methods=("NoTransfer",), size_schedule=(9,), seeds=(0,))
    res = run_experiment(cfg, subs)
    assert res.source_ids == []
    assert {c.method for c in res.cells} == {"NoTransfer"}


def test_oversized_schedule_drops_sizes_with_warning():
    subs = _cohort(seed=6)  # pools of 24
    cfg = _small_cfg(size_schedule=(9, 10_000), seeds=(0,))
    res = run_experiment(cfg, subs)
    assert sorted({c.size for c in res.cells}) == [9]
    assert len(res.warnings) == 3
    for w in res.warnings:
        assert "10000" in w and "24" in w


def test_schedule_beyond_every_pool_fails_before_training_a_source(monkeypatch):
    trained = []
    monkeypatch.setattr(harness, "train_source_model", lambda *args: trained.append(args))
    cfg = _small_cfg(size_schedule=(25, 10_000), seeds=(0,))
    with pytest.raises(ValueError, match="no target pool reaches size 25: the largest has 24 rows"):
        run_experiment(cfg, _cohort(seed=6))  # pools of 24
    assert trained == []


def test_duplicate_subject_ids_rejected():
    subs = _cohort(seed=1)
    subs[1].subject_id = subs[0].subject_id
    with pytest.raises(ValueError):
        run_experiment(_small_cfg(), subs)


# ---------------------------------------------------------------------------
# aggregation


def test_learning_curves_bounds_and_raw():
    subs = _cohort(seed=8)
    res = run_experiment(_small_cfg(), subs)
    curves = learning_curves(res)
    assert set(curves) == {"NoTransfer", "MA"}
    for method, cv in curves.items():
        cells = [c for c in res.cells if c.method == method]
        assert cv.sizes == [9, 18]
        assert len(cells) == 3 * 2 * 2  # targets x seeds x sizes
        for lo, mean, hi in zip(cv.lo, cv.mean, cv.hi):
            assert lo <= mean + 1e-12 and mean <= hi + 1e-12
        # mean of per-target seed-averages, not of raw cells
        for i, size in enumerate(cv.sizes):
            per_target = {}
            for c in cells:
                if c.size == size:
                    per_target.setdefault(c.target_id, []).append(c.accuracy)
            vals = [np.mean(v) for v in per_target.values()]
            assert cv.mean[i] == pytest.approx(np.mean(vals))
            assert cv.lo[i] == pytest.approx(min(vals))
            assert cv.hi[i] == pytest.approx(max(vals))


def test_single_target_curve_collapses_to_point():
    subs = _cohort(seed=9, intact=2, amputee=1)
    cfg = _small_cfg(experiment="AI")
    res = run_experiment(cfg, subs)
    curves = learning_curves(res)
    for cv in curves.values():
        assert cv.lo == cv.mean == cv.hi


def test_pooled_confusion_totals_match_test_counts():
    subs = _cohort(seed=10)
    cfg = _small_cfg()
    res = run_experiment(cfg, subs)
    pools = pooled_confusions(res)
    assert set(pools) == {(m, s) for m in cfg.methods for s in cfg.size_schedule}
    expected_cols = sum(
        np.bincount(s.test.labels, minlength=3) for s in subs
    ) * len(cfg.seeds)
    for cm in pools.values():
        assert_array_equal(cm.counts.sum(axis=0), expected_cols)


# ---------------------------------------------------------------------------
# file outputs


def test_write_run_outputs_and_round_trip(tmp_path):
    subs = _cohort(seed=11)
    cfg = _small_cfg(seeds=(0,))
    res = run_experiment(cfg, subs)
    outdir = tmp_path / "run"
    written = write_run_outputs(res, outdir)
    names = sorted(p.name for p in written)
    assert names == [
        "accuracies.csv",
        "confusion_MA_18.csv",
        "confusion_MA_9.csv",
        "confusion_NoTransfer_18.csv",
        "confusion_NoTransfer_9.csv",
        "curves.csv",
        "manifest.json",
    ]

    pools = pooled_confusions(res)
    for (method, size), cm in pools.items():
        loaded = load_confusion_csv(outdir / f"confusion_{method}_{size}.csv")
        assert_array_equal(loaded.counts, cm.counts)

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "II"
    assert manifest["config"]["seeds"] == [0]
    assert manifest["source_models_trained"] == ["s0", "s1", "s2"]
    assert manifest["subjects"][0] == {"subject_id": "s0", "condition": "intact"}
    assert manifest["warnings"] == []

    again = tmp_path / "again"
    write_run_outputs(res, again)
    for p in written:
        assert (again / p.name).read_bytes() == p.read_bytes()


def test_write_run_outputs_writes_the_expected_text(tmp_path):
    # a result built by hand, its accuracies exact in binary, so no figure depends on BLAS
    cfg = ExperimentConfig(
        "II", methods=("NoTransfer", "MA"), size_schedule=(2, 4), seeds=(0, 1),
        grid=Grid(C_values=(1.0,), gamma_values=(0.5,), folds=2),
        mkal=MkalSelection(p_grid=(1.5,), lambda_grid=(0.25,), epochs_online=1, epochs_batch=2),
        source_train_cap=None,
    )
    cells = [
        CellResult(target, seed, size, method, accuracy, ConfusionMatrix(np.array(counts)), {})
        for target, seed, size, method, accuracy, counts in [
            ("b", 0, 2, "MA", 0.5, [[1, 0], [1, 2]]),
            ("a", 1, 2, "MA", 0.25, [[0, 1], [2, 1]]),
            ("a", 0, 2, "MA", 0.75, [[2, 0], [1, 1]]),
            ("b", 1, 2, "MA", 1.0, [[2, 0], [0, 2]]),
            ("a", 0, 4, "NoTransfer", 0.0, [[0, 2], [2, 0]]),
            ("b", 0, 4, "NoTransfer", 0.5, [[1, 1], [1, 1]]),
            ("a", 1, 4, "NoTransfer", 0.125, [[0, 1], [2, 1]]),
            ("b", 1, 4, "NoTransfer", 1.0, [[2, 0], [0, 2]]),
        ]
    ]
    result = ExperimentResult(cfg, [("a", "intact"), ("b", "intact")], ["a", "b"], cells,
                              ["target b: a warning"])
    manifest = """{
  "config": {
    "base_seed": 0,
    "experiment": "II",
    "grid": {
      "C_values": [
        1.0
      ],
      "folds": 2,
      "gamma_values": [
        0.5
      ],
      "seed": 0
    },
    "jobs": 1,
    "methods": [
      "NoTransfer",
      "MA"
    ],
    "mkal": {
      "epochs_batch": 2,
      "epochs_online": 1,
      "lambda_grid": [
        0.25
      ],
      "p_grid": [
        1.5
      ]
    },
    "seeds": [
      0,
      1
    ],
    "size_schedule": [
      2,
      4
    ],
    "source_train_cap": null
  },
  "source_models_trained": [
    "a",
    "b"
  ],
  "subjects": [
    {
      "condition": "intact",
      "subject_id": "a"
    },
    {
      "condition": "intact",
      "subject_id": "b"
    }
  ],
  "warnings": [
    "target b: a warning"
  ]
}
"""
    expected = {
        # per target the mean over seeds, then the mean, min and max over targets
        "curves.csv": "method,size,mean,min,max\n"
                      "MA,2,0.625,0.5,0.75\n"
                      "NoTransfer,4,0.40625,0.0625,0.75\n",
        "accuracies.csv": "method,size,target,seed_index,accuracy\n"
                          "MA,2,a,0,0.75\nMA,2,a,1,0.25\nMA,2,b,0,0.5\nMA,2,b,1,1.0\n"
                          "NoTransfer,4,a,0,0.0\nNoTransfer,4,a,1,0.125\n"
                          "NoTransfer,4,b,0,0.5\nNoTransfer,4,b,1,1.0\n",
        "confusion_MA_2.csv": "pred\\true,0,1\n0,5,1\n1,4,6\n",
        "confusion_NoTransfer_4.csv": "pred\\true,0,1\n0,3,4\n1,5,4\n",
        "manifest.json": manifest,
    }
    written = write_run_outputs(result, tmp_path)
    assert [p.name for p in written] == list(expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_accuracies_csv_matches_cells(tmp_path):
    subs = _cohort(seed=12)
    res = run_experiment(_small_cfg(seeds=(0,), size_schedule=(9,)), subs)
    write_run_outputs(res, tmp_path)
    lines = (tmp_path / "accuracies.csv").read_text().strip().split("\n")
    assert lines[0] == "method,size,target,seed_index,accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(res.cells)
    recorded = {(m, int(s), t, int(k)): float(a) for m, s, t, k, a in rows}
    for c in res.cells:
        assert recorded[(c.method, c.size, c.target_id, c.seed_index)] == c.accuracy
