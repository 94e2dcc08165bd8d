"""Command-line pipeline: synth -> features -> run -> analyze."""

import inspect
import json
import re
import shutil
import subprocess
import sys

import pytest

from emgadapt import harness, signals, synth
from emgadapt.cli import _floats, _ints, _sizes, main
from emgadapt.harness import ExperimentConfig
from emgadapt.lssvm import spectral_cv_is_cheaper
from emgadapt.signals import WindowSpec

# at least 6 classes so top-4 set comparisons are non-trivial (with 5 or
# fewer, any two top-4 sets overlap in >= 3 classes and always "match")
SYNTH_FLAGS = [
    "--subjects", "3", "--classes", "6", "--channels", "3", "--reps", "3",
    "--movement-ms", "300", "--rest-ms", "200", "--rate-hz", "100",
    "--seed", "5", "--shift", "0.3",
]
RUN_FLAGS = [
    "--experiment", "II", "--methods", "NoTransfer,MA", "--sizes", "8,16",
    "--num-seeds", "1", "--grid-c", "1,10", "--grid-gamma", "0.1,1",
    "--folds", "2", "--source-cap", "none",
]


@pytest.fixture(scope="module")
def arts(tmp_path_factory):
    """One tiny synth -> features -> run -> analyze pipeline, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    cohort = root / "cohort"
    feats = root / "feats"
    assert main(["synth", *SYNTH_FLAGS, "--out-dir", str(cohort)]) == 0
    assert main([
        "features", "--in-dir", str(cohort), "--out-dir", str(feats),
        "--window-ms", "100", "--step-ms", "50", "--test-reps", "3",
    ]) == 0
    manifest = json.loads((feats / "features.json").read_text())
    assert min(e["train_count"] for e in manifest["subjects"]) >= 16

    for name in ("runA", "runB"):
        code = main(["run", "--features", str(feats), "--out-dir", str(root / name), *RUN_FLAGS])
        assert code == 0
    code = main([
        "run", "--features", str(feats), "--out-dir", str(root / "runC"),
        *RUN_FLAGS, "--jobs", "2",
    ])
    assert code == 0

    ana = root / "ana"
    code = main([
        "analyze", "--runs", str(root / "runA"), str(root / "runB"),
        "--out-dir", str(ana),
    ])
    assert code == 0
    return root


# ---------------------------------------------------------------------------
# flag parsing helpers


def test_sizes_parsing():
    assert _sizes("8:24:8") == (8, 16, 24)
    assert _sizes("120:2160:120") == tuple(range(120, 2161, 120))
    assert _sizes("40,80,160") == (40, 80, 160)
    with pytest.raises(ValueError):
        _sizes("8:24")
    with pytest.raises(ValueError):
        _sizes("8:24:0")


def test_number_lists():
    assert _floats("1e-4,0.1") == (1e-4, 0.1)
    assert _ints("5,6") == (5, 6)
    with pytest.raises(ValueError):
        _floats("")
    with pytest.raises(ValueError):
        _ints(", ,")


# ---------------------------------------------------------------------------
# synth / features artifacts


def test_synth_writes_recordings_and_manifest(arts):
    cohort = json.loads((arts / "cohort" / "cohort.json").read_text())
    assert cohort["kind"] == "cohort"
    assert cohort["flags"]["subjects"] == 3
    assert cohort["flags"]["classes"] == 6
    assert len(cohort["subjects"]) == 3
    for entry in cohort["subjects"]:
        assert entry["condition"] in ("intact", "amputee")
        assert (arts / "cohort" / f"{entry['stem']}.json").exists()
        assert (arts / "cohort" / f"{entry['stem']}.csv").exists()


def test_synth_rerun_is_byte_identical(arts, tmp_path):
    assert main(["synth", *SYNTH_FLAGS, "--out-dir", str(tmp_path)]) == 0
    for p in sorted((arts / "cohort").iterdir()):
        assert (tmp_path / p.name).read_bytes() == p.read_bytes()


def test_features_manifest_and_datasets(arts):
    doc = json.loads((arts / "feats" / "features.json").read_text())
    assert doc["kind"] == "features"
    assert doc["test_reps"] == [3]
    assert len(doc["subjects"]) == 3
    for entry in doc["subjects"]:
        assert entry["dim"] == 9  # 3 channels x 3 feature blocks
        assert entry["train_count"] > 0 and entry["test_count"] > 0
        for stem in (entry["train_stem"], entry["test_stem"]):
            assert (arts / "feats" / f"{stem}.csv").exists()
            assert (arts / "feats" / f"{stem}.json").exists()


def test_features_sidecars_name_the_columns_of_either_mode(arts, tmp_path):
    concat = ["mav_ch1", "mav_ch2", "mav_ch3", "var_ch1", "var_ch2", "var_ch3",
              "wl_ch1", "wl_ch2", "wl_ch3"]
    averaged = ["avg_ch1", "avg_ch2", "avg_ch3"]
    assert main([
        "features", "--in-dir", str(arts / "cohort"), "--out-dir", str(tmp_path),
        "--window-ms", "100", "--step-ms", "50", "--test-reps", "3", "--feature-mode", "averaged",
    ]) == 0
    for feats, names in ((arts / "feats", concat), (tmp_path, averaged)):
        for entry in json.loads((feats / "features.json").read_text())["subjects"]:
            for stem in (entry["train_stem"], entry["test_stem"]):
                sidecar = json.loads((feats / f"{stem}.json").read_text())
                assert sidecar == {"feature_names": names, "num_classes": 6}


# ---------------------------------------------------------------------------
# run artifacts


def test_run_writes_expected_files(arts):
    run = arts / "runA"
    expected = {
        "curves.csv", "accuracies.csv", "manifest.json",
        "confusion_NoTransfer_8.csv", "confusion_NoTransfer_16.csv",
        "confusion_MA_8.csv", "confusion_MA_16.csv",
    }
    assert {p.name for p in run.iterdir()} == expected
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "II"
    assert manifest["config"]["size_schedule"] == [8, 16]
    assert manifest["config"]["seeds"] == [0]
    assert manifest["source_models_trained"] == ["s00", "s01", "s02"]


def test_run_rerun_is_byte_identical(arts):
    run_a, run_b = arts / "runA", arts / "runB"
    for p in sorted(run_a.iterdir()):
        assert (run_b / p.name).read_bytes() == p.read_bytes()


def test_parallel_run_differs_only_in_recorded_jobs(arts):
    run_a, run_c = arts / "runA", arts / "runC"
    for p in sorted(run_a.iterdir()):
        if p.suffix == ".csv":
            assert (run_c / p.name).read_bytes() == p.read_bytes()
    ma = json.loads((run_a / "manifest.json").read_text())
    mc = json.loads((run_c / "manifest.json").read_text())
    assert ma["config"].pop("jobs") == 1
    assert mc["config"].pop("jobs") == 2
    assert ma == mc


def test_no_transfer_only_run_trains_no_sources(arts, tmp_path):
    code = main([
        "run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path),
        "--methods", "NoTransfer", "--sizes", "8", "--grid-c", "1",
        "--grid-gamma", "1", "--folds", "2", "--num-seeds", "1",
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["source_models_trained"] == []


# ---------------------------------------------------------------------------
# analyze artifacts


def test_analyze_outputs(arts):
    ana = arts / "ana"
    names = {p.name for p in ana.iterdir()}
    assert "similarity.csv" in names
    assert "correlation.csv" in names
    assert {n for n in names if n.startswith("diff_")} == {
        "diff_MA_8.csv", "diff_MA_16.csv",
        "diff_NoTransfer_8.csv", "diff_NoTransfer_16.csv",
    }

    lines = (ana / "similarity.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "pair"
    assert len(header) == 1 + 8  # 2 runs x 2 methods x 2 sizes
    cell = re.compile(r"^\d+% \(\d+/6\)$")
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == len(header)
        for value in parts[1:]:
            assert cell.match(value), value
    # identical runs: the same (method, size) compared across runs matches fully
    col = header.index("runB:MA:16")
    row = next(line for line in lines[1:] if line.startswith("runA:MA:16,"))
    assert row.split(",")[col] == "100% (6/6)"

    # identical runs: every diff entry is exactly zero
    for name in sorted(n for n in names if n.startswith("diff_")):
        body = (ana / name).read_text().strip().split("\n")[1:]
        for line in body:
            assert all(float(v) == 0.0 for v in line.split(",")[1:])

    lines = (ana / "correlation.csv").read_text().strip().split("\n")
    keys = lines[0].split(",")[1:]
    assert keys == ["runA:MA", "runA:NoTransfer", "runB:MA", "runB:NoTransfer"]
    mat = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    for i in range(4):
        assert mat[i][i] == pytest.approx(1.0)
        for j in range(4):
            assert mat[i][j] == pytest.approx(mat[j][i])
    # runA and runB hold identical matrices, so cross-run cells are exactly 1
    assert mat[0][2] == pytest.approx(1.0)
    assert mat[1][3] == pytest.approx(1.0)


def test_analyze_single_run_skips_diffs(arts, tmp_path):
    code = main(["analyze", "--runs", str(arts / "runA"), "--out-dir", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"similarity.csv", "correlation.csv"}


def test_analyze_corr_size_selection(arts, tmp_path):
    code = main([
        "analyze", "--runs", str(arts / "runA"), "--out-dir", str(tmp_path),
        "--corr-size", "8",
    ])
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--runs", str(arts / "runA"), "--out-dir", str(tmp_path),
              "--corr-size", "999"])
    assert exc.value.code == 2


def test_analyze_with_an_unknown_corr_size_writes_nothing(arts, tmp_path):
    out = tmp_path / "ana"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--runs", str(arts / "runA"), str(arts / "runB"), "--out-dir", str(out),
              "--corr-size", "999"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("again", ["same-text", "dot-path"])
def test_analyze_with_a_run_directory_given_twice_returns_2_and_writes_nothing(
    arts, tmp_path, monkeypatch, capsys, again
):
    monkeypatch.chdir(arts)
    out = tmp_path / "ana"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--runs", "runA", {"same-text": "runA", "dot-path": "./runA"}[again],
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "run directory runA is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_of_fewer_than_4_classes_writes_nothing(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "confusion_MA_8.csv").write_text("pred\\true,0,1,2\n0,3,1,0\n1,0,4,1\n2,1,0,3\n")
    out = tmp_path / "ana"
    assert main(["analyze", "--runs", str(run), "--out-dir", str(out)]) == 2
    assert "top-4 overlap needs at least 4 classes" in capsys.readouterr().err
    assert not out.exists()


def _matrix_csv(rows: list[str]) -> str:
    return "pred\\true,0,1,2,3,4,5\n" + "".join(f"{r},{row}\n" for r, row in enumerate(rows))


def test_analyze_writes_the_expected_text(tmp_path):
    # every column sums to 4, so normalized entries and diffs are exact in binary; the recognition
    # rates are 0.75 + 0.25 v (runA:MA), 0.75 - 0.25 v (runB:MA) and 0.5 + 0.25 v (runB:NoTransfer)
    # with v = (1, -1, 1, -1, 0, 0), and 1 for every class of runA:NoTransfer: correlations are +-1 or nan
    runs = {
        "runA": {
            "MA_8": ["4,0,0,0,0,0", "0,2,0,0,0,0", "0,0,4,0,0,0", "0,0,0,2,0,0", "0,0,0,0,3,1",
                     "0,2,0,2,1,3"],
            "NoTransfer_8": ["4,0,0,0,0,0", "0,4,0,0,0,0", "0,0,4,0,0,0", "0,0,0,4,0,0",
                             "0,0,0,0,4,0", "0,0,0,0,0,4"],
        },
        "runB": {
            "MA_8": ["2,0,0,0,0,0", "0,4,0,0,0,0", "0,0,2,0,0,1", "0,0,1,4,1,0", "1,0,1,0,3,0",
                     "1,0,0,0,0,3"],
            "NoTransfer_16": ["3,0,0,1,0,0", "0,1,0,0,0,2", "0,0,3,0,0,0", "0,1,0,1,2,0",
                              "0,1,1,1,2,0", "1,1,0,1,0,2"],
        },
    }
    for run, matrices in runs.items():
        (tmp_path / run).mkdir()
        for key, rows in matrices.items():
            (tmp_path / run / f"confusion_{key}.csv").write_text(_matrix_csv(rows))
    out = tmp_path / "ana"
    assert main(["analyze", "--runs", str(tmp_path / "runA"), str(tmp_path / "runB"),
                 "--out-dir", str(out)]) == 0
    expected = {
        "correlation.csv": "pair,runA:MA,runA:NoTransfer,runB:MA,runB:NoTransfer\n"
                           "runA:MA,1.0,nan,-1.0,1.0\n"
                           "runA:NoTransfer,nan,1.0,nan,nan\n"
                           "runB:MA,-1.0,nan,1.0,-1.0\n"
                           "runB:NoTransfer,1.0,nan,-1.0,1.0\n",
        "diff_MA_8.csv": _matrix_csv(["0.5,0.0,0.0,0.0,0.0,0.0", "0.0,-0.5,0.0,0.0,0.0,0.0",
                                      "0.0,0.0,0.5,0.0,0.0,-0.25", "0.0,0.0,-0.25,-0.5,-0.25,0.0",
                                      "-0.25,0.0,-0.25,0.0,0.0,0.25", "-0.25,0.5,0.0,0.5,0.25,0.0"]),
        "similarity.csv": "pair,runA:MA:8,runA:NoTransfer:8,runB:MA:8,runB:NoTransfer:16\n"
                          "runA:MA:8,100% (6/6),100% (6/6),83% (5/6),83% (5/6)\n"
                          "runA:NoTransfer:8,100% (6/6),100% (6/6),83% (5/6),67% (4/6)\n"
                          "runB:MA:8,83% (5/6),83% (5/6),100% (6/6),67% (4/6)\n"
                          "runB:NoTransfer:16,83% (5/6),67% (4/6),67% (4/6),100% (6/6)\n",
    }
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name


# ---------------------------------------------------------------------------
# config files and error handling


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "subjects": 2, "classes": 3, "channels": 3, "reps": 2,
        "movement_ms": 300, "rest_ms": 200, "rate_hz": 100,
    }))
    out = tmp_path / "cohort"
    code = main(["synth", "--config", str(config), "--subjects", "3",
                 "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "cohort.json").read_text())
    assert doc["flags"]["subjects"] == 3      # explicit flag beats config
    assert doc["flags"]["classes"] == 3       # config beats default
    assert doc["flags"]["noise_floor"] == 0.15  # untouched default


def test_config_path_that_is_a_directory_returns_2(tmp_path, capsys):
    code = main(["synth", "--config", str(tmp_path), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"clazzes": 3}))
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_removed_mkal_epoch_flag_exits_2(arts, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path / "o"),
              *RUN_FLAGS, "--mkal-epochs-online", "3"])
    assert exc.value.code == 2
    assert "--mkal-epochs-online" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_holding_a_removed_mkal_epoch_key_exits_2(arts, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mkal_epochs_batch": 4}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--features", str(arts / "feats"),
              "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert exc.value.code == 2
    assert "unknown config keys: mkal_epochs_batch" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out-dir", str(tmp_path)])  # no --features
    assert exc.value.code == 2


def test_config_can_satisfy_required_flags(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "cohort"), "subjects": 2, "classes": 3,
        "channels": 3, "reps": 2, "movement_ms": 300, "rest_ms": 200,
        "rate_hz": 100,
    }))
    assert main(["synth", "--config", str(config)]) == 0
    assert (tmp_path / "cohort" / "cohort.json").exists()


def test_config_numbers_write_the_same_cohort_as_flags(arts, tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "subjects": 3, "classes": 6, "channels": 3, "reps": 3, "movement_ms": 300,
        "rest_ms": 200, "rate_hz": 100, "seed": 5, "shift": 0.3,
    }))
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "c")]) == 0
    for p in sorted((arts / "cohort").iterdir()):
        assert (tmp_path / "c" / p.name).read_bytes() == p.read_bytes()


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("analyze", {"runs": "abc"}, "config key 'runs' must be a list"),
        ("analyze", {"runs": None}, "config key 'runs' must be a list"),
        ("analyze", {"runs": ["a", None]}, "config key 'runs' must be a string or a number"),
        ("synth", {"subjects": None}, "config key 'subjects' must be a string or a number"),
        ("synth", {"subjects": True}, "config key 'subjects' must be a string or a number"),
        ("run", {"grid_c": [1, 10]}, "config key 'grid_c' must be a string or a number"),
    ],
    ids=["runs-string", "runs-null", "runs-null-entry", "null", "bool", "list"],
)
def test_config_value_of_the_wrong_kind_exits_2(tmp_path, capsys, command, doc, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**doc, "out_dir": str(tmp_path / "o")}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_value_its_flag_rejects_returns_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"classes": 6.5}))
    code = main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "argument --classes: invalid int value: '6.5'" in capsys.readouterr().err


def test_run_without_features_manifest_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--features", str(empty), "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_value_errors_return_2(arts, tmp_path, capsys):
    code = main([
        "run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path),
        "--sizes", "8:24",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_duplicate_methods_return_2(arts, tmp_path, capsys):
    code = main([
        "run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path),
        *RUN_FLAGS, "--methods", "MA,MA",
    ])
    assert code == 2
    assert "duplicates" in capsys.readouterr().err


@pytest.mark.parametrize("spectral", [True, False], ids=["spectral", "direct"])
@pytest.mark.parametrize(
    "method, gamma, top_C, cap, where",
    [
        # a tiny gamma makes the 16-row Gram nearly rank one
        ("NoTransfer", "0.000001", "1e15", "none", "(C, gamma) selection at size 16 (target "),
        # 12 score features for 16 rows: the linear Gram is rank deficient,
        # while the 12-row gaussian source models clear 1/C = 1e-13
        ("PriorFeatures", "1", "1e13", "12", "PriorFeatures at size 16 (target "),
        # 1/C = 1e-15 is below 2 n eps trace(K) = 2 n^2 eps for any gaussian Gram of 2+ rows
        ("PriorFeatures", "1", "1e15", "none", "source model s01: "),
    ],
    ids=["NoTransfer", "PriorFeatures", "PriorFeatures-sources"],
)
def test_numerical_error_in_cross_validation_returns_2(
    arts, tmp_path, capsys, method, gamma, top_C, cap, where, spectral
):
    # either CV path rejects the top C, so the path decides the speed only
    folds, grid_c = ("5", f"0.01,0.1,1,10,100,{top_C}") if spectral else ("3", f"0.01,1,{top_C}")
    assert spectral_cv_is_cheaper(int(folds), len(grid_c.split(","))) == spectral
    code = main([
        "run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path),
        "--experiment", "II", "--methods", method, "--sizes", "16", "--folds", folds,
        "--grid-c", grid_c, "--grid-gamma", gamma, "--source-cap", cap,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert "singular to working precision" in err


class _Captured(Exception):
    pass


def test_run_defaults_equal_the_library_defaults(arts, tmp_path, monkeypatch):
    seen = []

    def capture(cfg, subjects):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(harness, "run_experiment", capture)
    with pytest.raises(_Captured):
        main(["run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path)])
    assert seen == [ExperimentConfig(experiment="II")]


def _bound_defaults_differ(fn, args, kwargs) -> list[str]:
    """The defaulted parameters of `fn` that a call passed a different value or type for."""
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    return [
        name for name, p in sig.parameters.items()
        if p.default is not p.empty and (
            bound.arguments.get(name, p.default) != p.default
            or type(bound.arguments.get(name, p.default)) is not type(p.default)
        )
    ]


def test_synth_and_features_defaults_equal_the_library_defaults(arts, tmp_path, monkeypatch):
    real_cohort, real_recording = synth.generate_cohort, synth.generate_recording
    differ = {}

    def cohort(*args, **kwargs):
        differ["generate_cohort"] = _bound_defaults_differ(real_cohort, args, kwargs)
        return real_cohort(*args, **kwargs)

    def recording(*args, **kwargs):
        differ["generate_recording"] = _bound_defaults_differ(real_recording, args, kwargs)
        raise _Captured

    monkeypatch.setattr(synth, "generate_cohort", cohort)
    monkeypatch.setattr(synth, "generate_recording", recording)
    with pytest.raises(_Captured):
        main(["synth", "--out-dir", str(tmp_path / "c")])

    real_build = signals.build_subject_datasets
    seen = []

    def build(rec, spec, *args, **kwargs):
        seen.append(spec)
        differ["build_subject_datasets"] = _bound_defaults_differ(real_build, (rec, spec, *args), kwargs)
        raise _Captured

    monkeypatch.setattr(signals, "build_subject_datasets", build)
    with pytest.raises(_Captured):
        main(["features", "--in-dir", str(arts / "cohort"), "--out-dir", str(tmp_path / "f")])
    assert seen == [WindowSpec()]
    assert differ == {"generate_cohort": [], "generate_recording": [], "build_subject_datasets": []}


def test_sidecars_that_still_hold_norm_stats_load_and_run(arts, tmp_path):
    # older versions wrote the normalizer into every sidecar; it is ignored, malformed or not
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    entries = json.loads((feats / "features.json").read_text())["subjects"]
    stems = [e[k] for e in entries for k in ("train_stem", "test_stem")]
    for i, stem in enumerate(stems):
        doc = json.loads((feats / f"{stem}.json").read_text())
        d = len(doc["feature_names"])
        doc["norm_stats"] = {"std": [1.0] * (d - 1)} if i == 0 else {"mean": [0.0] * d, "std": [1.0] * d}
        (feats / f"{stem}.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    out = tmp_path / "run"
    assert main(["run", "--features", str(feats), "--out-dir", str(out), *RUN_FLAGS]) == 0
    for p in sorted((arts / "runA").iterdir()):
        assert (out / p.name).read_bytes() == p.read_bytes()


def test_truncated_feature_csv_returns_2(arts, tmp_path, capsys):
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    csv_path = feats / "s00_train.csv"
    lines = csv_path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    csv_path.write_text("\n".join(lines) + "\n")
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    assert "s00_train.csv line 3" in capsys.readouterr().err


def test_split_with_no_feature_columns_returns_2(arts, tmp_path, capsys):
    # every split keeps its labels but no feature column: no model can be trained on that
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    for entry in json.loads((feats / "features.json").read_text())["subjects"]:
        for stem in (entry["train_stem"], entry["test_stem"]):
            sidecar = feats / f"{stem}.json"
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "feature_names": []}))
            rows = (feats / f"{stem}.csv").read_text().splitlines()[1:]
            labels = [row.rsplit(",", 1)[1] for row in rows]
            (feats / f"{stem}.csv").write_text("\n".join(["label", *labels]) + "\n")
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    assert "error: " in (err := capsys.readouterr().err)
    assert "s00_train.json: key 'feature_names' must be a non-empty list of strings" in err


def test_features_whose_squared_norms_overflow_return_2(arts, tmp_path, capsys):
    # finite values near 1e160: every squared row norm overflows
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    for entry in json.loads((feats / "features.json").read_text())["subjects"]:
        stem = feats / entry["train_stem"]
        ds = signals.load_dataset(stem)
        names = json.loads(stem.with_suffix(".json").read_text())["feature_names"]
        signals.save_dataset(signals.Dataset(ds.features * 1e160 + 1e160, ds.labels, ds.num_classes), stem, names)
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kernel inputs overflow" in err


def test_empty_feature_csv_returns_2(arts, tmp_path, capsys):
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    (feats / "s00_train.csv").write_text("")
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    assert "s00_train.csv: empty CSV, no header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("pred\\true,0,1,2\n0,3,1\n1,0,4\n", ": 2 rows, header has 3 classes"),
        ("pred\\true,0,1\n0,3,1.5\n1,0,4\n", " line 2: counts must be non-negative integers"),
        ("pred\\true,0,1\n0,3,1\n1,0\n", " line 3: 1 counts, header has 2 classes"),
        ("pred\\true,0,1\n1,3,1\n0,0,4\n", " line 2: row label '1', expected 0"),
        ("pred\\true,1,2\n0,3,1\n1,0,4\n", " line 1: header must name the true classes 0..G-1"),
    ],
    ids=["header-wider-than-body", "non-integer-count", "short-row", "rows-out-of-order", "bad-header"],
)
def test_malformed_confusion_csv_returns_2(tmp_path, capsys, body, message):
    run = tmp_path / "run"
    run.mkdir()
    (run / "confusion_MA_8.csv").write_text(body)
    code = main(["analyze", "--runs", str(run), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "confusion_MA_8.csv" + message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["confusion_MA_x.csv", "confusion_M_A_8.csv"])
def test_stray_confusion_file_name_returns_2(arts, tmp_path, capsys, name):
    run = tmp_path / "run"
    shutil.copytree(arts / "runA", run)
    shutil.copy(run / "confusion_MA_8.csv", run / name)
    code = main(["analyze", "--runs", str(run), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def test_json_header_without_a_required_key_returns_2(arts, tmp_path, capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    doc = json.loads((cohort / "s00.json").read_text())
    del doc["channels"]
    (cohort / "s00.json").write_text(json.dumps(doc))
    code = main(["features", "--in-dir", str(cohort), "--out-dir", str(tmp_path / "f")])
    assert code == 2
    assert "s00.json: missing key 'channels'" in capsys.readouterr().err

    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    doc = json.loads((feats / "s00_train.json").read_text())
    del doc["num_classes"]
    (feats / "s00_train.json").write_text(json.dumps(doc))
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    assert "s00_train.json: missing key 'num_classes'" in capsys.readouterr().err


def test_json_header_value_of_the_wrong_type_returns_2(arts, tmp_path, capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    doc = json.loads((cohort / "s00.json").read_text())
    doc["channels"] = str(doc["channels"])
    (cohort / "s00.json").write_text(json.dumps(doc))
    code = main(["features", "--in-dir", str(cohort), "--out-dir", str(tmp_path / "f")])
    assert code == 2
    assert "s00.json: key 'channels' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_recording_sample_returns_2(arts, tmp_path, capsys, value):
    cohort = tmp_path / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    csv_path = cohort / "s01.csv"
    lines = csv_path.read_text().splitlines()
    lines[5] = ",".join([value] + lines[5].split(",")[1:])
    csv_path.write_text("\n".join(lines) + "\n")
    code = main([
        "features", "--in-dir", str(cohort), "--out-dir", str(tmp_path / "f"), "--test-reps", "3",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "samples contain non-finite values" in err
    assert "s01.csv line 6" in err


def _cohort_with_a_bad_float_in_its_last_recording(arts, tmp_path):
    cohort = tmp_path / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    csv_path = cohort / "s02.csv"
    lines = csv_path.read_text().splitlines()
    lines[5] = ",".join(["0.5x"] + lines[5].split(",")[1:])
    csv_path.write_text("\n".join(lines) + "\n")
    return cohort


def test_features_failing_on_a_later_subject_leave_no_out_dir(arts, tmp_path, capsys):
    cohort = _cohort_with_a_bad_float_in_its_last_recording(arts, tmp_path)
    out = tmp_path / "new" / "f"
    code = main(["features", "--in-dir", str(cohort), "--out-dir", str(out), "--test-reps", "3"])
    assert code == 2
    assert "s02.csv line 6" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()  # s00 and s01 were written before s02 failed


def test_features_failing_keep_what_the_out_dir_held_before(arts, tmp_path, capsys):
    cohort = _cohort_with_a_bad_float_in_its_last_recording(arts, tmp_path)
    out = tmp_path / "f"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    code = main(["features", "--in-dir", str(cohort), "--out-dir", str(out), "--test-reps", "3"])
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "mine\n"


@pytest.mark.parametrize(
    "test_reps, message",
    [
        ("5,6", "recording s00: test repetitions (5, 6) leave the test split empty; "
                "it holds repetitions 1, 2, 3"),
        ("1,2,3", "recording s00: test repetitions (1, 2, 3) leave the training split empty; "
                  "it holds repetitions 1, 2, 3"),
    ],
    ids=["test-side", "training-side"],
)
def test_features_with_an_empty_split_name_the_recording_and_write_nothing(
    arts, tmp_path, capsys, test_reps, message
):
    out = tmp_path / "f"
    code = main(["features", "--in-dir", str(arts / "cohort"), "--out-dir", str(out),
                 "--test-reps", test_reps])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _infinite_sidecar_rate(arts, tmp_path):
    cohort = tmp_path / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    doc = json.loads((cohort / "s00.json").read_text())
    doc["sampling_rate_hz"] = float("inf")  # written as Infinity, which json reads back
    (cohort / "s00.json").write_text(json.dumps(doc))
    return ["features", "--in-dir", str(cohort), "--out-dir", str(tmp_path / "f"), "--test-reps", "3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda arts, tmp: ["synth", *SYNTH_FLAGS, "--rate-hz", "inf", "--out-dir", str(tmp / "c")],
         "not a finite number of samples"),
        (lambda arts, tmp: ["features", "--in-dir", str(arts / "cohort"), "--out-dir", str(tmp / "f"),
                            "--window-ms", "inf", "--test-reps", "3"],
         "not a finite number of samples"),
        (_infinite_sidecar_rate, "s00.json: sampling_rate_hz must be > 0 and finite, got inf"),
    ],
    ids=["synth-rate-hz", "features-window-ms", "recording-sidecar-rate"],
)
def test_non_finite_time_value_returns_2(arts, tmp_path, capsys, argv, message):
    code = main(argv(arts, tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--shift", "nan", "shift_strength must be >= 0 and finite, got nan"),
        ("--shift", "inf", "shift_strength must be >= 0 and finite, got inf"),
        ("--noise-floor", "inf", "noise_floor must be > 0 and finite, got inf"),
        ("--rep-variability", "nan", "rep_variability must be >= 0 and finite, got nan"),
        ("--rep-variability", "inf", "rep_variability must be >= 0 and finite, got inf"),
        # the cohort has no amputee, so no subject would ever receive the value
        ("--amputee-degradation", "nan", "amputee_degradation must lie in [0, 1), got nan"),
        ("--profile-min", "nan", "profile_range must be finite, got (nan, 1.9)"),
        ("--profile-max", "inf", "profile_range must be finite, got (0.6, inf)"),
    ],
    ids=["shift-nan", "shift-inf", "noise-floor-inf", "rep-variability-nan", "rep-variability-inf",
         "amputee-degradation-nan", "profile-min-nan", "profile-max-inf"],
)
def test_synth_names_a_non_finite_setting_and_writes_nothing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "c"
    assert main(["synth", *SYNTH_FLAGS, flag, value, "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_subject_with_an_unknown_condition_returns_2(arts, tmp_path, capsys):
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    doc = json.loads((feats / "features.json").read_text())
    doc["subjects"][1]["condition"] = "Intact"
    (feats / "features.json").write_text(json.dumps(doc))
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    sid = doc["subjects"][1]["subject_id"]
    assert f"error: subject {sid}: condition must be one of" in capsys.readouterr().err


def test_window_shorter_than_two_samples_returns_2(arts, tmp_path, capsys):
    # 10 ms at the cohort's 100 Hz is one sample per window
    code = main([
        "features", "--in-dir", str(arts / "cohort"), "--out-dir", str(tmp_path / "f"),
        "--window-ms", "10", "--step-ms", "10", "--test-reps", "3",
    ])
    assert code == 2
    assert "at least 2 samples" in capsys.readouterr().err


@pytest.mark.parametrize("grid_flag", [["--grid-gamma", "inf"], ["--grid-c", "1,nan"], ["--grid-c", "1,1"]])
def test_non_finite_or_duplicate_grid_value_returns_2(arts, tmp_path, capsys, grid_flag):
    code = main([
        "run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path / "o"),
        *RUN_FLAGS, *grid_flag,
    ])
    assert code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mkal_p, message", [("3", "p must lie in (1, 2]"), ("1.5,1.5", "p_grid contains duplicates")]
)
def test_invalid_mkal_p_grid_returns_2(arts, tmp_path, capsys, mkal_p, message):
    code = main([
        "run", "--features", str(arts / "feats"), "--out-dir", str(tmp_path / "o"),
        *RUN_FLAGS, "--mkal-p", mkal_p,
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_entry_without_a_required_key_returns_2(arts, tmp_path, capsys):
    feats = tmp_path / "feats"
    shutil.copytree(arts / "feats", feats)
    doc = json.loads((feats / "features.json").read_text())
    del doc["subjects"][1]["condition"]
    (feats / "features.json").write_text(json.dumps(doc))
    code = main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 2
    assert "features.json: subject entry 1 lacks key 'condition'" in capsys.readouterr().err

    cohort = tmp_path / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    doc = json.loads((cohort / "cohort.json").read_text())
    del doc["subjects"][0]["stem"]
    (cohort / "cohort.json").write_text(json.dumps(doc))
    code = main(["features", "--in-dir", str(cohort), "--out-dir", str(tmp_path / "f")])
    assert code == 2
    assert "cohort.json: subject entry 0 lacks key 'stem'" in capsys.readouterr().err


def test_dotted_subject_ids_keep_every_split_in_its_own_files(arts, tmp_path):
    # a dot in an id stays in its file names: three subjects give six split pairs
    cohort, feats = tmp_path / "cohort", tmp_path / "feats"
    shutil.copytree(arts / "cohort", cohort)
    doc = json.loads((cohort / "cohort.json").read_text())
    for i, entry in enumerate(doc["subjects"]):
        entry["subject_id"] = f"p.{i + 1}"
    (cohort / "cohort.json").write_text(json.dumps(doc))
    assert main(["features", "--in-dir", str(cohort), "--out-dir", str(feats),
                 "--window-ms", "100", "--step-ms", "50", "--test-reps", "3"]) == 0
    manifest = json.loads((feats / "features.json").read_text())
    splits = [f"p.{i}_{part}" for i in (1, 2, 3) for part in ("train", "test")]
    assert sorted(p.name for p in feats.iterdir()) == sorted(
        ["features.json", *(f"{stem}{ext}" for stem in splits for ext in (".csv", ".json"))]
    )
    for entry in manifest["subjects"]:
        for part in ("train", "test"):
            assert len(signals.load_dataset(feats / entry[f"{part}_stem"])) == entry[f"{part}_count"]
    assert main(["run", "--features", str(feats), "--out-dir", str(tmp_path / "o"), *RUN_FLAGS]) == 0


@pytest.mark.parametrize("subject_id", [".", "..", "../x", "a/b", "/x"])
def test_subject_id_that_cannot_name_a_file_returns_2(arts, tmp_path, capsys, subject_id):
    cohort = tmp_path / "in" / "cohort"
    shutil.copytree(arts / "cohort", cohort)
    doc = json.loads((cohort / "cohort.json").read_text())
    doc["subjects"][1]["subject_id"] = subject_id
    (cohort / "cohort.json").write_text(json.dumps(doc))
    out = tmp_path / "in" / "f"
    code = main(["features", "--in-dir", str(cohort), "--out-dir", str(out), "--test-reps", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cohort / 'cohort.json'}: subject_id {subject_id!r} cannot name a file" in err
    assert not out.exists() and sorted(p.name for p in (tmp_path / "in").iterdir()) == ["cohort"]


def _edited_manifest_argv(arts, tmp_path, manifest, edit):
    """Argv of the command that reads a copy of `manifest` after `edit(doc)`, and its out dir:
    `run` for features.json, `features` for cohort.json."""
    indir, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(arts / ("feats" if manifest == "features.json" else "cohort"), indir)
    doc = json.loads((indir / manifest).read_text())
    edit(doc)
    (indir / manifest).write_text(json.dumps(doc))
    if manifest == "features.json":
        return ["run", "--features", str(indir), "--out-dir", str(out), *RUN_FLAGS], indir / manifest, out
    return ["features", "--in-dir", str(indir), "--out-dir", str(out), "--test-reps", "3"], indir / manifest, out


@pytest.mark.parametrize("manifest", ["cohort.json", "features.json"])
def test_manifest_that_repeats_a_subject_id_returns_2_and_writes_nothing(arts, tmp_path, capsys, manifest):
    def repeat_first_id(doc):
        doc["subjects"][1]["subject_id"] = doc["subjects"][0]["subject_id"]

    argv, path, out = _edited_manifest_argv(arts, tmp_path, manifest, repeat_first_id)
    assert main(argv) == 2
    assert f"{path}: subject entry 1 repeats subject_id 's00'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest, key, value",
    [
        ("features.json", "train_stem", 5),
        ("features.json", "test_stem", None),
        ("features.json", "subject_id", 7),
        ("features.json", "subject_id", ["a"]),
        ("cohort.json", "stem", 3),
        ("cohort.json", "subject_id", 3),
        ("cohort.json", "subject_id", ""),
    ],
    ids=["train-stem-int", "test-stem-null", "id-int", "id-list", "stem-int", "cohort-id-int", "cohort-id-empty"],
)
def test_manifest_value_that_is_not_a_non_empty_string_returns_2(arts, tmp_path, capsys, manifest, key, value):
    def set_value(doc):
        doc["subjects"][1][key] = value

    argv, path, out = _edited_manifest_argv(arts, tmp_path, manifest, set_value)
    assert main(argv) == 2
    assert f"{path}: subject entry 1: {key} must be a non-empty string, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def _features_argv(tmp):
    return ["features", "--in-dir", tmp / "cohort", "--out-dir", tmp / "o", "--test-reps", "3"]


def _run_argv(tmp):
    return ["run", "--features", tmp / "feats", "--out-dir", tmp / "o", *RUN_FLAGS]


@pytest.mark.parametrize(
    "argv, relative",
    [
        (_features_argv, "cohort/s01.json"),
        (_run_argv, "feats/s01_test.json"),
        (_features_argv, "cohort/cohort.json"),
        (_run_argv, "feats/features.json"),
        (lambda tmp: ["synth", "--config", tmp / "config.json", "--out-dir", tmp / "o"], "config.json"),
    ],
    ids=["recording-sidecar", "feature-sidecar", "cohort-manifest", "features-manifest", "config"],
)
def test_unparsable_json_returns_2_naming_its_file(arts, tmp_path, capsys, argv, relative):
    for name in ("cohort", "feats"):
        shutil.copytree(arts / name, tmp_path / name)
    path = tmp_path / relative
    path.write_text('{"subjects": [],}')  # the trailing comma is what json rejects
    assert main([str(a) for a in argv(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON: Expecting property name"), err


def test_missing_input_dir_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "features", "--in-dir", str(tmp_path / "nope"), "--out-dir",
            str(tmp_path / "o"),
        ])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "emgadapt.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("synth", "features", "run", "analyze"):
        assert sub in proc.stdout
