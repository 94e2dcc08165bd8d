"""Command-line front end: synth -> features -> run -> analyze.

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys mirror the long flag names (dashes as underscores).  Explicit flags
win over the config file, which wins over built-in defaults.  Commands are
deterministic: the same flags and seeds always produce byte-identical
output files.  Human-readable progress goes to stdout; machine-readable
results only to files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, signals, synth
from .analysis import confusion_diff, recognition_correlation, similarity_cell, top4_similarity
from .harness import EXPERIMENTS, METHODS, ExperimentConfig, MkalSelection, SubjectData
from .model_selection import Grid
from .signals import (
    WindowSpec, format_float, load_dataset, load_recording, save_dataset, save_recording,
)


def _floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(x) for x in str(text).split(",") if x.strip())
    if not vals:
        raise ValueError(f"empty number list: {text!r}")
    return vals


def _ints(text: str) -> tuple[int, ...]:
    vals = tuple(int(x) for x in str(text).split(",") if x.strip())
    if not vals:
        raise ValueError(f"empty integer list: {text!r}")
    return vals


def _sizes(text: str) -> tuple[int, ...]:
    """Training-size schedule: 'start:stop:step' (inclusive) or 'a,b,c'."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"size range must be start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0:
            raise ValueError("size range step must be positive")
        return tuple(range(start, stop + 1, step))
    return _ints(text)


def _manifest_subjects(path: Path, keys: tuple[str, ...]) -> list[dict]:
    """The `subjects` entries of a cohort or features manifest, each holding `keys`."""
    doc = json.loads(path.read_text())
    entries = doc.get("subjects") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: missing key 'subjects'")
    for i, entry in enumerate(entries):
        for key in keys:
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{path}: subject entry {i} lacks key {key!r}")
    return entries


# ---------------------------------------------------------------------------
# flag/config merging


def _merge_options(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    defaults: dict,
    required: tuple[str, ...],
) -> dict:
    """defaults < config file < explicit flags; then check required keys."""
    merged = dict(defaults)
    merged.update({k: None for k in required if k not in merged})
    if args.config is not None:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            parser.error(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(doc) - set(merged))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")
        merged.update(doc)
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    missing = [k for k in required if merged.get(k) is None]
    if missing:
        parser.error("missing required options: " + ", ".join(f"--{k.replace('_', '-')}" for k in missing))
    return merged


# ---------------------------------------------------------------------------
# synth


SYNTH_DEFAULTS = {
    "subjects": 4,
    "classes": 8,
    "channels": 8,
    "seed": 0,
    "shift": 0.3,
    "amputee_fraction": 0.0,
    "amputee_degradation": 0.2,
    "noise_floor": 0.15,
    "profile_min": 0.6,
    "profile_max": 1.9,
    "rep_variability": 0.0,
    "reps": 6,
    "movement_ms": 3000.0,
    "rest_ms": 1500.0,
    "rate_hz": 100.0,
}


def cmd_synth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    opts = _merge_options(args, parser, SYNTH_DEFAULTS, required=("out_dir",))
    specs = synth.generate_cohort(
        int(opts["subjects"]),
        base_seed=int(opts["seed"]),
        shift_strength=float(opts["shift"]),
        amputee_fraction=float(opts["amputee_fraction"]),
        num_classes=int(opts["classes"]),
        channels=int(opts["channels"]),
        noise_floor=float(opts["noise_floor"]),
        amputee_degradation=float(opts["amputee_degradation"]),
        profile_range=(float(opts["profile_min"]), float(opts["profile_max"])),
        rep_variability=float(opts["rep_variability"]),
    )
    outdir = Path(opts["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for spec in specs:
        rec = synth.generate_recording(
            spec,
            reps=int(opts["reps"]),
            movement_ms=float(opts["movement_ms"]),
            rest_ms=float(opts["rest_ms"]),
            rate_hz=float(opts["rate_hz"]),
        )
        save_recording(rec, outdir / spec.subject_id)
        entries.append(
            {
                "subject_id": spec.subject_id,
                "condition": spec.condition,
                "stem": spec.subject_id,
                "num_classes": spec.num_classes,
                "channels": spec.channels,
            }
        )
    manifest = {
        "kind": "cohort",
        "flags": {k: opts[k] for k in SYNTH_DEFAULTS},
        "subjects": entries,
    }
    (outdir / "cohort.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(entries)} recordings and cohort.json to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# features


FEATURES_DEFAULTS = {
    "window_ms": 200.0,
    "step_ms": 10.0,
    "feature_mode": "concat",
    "test_reps": "5,6",
}


def cmd_features(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    opts = _merge_options(args, parser, FEATURES_DEFAULTS, required=("in_dir", "out_dir"))
    indir = Path(opts["in_dir"])
    manifest_path = indir / "cohort.json"
    if manifest_path.exists():
        cohort = _manifest_subjects(manifest_path, ("subject_id", "stem"))
        stems = [(e["subject_id"], e["stem"]) for e in cohort]
    else:
        stems = sorted(
            (p.stem, p.stem) for p in indir.glob("*.json") if p.with_suffix(".csv").exists()
        )
    if not stems:
        parser.error(f"no recordings found under {indir}")

    spec = WindowSpec(window_ms=float(opts["window_ms"]), step_ms=float(opts["step_ms"]))
    test_reps = _ints(opts["test_reps"])
    outdir = Path(opts["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for subject_id, stem in stems:
        rec = load_recording(indir / stem)
        train, test = signals.build_subject_datasets(
            rec, spec, test_reps=test_reps, feature_mode=str(opts["feature_mode"])
        )
        save_dataset(train, outdir / f"{subject_id}_train")
        save_dataset(test, outdir / f"{subject_id}_test")
        entries.append(
            {
                "subject_id": subject_id,
                "condition": rec.condition,
                "train_stem": f"{subject_id}_train",
                "test_stem": f"{subject_id}_test",
                "num_classes": rec.num_classes,
                "dim": train.dim,
                "train_count": len(train),
                "test_count": len(test),
            }
        )
    manifest = {
        "kind": "features",
        "window_ms": float(opts["window_ms"]),
        "step_ms": float(opts["step_ms"]),
        "feature_mode": str(opts["feature_mode"]),
        "test_reps": list(test_reps),
        "subjects": entries,
    }
    (outdir / "features.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    total = sum(e["train_count"] + e["test_count"] for e in entries)
    print(f"wrote datasets for {len(entries)} subjects ({total} windows) to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# run


RUN_DEFAULTS = {
    "experiment": "II",
    "methods": "all",
    "sizes": "120:2160:120",
    "num_seeds": 1,
    "base_seed": 0,
    "grid_c": "0.01,0.1,1,10,100,1000",
    "grid_gamma": "0.01,0.1,1,10,100,1000",
    "folds": 5,
    "mkal_p": "1.05,1.25,1.5,2.0",
    "mkal_lambda": "1e-4,1e-3,1e-2,1e-1",
    "mkal_epochs_online": 5,
    "mkal_epochs_batch": 20,
    "source_cap": 1000,
    "jobs": 1,
}


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    opts = _merge_options(args, parser, RUN_DEFAULTS, required=("features", "out_dir"))
    fdir = Path(opts["features"])
    manifest_path = fdir / "features.json"
    if not manifest_path.exists():
        parser.error(f"{manifest_path} not found; run the features command first")
    entries = _manifest_subjects(
        manifest_path, ("subject_id", "condition", "train_stem", "test_stem")
    )
    subjects = [
        SubjectData(
            subject_id=e["subject_id"],
            condition=e["condition"],
            train=load_dataset(fdir / e["train_stem"]),
            test=load_dataset(fdir / e["test_stem"]),
        )
        for e in entries
    ]

    methods = METHODS if str(opts["methods"]).lower() == "all" else tuple(str(opts["methods"]).split(","))
    cap = opts["source_cap"]
    cap = None if cap in (None, 0, "0", "none", "None") else int(cap)
    cfg = ExperimentConfig(
        experiment=str(opts["experiment"]),
        methods=methods,
        size_schedule=_sizes(opts["sizes"]),
        seeds=tuple(range(int(opts["num_seeds"]))),
        grid=Grid(
            C_values=_floats(opts["grid_c"]),
            gamma_values=_floats(opts["grid_gamma"]),
            folds=int(opts["folds"]),
        ),
        mkal=MkalSelection(
            p_grid=_floats(opts["mkal_p"]),
            lambda_grid=_floats(opts["mkal_lambda"]),
            epochs_online=int(opts["mkal_epochs_online"]),
            epochs_batch=int(opts["mkal_epochs_batch"]),
        ),
        source_train_cap=cap,
        base_seed=int(opts["base_seed"]),
        jobs=int(opts["jobs"]),
    )
    result = harness.run_experiment(cfg, subjects)
    written = harness.write_run_outputs(result, opts["out_dir"])
    curves = harness.learning_curves(result)
    print(f"experiment {cfg.experiment}: {len(result.cells)} cells over "
          f"{len({c.target_id for c in result.cells})} targets")
    for method in cfg.methods:
        cv = curves[method]
        pairs = ", ".join(f"{s}:{m:.3f}" for s, m in zip(cv.sizes, cv.mean))
        print(f"  {method:<14} {pairs}")
    for w in result.warnings:
        print(f"  warning: {w}")
    print(f"wrote {len(written)} files to {opts['out_dir']}")
    return 0


# ---------------------------------------------------------------------------
# analyze


ANALYZE_DEFAULTS = {"corr_size": "max", "runs": None}


def _load_run_confusions(run_dir: Path) -> dict[tuple[str, int], "object"]:
    mats = {}
    for path in sorted(run_dir.glob("confusion_*.csv")):
        _, method, size = path.stem.split("_")
        mats[(method, int(size))] = harness.load_confusion_csv(path)
    return mats


def cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    opts = _merge_options(args, parser, ANALYZE_DEFAULTS, required=("out_dir", "runs"))
    run_dirs = [Path(r) for r in opts["runs"]]
    if not run_dirs:
        parser.error("need at least one --runs directory")
    labels = [r.name or str(r) for r in run_dirs]
    if len(set(labels)) != len(labels):
        labels = [str(r) for r in run_dirs]
    per_run = {}
    for label, rdir in zip(labels, run_dirs):
        mats = _load_run_confusions(rdir)
        if not mats:
            parser.error(f"no confusion CSVs under {rdir}")
        per_run[label] = mats

    all_g = {m.num_classes for mats in per_run.values() for m in mats.values()}
    if len(all_g) != 1:
        parser.error(f"inputs disagree on class count: {sorted(all_g)}")
    g = all_g.pop()

    outdir = Path(opts["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    keys = [(label, method, size) for label in labels for method, size in sorted(per_run[label])]
    names = [f"{label}:{method}:{size}" for label, method, size in keys]
    lines = ["pair," + ",".join(names)]
    for (label, method, size), name in zip(keys, names):
        row = [name]
        for label2, method2, size2 in keys:
            _, matching = top4_similarity(per_run[label][(method, size)],
                                          per_run[label2][(method2, size2)])
            row.append(similarity_cell(len(matching), g))
        lines.append(",".join(row))
    path = outdir / "similarity.csv"
    path.write_text("\n".join(lines) + "\n")
    written.append(path)

    if len(labels) == 2:
        a, b = labels
        shared = sorted(set(per_run[a]) & set(per_run[b]))
        for method, size in shared:
            diff = confusion_diff(per_run[a][(method, size)], per_run[b][(method, size)])
            lines = ["pred\\true," + ",".join(str(c) for c in range(g))]
            for r in range(g):
                lines.append(f"{r}," + ",".join(format_float(v) for v in diff[r]))
            path = outdir / f"diff_{method}_{size}.csv"
            path.write_text("\n".join(lines) + "\n")
            written.append(path)

    corr_inputs = {}
    for label in labels:
        by_method: dict[str, list[int]] = {}
        for method, size in per_run[label]:
            by_method.setdefault(method, []).append(size)
        for method in sorted(by_method):
            if str(opts["corr_size"]) == "max":
                size = max(by_method[method])
            else:
                size = int(opts["corr_size"])
                if size not in by_method[method]:
                    parser.error(f"run {label} has no confusion for {method} at size {size}")
            corr_inputs[f"{label}:{method}"] = per_run[label][(method, size)]
    corr_keys, corr = recognition_correlation(corr_inputs)
    lines = ["pair," + ",".join(corr_keys)]
    for i, key in enumerate(corr_keys):
        lines.append(f"{key}," + ",".join(format_float(v) for v in corr[i]))
    path = outdir / "correlation.csv"
    path.write_text("\n".join(lines) + "\n")
    written.append(path)

    print(f"analyzed {sum(len(m) for m in per_run.values())} confusion matrices "
          f"from {len(labels)} run(s); wrote {len(written)} files to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgadapt",
        description="Synthesize cohorts, extract features, run transfer experiments, analyze results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multichannel cohort")
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--subjects", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--shift", type=float, help="between-subject shift strength")
    p.add_argument("--amputee-fraction", type=float, dest="amputee_fraction")
    p.add_argument("--amputee-degradation", type=float, dest="amputee_degradation")
    p.add_argument("--noise-floor", type=float, dest="noise_floor")
    p.add_argument("--profile-min", type=float, dest="profile_min")
    p.add_argument("--profile-max", type=float, dest="profile_max")
    p.add_argument("--rep-variability", type=float, dest="rep_variability",
                   help="per-repetition channel amplitude wobble")
    p.add_argument("--reps", type=int)
    p.add_argument("--movement-ms", type=float, dest="movement_ms")
    p.add_argument("--rest-ms", type=float, dest="rest_ms")
    p.add_argument("--rate-hz", type=float, dest="rate_hz")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="window recordings and extract feature datasets")
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--in-dir", dest="in_dir")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--window-ms", type=float, dest="window_ms")
    p.add_argument("--step-ms", type=float, dest="step_ms")
    p.add_argument("--feature-mode", choices=("concat", "averaged"), dest="feature_mode")
    p.add_argument("--test-reps", dest="test_reps", help="held-out repetition ids, e.g. 5,6")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("run", help="run a cross-subject transfer experiment")
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--features", help="directory produced by the features command")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--methods", help="'all' or comma list of " + ",".join(METHODS))
    p.add_argument("--sizes", help="start:stop:step or comma list")
    p.add_argument("--num-seeds", type=int, dest="num_seeds")
    p.add_argument("--base-seed", type=int, dest="base_seed")
    p.add_argument("--grid-c", dest="grid_c", help="comma list of C values")
    p.add_argument("--grid-gamma", dest="grid_gamma", help="comma list of gamma values")
    p.add_argument("--folds", type=int)
    p.add_argument("--mkal-p", dest="mkal_p", help="comma list of p values")
    p.add_argument("--mkal-lambda", dest="mkal_lambda", help="comma list of lambda values")
    p.add_argument("--mkal-epochs-online", type=int, dest="mkal_epochs_online")
    p.add_argument("--mkal-epochs-batch", type=int, dest="mkal_epochs_batch")
    p.add_argument("--source-cap", dest="source_cap", help="max source training vectors, 'none' to disable")
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="compare stored confusion matrices across runs")
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--runs", nargs="+", help="one or more run output directories")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--corr-size", dest="corr_size",
                   help="training size whose confusions feed the correlation table ('max' or an int)")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
