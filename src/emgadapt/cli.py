"""Command-line front end: synth -> features -> run -> analyze.

Each option is declared once, in `build_parser`, with its parser and its
default; `run` and `features` take their defaults from the library's
classes, and an option without a default is required.  Every subcommand
also accepts ``--config FILE`` pointing at a JSON object whose keys mirror
the long flag names (dashes as underscores).  A config value stands for
the text of its flag: a string or a number goes through ``str()`` and then
the flag's own parser, a list is accepted only for ``runs``, and ``null``
or a boolean is an error.  Explicit flags win over the config file, which
wins over built-in defaults.  Commands are deterministic: the same flags
and seeds always produce byte-identical output files.  Human-readable
progress goes to stdout; machine-readable results only to files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from . import harness, signals, synth
from .analysis import confusion_diff, recognition_correlation, similarity_cell, top4_similarity
from .harness import EXPERIMENTS, METHODS, ExperimentConfig, MkalSelection, SubjectData
from .lssvm import NumericalError
from .model_selection import Grid
from .signals import (
    WindowSpec, load_dataset, load_recording, read_json, save_dataset, save_recording, stem_paths,
    write_json,
)

# ---------------------------------------------------------------------------
# option parsers: each turns the text of one flag into its value


def _floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(x) for x in text.split(",") if x.strip())
    if not vals:
        raise ValueError(f"empty number list: {text!r}")
    return vals


def _ints(text: str) -> tuple[int, ...]:
    vals = tuple(int(x) for x in text.split(",") if x.strip())
    if not vals:
        raise ValueError(f"empty integer list: {text!r}")
    return vals


def _sizes(text: str) -> tuple[int, ...]:
    """Training-size schedule: 'start:stop:step' (inclusive) or 'a,b,c'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"size range must be start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0:
            raise ValueError("size range step must be positive")
        return tuple(range(start, stop + 1, step))
    return _ints(text)


def _methods(text: str) -> tuple[str, ...]:
    return METHODS if text.lower() == "all" else tuple(text.split(","))


def _cap(text: str) -> int | None:
    return None if text in ("0", "none", "None") else int(text)


def _corr_size(text: str) -> int | str:
    return text if text == "max" else int(text)


def _options(args: argparse.Namespace) -> dict:
    """The subcommand's options by dest, without the parser's own entries."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "config", "func", "parser")}


def _config_defaults(args: argparse.Namespace) -> dict:
    """The --config file's values as flag text, keyed by option dest."""
    error = args.parser.error
    doc = read_json(args.config)
    unknown = sorted(set(doc) - set(_options(args)))
    if unknown:
        error(f"unknown config keys: {', '.join(unknown)}")

    def text(key: str, value) -> str:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            error(f"config key {key!r} must be a string or a number, got {json.dumps(value)}")
        return str(value)

    for key, value in doc.items():
        if key == "runs":
            if not isinstance(value, list):
                error(f"config key 'runs' must be a list, got {json.dumps(value)}")
            doc[key] = [text(key, v) for v in value]
        else:
            doc[key] = text(key, value)
    return doc


def _manifest_subjects(path: Path, keys: tuple[str, ...]) -> list[dict]:
    """The `subjects` entries of a cohort or features manifest, each holding a non-empty
    string at every key in `keys`, which include `subject_id`; no two entries share an id."""
    entries = read_json(path, ("subjects",))["subjects"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: key 'subjects' must be a list")
    for i, entry in enumerate(entries):
        for key in keys:
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{path}: subject entry {i} lacks key {key!r}")
            if not isinstance(entry[key], str) or not entry[key]:
                raise ValueError(f"{path}: subject entry {i}: {key} must be a non-empty string, "
                                 f"got {entry[key]!r}")
        if any(e["subject_id"] == entry["subject_id"] for e in entries[:i]):
            raise ValueError(f"{path}: subject entry {i} repeats subject_id {entry['subject_id']!r}")
    return entries


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    specs = synth.generate_cohort(
        args.subjects, base_seed=args.seed, shift_strength=args.shift,
        amputee_fraction=args.amputee_fraction, num_classes=args.classes, channels=args.channels,
        noise_floor=args.noise_floor, amputee_degradation=args.amputee_degradation,
        profile_range=(args.profile_min, args.profile_max), rep_variability=args.rep_variability,
    )
    outdir = Path(args.out_dir)
    entries = []
    for spec in specs:
        rec = synth.generate_recording(
            spec, reps=args.reps, movement_ms=args.movement_ms, rest_ms=args.rest_ms,
            rate_hz=args.rate_hz,
        )
        outdir.mkdir(parents=True, exist_ok=True)  # the first recording has checked the flags
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
        "flags": {k: v for k, v in _options(args).items() if k != "out_dir"},
        "subjects": entries,
    }
    write_json(outdir / "cohort.json", manifest)
    print(f"wrote {len(entries)} recordings and cohort.json to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# features


def cmd_features(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    indir = Path(args.in_dir)
    manifest_path = indir / "cohort.json"
    if manifest_path.exists():
        cohort = _manifest_subjects(manifest_path, ("subject_id", "stem"))
        stems = [(e["subject_id"], e["stem"]) for e in cohort]
        for sid, _ in stems:  # an id names the subject's feature files
            if sid in (".", "..") or Path(sid).name != sid:
                raise ValueError(f"{manifest_path}: subject_id {sid!r} cannot name a file: "
                                 "it must not be '.' or '..' or hold a path separator")
    else:
        stems = sorted((p.stem, p.stem) for p in indir.glob("*.json") if stem_paths(p)[0].exists())
    if not stems:
        parser.error(f"no recordings found under {indir}")

    spec = WindowSpec(window_ms=args.window_ms, step_ms=args.step_ms)
    outdir = Path(args.out_dir)
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
    outdir.mkdir(parents=True, exist_ok=True)
    # every file is written here first, so a failure leaves --out-dir as it was
    stage = Path(tempfile.mkdtemp(prefix=".features-", dir=outdir))
    try:
        entries = []
        for subject_id, stem in stems:
            rec = load_recording(indir / stem)
            train, test = signals.build_subject_datasets(
                rec, spec, test_reps=args.test_reps, feature_mode=args.feature_mode
            )
            names = signals.feature_names(rec.channels, args.feature_mode)
            for ds, part in ((train, "train"), (test, "test")):
                save_dataset(ds, stage / f"{subject_id}_{part}", names)
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
            "window_ms": spec.window_ms,
            "step_ms": spec.step_ms,
            "feature_mode": args.feature_mode,
            "test_reps": list(args.test_reps),
            "subjects": entries,
        }
        write_json(stage / "features.json", manifest)
        # renames on one file system; the manifest goes last, after the files it names
        for path in sorted(stage.iterdir(), key=lambda p: (p.name == "features.json", p.name)):
            path.replace(outdir / path.name)
        stage.rmdir()
    except BaseException:
        shutil.rmtree(made[-1] if made else stage)
        raise
    total = sum(e["train_count"] + e["test_count"] for e in entries)
    print(f"wrote datasets for {len(entries)} subjects ({total} windows) to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# run


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    fdir = Path(args.features)
    manifest_path = fdir / "features.json"
    if not manifest_path.exists():
        parser.error(f"{manifest_path} not found; run the features command first")
    entries = _manifest_subjects(manifest_path, ("subject_id", "condition", "train_stem", "test_stem"))
    subjects = [SubjectData(e["subject_id"], e["condition"], load_dataset(fdir / e["train_stem"]),
                            load_dataset(fdir / e["test_stem"])) for e in entries]

    cfg = ExperimentConfig(
        experiment=args.experiment,
        methods=args.methods,
        size_schedule=args.sizes,
        seeds=tuple(range(args.num_seeds)),
        grid=Grid(C_values=args.grid_c, gamma_values=args.grid_gamma, folds=args.folds),
        mkal=MkalSelection(p_grid=args.mkal_p, lambda_grid=args.mkal_lambda),
        source_train_cap=args.source_cap,
        base_seed=args.base_seed,
        jobs=args.jobs,
    )
    result = harness.run_experiment(cfg, subjects)
    written = harness.write_run_outputs(result, args.out_dir)
    curves = harness.learning_curves(result)
    print(f"experiment {cfg.experiment}: {len(result.cells)} cells over "
          f"{len({c.target_id for c in result.cells})} targets")
    for method in cfg.methods:
        cv = curves[method]
        pairs = ", ".join(f"{s}:{m:.3f}" for s, m in zip(cv.sizes, cv.mean))
        print(f"  {method:<14} {pairs}")
    for w in result.warnings:
        print(f"  warning: {w}")
    print(f"wrote {len(written)} files to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    run_dirs = [Path(r) for r in args.runs]
    if not run_dirs:
        parser.error("need at least one --runs directory")
    for i, r in enumerate(run_dirs):
        if r.resolve() in (q.resolve() for q in run_dirs[:i]):
            parser.error(f"run directory {r} is given twice")
    labels = [r.name or str(r) for r in run_dirs]
    if len(set(labels)) != len(labels):
        labels = [str(r) for r in run_dirs]
    per_run = {}
    for label, rdir in zip(labels, run_dirs):
        mats = harness.load_run_confusions(rdir)
        if not mats:
            parser.error(f"no confusion CSVs under {rdir}")
        per_run[label] = mats

    all_g = {m.num_classes for mats in per_run.values() for m in mats.values()}
    if len(all_g) != 1:
        parser.error(f"inputs disagree on class count: {sorted(all_g)}")
    g = all_g.pop()

    corr_inputs = {}
    for label in labels:
        by_method: dict[str, list[int]] = {}
        for method, size in per_run[label]:
            by_method.setdefault(method, []).append(size)
        for method in sorted(by_method):
            size = max(by_method[method]) if args.corr_size == "max" else args.corr_size
            if size not in by_method[method]:
                parser.error(f"run {label} has no confusion for {method} at size {size}")
            corr_inputs[f"{label}:{method}"] = per_run[label][(method, size)]
    corr_keys, corr = recognition_correlation(corr_inputs)
    keys = [(label, method, size) for label in labels for method, size in sorted(per_run[label])]
    names = [f"{label}:{method}:{size}" for label, method, size in keys]
    matrices = [per_run[label][(method, size)] for label, method, size in keys]
    similarity = [[name, *(similarity_cell(len(top4_similarity(m, o)[1]), g) for o in matrices)]
                  for name, m in zip(names, matrices)]
    diffs = {}
    if len(labels) == 2:
        a, b = (per_run[label] for label in labels)
        diffs = {f"diff_{m}_{s}.csv": confusion_diff(a[m, s], b[m, s]) for m, s in sorted(set(a) & set(b))}

    # every table is built, so a failure above leaves no directory behind
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [harness.write_table(outdir / "similarity.csv", ["pair", *names], similarity)]
    written += [harness.write_matrix_csv(outdir / name, diff) for name, diff in diffs.items()]
    written.append(harness.write_table(outdir / "correlation.csv", ["pair", *corr_keys],
                                       ([key, *row] for key, row in zip(corr_keys, corr.tolist()))))

    print(f"analyzed {sum(len(m) for m in per_run.values())} confusion matrices "
          f"from {len(labels)} run(s); wrote {len(written)} files to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _subcommand(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    """A subcommand parser with the --config and --out-dir options every command takes."""
    p = sub.add_parser(name, help=summary, exit_on_error=False)
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--out-dir")
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgadapt",
        description="Synthesize cohorts, extract features, run transfer experiments, analyze results.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "synth", cmd_synth, "generate a synthetic multichannel cohort")
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=float, default=0.3, help="between-subject shift strength")
    p.add_argument("--amputee-fraction", type=float, default=0.0)
    p.add_argument("--amputee-degradation", type=float, default=0.2)
    p.add_argument("--noise-floor", type=float, default=0.15)
    p.add_argument("--profile-min", type=float, default=0.6)
    p.add_argument("--profile-max", type=float, default=1.9)
    p.add_argument("--rep-variability", type=float, default=0.0,
                   help="per-repetition channel amplitude wobble")
    p.add_argument("--reps", type=int, default=6)
    p.add_argument("--movement-ms", type=float, default=3000.0)
    p.add_argument("--rest-ms", type=float, default=1500.0)
    p.add_argument("--rate-hz", type=float, default=100.0)

    p = _subcommand(sub, "features", cmd_features, "window recordings and extract feature datasets")
    p.add_argument("--in-dir")
    p.add_argument("--window-ms", type=float, default=WindowSpec.window_ms)
    p.add_argument("--step-ms", type=float, default=WindowSpec.step_ms)
    p.add_argument("--feature-mode", choices=("concat", "averaged"), default="concat")
    p.add_argument("--test-reps", type=_ints, default=(5, 6),
                   help="held-out repetition ids, e.g. 5,6")

    p = _subcommand(sub, "run", cmd_run, "run a cross-subject transfer experiment")
    p.add_argument("--features", help="directory produced by the features command")
    p.add_argument("--experiment", choices=EXPERIMENTS, default="II")
    p.add_argument("--methods", type=_methods, default=METHODS,
                   help="'all' or comma list of " + ",".join(METHODS))
    p.add_argument("--sizes", type=_sizes, default=ExperimentConfig.size_schedule,
                   help="start:stop:step or comma list")
    p.add_argument("--num-seeds", type=int, default=1)
    p.add_argument("--base-seed", type=int, default=ExperimentConfig.base_seed)
    p.add_argument("--grid-c", type=_floats, default=Grid.C_values,
                   help="comma list of C values")
    p.add_argument("--grid-gamma", type=_floats, default=Grid.gamma_values,
                   help="comma list of gamma values")
    p.add_argument("--folds", type=int, default=Grid.folds)
    p.add_argument("--mkal-p", type=_floats, default=MkalSelection.p_grid,
                   help="comma list of p values")
    p.add_argument("--mkal-lambda", type=_floats, default=MkalSelection.lambda_grid,
                   help="comma list of lambda values")
    p.add_argument("--source-cap", type=_cap, default=ExperimentConfig.source_train_cap,
                   help="max source training vectors, 'none' to disable")
    p.add_argument("--jobs", type=int, default=ExperimentConfig.jobs)

    p = _subcommand(sub, "analyze", cmd_analyze, "compare stored confusion matrices across runs")
    p.add_argument("--runs", nargs="+", help="one or more run output directories")
    p.add_argument("--corr-size", type=_corr_size, default="max",
                   help="training size whose confusions feed the correlation table ('max' or an int)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # config values become the subcommand's defaults, so flags parsed again still win
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        missing = [k for k, v in _options(args).items()
                   if v is None and args.parser.get_default(k) is None]
        if missing:
            args.parser.error("missing required options: --" + ", --".join(missing).replace("_", "-"))
        return args.func(args, args.parser)
    except (argparse.ArgumentError, ValueError, OSError, NumericalError) as exc:
        # argparse words a rejected flag value; the ValueError behind it says why
        cause = exc.__context__ if isinstance(exc, argparse.ArgumentError) else None
        print(f"error: {exc}" + (f" ({cause})" if cause else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
