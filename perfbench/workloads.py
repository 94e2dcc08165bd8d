"""The benchmark workloads: inputs from a seed, the timed section, the output check.

Each workload runs the package through a public entry point
(`harness.run_experiment` or `cli.main`), always looked up on its module
at call time so that the tracer's wrappers are seen.  `setup` builds the
inputs from the seed and is timed as `setup_s`; `check_inputs` returns one
`Group` per subject split it built (`input_ops` of them).  `run` is the
timed section; `check` inspects what `run` wrote and returns one `Group`
per (method, size), each worth the experiment cells it pools.  Byte
digests let the caller compare inputs and outputs across set-ups,
iterations and runs of the same workload and seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emgadapt import cli, harness, synth
from emgadapt.harness import ExperimentConfig, MkalSelection, SubjectData
from emgadapt.model_selection import Grid
from emgadapt.signals import Dataset, WindowSpec


@dataclass(frozen=True)
class Group:
    ops: int        # operations this output stands for
    ok: bool        # passed the structural check
    digest: str     # sha256 of the bytes that must repeat across runs


@dataclass
class Checked:
    groups: dict[str, Group]
    accuracy: dict[str, float]  # mean test accuracy per method


def _cli(argv: list[str]) -> None:
    """Run one emgadapt command with its progress output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"emgadapt {argv[0]} exited with {code}")


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def check_experiment(outdir: Path, methods, sizes, cells_per_group: int, n_test: int) -> Checked:
    """One group per (method, size): its accuracies and pooled confusion.

    Every accuracy must be a whole number of test samples, the pooled
    confusion counts must sum to the test-set size times the cells pooled,
    and its trace must agree with the mean accuracy (all cells share one
    test set size).
    """
    rows: dict[tuple[str, int], list[str]] = defaultdict(list)
    path = outdir / "accuracies.csv"
    lines = path.read_text().splitlines()[1:] if path.exists() else []
    for line in lines:
        method, size, *_ = line.split(",")
        rows[(method, int(size))].append(line)
    groups, per_method = {}, defaultdict(list)
    for method in methods:
        for size in sizes:
            key = f"{method}_{size}"
            conf_path = outdir / f"confusion_{key}.csv"
            mine = rows.get((method, size), [])
            if len(mine) != cells_per_group or not conf_path.exists():
                groups[key] = Group(cells_per_group, False, "")
                continue
            conf_bytes = conf_path.read_bytes()
            counts = np.array([[int(v) for v in r.split(",")[1:]]
                               for r in conf_bytes.decode().splitlines()[1:]])
            accs = np.array([float(r.split(",")[-1]) for r in mine])
            hits = accs * n_test
            ok = (
                bool(np.all((accs >= 0.0) & (accs <= 1.0)))
                and bool(np.all(np.abs(hits - np.round(hits)) < 1e-6))
                and int(counts.sum()) == n_test * cells_per_group
                and abs(np.trace(counts) / counts.sum() - accs.mean()) < 1e-9
            )
            groups[key] = Group(cells_per_group, ok, _sha("\n".join(mine).encode(), conf_bytes))
            per_method[method].extend(accs.tolist())
    accuracy = {m: float(np.mean(v)) for m, v in per_method.items()}
    return Checked(groups, accuracy)


def _split_groups(datasets: dict[str, Dataset]) -> dict[str, Group]:
    """One group per in-memory subject split: its features and labels."""
    return {name: Group(1, len(ds) > 0, _sha(ds.features.tobytes(), ds.labels.tobytes()))
            for name, ds in datasets.items()}


COHORT_REPS = 8
COHORT_TEST_REPS = (5, 6, 7, 8)
CLI_SUBJECTS = 3  # with --amputee-fraction 0.34: 1 amputee target and 2 intact sources
CLI_METHODS = ("NoTransfer", "PriorFeatures", "MA", "HL2L")


@dataclass(frozen=True)
class CohortAiSmall:
    """The acceptance cohort of criteria 4-6, run in memory through `harness.run_experiment`.

    Why: MKAL does most of the work here, at N <= 160 (about 80% of self
    time, with most of its fits returning the all-zero model).  The LS-SVM
    core (`select`, the dual solve, `gram`) is about 15%, so a change to
    the core should barely move this workload.  The seed count sets the
    length of one iteration: 2 seeds (30 cells) take 9-14 s here, so a run
    times two to four iterations.
    """

    name: str = "cohort-ai-small"
    why: str = "MKAL is most of the work at N <= 160; the LS-SVM core is ~15%, so core changes should barely move it"
    subjects: int = 9
    amputee_fraction: float = 0.12  # exactly one subject: the AI target
    channels: int = 24
    movement_ms: float = 1200.0
    sizes: tuple[int, ...] = (40, 80, 160)
    seeds: int = 2
    grid_c: tuple[float, ...] = (1.0, 10.0, 100.0)
    grid_gamma: tuple[float, ...] = (0.001, 0.003, 0.01)
    folds: int = 3

    def setup(self, workdir: Path, seed: int):
        # The subjects (gains, class profiles, roles) are the acceptance
        # cohort's; the seed re-draws their recordings and the harness's
        # permutations and folds.  Seed 0 is the acceptance fixture itself.
        specs = synth.generate_cohort(
            self.subjects, base_seed=0, shift_strength=0.3,
            amputee_fraction=self.amputee_fraction, num_classes=8, channels=self.channels,
            noise_floor=1.0, amputee_degradation=0.0, profile_range=(0.5, 1.5),
            rep_variability=0.6,
        )
        subjects = []
        for spec in specs:
            spec = dataclasses.replace(spec, seed=(spec.seed + seed) % (2**31 - 1))
            train, test = synth.subject_datasets(
                spec, reps=COHORT_REPS, movement_ms=self.movement_ms, rest_ms=500.0,
                rate_hz=100.0, window=WindowSpec(window_ms=200.0, step_ms=50.0),
                test_reps=COHORT_TEST_REPS,
            )
            subjects.append(SubjectData(spec.subject_id, spec.condition, train, test))
        config = ExperimentConfig(
            experiment="AI",
            methods=harness.METHODS,
            size_schedule=self.sizes,
            seeds=tuple(range(self.seeds)),
            grid=Grid(C_values=self.grid_c, gamma_values=self.grid_gamma, folds=self.folds, seed=0),
            mkal=MkalSelection(p_grid=(1.25, 2.0), lambda_grid=(1e-3, 1e-2, 1e-1)),
            source_train_cap=600,
            base_seed=seed,
        )
        return config, subjects

    @property
    def input_ops(self) -> int:
        return 2 * self.subjects

    def check_inputs(self, inputs) -> dict[str, Group]:
        _, subjects = inputs
        return _split_groups({f"{s.subject_id}_{part}": getattr(s, part)
                              for s in subjects for part in ("train", "test")})

    def ops(self, inputs) -> int:
        return len(harness.METHODS) * len(self.sizes) * self.seeds

    def run(self, inputs, outdir: Path):
        config, subjects = inputs
        result = harness.run_experiment(config, subjects)
        harness.write_run_outputs(result, outdir)

    def check(self, inputs, outdir: Path) -> Checked:
        _, subjects = inputs
        target = next(s for s in subjects if s.condition == "amputee")
        return check_experiment(outdir, harness.METHODS, self.sizes, self.seeds, len(target.test))


@dataclass(frozen=True)
class CliAiLarge:
    """`emgadapt run` at CLI defaults on a features directory built in setup.

    Why: the LS-SVM core does most of the work here, at N up to 1000 where
    the O(N^3) solve shows: `select` is most of the run, split between the
    dual solve and `gram`.  MKAL is left out because its 16-candidate CV at
    N near 1000 costs minutes per cell, so an MKAL change must show no
    change here.  Accuracies sit well below the ceiling, so they can
    register an accuracy regression.
    """

    name: str = "cli-ai-large"
    why: str = "the LS-SVM core (select, dual solve, gram) is most of the work at N up to 1000; no MKAL, so MKAL changes show none here"
    synth_flags: tuple[str, ...] = ()
    sizes: tuple[int, ...] = (250, 500, 1000)
    run_flags: tuple[str, ...] = ()

    def setup(self, workdir: Path, seed: int):
        cohort, feats = workdir / "cohort", workdir / "features"
        _cli(["synth", "--subjects", CLI_SUBJECTS, "--amputee-fraction", 0.34, "--amputee-degradation", 0,
              "--rep-variability", 0.6, "--noise-floor", 1.0, "--seed", seed,
              "--out-dir", cohort, *self.synth_flags])
        _cli(["features", "--in-dir", cohort, "--out-dir", feats])
        return feats, seed

    input_ops = 2 * CLI_SUBJECTS

    def check_inputs(self, inputs) -> dict[str, Group]:
        """One group per feature split: its CSV and sidecar bytes; the CSV
        must hold a header and the row count the manifest gives."""
        feats, _ = inputs
        doc = json.loads((feats / "features.json").read_text())
        groups = {}
        for entry in doc["subjects"]:
            for part in ("train", "test"):
                stem = feats / entry[f"{part}_stem"]
                csv_bytes = stem.with_suffix(".csv").read_bytes()
                rows = csv_bytes.count(b"\n") - 1
                groups[stem.name] = Group(1, rows == entry[f"{part}_count"] > 0,
                                          _sha(csv_bytes, stem.with_suffix(".json").read_bytes()))
        return groups

    def ops(self, inputs) -> int:
        return len(CLI_METHODS) * len(self.sizes)

    def run(self, inputs, outdir: Path):
        feats, seed = inputs
        _cli(["run", "--features", feats, "--out-dir", outdir, "--experiment", "AI",
              "--sizes", ",".join(map(str, self.sizes)), "--methods", ",".join(CLI_METHODS),
              "--source-cap", 1000, "--base-seed", seed, *self.run_flags])

    def check(self, inputs, outdir: Path) -> Checked:
        feats, _ = inputs
        doc = json.loads((feats / "features.json").read_text())
        target = next(e for e in doc["subjects"] if e["condition"] == "amputee")
        return check_experiment(outdir, CLI_METHODS, self.sizes, 1, target["test_count"])


WORKLOADS = {w.name: w for w in (CohortAiSmall(), CliAiLarge())}
