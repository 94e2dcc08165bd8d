"""Cross-subject transfer experiments with nested training-size growth.

An experiment takes a cohort of subjects with per-subject train/test
datasets.  Depending on the experiment kind, each eligible subject plays
the target exactly once while the others act as sources:

  II -- intact target, the remaining intact subjects are sources
  AA -- amputee target, the remaining amputees are sources
  AI -- amputee target, all intact subjects are sources

Source machines are cross-validated LS-SVMs trained once per subject on
its own (optionally capped) training data.  A target sees them only through
their per-class scores on its windows: `_run_target` computes that (N, K, G)
tensor once for its pool and once for its test set, and every method takes
rows of it.  For every random seed the
target's training pool is permuted once and the size-s training set is the
first s entries, so smaller sets nest inside larger ones and class
proportions stay whatever the permutation produced (no balancing).  The
harness runs no CV: per cell, `baselines.fit_no_transfer` trains No Transfer
on the training subset, and the (C, gamma) it picks is shared by Multi
Adapt, MKAL (gamma only) and the H-L2L first layer.  Every other choice is
its method's own: Prior Features picks C, MKAL (p, lambda) in
`mkal.select_mkal`, and H-L2L its layer-2 (C, gamma) in `hl2l.select_hl2l`.
Errors name the cell's method (or the shared selection), size, target and seed.

All randomness is derived from (base_seed, target id, seed value, size
index), so results are identical no matter how work is scheduled across
processes, and a seed's cells do not depend on which other seeds run.
"""

from __future__ import annotations

import dataclasses
import re
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lssvm
from .analysis import ConfusionMatrix, confusion
from .baselines import fit_no_transfer, fit_prior_features, predict_prior_features
from .hl2l import predict_hl2l, select_hl2l
from .lssvm import LssvmModel, NumericalError
from .mkal import MkalSelection, predict_mkal, select_mkal
from .model_selection import Grid, as_int
from .multi_adapt import fit_ma, predict_ma, source_scores
from .signals import CONDITIONS, Dataset, format_float, write_json

METHODS = ("NoTransfer", "PriorFeatures", "MA", "MKAL", "HL2L")
EXPERIMENTS = ("II", "AA", "AI")


@dataclass(frozen=True)
class ExperimentConfig:
    """`run_experiment` never reads `grid.seed`: every CV seed comes from `base_seed`
    and the subject or cell key, while the manifest still records `grid.seed`."""

    experiment: str
    methods: tuple[str, ...] = METHODS
    size_schedule: tuple[int, ...] = tuple(range(120, 2161, 120))
    seeds: tuple[int, ...] = (0,)
    grid: Grid = field(default_factory=Grid)
    mkal: MkalSelection = field(default_factory=MkalSelection)
    source_train_cap: int | None = 1000
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if not self.methods:
            raise ValueError("need at least one method")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods has duplicates: {list(self.methods)}")
        # plain Python ints, so that the manifest can dump the config as JSON
        for name, low in (("size_schedule", 1), ("seeds", 0)):
            object.__setattr__(self, name, tuple(as_int(name, v, low) for v in getattr(self, name)))
        for name, low in (("base_seed", 0), ("jobs", 1), ("source_train_cap", 2)):
            if getattr(self, name) is not None or name != "source_train_cap":  # no cap is None
                object.__setattr__(self, name, as_int(name, getattr(self, name), low))
        if not self.size_schedule or sorted(set(self.size_schedule)) != list(self.size_schedule):
            raise ValueError("size_schedule must be strictly increasing positive ints")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be one or more distinct non-negative ints: {list(self.seeds)}")


@dataclass
class SubjectData:
    subject_id: str
    condition: str
    train: Dataset
    test: Dataset

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"subject {self.subject_id}: condition must be one of "
                             f"{CONDITIONS}, got {self.condition!r}")


@dataclass
class CellResult:
    target_id: str
    seed_index: int
    size: int
    method: str
    accuracy: float
    confusion: ConfusionMatrix
    params: dict


@dataclass
class LearningCurve:
    method: str
    sizes: list[int]
    mean: list[float]
    lo: list[float]
    hi: list[float]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    subjects: list[tuple[str, str]]
    source_ids: list[str]
    cells: list[CellResult]
    warnings: list[str]


def _key32(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def _rng(base_seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=spawn_key))


def _seed_int(base_seed: int, *spawn_key: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=spawn_key).generate_state(1)[0])


def experiment_roles(
    experiment: str, subjects: list[SubjectData]
) -> list[tuple[SubjectData, list[SubjectData]]]:
    """(target, sources) pairs for the experiment kind; errors on bad cohorts."""
    intact = [s for s in subjects if s.condition == "intact"]
    amputee = [s for s in subjects if s.condition == "amputee"]
    if experiment == "II":
        pairs = [(t, [s for s in intact if s is not t]) for t in intact]
    elif experiment == "AA":
        pairs = [(t, [s for s in amputee if s is not t]) for t in amputee]
    elif experiment == "AI":
        pairs = [(t, list(intact)) for t in amputee]
    else:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}")
    if not pairs:
        raise ValueError(f"cohort has no target subjects for experiment {experiment}")
    for t, sources in pairs:
        if not sources:
            raise ValueError(f"target {t.subject_id} has no source subjects in {experiment}")
    return pairs


def train_source_model(subject: SubjectData, cfg: ExperimentConfig) -> LssvmModel:
    """Cross-validated gaussian LS-SVM on the subject's own training data."""
    data = subject.train
    key = _key32(subject.subject_id)
    if cfg.source_train_cap is not None and len(data) > cfg.source_train_cap:
        rng = _rng(cfg.base_seed, 0, key)
        idx = np.sort(rng.choice(len(data), size=cfg.source_train_cap, replace=False))
        data = data.subset(idx)
    grid = dataclasses.replace(cfg.grid, seed=_seed_int(cfg.base_seed, 1, key))
    with _context(f"source model {subject.subject_id}"):
        return fit_no_transfer(data, grid)


def _fit_eval_cell(
    method: str,
    cfg: ExperimentConfig,
    sub: Dataset,
    s_sub: np.ndarray | None,
    test: Dataset,
    s_test: np.ndarray | None,
    nt: LssvmModel | None,
    cell_key: tuple[int, ...],
) -> tuple[np.ndarray, dict]:
    """Train one method on the size-s subset and predict the test set.  NoTransfer predicts
    with `nt`, the cell's No Transfer model; MA, MKAL and H-L2L start from its (C, gamma)."""
    base = cfg.base_seed
    if method == "NoTransfer":
        return lssvm.predict(nt, test.features)[0], {"C": nt.C, "gamma": nt.kernel.gamma}
    if method == "PriorFeatures":
        grid = dataclasses.replace(cfg.grid, seed=_seed_int(base, *cell_key, 3))
        model, stats = fit_prior_features(sub, s_sub, grid)
        return predict_prior_features(model, stats, s_test)[0], {"C": model.C}
    if method == "MA":
        model = fit_ma(sub, s_sub, nt.kernel, nt.C)
        return predict_ma(model, test.features, s_test)[0], {"C": nt.C, "gamma": nt.kernel.gamma}
    if method == "MKAL":
        model = select_mkal(sub, s_sub, cfg.mkal, nt.kernel.gamma, cfg.grid.folds,
                            _seed_int(base, *cell_key, 5), _seed_int(base, *cell_key, 4))
        return (predict_mkal(model, test.features, s_test)[0],
                {"p": model.p, "lam": model.lam, "gamma": nt.kernel.gamma})
    if method == "HL2L":
        model = select_hl2l(sub, s_sub, nt.kernel, nt.C,
                            dataclasses.replace(cfg.grid, seed=_seed_int(base, *cell_key, 7)),
                            _seed_int(base, *cell_key, 6))
        l1, l2 = model.layer1, model.layer2
        return (predict_hl2l(model, test.features, s_test)[0],
                {"C1": l1.C, "gamma1": l1.kernel.gamma, "C2": l2.C, "gamma2": l2.kernel.gamma})
    raise ValueError(f"unknown method: {method}")


@contextmanager
def _context(where: str):
    """Prefix a ValueError or NumericalError raised in the block with `where`."""
    try:
        yield
    except (ValueError, NumericalError) as exc:
        kind = NumericalError if isinstance(exc, NumericalError) else ValueError
        raise kind(f"{where}: {exc}") from exc


def _run_target(
    cfg: ExperimentConfig, target: SubjectData, source_models: list[LssvmModel]
) -> tuple[list[CellResult], list[str]]:
    pool, test = target.train, target.test
    n_pool = len(pool)
    tkey = _key32(target.subject_id)
    warnings: list[str] = []
    sizes = [s for s in cfg.size_schedule if s <= n_pool]
    dropped = [s for s in cfg.size_schedule if s > n_pool]
    if dropped:
        warnings.append(f"target {target.subject_id}: dropped sizes {dropped} beyond pool of {n_pool}")
    s_pool = source_scores(source_models, pool.features) if source_models else None
    s_test = source_scores(source_models, test.features) if source_models else None
    need_nt = any(m != "PriorFeatures" for m in cfg.methods)

    cells: list[CellResult] = []
    for seed_index, seed in enumerate(cfg.seeds):
        perm = _rng(cfg.base_seed, 2, tkey, seed).permutation(n_pool)
        for size_index, size in enumerate(sizes):
            idx = perm[:size]
            sub = pool.subset(idx)
            s_sub = s_pool[idx] if s_pool is not None else None
            cell_key = (3, tkey, seed, size_index)
            where = f"at size {size} (target {target.subject_id}, seed {seed})"
            nt = None
            if need_nt:
                grid = dataclasses.replace(cfg.grid, seed=_seed_int(cfg.base_seed, *cell_key, 2))
                with _context(f"(C, gamma) selection {where}"):
                    nt = fit_no_transfer(sub, grid)
            for method in cfg.methods:
                with _context(f"{method} {where}"):
                    pred, params = _fit_eval_cell(
                        method, cfg, sub, s_sub, test, s_test, nt, cell_key
                    )
                cm = confusion(pred, test.labels, pool.num_classes)
                cells.append(CellResult(
                    target_id=target.subject_id, seed_index=seed_index, size=size, method=method,
                    accuracy=float(np.mean(pred == test.labels)), confusion=cm, params=params,
                ))
    return cells, warnings


def _map(jobs: int, fn, *columns: list) -> list:
    """`fn` over the zipped columns, across `jobs` processes when there is more than one item."""
    if jobs > 1 and len(columns[0]) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, *columns))
    return list(map(fn, *columns))


def run_experiment(cfg: ExperimentConfig, subjects: list[SubjectData]) -> ExperimentResult:
    ids = [s.subject_id for s in subjects]
    if len(set(ids)) != len(ids):
        raise ValueError("subject ids must be unique")
    pairs = experiment_roles(cfg.experiment, subjects)
    smallest, largest = cfg.size_schedule[0], max(len(t.train) for t, _ in pairs)
    if smallest > largest:  # no cell at all: fail before any source model trains
        raise ValueError(f"no target pool reaches size {smallest}: the largest has {largest} rows")
    need_sources = any(m != "NoTransfer" for m in cfg.methods)

    source_models: dict[str, LssvmModel] = {}
    if need_sources:
        needed = list({s.subject_id: s for _, sources in pairs for s in sources}.values())
        models = _map(cfg.jobs, train_source_model, needed, [cfg] * len(needed))
        source_models = {s.subject_id: m for s, m in zip(needed, models)}

    outcomes = _map(
        cfg.jobs, _run_target, [cfg] * len(pairs), [t for t, _ in pairs],
        [[source_models[s.subject_id] for s in sources] if need_sources else []
         for _, sources in pairs],
    )

    return ExperimentResult(
        config=cfg,
        subjects=[(s.subject_id, s.condition) for s in subjects],
        source_ids=sorted(source_models.keys()),
        cells=[c for target_cells, _ in outcomes for c in target_cells],
        warnings=[w for _, target_warnings in outcomes for w in target_warnings],
    )


# ---------------------------------------------------------------------------
# aggregation


def learning_curves(result: ExperimentResult) -> dict[str, LearningCurve]:
    """Mean/min/max accuracy over targets (per-target values averaged over seeds)."""
    curves: dict[str, LearningCurve] = {}
    for method in result.config.methods:
        mine = [c for c in result.cells if c.method == method]
        sizes = sorted({c.size for c in mine})
        mean, lo, hi = [], [], []
        for size in sizes:
            per_target: dict[str, list[float]] = {}
            for c in mine:
                if c.size == size:
                    per_target.setdefault(c.target_id, []).append(c.accuracy)
            vals = [float(np.mean(v)) for v in per_target.values()]
            mean.append(float(np.mean(vals)))
            lo.append(float(np.min(vals)))
            hi.append(float(np.max(vals)))
        curves[method] = LearningCurve(method=method, sizes=sizes, mean=mean, lo=lo, hi=hi)
    return curves


def pooled_confusions(result: ExperimentResult) -> dict[tuple[str, int], ConfusionMatrix]:
    """Counts accumulated over targets and seeds, keyed by (method, size)."""
    pools: dict[tuple[str, int], np.ndarray] = {}
    for c in result.cells:
        key = (c.method, c.size)
        if key not in pools:
            pools[key] = np.zeros_like(c.confusion.counts)
        pools[key] += c.confusion.counts
    return {k: ConfusionMatrix(v) for k, v in sorted(pools.items())}


# ---------------------------------------------------------------------------
# file outputs


def write_table(path: Path, header: list, rows) -> Path:
    """Write the header and rows as comma-joined lines, each ending in a newline; a float
    cell is written by `format_float`, any other cell by `str`.  Returns `path`."""
    path.write_text("".join(
        ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in [header, *rows]
    ))
    return path


def write_run_outputs(result: ExperimentResult, outdir: str | Path) -> list[Path]:
    """Write curves, raw accuracies, pooled confusions and a manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    curves = learning_curves(result)
    written = [write_table(outdir / "curves.csv", ["method", "size", "mean", "min", "max"], (
        [method, size, cv.mean[i], cv.lo[i], cv.hi[i]]
        for method, cv in sorted(curves.items()) for i, size in enumerate(cv.sizes)
    ))]
    cells = sorted(result.cells, key=lambda c: (c.method, c.size, c.target_id, c.seed_index))
    written.append(write_table(
        outdir / "accuracies.csv", ["method", "size", "target", "seed_index", "accuracy"],
        ([c.method, c.size, c.target_id, c.seed_index, c.accuracy] for c in cells),
    ))
    for (method, size), cm in pooled_confusions(result).items():
        written.append(write_matrix_csv(outdir / f"confusion_{method}_{size}.csv", cm.counts))
    manifest = {
        "config": dataclasses.asdict(result.config),
        "subjects": [{"subject_id": i, "condition": c} for i, c in result.subjects],
        "source_models_trained": result.source_ids,
        "warnings": result.warnings,
    }
    write_json(outdir / "manifest.json", manifest)
    return [*written, outdir / "manifest.json"]


def load_run_confusions(run_dir: str | Path) -> dict[tuple[str, int], ConfusionMatrix]:
    """A run directory's pooled confusions by (method, size); a stray confusion_*.csv raises."""
    mats = {}
    for path in sorted(Path(run_dir).glob("confusion_*.csv")):
        # the names write_run_outputs gives: confusion_<method>_<size>.csv
        match = re.fullmatch(f"confusion_({'|'.join(METHODS)})_([1-9][0-9]*)\\.csv", path.name)
        if match is None:
            raise ValueError(f"{path}: not a confusion_<method>_<size>.csv name of a run")
        mats[(match[1], int(match[2]))] = load_confusion_csv(path)
    return mats


def write_matrix_csv(path: Path, matrix: np.ndarray) -> Path:
    """Write a G x G matrix as `load_confusion_csv` reads it: a header naming the true
    classes 0..G-1, then row r as `r,value,...,value` (integer counts or floats)."""
    return write_table(path, ["pred\\true", *range(len(matrix))],
                       ([r, *row] for r, row in enumerate(matrix.tolist())))


def load_confusion_csv(path: str | Path) -> ConfusionMatrix:
    """Read a count matrix as `write_matrix_csv` writes it: a header naming the true
    classes 0..G-1, then one row per predicted class r, `r,count,...,count`;
    anything else raises ValueError naming the file and line."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    g = len(header) - 1
    if g < 1 or header[1:] != [str(c) for c in range(g)]:
        raise ValueError(f"{path} line 1: header must name the true classes 0..G-1")
    if len(lines) != g + 1:
        raise ValueError(f"{path}: {len(lines) - 1} rows, header has {g} classes")
    rows = []
    for r, line in enumerate(lines[1:]):
        label, *counts = line.split(",")
        if len(counts) != g:
            raise ValueError(f"{path} line {r + 2}: {len(counts)} counts, header has {g} classes")
        if label != str(r):
            raise ValueError(f"{path} line {r + 2}: row label {label!r}, expected {r}")
        if not all(v.isascii() and v.isdigit() for v in counts):
            raise ValueError(f"{path} line {r + 2}: counts must be non-negative integers")
        rows.append([int(v) for v in counts])
    return ConfusionMatrix(np.array(rows, dtype=np.int64))
