"""Sliding-window feature extraction for labeled multichannel recordings.

A recording is a T x C signal with one class label and one repetition index
per sample (label 0 is rest).  The pipeline cuts the signal into
overlapping fixed-length windows, summarizes every window per channel with
three amplitude features -- mean absolute value, variance and waveform
length -- and z-normalizes feature columns with statistics fitted on
training data only.  Features are computed per recording, over strided
windows; for C = 1 they differ from numpy's per-window sums by round-off.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

CONDITIONS = ("intact", "amputee")
FEATURE_BLOCKS = {"concat": ("mav", "var", "wl"), "averaged": ("avg",)}  # per feature_mode


# ---------------------------------------------------------------------------
# core types


@dataclass
class Recording:
    """Raw multichannel signal with per-sample labels and repetition ids."""

    subject_id: str
    condition: str
    sampling_rate_hz: float
    channels: int
    num_classes: int
    samples: np.ndarray      # T x C
    labels: np.ndarray       # T, ints in [0, num_classes)
    repetitions: np.ndarray  # T, positive ints

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        if not self.sampling_rate_hz > 0:
            raise ValueError("sampling_rate_hz must be > 0")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.samples = np.asarray(self.samples, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.repetitions = np.asarray(self.repetitions, dtype=int)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.channels:
            raise ValueError("samples must be a T x channels array")
        t = self.samples.shape[0]
        if t < 1:
            raise ValueError("recording must contain at least one sample")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain non-finite values")
        if self.labels.shape != (t,) or self.repetitions.shape != (t,):
            raise ValueError("labels and repetitions must have one entry per sample")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range for num_classes")
        if self.repetitions.min() < 1:
            raise ValueError("repetition indices must be positive")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry in milliseconds."""

    window_ms: float = 200.0
    step_ms: float = 10.0

    def __post_init__(self):
        if not self.window_ms > 0 or not self.step_ms > 0:
            raise ValueError("window_ms and step_ms must be > 0")
        if self.step_ms > self.window_ms:
            raise ValueError("step_ms must not exceed window_ms")

    def window_samples(self, rate_hz: float) -> int:
        return ms_to_samples(self.window_ms, rate_hz)

    def step_samples(self, rate_hz: float) -> int:
        return ms_to_samples(self.step_ms, rate_hz)


def ms_to_samples(ms: float, rate_hz: float) -> int:
    # half-up rounding keeps window geometry stable across platforms
    n = int(math.floor(ms * rate_hz / 1000.0 + 0.5))
    if n < 1:
        raise ValueError(f"{ms} ms is shorter than one sample at {rate_hz} Hz")
    return n


@dataclass(frozen=True)
class Windows:
    """The windows a recording keeps: offsets (multiples of `step`) and majority ids."""

    offsets: np.ndarray      # first sample of each window
    labels: np.ndarray       # majority class per window
    repetitions: np.ndarray  # majority repetition id per window
    width: int               # samples per window
    step: int                # samples between candidate offsets


@dataclass
class NormStats:
    """Per-dimension z-normalization statistics (population convention)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-d arrays of equal length")

    def scale(self) -> np.ndarray:
        # dimensions with (numerically) zero spread are mapped to constant 0
        degenerate = self.std <= 1e-12 * (np.abs(self.mean) + 1.0)
        return np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, self.std))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.mean.shape[0]:
            raise ValueError("feature dimension does not match normalization stats")
        return (X - self.mean) * self.scale()


@dataclass
class Dataset:
    """Feature matrix with labels and class count."""

    features: np.ndarray  # N x d
    labels: np.ndarray    # N
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be an N x d array")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per feature row")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


# ---------------------------------------------------------------------------
# segmentation and features


def segment(rec: Recording, spec: WindowSpec) -> Windows:
    """Cut a recording into overlapping windows with majority labels.

    Window offsets are 0, S, 2S, ... while the window still fits; windows
    that span more than one non-rest class (movement transitions) are
    dropped.  Majority ties resolve to the smaller class (repetition) id, so
    rest wins an exact tie at a rest/movement boundary.
    """
    w, s = spec.window_samples(rec.sampling_rate_hz), spec.step_samples(rec.sampling_rate_hz)
    t, g = rec.num_samples, rec.num_classes
    if t < w:
        raise ValueError(f"recording too short: {t} samples < window of {w}")
    rep_ids = np.unique(rec.repetitions)
    # per-window counts of each class, then of each repetition id, one cumulative count at a time
    counts = np.empty((window_count(t, w, s), g + len(rep_ids)), dtype=np.int64)
    cum = np.zeros(t + 1, dtype=np.int64)
    columns = [(rec.labels, c) for c in range(g)] + [(rec.repetitions, r) for r in rep_ids]
    for j, (ids, value) in enumerate(columns):
        np.cumsum(ids == value, out=cum[1:])
        np.subtract(cum[w::s], cum[: t + 1 - w : s], out=counts[:, j])
    keep = np.count_nonzero(counts[:, 1:g], axis=1) <= 1  # else spans two movements
    return Windows(s * np.flatnonzero(keep), np.argmax(counts[keep, :g], axis=1),
                   rep_ids[np.argmax(counts[keep, g:], axis=1)], w, s)


def window_count(num_samples: int, window: int, step: int) -> int:
    """Number of window offsets: floor((T - W) / S) + 1, or 0 when T < W."""
    return max(0, (num_samples - window) // step + 1)


def extract_features(samples: np.ndarray, width: int, step: int) -> np.ndarray:
    """Per-channel MAV, variance and waveform length of every window of a T x C signal.

    Windows of W = `width` samples start at 0, step, 2*step, ... while they
    fit.  Per channel x of a window: mav = sum(|x|) / W, var = sum((x -
    sum(x) / W)^2) / (W - 1), wl = sum(|x[t+1] - x[t]|).  Each sum runs over
    k = 0..W-1 on views of the whole signal, in the order of numpy's
    axis-0 reductions of a C-ordered W x C window: for C >= 2 the values
    equal np.mean(|x|), np.var(x, ddof=1) and np.sum(|np.diff(x)|) bit for
    bit.  For C = 1 numpy sums the lone column pairwise, so from W = 8 on
    they differ by round-off (at most 2e-12 absolute at W = 400).
    Output rows are [mav_1..mav_C, var_1..var_C, wl_1..wl_C].
    """
    if width < 2:
        raise ValueError("window must contain at least 2 samples")
    x = np.asarray(samples, dtype=float)
    n, c = window_count(len(x), width, step), x.shape[1]
    # sample k of each window, n x C: a contiguous slice of a copy of its phase k % step
    phases = [np.ascontiguousarray(x[r::step]) for r in range(min(step, width))]
    at = [phases[k % step][k // step : k // step + n] for k in range(width)]
    # sums start at 0.0, which adds exactly (a first term's -0.0 only flips a zero mean's sign)
    out = np.zeros((n, 3 * c))
    mav, var, wl = np.split(out, 3, axis=1)  # views, filled in place
    total, tmp = np.zeros((n, c)), np.empty((n, c))
    for k in range(width):
        total += at[k]
        mav += np.abs(at[k], out=tmp)
    for k in range(width - 1):
        wl += np.abs(np.subtract(at[k + 1], at[k], out=tmp), out=tmp)
    total /= width  # the window means
    for k in range(width):
        var += np.square(np.subtract(at[k], total, out=tmp), out=tmp)
    mav /= width
    var /= width - 1
    return out


def feature_names(channels: int, feature_mode: str) -> list[str]:
    """Column names of a subject's feature files, as `build_subject_datasets` orders them."""
    return [f"{block}_ch{c + 1}" for block in FEATURE_BLOCKS[feature_mode] for c in range(channels)]


def fit_normalizer(train: Dataset) -> NormStats:
    if len(train) == 0:
        raise ValueError("cannot fit normalizer on an empty dataset")
    return NormStats(mean=train.features.mean(axis=0), std=train.features.std(axis=0))


def apply_normalizer(ds: Dataset, stats: NormStats) -> Dataset:
    return replace(ds, features=stats.apply(ds.features))


def average_feature_blocks(ds: Dataset) -> Dataset:
    """Collapse the three per-channel feature blocks into their mean (d -> d/3)."""
    d = ds.dim
    if d % 3 != 0:
        raise ValueError("feature dimension is not divisible into three blocks")
    c = d // 3
    avg = (ds.features[:, :c] + ds.features[:, c : 2 * c] + ds.features[:, 2 * c :]) / 3.0
    return Dataset(avg, ds.labels, ds.num_classes)


def build_subject_datasets(
    rec: Recording,
    spec: WindowSpec,
    test_reps: tuple[int, ...] = (5, 6),
    feature_mode: str = "concat",
) -> tuple[Dataset, Dataset]:
    """Split one subject's windows into train/test by repetition holdout.

    Windows whose repetition id is in `test_reps` form the test set.  The
    normalizer is fitted on the training windows only and applied to both
    sides.  feature_mode "averaged" additionally collapses the three
    feature blocks to their per-channel mean and re-normalizes.
    """
    if feature_mode not in FEATURE_BLOCKS:
        raise ValueError(f"unknown feature_mode: {feature_mode!r}")
    test_reps = tuple(int(r) for r in test_reps)
    windows = segment(rec, spec)
    is_test = np.isin(windows.repetitions, test_reps)
    if is_test.all() or not is_test.any():
        raise ValueError("no data: repetition holdout left an empty split")
    features = extract_features(rec.samples, windows.width, windows.step)  # all window offsets
    train, test = (
        Dataset(features[windows.offsets[rows] // windows.step], windows.labels[rows],
                rec.num_classes)
        for rows in (~is_test, is_test)
    )
    stats = fit_normalizer(train)
    train, test = apply_normalizer(train, stats), apply_normalizer(test, stats)
    if feature_mode == "averaged":
        train, test = average_feature_blocks(train), average_feature_blocks(test)
        stats2 = fit_normalizer(train)
        train, test = apply_normalizer(train, stats2), apply_normalizer(test, stats2)
    return train, test


# ---------------------------------------------------------------------------
# file formats


def format_float(v: float) -> str:
    """Shortest text that reads back as exactly `v`; every CSV writer writes floats so."""
    return repr(float(v))


def _json_header(path: Path, keys: tuple[str, ...]) -> dict:
    """The JSON object in `path`, checked to hold every key in `keys`."""
    doc = json.loads(path.read_text())
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def _csv_header(reader, path: Path) -> list[str]:
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty CSV, no header")
    return header


def _data_rows(reader, header: list[str]):
    """The remaining rows of `reader`, each checked to have one field per header column.

    Its callers prefix an error in a row with the file and `reader.line_num`.
    """
    for row in reader:
        if len(row) != len(header):
            raise ValueError(f"{len(row)} fields, header has {len(header)}")
        yield row


def _check_rows(path: Path, bad: np.ndarray, message: str) -> None:
    """Raise `message` at the line of the first data row flagged in `bad`."""
    if bad.any():  # data row r is on line r + 2, after the header
        raise ValueError(f"{path} line {np.argmax(bad) + 2}: {message}")


def _write_csv(path: Path, header: list[str], values: np.ndarray, *int_columns: np.ndarray) -> None:
    """Write the bytes csv.writer gives for `header` and format_float rows plus int columns."""
    with open(path, "w", newline="") as fh:  # row by row: the text of a whole file can be large
        fh.write(",".join(header) + "\r\n")
        rows = zip(values, np.column_stack(int_columns))
        fh.writelines(",".join(map(repr, v.tolist() + i.tolist())) + "\r\n" for v, i in rows)


def save_recording(rec: Recording, stem: str | Path) -> None:
    """Write <stem>.json (metadata) and <stem>.csv (samples)."""
    stem = Path(stem)
    meta = {
        "subject_id": rec.subject_id,
        "condition": rec.condition,
        "sampling_rate_hz": rec.sampling_rate_hz,
        "channels": rec.channels,
        "num_classes": rec.num_classes,
    }
    stem.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    header = [f"ch_{c + 1}" for c in range(rec.channels)] + ["label", "repetition"]
    _write_csv(stem.with_suffix(".csv"), header, rec.samples, rec.labels, rec.repetitions)


def load_recording(stem: str | Path) -> Recording:
    stem = Path(stem)
    if stem.suffix:
        stem = stem.with_suffix("")
    meta_path = stem.with_suffix(".json")
    meta = _json_header(
        meta_path, ("channels", "subject_id", "condition", "sampling_rate_hz", "num_classes")
    )
    for key in ("channels", "num_classes"):
        if type(meta[key]) is not int:  # bool is an int subclass, so isinstance would pass it
            raise ValueError(f"{meta_path}: key {key!r} must be an integer, got {meta[key]!r}")
        if meta[key] < 1:
            raise ValueError(f"{meta_path}: {key} must be >= 1")
    rate = meta["sampling_rate_hz"]
    if type(rate) not in (int, float):
        raise ValueError(f"{meta_path}: key 'sampling_rate_hz' must be a number, got {rate!r}")
    path = stem.with_suffix(".csv")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _csv_header(reader, path)
        c = meta["channels"]
        if header != [f"ch_{i + 1}" for i in range(c)] + ["label", "repetition"]:
            raise ValueError(f"unexpected recording CSV header in {path}")
        samples, labels, reps = [], [], []
        try:  # one handler for the whole loop, so a row costs no more
            for row in _data_rows(reader, header):
                samples.append([float(v) for v in row[:c]])
                labels.append(int(row[c]))
                reps.append(int(row[c + 1]))
        except ValueError as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    samples = np.array(samples, dtype=float).reshape(len(samples), c)
    labels, reps = np.array(labels, dtype=int), np.array(reps, dtype=int)
    _check_rows(path, ~np.isfinite(samples).all(axis=1), "samples contain non-finite values")
    _check_rows(path, (labels < 0) | (labels >= meta["num_classes"]),
                "labels out of range for num_classes")
    _check_rows(path, reps < 1, "repetition indices must be positive")
    return Recording(
        subject_id=meta["subject_id"],
        condition=meta["condition"],
        sampling_rate_hz=float(rate),
        channels=c,
        num_classes=meta["num_classes"],
        samples=samples,
        labels=labels,
        repetitions=reps,
    )


def save_dataset(ds: Dataset, stem: str | Path, names: list[str]) -> None:
    """Write <stem>.csv (features + label) and <stem>.json (sidecar: names, num_classes)."""
    if len(names) != ds.dim:
        raise ValueError(f"{len(names)} feature names for {ds.dim} feature columns")
    stem = Path(stem)
    sidecar = {"feature_names": list(names), "num_classes": ds.num_classes}
    stem.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    _write_csv(stem.with_suffix(".csv"), [f"f_{i + 1}" for i in range(ds.dim)] + ["label"],
               ds.features, ds.labels)


def load_dataset(stem: str | Path) -> Dataset:
    """Read what `save_dataset` writes; the sidecar's names only count the columns.

    Other sidecar keys, such as an old `norm_stats`, are ignored.
    """
    stem = Path(stem)
    if stem.suffix:
        stem = stem.with_suffix("")
    meta_path = stem.with_suffix(".json")
    sidecar = _json_header(meta_path, ("feature_names", "num_classes"))
    names, g = sidecar["feature_names"], sidecar["num_classes"]
    if type(g) is not int:
        raise ValueError(f"{meta_path}: key 'num_classes' must be an integer, got {g!r}")
    if g < 1:
        raise ValueError(f"{meta_path}: num_classes must be >= 1")
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{meta_path}: key 'feature_names' must be a non-empty list of strings")
    d = len(names)
    path = stem.with_suffix(".csv")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _csv_header(reader, path)
        if header != [f"f_{i + 1}" for i in range(d)] + ["label"]:
            raise ValueError(f"unexpected dataset CSV header in {path}")
        rows, labels = [], []
        try:  # one handler for the whole loop, so a row costs no more
            for row in _data_rows(reader, header):
                rows.append([float(v) for v in row[:d]])
                labels.append(int(row[d]))
        except ValueError as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    features = np.array(rows) if rows else np.zeros((0, d))
    labels = np.array(labels, dtype=int)
    _check_rows(path, ~np.isfinite(features).all(axis=1), "features contain non-finite values")
    _check_rows(path, (labels < 0) | (labels >= g), "labels out of range for num_classes")
    return Dataset(features, labels, g)
