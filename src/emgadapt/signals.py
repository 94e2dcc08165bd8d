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
import warnings
from dataclasses import dataclass
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
        if not 0 < self.sampling_rate_hz < math.inf:
            raise ValueError(f"sampling_rate_hz must be > 0 and finite, got {self.sampling_rate_hz}")
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
    if not math.isfinite(ms * rate_hz):
        raise ValueError(f"{ms} ms at {rate_hz} Hz is not a finite number of samples")
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

    @classmethod
    def fit(cls, X: np.ndarray) -> "NormStats":
        """The column means and standard deviations of the N x d rows `X`, N >= 1."""
        if len(X) == 0:
            raise ValueError("cannot fit normalizer on an empty dataset")
        return cls(mean=X.mean(axis=0), std=X.std(axis=0))

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
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be an N x d array with d >= 1")
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
        """The rows at the integer positions `idx`; a boolean mask or float positions raise."""
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"subset needs integer row positions, got dtype {idx.dtype}")
        idx = idx.astype(int)
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


def average_feature_blocks(X: np.ndarray) -> np.ndarray:
    """Collapse the three per-channel feature blocks of the rows `X` into their mean (d -> d/3)."""
    d = X.shape[1]
    if d % 3 != 0:
        raise ValueError("feature dimension is not divisible into three blocks")
    c = d // 3
    return (X[:, :c] + X[:, c : 2 * c] + X[:, 2 * c :]) / 3.0


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
        side = "test" if not is_test.any() else "training"
        held = ", ".join(map(str, np.unique(windows.repetitions))) or "none"
        raise ValueError(f"recording {rec.subject_id}: test repetitions "
                         f"({', '.join(map(str, test_reps))}) leave the {side} split empty; "
                         f"it holds repetitions {held}")
    features = extract_features(rec.samples, windows.width, windows.step)  # all window offsets
    train_x, test_x = (features[windows.offsets[rows] // windows.step] for rows in (~is_test, is_test))
    stats = NormStats.fit(train_x)
    train_x, test_x = stats.apply(train_x), stats.apply(test_x)
    if feature_mode == "averaged":
        train_x, test_x = average_feature_blocks(train_x), average_feature_blocks(test_x)
        stats = NormStats.fit(train_x)
        train_x, test_x = stats.apply(train_x), stats.apply(test_x)
    train, test = (Dataset(x, windows.labels[rows], rec.num_classes)
                   for x, rows in ((train_x, ~is_test), (test_x, is_test)))
    return train, test


# ---------------------------------------------------------------------------
# file formats


def format_float(v: float) -> str:
    """Shortest text that reads back as exactly `v`; every CSV writer writes floats so."""
    return repr(float(v))


def stem_paths(stem: str | Path) -> tuple[Path, Path]:
    """The `<stem>.csv` and `<stem>.json` a stem names.  Only a trailing `.csv` or
    `.json` is stripped first, so a dot elsewhere (`p.1_train`) stays in the name."""
    stem = Path(stem)
    if stem.suffix in (".csv", ".json"):
        stem = stem.with_suffix("")
    return Path(f"{stem}.csv"), Path(f"{stem}.json")


def read_json(path: str | Path, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in `path`, checked to hold every key in `keys`; every error names `path`."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: must hold a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def write_json(path: str | Path, doc: dict) -> None:
    """Write `doc` as the package writes every JSON file: sorted keys, indent 2, a final newline.
    A NaN or infinite float, which JSON has no value for, raises naming `path` and writes nothing."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n")


def _positive_int(path: Path, doc: dict, key: str) -> int:
    """`doc[key]`, checked to be an integer >= 1; errors name the sidecar `path`."""
    value = doc[key]
    if type(value) is not int:  # bool is an int subclass, so isinstance would pass it
        raise ValueError(f"{path}: key {key!r} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{path}: {key} must be >= 1")
    return value


def _read_csv(path: Path, header: list[str], ints: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Read what `_write_csv` writes: the float columns as a C-ordered N x d matrix and
    the last `ints` columns as an `ints` x N int array.  Every error names `path`, and an
    error in a row or a byte that is not UTF-8 also its line; `kind` names the file in a
    header error.

    After csv checks the header, numpy's C parser reads the body in one `np.loadtxt`
    call, holding no Python object per row or field.  Where numpy reads a field it reads
    the value Python's `float` or `int` does; where the two could differ, the row loop
    `_read_rows` reads the body again and decides, so every value and every error is the
    loop's.  That is when numpy raises or warns (on a `1_0`, a quoted field, non-ASCII
    digits, an int column's `3.0` or a value past int64, or a wrong field count), when it
    returns fewer rows than the body has lines (it skips blank lines), when a lone CR,
    at which csv ends a row, ends a line, and when the body is empty.
    """
    try:
        with open(path, "rb") as fh:
            lines = _count_lines(fh)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise ValueError(f"{path}: empty CSV, no header")
            if first != header:
                raise ValueError(f"unexpected {kind} CSV header in {path}")
            if lines is not None and lines > 1:  # a header that matched is one line
                fields = [("floats", float, (len(header) - ints,)), ("ints", int, (ints,))]
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        table = np.loadtxt(fh, np.dtype(fields), comments=None, delimiter=",", ndmin=1)
                except Exception:  # whatever numpy rejects, the row loop names
                    table = None
                if table is not None and len(table) == lines - 1:  # numpy skips blank lines
                    return np.ascontiguousarray(table["floats"]), table["ints"].T.copy()
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
            return _read_rows(path, reader, len(header), ints)
    except UnicodeDecodeError:  # raised per chunk of text, so its offset is not the file's
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]  # csv ends a line at CR LF, LF and a lone CR
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ValueError(f"{path} line {line}: not UTF-8 text: {exc}") from None
        raise


def _count_lines(fh) -> int | None:
    """The lines of the binary file `fh`, or None if a lone CR ends one."""
    lines = lone_cr = 0
    last = b""
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        if chunk.endswith(b"\r"):  # keep a CR LF in one chunk
            chunk += fh.read(1)
        lines += chunk.count(b"\n")
        lone_cr += chunk.count(b"\r") - chunk.count(b"\r\n")
        last = chunk[-1:]
    if lone_cr:
        return None
    return lines + (last not in (b"", b"\n"))  # a last line with no line end counts too


def _read_rows(path: Path, reader, width: int, ints: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows left in the csv `reader` of `path`, read field by field with Python's
    `float` and `int`: what `_read_csv` returns, or the error it raises."""
    floats, int_values = [], []
    d = width - ints
    try:  # one handler for the whole loop, so a row costs no more
        for row in reader:
            if len(row) != width:
                raise ValueError(f"{len(row)} fields, header has {width}")
            floats.append(list(map(float, row[:d])))
            int_values.extend(map(int, row[d:]))
    except UnicodeDecodeError:  # _read_csv names its line
        raise
    except ValueError as exc:
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    n = len(floats)
    features = np.array(floats).reshape(n, d)
    try:
        return features, np.array(int_values, dtype=int).reshape(n, ints).T
    except OverflowError:  # int() reads any size; data value i is on line i // ints + 2
        info = np.iinfo(int)
        i = next(i for i, v in enumerate(int_values) if not info.min <= v <= info.max)
        raise ValueError(f"{path} line {i // ints + 2}: {int_values[i]} is out of the int64 range") from None


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
    path, meta_path = stem_paths(stem)
    meta = {
        "subject_id": rec.subject_id,
        "condition": rec.condition,
        "sampling_rate_hz": rec.sampling_rate_hz,
        "channels": rec.channels,
        "num_classes": rec.num_classes,
    }
    write_json(meta_path, meta)
    header = [f"ch_{c + 1}" for c in range(rec.channels)] + ["label", "repetition"]
    _write_csv(path, header, rec.samples, rec.labels, rec.repetitions)


def load_recording(stem: str | Path) -> Recording:
    path, meta_path = stem_paths(stem)
    meta = read_json(
        meta_path, ("channels", "subject_id", "condition", "sampling_rate_hz", "num_classes")
    )
    c, g = _positive_int(meta_path, meta, "channels"), _positive_int(meta_path, meta, "num_classes")
    rate = meta["sampling_rate_hz"]
    if type(rate) not in (int, float):
        raise ValueError(f"{meta_path}: key 'sampling_rate_hz' must be a number, got {rate!r}")
    header = [f"ch_{i + 1}" for i in range(c)] + ["label", "repetition"]
    samples, (labels, reps) = _read_csv(path, header, 2, "recording")
    if not len(samples):
        raise ValueError(f"{path}: recording must contain at least one sample")
    _check_rows(path, ~np.isfinite(samples).all(axis=1), "samples contain non-finite values")
    _check_rows(path, (labels < 0) | (labels >= g), "labels out of range for num_classes")
    _check_rows(path, reps < 1, "repetition indices must be positive")
    try:  # the metadata checks left to Recording
        return Recording(meta["subject_id"], meta["condition"], float(rate), c, g, samples,
                         labels, reps)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None


def save_dataset(ds: Dataset, stem: str | Path, names: list[str]) -> None:
    """Write <stem>.csv (features + label) and <stem>.json (sidecar: names, num_classes)."""
    if len(names) != ds.dim:
        raise ValueError(f"{len(names)} feature names for {ds.dim} feature columns")
    path, meta_path = stem_paths(stem)
    write_json(meta_path, {"feature_names": list(names), "num_classes": ds.num_classes})
    _write_csv(path, [f"f_{i + 1}" for i in range(ds.dim)] + ["label"], ds.features, ds.labels)


def load_dataset(stem: str | Path) -> Dataset:
    """Read what `save_dataset` writes; the sidecar's names only count the columns.

    Other sidecar keys, such as an old `norm_stats`, are ignored.
    """
    path, meta_path = stem_paths(stem)
    sidecar = read_json(meta_path, ("feature_names", "num_classes"))
    names, g = sidecar["feature_names"], _positive_int(meta_path, sidecar, "num_classes")
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{meta_path}: key 'feature_names' must be a non-empty list of strings")
    header = [f"f_{i + 1}" for i in range(len(names))] + ["label"]
    features, (labels,) = _read_csv(path, header, 1, "dataset")
    _check_rows(path, ~np.isfinite(features).all(axis=1), "features contain non-finite values")
    _check_rows(path, (labels < 0) | (labels >= g), "labels out of range for num_classes")
    return Dataset(features, labels, g)
