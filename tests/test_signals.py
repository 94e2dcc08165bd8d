"""Windowing, feature extraction, normalization and dataset file formats."""

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from emgadapt import synth
from emgadapt.signals import (
    Dataset,
    Recording,
    WindowSpec,
    apply_normalizer,
    average_feature_blocks,
    build_subject_datasets,
    extract_features,
    feature_names,
    fit_normalizer,
    format_float,
    load_dataset,
    load_recording,
    save_dataset,
    save_recording,
    segment,
    window_count,
)


def _recording(samples, labels, reps, rate=1000.0, num_classes=None, condition="intact"):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    labels = np.asarray(labels, dtype=int)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Recording(
        subject_id="t00",
        condition=condition,
        sampling_rate_hz=rate,
        channels=samples.shape[1],
        num_classes=num_classes,
        samples=samples,
        labels=labels,
        repetitions=np.asarray(reps, dtype=int),
    )


# ---------------------------------------------------------------------------
# window geometry


def test_window_count_closed_form_vs_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = int(rng.integers(1, 500))
        w = int(rng.integers(1, 60))
        s = int(rng.integers(1, w + 1))
        brute = sum(1 for start in range(0, t + 1) if start % s == 0 and start + w <= t)
        assert window_count(t, w, s) == brute


def test_window_count_reference_case():
    # 200 ms / 10 ms at 2000 Hz over 2000 samples: (2000 - 400) // 20 + 1
    spec = WindowSpec(window_ms=200.0, step_ms=10.0)
    w = spec.window_samples(2000.0)
    s = spec.step_samples(2000.0)
    assert (w, s) == (400, 20)
    assert window_count(2000, w, s) == 81


def test_ms_to_samples_rounds_half_up():
    assert WindowSpec(window_ms=2.5, step_ms=2.5).window_samples(1000.0) == 3
    assert WindowSpec(window_ms=2.4, step_ms=2.4).window_samples(1000.0) == 2
    with pytest.raises(ValueError):
        WindowSpec(window_ms=0.4, step_ms=0.4).window_samples(1000.0)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(window_ms=0.0, step_ms=1.0)
    with pytest.raises(ValueError):
        WindowSpec(window_ms=10.0, step_ms=20.0)


# ---------------------------------------------------------------------------
# per-window reference: the window-at-a-time pipeline the batch path replaces


def _reference_segment(rec, spec):
    """(offset, label, repetition) of every kept window, one window at a time."""
    w = spec.window_samples(rec.sampling_rate_hz)
    s = spec.step_samples(rec.sampling_rate_hz)
    out = []
    for start in range(0, rec.num_samples - w + 1, s):
        counts = np.bincount(rec.labels[start : start + w], minlength=rec.num_classes)
        if np.count_nonzero(counts[1:]) > 1:
            continue
        rep_counts = np.bincount(rec.repetitions[start : start + w])
        out.append((start, int(np.argmax(counts)), int(np.argmax(rep_counts))))
    return out


def _reference_features(window):
    """Per-channel MAV, VAR (ddof=1) and WL of one W x C window."""
    mav = np.mean(np.abs(window), axis=0)
    var = np.var(window, axis=0, ddof=1)
    wl = np.sum(np.abs(np.diff(window, axis=0)), axis=0)
    return np.concatenate([mav, var, wl])


def _reference_datasets(rec, spec, test_reps):
    """Normalized train/test sets of the per-window pipeline, or None for an empty split."""
    w = spec.window_samples(rec.sampling_rate_hz)
    split = {True: ([], []), False: ([], [])}
    for start, label, rep in _reference_segment(rec, spec):
        feats, labels = split[rep in test_reps]
        feats.append(_reference_features(rec.samples[start : start + w]))
        labels.append(label)
    if not split[True][1] or not split[False][1]:
        return None
    train, test = (
        Dataset(np.array(x), np.array(y), rec.num_classes)
        for x, y in (split[False], split[True])
    )
    stats = fit_normalizer(train)
    return apply_normalizer(train, stats), apply_normalizer(test, stats)


def _features_of_one_window(window):
    window = np.asarray(window, dtype=float)
    return extract_features(window, len(window), 1)[0]


# ---------------------------------------------------------------------------
# segmentation


def test_segment_majority_label_and_count():
    # 10 samples, window 4, step 2 -> offsets 0,2,4,6 (4 windows)
    labels = [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]
    rec = _recording(np.arange(10.0), labels, [1] * 10, rate=1000.0)
    spec = WindowSpec(window_ms=4.0, step_ms=2.0)
    wins = segment(rec, spec)
    assert len(wins.offsets) == 4
    assert wins.offsets.tolist() == [0, 2, 4, 6] and (wins.width, wins.step) == (4, 2)
    # offsets 0: 3 rest/1 move -> 0; 2: 1 rest/3 move -> 1; 4: 2/2 tie -> rest
    assert wins.labels.tolist() == [0, 1, 1, 0]


def test_segment_drops_windows_spanning_two_movements():
    labels = [1, 1, 2, 2]
    rec = _recording(np.arange(4.0), labels, [1] * 4, rate=1000.0, num_classes=3)
    wins = segment(rec, WindowSpec(window_ms=4.0, step_ms=4.0))
    assert len(wins.offsets) == 0
    # rest in between does not rescue a window that still sees both movements
    labels = [1, 0, 2, 0]
    rec = _recording(np.arange(4.0), labels, [1] * 4, rate=1000.0, num_classes=3)
    assert len(segment(rec, WindowSpec(window_ms=4.0, step_ms=4.0)).offsets) == 0


def test_segment_repetition_is_window_majority():
    labels = [1, 1, 1, 1]
    reps = [1, 2, 2, 2]
    rec = _recording(np.arange(4.0), labels, reps, rate=1000.0, num_classes=2)
    wins = segment(rec, WindowSpec(window_ms=4.0, step_ms=4.0))
    assert len(wins.offsets) == 1 and wins.repetitions.tolist() == [2]


def test_segment_repetition_tie_goes_to_the_smaller_id():
    rec = _recording(np.arange(4.0), [1] * 4, [7, 7, 3, 3], rate=1000.0, num_classes=2)
    assert segment(rec, WindowSpec(window_ms=4.0, step_ms=4.0)).repetitions.tolist() == [3]


def test_segment_too_short_recording_raises():
    rec = _recording(np.arange(3.0), [0, 0, 0], [1, 1, 1], rate=1000.0, num_classes=1)
    with pytest.raises(ValueError):
        segment(rec, WindowSpec(window_ms=5.0, step_ms=1.0))


@st.composite
def _gapped_recordings(draw):
    """A recording made of runs of rest and gapped movement and repetition ids, with its
    window geometry and held-out repetitions.

    Run lengths of W/2 and W put exact label ties on rest/movement boundaries.
    """
    c = draw(st.integers(1, 12))
    w = draw(st.integers(2, 48))
    s = draw(st.integers(1, w))
    num_classes = draw(st.integers(2, 12))
    label_ids = [0] + draw(st.lists(st.integers(1, num_classes - 1), max_size=3, unique=True))
    rep_ids = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True))
    run = st.tuples(
        st.sampled_from(label_ids), st.sampled_from(rep_ids),
        st.one_of(st.sampled_from([w // 2, w]), st.integers(1, 2 * w)),
    )
    runs = draw(st.lists(run, min_size=1, max_size=12))
    labels = np.concatenate([np.full(n, g) for g, _, n in runs])
    reps = np.concatenate([np.full(n, r) for _, r, n in runs])
    pad = max(0, w - len(labels))  # at least one window
    labels, reps = np.pad(labels, (0, pad), mode="edge"), np.pad(reps, (0, pad), mode="edge")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal((len(labels), c)) * rng.uniform(0.1, 10.0, size=c)
    rec = _recording(samples, labels, reps, rate=1000.0, num_classes=num_classes)
    test_reps = tuple(draw(st.lists(st.sampled_from(rep_ids), min_size=1, max_size=len(rep_ids) - 1,
                                    unique=True)))
    return rec, WindowSpec(window_ms=float(w), step_ms=float(s)), test_reps


@settings(max_examples=150, deadline=None)
@given(_gapped_recordings())
def test_batch_windows_and_features_match_the_per_window_reference(case):
    rec, spec, test_reps = case
    wins = segment(rec, spec)
    ref = _reference_segment(rec, spec)
    assert len(wins.offsets) == len(ref)
    assert list(zip(wins.offsets.tolist(), wins.labels.tolist(), wins.repetitions.tolist())) == ref
    if not ref:
        return
    feats = extract_features(rec.samples, wins.width, wins.step)[wins.offsets // wins.step]
    ref_feats = np.array([_reference_features(rec.samples[o : o + wins.width]) for o, _, _ in ref])
    if rec.channels == 1:  # numpy sums a lone contiguous column pairwise
        assert_allclose(feats, ref_feats, rtol=1e-12)
    else:
        assert np.array_equal(feats, ref_feats)

    ref_sets = _reference_datasets(rec, spec, test_reps)
    if ref_sets is None:
        with pytest.raises(ValueError, match="empty split"):
            build_subject_datasets(rec, spec, test_reps=test_reps)
        return
    for ds, ref_ds in zip(build_subject_datasets(rec, spec, test_reps=test_reps), ref_sets):
        assert np.array_equal(ds.labels, ref_ds.labels)
        if rec.channels == 1:
            assert_allclose(ds.features, ref_ds.features, rtol=1e-9, atol=1e-9)
        else:
            assert np.array_equal(ds.features, ref_ds.features)


@pytest.mark.parametrize("channels", [10, 12])
def test_batch_features_of_a_2khz_recording_equal_the_per_window_reference(channels):
    spec = synth.generate_cohort(1, base_seed=3, num_classes=4, channels=channels)[0]
    rec = synth.generate_recording(spec, reps=2, movement_ms=600.0, rest_ms=300.0, rate_hz=2000.0)
    window = WindowSpec()  # 200 ms / 10 ms: 400-sample windows, 20-sample step
    for ds, ref_ds in zip(build_subject_datasets(rec, window, test_reps=(2,)),
                          _reference_datasets(rec, window, (2,))):
        assert np.array_equal(ds.labels, ref_ds.labels)
        assert np.array_equal(ds.features, ref_ds.features)


# ---------------------------------------------------------------------------
# features


def test_feature_values_alternating_signs():
    w = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    mav, var, wl = _features_of_one_window(w)
    assert mav == pytest.approx(1.0)
    assert var == pytest.approx(4.0 / 3.0)  # ddof = 1
    assert wl == pytest.approx(6.0)


def test_feature_values_ramp():
    w = np.array([0.0, 1.0, 2.0, 3.0])[:, None]
    mav, var, wl = _features_of_one_window(w)
    assert mav == pytest.approx(1.5)
    assert var == pytest.approx(5.0 / 3.0)
    assert wl == pytest.approx(3.0)


def test_feature_block_ordering_and_names():
    # channel 0 constant 2, channel 1 ramp 0..3
    w = np.stack([np.full(4, 2.0), np.arange(4.0)], axis=1)
    feats = _features_of_one_window(w)
    assert_allclose(feats, [2.0, 1.5, 0.0, 5.0 / 3.0, 0.0, 3.0])
    assert feature_names(2, "concat") == [
        "mav_ch1", "mav_ch2", "var_ch1", "var_ch2", "wl_ch1", "wl_ch2"
    ]
    assert feature_names(3, "averaged") == ["avg_ch1", "avg_ch2", "avg_ch3"]


def test_feature_dimension_is_three_per_channel():
    rng = np.random.default_rng(0)
    for c in (1, 4, 8):
        assert _features_of_one_window(rng.normal(size=(12, c))).shape == (3 * c,)
    assert extract_features(rng.normal(size=(30, 4)), 12, 5).shape == (4, 12)  # offsets 0, 5, 10, 15


def test_features_need_windows_of_at_least_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        extract_features(np.ones((10, 3)), 1, 1)


# ---------------------------------------------------------------------------
# normalization


def test_normalizer_two_point_example():
    ds = Dataset(
        features=np.array([[1.0], [3.0]]),
        labels=np.array([0, 1]),
        num_classes=2,
    )
    out = apply_normalizer(ds, fit_normalizer(ds))
    assert_allclose(out.features, [[-1.0], [1.0]])


def test_normalizer_constant_dimension_maps_to_zero():
    ds = Dataset(
        features=np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 5.0]]),
        labels=np.array([0, 1, 0]),
        num_classes=2,
    )
    out = apply_normalizer(ds, fit_normalizer(ds))
    assert_allclose(out.features[:, 0], 0.0)
    assert out.features[:, 1].std() > 0


def test_average_feature_blocks():
    feats = np.array([[1.0, 2.0, 10.0, 20.0, 100.0, 200.0]])
    ds = Dataset(features=feats, labels=np.array([0]), num_classes=1)
    avg = average_feature_blocks(ds)
    assert_allclose(avg.features, [[37.0, 74.0]])
    assert avg.dim == 2


# ---------------------------------------------------------------------------
# subject pipeline


def _toy_recording(seed=0):
    rng = np.random.default_rng(seed)
    chunks, labels, reps = [], [], []
    for rep in range(1, 7):
        for cls in (0, 1, 2):
            scale = 0.1 + cls
            chunks.append(scale * rng.standard_normal((40, 2)))
            labels.extend([cls] * 40)
            reps.extend([rep] * 40)
    return _recording(np.concatenate(chunks), labels, reps, rate=1000.0, num_classes=3)


_TOY_NAMES = feature_names(2, "concat")  # the sidecar names of a toy recording's concat sets


def test_build_subject_datasets_repetition_holdout():
    rec = _toy_recording()
    spec = WindowSpec(window_ms=10.0, step_ms=5.0)
    train, test = build_subject_datasets(rec, spec, test_reps=(5, 6))
    n_total = len(segment(rec, spec).offsets)
    assert len(train) + len(test) == n_total
    assert len(train) > 0 and len(test) > 0
    # training features are z-normalized with their own stats
    assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
    # the test side is scaled with the training stats, not its own
    assert not np.allclose(test.features.mean(axis=0), 0.0, atol=1e-6)
    assert train.num_classes == test.num_classes == 3


def test_build_subject_datasets_averaged_mode_dimension():
    rec = _toy_recording()
    spec = WindowSpec(window_ms=10.0, step_ms=5.0)
    train_c, _ = build_subject_datasets(rec, spec, feature_mode="concat")
    train_a, _ = build_subject_datasets(rec, spec, feature_mode="averaged")
    assert train_c.dim == 6  # 3 blocks x 2 channels
    assert train_a.dim == 2  # one value per channel
    with pytest.raises(ValueError):
        build_subject_datasets(rec, spec, feature_mode="pca")


def test_build_subject_datasets_empty_split_raises():
    rec = _toy_recording()
    with pytest.raises(ValueError):
        build_subject_datasets(
            rec, WindowSpec(10.0, 5.0), test_reps=(1, 2, 3, 4, 5, 6)
        )


# ---------------------------------------------------------------------------
# file round trips


def test_recording_round_trip(tmp_path):
    rec = _toy_recording(seed=3)
    save_recording(rec, tmp_path / "subj")
    back = load_recording(tmp_path / "subj")
    assert back.subject_id == rec.subject_id
    assert back.condition == rec.condition
    assert back.num_classes == rec.num_classes
    assert np.array_equal(back.labels, rec.labels)
    assert np.array_equal(back.repetitions, rec.repetitions)
    assert np.array_equal(back.samples, rec.samples)  # repr round trip is exact


@pytest.mark.parametrize("mode", ["concat", "averaged"])
def test_dataset_round_trip(tmp_path, mode):
    rec = _toy_recording(seed=4)
    train, _ = build_subject_datasets(rec, WindowSpec(10.0, 5.0), feature_mode=mode)
    names = feature_names(rec.channels, mode)
    save_dataset(train, tmp_path / "train", names)
    back = load_dataset(tmp_path / "train")
    assert np.array_equal(back.features, train.features)
    assert np.array_equal(back.labels, train.labels)
    assert back.num_classes == train.num_classes
    sidecar = json.loads((tmp_path / "train.json").read_text())
    assert sidecar == {"feature_names": names, "num_classes": train.num_classes}
    with pytest.raises(ValueError, match="feature names for"):
        save_dataset(train, tmp_path / "short", names[:-1])


def _reference_csv(header, rows):
    """The bytes csv.writer writes for `header` and `rows` of format_float values and ints."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for floats, ints in rows:
        writer.writerow([format_float(v) for v in floats] + [int(i) for i in ints])
    return buf.getvalue().encode()


_EDGE_VALUES = np.array([
    [-0.0, 5e-324, 1e300, -2.5],
    [0.1, -1e-300, 123456789.125, -0.0],
    [1.0 / 3.0, -7.0, 2.0**-1074 * 3, 1e16],
])


def test_save_recording_writes_the_csv_writer_bytes(tmp_path):
    rec = Recording(
        subject_id="edge", condition="amputee", sampling_rate_hz=100.0, channels=4, num_classes=12,
        samples=_EDGE_VALUES, labels=[11, 0, 10], repetitions=[1, 17, 3],
    )
    save_recording(rec, tmp_path / "rec")
    header = ["ch_1", "ch_2", "ch_3", "ch_4", "label", "repetition"]
    rows = zip(rec.samples, zip(rec.labels, rec.repetitions))
    assert (tmp_path / "rec.csv").read_bytes() == _reference_csv(header, rows)
    back = load_recording(tmp_path / "rec")
    assert np.array_equal(back.samples, rec.samples)
    assert np.array_equal(np.signbit(back.samples), np.signbit(rec.samples))
    assert back.labels.tolist() == [11, 0, 10] and back.repetitions.tolist() == [1, 17, 3]


def test_save_dataset_writes_the_csv_writer_bytes(tmp_path):
    ds = Dataset(features=_EDGE_VALUES, labels=[10, 11, 3], num_classes=12)
    save_dataset(ds, tmp_path / "ds", ["a", "b", "c", "d"])
    rows = zip(ds.features, ds.labels[:, None])
    assert (tmp_path / "ds.csv").read_bytes() == _reference_csv(["f_1", "f_2", "f_3", "f_4", "label"], rows)
    empty = ds.subset(np.array([], dtype=int))
    save_dataset(empty, tmp_path / "empty", ["a", "b", "c", "d"])
    assert (tmp_path / "empty.csv").read_bytes() == _reference_csv(["f_1", "f_2", "f_3", "f_4", "label"], [])
    assert len(load_dataset(tmp_path / "empty")) == 0


def test_loaders_accept_lf_line_ends(tmp_path):
    rec = _toy_recording(seed=2)
    save_recording(rec, tmp_path / "rec")
    train, _ = build_subject_datasets(rec, WindowSpec(10.0, 5.0))
    save_dataset(train, tmp_path / "ds", _TOY_NAMES)
    for stem in (tmp_path / "rec", tmp_path / "ds"):
        csv_path = stem.with_suffix(".csv")
        text = csv_path.read_bytes().decode()
        assert text.count("\r\n") == text.count("\n") > 1
        csv_path.write_bytes(text.replace("\r\n", "\n").encode())
    back = load_recording(tmp_path / "rec")
    assert np.array_equal(back.samples, rec.samples) and np.array_equal(back.labels, rec.labels)
    assert np.array_equal(back.repetitions, rec.repetitions)
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.features, train.features) and np.array_equal(back.labels, train.labels)


@pytest.mark.parametrize("damage", ["truncated", "overlong"])
def test_loaders_reject_rows_that_do_not_match_the_header(tmp_path, damage):
    rec = _toy_recording(seed=6)
    save_recording(rec, tmp_path / "rec")
    train, _ = build_subject_datasets(rec, WindowSpec(10.0, 5.0))
    save_dataset(train, tmp_path / "ds", _TOY_NAMES)
    for stem, load in ((tmp_path / "rec", load_recording), (tmp_path / "ds", load_dataset)):
        csv_path = stem.with_suffix(".csv")
        lines = csv_path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] if damage == "truncated" else lines[3] + ",0"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{csv_path.name} line 4"):
            load(stem)


def _save_toy_files(tmp_path, which):
    """A toy recording's CSV and sidecar, or its concat training split's; and the loader."""
    rec = _toy_recording(seed=3)
    if which == "recording":
        save_recording(rec, tmp_path / "x")
        return load_recording
    train, _ = build_subject_datasets(rec, WindowSpec(10.0, 5.0))
    save_dataset(train, tmp_path / "x", _TOY_NAMES)
    return load_dataset


@pytest.mark.parametrize("which", ["recording", "dataset"])
def test_loaders_reject_an_empty_csv(tmp_path, which):
    load = _save_toy_files(tmp_path, which)
    (tmp_path / "x.csv").write_text("")
    with pytest.raises(ValueError, match="x.csv: empty CSV, no header"):
        load(tmp_path / "x")


@pytest.mark.parametrize(
    "which, line, column, value, message",
    [
        ("dataset", 3, 0, "abc", "could not convert string to float: 'abc'"),
        ("dataset", 4, -1, "1.0", "invalid literal for int() with base 10: '1.0'"),
        ("dataset", 5, 2, "nan", "features contain non-finite values"),
        ("dataset", 6, -1, "3", "labels out of range for num_classes"),
        ("dataset", 7, -1, "-1", "labels out of range for num_classes"),
        ("recording", 3, 1, "abc", "could not convert string to float: 'abc'"),
        ("recording", 4, -2, "1.0", "invalid literal for int() with base 10: '1.0'"),
        ("recording", 5, -1, "x", "invalid literal for int() with base 10: 'x'"),
        ("recording", 6, -2, "3", "labels out of range for num_classes"),
        ("recording", 7, -1, "0", "repetition indices must be positive"),
    ],
    ids=[
        "ds-float", "ds-int", "ds-non-finite", "ds-label-high", "ds-label-negative", "rec-float",
        "rec-label-int", "rec-repetition-int", "rec-label-high", "rec-repetition-zero",
    ],
)
def test_loaders_name_the_file_and_line_of_a_bad_field(
    tmp_path, which, line, column, value, message
):
    load = _save_toy_files(tmp_path, which)
    csv_path = tmp_path / "x.csv"
    lines = csv_path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"x.csv line {line}: {message}")):
        load(tmp_path / "x")


@pytest.mark.parametrize(
    "which, key",
    [("dataset", "num_classes"), ("recording", "num_classes"), ("recording", "channels")],
)
def test_loaders_name_the_sidecar_of_a_count_below_one(tmp_path, which, key):
    load = _save_toy_files(tmp_path, which)
    meta_path = tmp_path / "x.json"
    doc = json.loads(meta_path.read_text())
    doc[key] = 0
    meta_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"x.json: {key} must be >= 1"):
        load(tmp_path / "x")


@pytest.mark.parametrize(
    "key, value",
    [
        ("channels", "2"),
        ("channels", 2.0),
        ("channels", True),
        ("num_classes", "3"),
        ("num_classes", False),
        ("sampling_rate_hz", "100"),
        ("sampling_rate_hz", True),
        ("sampling_rate_hz", None),
    ],
)
def test_load_recording_rejects_a_header_value_of_the_wrong_type(tmp_path, key, value):
    save_recording(_toy_recording(seed=8), tmp_path / "rec")
    meta_path = tmp_path / "rec.json"
    doc = json.loads(meta_path.read_text())
    doc[key] = value
    meta_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"rec.json: key '{key}' must be"):
        load_recording(tmp_path / "rec")


@pytest.mark.parametrize(
    "key, damage",
    [
        ("num_classes", lambda doc: 2.7),
        ("num_classes", lambda doc: True),
        ("num_classes", lambda doc: "3"),
        ("feature_names", lambda doc: "ab"),
        ("feature_names", lambda doc: [1] * len(doc["feature_names"])),
        ("feature_names", lambda doc: []),
    ],
    ids=["classes-float", "classes-bool", "classes-str", "names-str", "names-ints", "names-empty"],
)
def test_load_dataset_rejects_a_sidecar_value_of_the_wrong_type(tmp_path, key, damage):
    train, _ = build_subject_datasets(_toy_recording(seed=9), WindowSpec(10.0, 5.0))
    save_dataset(train, tmp_path / "ds", _TOY_NAMES)
    meta_path = tmp_path / "ds.json"
    doc = json.loads(meta_path.read_text())
    doc[key] = damage(doc)
    meta_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"ds.json: key '{key}' must be"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "stats",
    [None, {"mean": [0.5] * 6, "std": [2.0] * 6}, {"std": [2.0] * 5}, {}, "junk"],
    ids=["null", "well-formed", "short-std-no-mean", "empty", "string"],
)
def test_load_dataset_ignores_an_old_norm_stats_key(tmp_path, stats):
    # sidecars of older versions carry the normalizer; nothing reads it
    train, _ = build_subject_datasets(_toy_recording(seed=9), WindowSpec(10.0, 5.0))
    save_dataset(train, tmp_path / "ds", _TOY_NAMES)
    meta_path = tmp_path / "ds.json"
    doc = json.loads(meta_path.read_text())
    doc["norm_stats"] = stats
    meta_path.write_text(json.dumps(doc))
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.features, train.features)
    assert np.array_equal(back.labels, train.labels)
    assert back.num_classes == train.num_classes


def test_save_recording_is_deterministic(tmp_path):
    rec = _toy_recording(seed=5)
    save_recording(rec, tmp_path / "a")
    save_recording(rec, tmp_path / "b")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_recording_validation():
    with pytest.raises(ValueError):
        _recording(np.arange(4.0), [0, 0, 1, 1], [1, 1, 1, 1], num_classes=1)
    with pytest.raises(ValueError):
        _recording(np.arange(4.0), [0, 0, 0, 0], [0, 1, 1, 1])  # repetition 0
    with pytest.raises(ValueError):
        _recording(np.arange(4.0), [0, 0, 0, 0], [1, 1, 1, 1], condition="robot")
