"""Synthetic cohort generation: determinism, structure, shift and degradation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import lssvm
from emgadapt.kernels import KernelSpec
from emgadapt.synth import SubjectSpec, generate_cohort, generate_recording, subject_datasets


def _spec(seed=0, channels=3, num_classes=3, degradation=0.0, condition="intact"):
    rng = np.random.default_rng(99)
    profiles = np.zeros((num_classes, channels))
    profiles[1:] = rng.uniform(0.5, 2.0, size=(num_classes - 1, channels))
    return SubjectSpec(
        subject_id="s00",
        seed=seed,
        num_classes=num_classes,
        channels=channels,
        gain_matrix=np.eye(channels),
        class_profiles=profiles,
        noise_floor=0.1,
        condition=condition,
        degradation=degradation,
    )


def test_recording_is_bitwise_deterministic():
    a = generate_recording(_spec(seed=5), reps=2, movement_ms=200, rest_ms=100, rate_hz=100)
    b = generate_recording(_spec(seed=5), reps=2, movement_ms=200, rest_ms=100, rate_hz=100)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.repetitions, b.repetitions)
    c = generate_recording(_spec(seed=6), reps=2, movement_ms=200, rest_ms=100, rate_hz=100)
    assert not np.array_equal(a.samples, c.samples)


def test_recording_block_structure():
    rec = generate_recording(_spec(), reps=2, movement_ms=200, rest_ms=100, rate_hz=100)
    w_move, w_rest = 20, 10
    # lead rest + per movement class and rep: movement then rest
    want = w_rest + (3 - 1) * 2 * (w_move + w_rest)
    assert rec.num_samples == want
    assert set(np.unique(rec.labels)) == {0, 1, 2}
    assert set(np.unique(rec.repetitions)) == {1, 2}
    # the first block is rest with repetition 1
    assert np.all(rec.labels[:w_rest] == 0)
    assert np.all(rec.repetitions[:w_rest] == 1)
    # each movement block is constant-label for w_move samples
    first_move = slice(w_rest, w_rest + w_move)
    assert np.all(rec.labels[first_move] == 1)


def test_movement_amplitude_exceeds_rest():
    rec = generate_recording(_spec(seed=3), reps=4, movement_ms=400, rest_ms=200, rate_hz=100)
    rest_power = rec.samples[rec.labels == 0].std()
    move_power = rec.samples[rec.labels == 2].std()
    assert move_power > 2.0 * rest_power


def test_degradation_raises_noise_and_kills_channels():
    channels = 8
    base = _spec(seed=4, channels=channels, num_classes=3)
    degraded = SubjectSpec(
        subject_id=base.subject_id,
        seed=base.seed,
        num_classes=base.num_classes,
        channels=channels,
        gain_matrix=base.gain_matrix,
        class_profiles=base.class_profiles,
        noise_floor=base.noise_floor,
        condition="amputee",
        degradation=0.5,
    )
    rec = generate_recording(degraded, reps=2, movement_ms=300, rest_ms=100, rate_hz=100)
    move = rec.samples[rec.labels == 1]
    # floor(0.5 * 8 / 2) = 2 channels carry noise only: their movement power
    # stays at the (raised) noise floor
    powers = move.std(axis=0)
    floor = 0.1 * 1.5
    dead = np.sum(powers < 2.0 * floor)
    assert dead == 2
    rest = rec.samples[rec.labels == 0]
    assert rest.std() == pytest.approx(floor, rel=0.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(num_classes=1)
    spec = _spec()
    with pytest.raises(ValueError):
        SubjectSpec(
            subject_id="x", seed=0, num_classes=3, channels=3,
            gain_matrix=np.zeros((3, 3)), class_profiles=spec.class_profiles,
            noise_floor=0.1, condition="intact",
        )
    with pytest.raises(ValueError):
        generate_recording(spec, reps=0)
    with pytest.raises(ValueError):
        generate_recording(spec, movement_ms=1.0, rate_hz=100.0)  # sub-sample block


@pytest.mark.parametrize("field", ["gain_matrix", "class_profiles"])
def test_spec_rejects_a_non_finite_matrix_by_name(field):
    spec = _spec()
    bad = getattr(spec, field).copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SubjectSpec(**{**vars(spec), field: bad})


def test_rep_variability_wobbles_channel_power_between_reps():
    base = _spec(seed=11, channels=4, num_classes=3)
    wobbly = SubjectSpec(
        subject_id=base.subject_id,
        seed=base.seed,
        num_classes=base.num_classes,
        channels=base.channels,
        gain_matrix=base.gain_matrix,
        class_profiles=base.class_profiles,
        noise_floor=base.noise_floor,
        condition=base.condition,
        rep_variability=0.6,
    )
    kwargs = dict(reps=6, movement_ms=2000, rest_ms=200, rate_hz=100)
    flat = generate_recording(base, **kwargs)
    rec = generate_recording(wobbly, **kwargs)

    def rep_powers(r):
        # per-repetition channel power of movement class 1
        return np.array([
            r.samples[(r.labels == 1) & (r.repetitions == rep)].std(axis=0)
            for rep in range(1, 7)
        ])

    # the wobble rescales channels independently per repetition, so power
    # varies across reps much more than sampling noise alone produces
    spread_flat = rep_powers(flat).std(axis=0).mean()
    spread_wobbly = rep_powers(rec).std(axis=0).mean()
    assert spread_wobbly > 3.0 * spread_flat
    # rest stays at the noise floor
    assert rec.samples[rec.labels == 0].std() == pytest.approx(0.1, rel=0.15)
    with pytest.raises(ValueError):
        SubjectSpec(
            subject_id="x", seed=0, num_classes=3, channels=4,
            gain_matrix=np.eye(4), class_profiles=base.class_profiles,
            noise_floor=0.1, condition="intact", rep_variability=-0.1,
        )


def test_cohort_shares_profiles_up_to_jitter():
    specs = generate_cohort(4, base_seed=0, shift_strength=0.0, num_classes=5, channels=4)
    assert [s.subject_id for s in specs] == ["s00", "s01", "s02", "s03"]
    for s in specs[1:]:
        assert_allclose(s.class_profiles, specs[0].class_profiles)
        assert_allclose(s.gain_matrix, np.eye(4))
    shifted = generate_cohort(4, base_seed=0, shift_strength=0.4, num_classes=5, channels=4)
    assert not np.allclose(shifted[1].class_profiles, shifted[0].class_profiles)
    assert not np.allclose(shifted[1].gain_matrix, np.eye(4))
    # rest row stays silent regardless of jitter
    for s in shifted:
        assert_allclose(s.class_profiles[0], 0.0)


def test_cohort_amputee_fraction():
    specs = generate_cohort(8, base_seed=1, amputee_fraction=0.5)
    conditions = [s.condition for s in specs]
    assert conditions.count("amputee") == 4
    assert all(s.degradation > 0 for s in specs if s.condition == "amputee")
    assert all(s.degradation == 0 for s in specs if s.condition == "intact")
    again = generate_cohort(8, base_seed=1, amputee_fraction=0.5)
    assert [s.condition for s in again] == conditions


def test_cohort_is_deterministic():
    a = generate_cohort(3, base_seed=7, shift_strength=0.3)
    b = generate_cohort(3, base_seed=7, shift_strength=0.3)
    for x, y in zip(a, b):
        assert x.seed == y.seed
        assert np.array_equal(x.gain_matrix, y.gain_matrix)
        assert np.array_equal(x.class_profiles, y.class_profiles)


def test_subject_datasets_are_learnable():
    spec = generate_cohort(1, base_seed=3, num_classes=4, channels=4)[0]
    train, test = subject_datasets(spec, movement_ms=1500.0, rest_ms=700.0)
    assert train.num_classes == test.num_classes == 4
    assert train.dim == 12  # 3 features x 4 channels
    model = lssvm.fit(train, KernelSpec("gaussian", 1.0), 100.0)
    pred, _ = lssvm.predict(model, test.features)
    assert np.mean(pred == test.labels) >= 0.9
