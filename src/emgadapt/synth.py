"""Synthetic multichannel recordings with controllable inter-subject shift.

Each movement class is amplitude-modulated white noise: class g drives
channel c with standard deviation class_profiles[g, c], the channels are
mixed by a per-subject gain matrix, and a noise floor is added everywhere.
Rest (class 0) is noise floor only.  A cohort shares one set of class
profiles; per-subject domain shift perturbs the gain matrix (rotation) and
the profiles (scaling) with magnitude `shift_strength`.  `rep_variability`
rescales each channel's amplitude independently per repetition, mimicking
electrode drift and fatigue between executions: a model that saw only a
couple of repetitions of a class generalizes poorly to held-out ones.
Amputee subjects get an extra degradation knob: a raised noise floor and
dead channels.  Everything is bitwise deterministic given the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import Dataset, Recording, WindowSpec, build_subject_datasets, ms_to_samples


@dataclass
class SubjectSpec:
    subject_id: str
    seed: int
    num_classes: int          # includes rest as class 0
    channels: int
    gain_matrix: np.ndarray   # C x C channel mixing
    class_profiles: np.ndarray  # G x C per-channel amplitudes, row 0 is rest
    noise_floor: float
    condition: str
    degradation: float = 0.0
    rep_variability: float = 0.0

    def __post_init__(self):
        self.gain_matrix = np.asarray(self.gain_matrix, dtype=float)
        self.class_profiles = np.asarray(self.class_profiles, dtype=float)
        c, g = self.channels, self.num_classes
        if g < 2:
            raise ValueError("need at least one movement class besides rest")
        if self.gain_matrix.shape != (c, c):
            raise ValueError("gain_matrix must be C x C")
        if self.class_profiles.shape != (g, c):
            raise ValueError("class_profiles must be G x C")
        for name in ("gain_matrix", "class_profiles"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if abs(np.linalg.det(self.gain_matrix)) < 1e-9:
            raise ValueError("gain_matrix must be non-singular")
        if np.any(self.class_profiles < 0):
            raise ValueError("class profiles must be non-negative")
        if not 0 < self.noise_floor < math.inf:
            raise ValueError(f"noise_floor must be > 0 and finite, got {self.noise_floor}")
        if not 0.0 <= self.degradation < 1.0:
            raise ValueError("degradation must lie in [0, 1)")
        if not 0.0 <= self.rep_variability < math.inf:
            raise ValueError(f"rep_variability must be >= 0 and finite, got {self.rep_variability}")


def generate_recording(
    spec: SubjectSpec,
    reps: int = 6,
    movement_ms: float = 3000.0,
    rest_ms: float = 1500.0,
    rate_hz: float = 100.0,
) -> Recording:
    """Movement/rest alternation: lead rest, then per class and repetition
    one movement segment followed by rest.  Rest samples inherit the
    repetition index of the surrounding movement block."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not rate_hz > 0:
        raise ValueError("rate_hz must be > 0")
    w_move = ms_to_samples(movement_ms, rate_hz)
    w_rest = ms_to_samples(rest_ms, rate_hz)

    rng = np.random.default_rng(spec.seed)
    c = spec.channels
    noise = spec.noise_floor * (1.0 + spec.degradation)
    n_dead = int(math.floor(spec.degradation * c / 2.0))
    dead = rng.choice(c, size=n_dead, replace=False) if n_dead else np.array([], dtype=int)
    gain = spec.gain_matrix.copy()
    gain[dead, :] = 0.0

    chunks, labels, reps_idx = [], [], []

    def rest_block(rep: int):
        chunks.append(noise * rng.standard_normal((w_rest, c)))
        labels.append(np.zeros(w_rest, dtype=int))
        reps_idx.append(np.full(w_rest, rep, dtype=int))

    def movement_block(cls: int, rep: int):
        profile = spec.class_profiles[cls]
        if spec.rep_variability > 0.0:
            wobble = 1.0 + spec.rep_variability * rng.uniform(-1.0, 1.0, size=c)
            profile = profile * np.clip(wobble, 0.05, None)
        driven = rng.standard_normal((w_move, c)) * profile
        mixed = driven @ gain.T + noise * rng.standard_normal((w_move, c))
        chunks.append(mixed)
        labels.append(np.full(w_move, cls, dtype=int))
        reps_idx.append(np.full(w_move, rep, dtype=int))

    rest_block(1)
    for cls in range(1, spec.num_classes):
        for rep in range(1, reps + 1):
            movement_block(cls, rep)
            rest_block(rep)

    return Recording(
        subject_id=spec.subject_id,
        condition=spec.condition,
        sampling_rate_hz=rate_hz,
        channels=c,
        num_classes=spec.num_classes,
        samples=np.concatenate(chunks, axis=0),
        labels=np.concatenate(labels),
        repetitions=np.concatenate(reps_idx),
    )


def generate_cohort(
    n_subjects: int,
    base_seed: int = 0,
    shift_strength: float = 0.3,
    amputee_fraction: float = 0.0,
    num_classes: int = 8,
    channels: int = 8,
    noise_floor: float = 0.15,
    amputee_degradation: float = 0.2,
    profile_range: tuple[float, float] = (0.6, 1.9),
    rep_variability: float = 0.0,
) -> list[SubjectSpec]:
    """Subject specs sharing class profiles, shifted per subject.

    shift_strength = 0 makes subjects identical up to their noise seed.
    amputee_fraction controls how many subjects (chosen by the master rng)
    are tagged amputee and receive `amputee_degradation`.  rep_variability
    is copied onto every subject.
    """
    if n_subjects < 1:
        raise ValueError("n_subjects must be >= 1")
    if not 0.0 <= amputee_fraction <= 1.0:
        raise ValueError("amputee_fraction must lie in [0, 1]")
    if not 0 <= shift_strength < math.inf:
        raise ValueError(f"shift_strength must be >= 0 and finite, got {shift_strength}")
    if not 0.0 <= amputee_degradation < 1.0:  # checked here too, for a cohort with no amputee
        raise ValueError(f"amputee_degradation must lie in [0, 1), got {amputee_degradation}")
    if not all(map(math.isfinite, profile_range)):
        raise ValueError(f"profile_range must be finite, got {profile_range}")
    # Knob calibration: raw rotations/jitter at strength 1.0 make subjects so
    # dissimilar that nothing transfers between them, defeating the point of
    # a multi-subject cohort.  The scale maps the default 0.3 to a moderate
    # shift where source subjects are related but visibly distinct.
    s = 0.13 * shift_strength
    master = np.random.default_rng(base_seed)
    lo, hi = profile_range
    base_profiles = np.zeros((num_classes, channels))
    base_profiles[1:] = master.uniform(lo, hi, size=(num_classes - 1, channels))

    n_amp = int(math.floor(amputee_fraction * n_subjects + 0.5))
    amputees = set(master.choice(n_subjects, size=n_amp, replace=False).tolist()) if n_amp else set()

    specs = []
    for i in range(n_subjects):
        seed = int(master.integers(0, 2**31 - 1))
        rot = master.standard_normal((channels, channels)) / math.sqrt(channels)
        gain = np.eye(channels) + s * rot
        while abs(np.linalg.det(gain)) < 1e-6:  # vanishing determinant is measure-zero
            rot = master.standard_normal((channels, channels)) / math.sqrt(channels)
            gain = np.eye(channels) + s * rot
        jitter = 1.0 + s * master.uniform(-1.0, 1.0, size=(num_classes, channels))
        profiles = np.clip(base_profiles * jitter, 0.0, None)
        profiles[0] = 0.0
        is_amp = i in amputees
        specs.append(
            SubjectSpec(
                subject_id=f"s{i:02d}",
                seed=seed,
                num_classes=num_classes,
                channels=channels,
                gain_matrix=gain,
                class_profiles=profiles,
                noise_floor=noise_floor,
                condition="amputee" if is_amp else "intact",
                degradation=amputee_degradation if is_amp else 0.0,
                rep_variability=rep_variability,
            )
        )
    return specs


def subject_datasets(
    spec: SubjectSpec,
    reps: int = 6,
    movement_ms: float = 3000.0,
    rest_ms: float = 1500.0,
    rate_hz: float = 100.0,
    window: WindowSpec | None = None,
    test_reps: tuple[int, ...] = (5, 6),
    feature_mode: str = "concat",
) -> tuple[Dataset, Dataset]:
    """Generate a recording and run the full feature pipeline on it."""
    rec = generate_recording(
        spec, reps=reps, movement_ms=movement_ms, rest_ms=rest_ms, rate_hz=rate_hz
    )
    return build_subject_datasets(
        rec, window or WindowSpec(), test_reps=test_reps, feature_mode=feature_mode
    )
