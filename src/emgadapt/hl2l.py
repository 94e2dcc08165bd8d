"""Two-layer stacking over target and source machines (H-L2L).

The target training set is split per class into a 63% side and a 37% side.
Layer 1 is an LS-SVM trained on the 63% side.  Every 37%-side sample is
then re-encoded as the concatenation of layer 1's G scores with each
source's G scores -- a (K+1)*G vector, target block first -- z-normalized,
and layer 2 is a gaussian-kernel LS-SVM trained on those score vectors.
Queries follow the same path with the stored normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lssvm
from .kernels import KernelSpec
from .lssvm import LssvmModel
from .signals import Dataset, apply_normalizer, fit_normalizer

LAYER1_SHARE = 0.63  # of each class's training samples, before half-up rounding


@dataclass
class Hl2lModel:
    layer1: LssvmModel
    layer2: LssvmModel  # trained on normalized stacked score vectors
    num_sources: int


def stratified_split(labels: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split: round(LAYER1_SHARE * n_c) half-up to the first side, at least 1.

    Classes with a single sample go entirely to the first (layer 1) side.
    Returns sorted index arrays (side_a, side_b) that partition the input.
    """
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    a_parts, b_parts = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        n_a = int(math.floor(LAYER1_SHARE * len(members) + 0.5))
        n_a = min(max(n_a, 1), len(members))
        a_parts.append(members[:n_a])
        b_parts.append(members[n_a:])
    side_a = np.sort(np.concatenate(a_parts))
    side_b = np.sort(np.concatenate(b_parts)) if any(len(p) for p in b_parts) else np.array([], dtype=int)
    return side_a, side_b


def stack_scores(target_scores: np.ndarray, source_scores_x: np.ndarray) -> np.ndarray:
    """Concatenate target scores with each source's scores: (M, (K+1)*G)."""
    m, k, g = source_scores_x.shape
    if target_scores.shape != (m, g):
        raise ValueError("target and source score shapes disagree")
    return np.concatenate([target_scores, source_scores_x.reshape(m, k * g)], axis=1)


def stacking_dataset(
    train: Dataset, s_train: np.ndarray, kernel1: KernelSpec, C1: float, seed: int = 0
) -> tuple[LssvmModel, Dataset]:
    """Layer 1 model plus the raw (unnormalized) stacked layer-2 training set.

    `s_train` is the (N, K, G) source score tensor of the training rows.
    """
    s_tensor = lssvm.check_score_tensor(train, s_train)
    k = s_tensor.shape[1]
    if len(train) < k + 2:
        raise ValueError("not enough training samples for stacking")
    side_a, side_b = stratified_split(train.labels, seed=seed)
    if len(side_b) < 2:
        raise ValueError("insufficient data for stacking: the held-out side is too small")
    layer1 = lssvm.fit(train.subset(side_a), kernel1, C1)
    t_scores = lssvm.decision_scores(layer1, train.features[side_b])
    stacked = stack_scores(t_scores, s_tensor[side_b])
    return layer1, Dataset(stacked, train.labels[side_b], train.num_classes)


def fit_hl2l(
    train: Dataset,
    s_train: np.ndarray,
    kernel1: KernelSpec,
    C1: float,
    kernel2: KernelSpec,
    C2: float,
    seed: int = 0,
) -> Hl2lModel:
    layer1, raw_ds = stacking_dataset(train, s_train, kernel1, C1, seed=seed)
    stats = fit_normalizer(raw_ds)
    layer2 = lssvm.fit(apply_normalizer(raw_ds, stats), kernel2, C2)
    layer2.norm_stats = stats
    return Hl2lModel(layer1=layer1, layer2=layer2, num_sources=s_train.shape[1])


def predict_hl2l(
    model: Hl2lModel, X: np.ndarray, source_scores_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and layer-2 scores for query rows."""
    if source_scores_x.shape[1] != model.num_sources:
        raise ValueError("source score tensor has the wrong number of sources")
    t_scores = lssvm.decision_scores(model.layer1, X)
    stacked = stack_scores(t_scores, source_scores_x)
    return lssvm.predict(model.layer2, stacked)
