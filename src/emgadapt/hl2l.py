"""Two-layer stacking over target and source machines (H-L2L).

The target training set is split per class into a 63% side and a 37% side.
Layer 1 is an LS-SVM trained on the 63% side.  Every 37%-side sample is
then re-encoded as the concatenation of layer 1's G scores with each
source's G scores -- a (K+1)*G vector, target block first -- z-normalized,
and layer 2 is a gaussian-kernel LS-SVM trained on those score vectors.
Queries follow the same path with the stored normalization.  `select_hl2l`
picks layer 2's (C, gamma) by CV on the stack and fits the model there.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import lssvm
from .kernels import KernelSpec
from .lssvm import LssvmModel, kfold_labels
from .model_selection import Grid, select
from .multi_adapt import check_score_tensor
from .signals import Dataset, NormStats

LAYER1_SHARE = 0.63  # of each class's training samples, before half-up rounding


@dataclass
class Hl2lModel:
    layer1: LssvmModel
    norm_stats: NormStats  # of the stacked score vectors layer 2 was trained on
    layer2: LssvmModel  # trained on the normalized stacked score vectors
    num_sources: int


def stratified_split(labels: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
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
    train: Dataset, s_train: np.ndarray, kernel1: KernelSpec, C1: float, seed: int
) -> tuple[LssvmModel, NormStats, Dataset]:
    """Layer 1 model, the stack's normalization and the normalized stacked layer-2 training set.

    `s_train` is the (N, K, G) source score tensor of the training rows.  The
    normalization's statistics are those of the raw stacked score vectors.
    """
    s_tensor = check_score_tensor(s_train, len(train), train.num_classes)
    k = s_tensor.shape[1]
    if len(train) < k + 2:
        raise ValueError("not enough training samples for stacking")
    side_a, side_b = stratified_split(train.labels, seed=seed)
    if len(side_b) < 2:
        raise ValueError("insufficient data for stacking: the held-out side is too small")
    layer1 = lssvm.fit(train.subset(side_a), kernel1, C1)
    t_scores = lssvm.decision_scores(layer1, train.features[side_b])
    raw = stack_scores(t_scores, s_tensor[side_b])
    stats = NormStats.fit(raw)
    return layer1, stats, Dataset(stats.apply(raw), train.labels[side_b], train.num_classes)


def fit_hl2l(train: Dataset, s_train: np.ndarray, kernel1: KernelSpec, C1: float,
             kernel2: KernelSpec, C2: float, seed: int) -> Hl2lModel:
    # In a cell this stacks a second time, after `select_hl2l`'s stack: layer 1 is fit twice,
    # as perfbench/selftest.py asserts (hl2l.layer1_fits == 2 x cells).
    layer1, stats, stack = stacking_dataset(train, s_train, kernel1, C1, seed=seed)
    layer2 = lssvm.fit(stack, kernel2, C2)
    return Hl2lModel(layer1=layer1, norm_stats=stats, layer2=layer2, num_sources=len(s_train[0]))


def select_hl2l(train: Dataset, s_train: np.ndarray, kernel1: KernelSpec, C1: float, grid: Grid,
                seed: int) -> Hl2lModel:
    """`fit_hl2l` at the layer-2 (C, gamma) that `select` picks on the stack of split `seed`,
    with `grid.folds` clamped to the stack's rows (at least 2); a ValueError of that CV, such as
    a fold left with under 2 training rows, names layer 2, its fold count and the stack."""
    _, _, stack = stacking_dataset(train, s_train, kernel1, C1, seed=seed)
    folds = max(2, min(grid.folds, len(stack)))
    try:
        best, _ = select(stack, kfold_labels, dataclasses.replace(grid, folds=folds))
    except ValueError as exc:
        raise ValueError(f"layer 2's {folds}-fold CV on the stack of {len(stack)} rows: {exc}") from exc
    return fit_hl2l(train, s_train, kernel1, C1, KernelSpec("gaussian", best["gamma"]), best["C"],
                    seed=seed)


def predict_hl2l(
    model: Hl2lModel, X: np.ndarray, source_scores_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and layer-2 scores for query rows."""
    s_x = check_score_tensor(source_scores_x, len(X), model.layer1.num_classes, model.num_sources)
    stacked = stack_scores(lssvm.decision_scores(model.layer1, X), s_x)
    return lssvm.predict(model.layer2, model.norm_stats.apply(stacked))
