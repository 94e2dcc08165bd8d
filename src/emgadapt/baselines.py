"""Reference models the adaptive methods are compared against.

No Transfer trains a cross-validated gaussian LS-SVM on target data alone;
its interface takes no source models at all.  Prior Features discards the
raw features at the classifier input and trains a linear LS-SVM on the
z-normalized concatenation of all source score vectors.
"""

from __future__ import annotations

import numpy as np

from . import lssvm
from .kernels import KernelSpec
from .lssvm import LssvmModel
from .model_selection import Grid, best_candidate, cross_validate, lssvm_fit_fn, select
from .multi_adapt import source_scores
from .signals import Dataset, NormStats


def fit_no_transfer(train: Dataset, grid: Grid) -> LssvmModel:
    """Gaussian LS-SVM on target data with (C, gamma) picked by CV."""
    best, _ = select(train, lssvm_fit_fn, grid)
    return lssvm.fit(train, KernelSpec("gaussian", best["gamma"]), best["C"])


def prior_feature_matrix(scores: np.ndarray) -> np.ndarray:
    """Flatten an (N, K, G) score tensor into (N, K*G) rows."""
    n, k, g = scores.shape
    return scores.reshape(n, k * g)


def fit_prior_features(
    train: Dataset,
    sources: list[LssvmModel],
    grid: Grid,
    source_scores_train: np.ndarray | None = None,
) -> LssvmModel:
    """Linear LS-SVM over normalized source scores; C picked by CV.

    The returned model carries the score normalization, so predictions take
    the raw stacked score matrix (see `prior_feature_matrix`).
    """
    if not sources:
        raise ValueError("need at least one source model")
    s_tensor = source_scores_train
    if s_tensor is None:
        s_tensor = source_scores(sources, train.features)
    flat = prior_feature_matrix(s_tensor)
    stats = NormStats(mean=flat.mean(axis=0), std=flat.std(axis=0))
    names = [f"src{k + 1}_s{g}" for k in range(s_tensor.shape[1]) for g in range(s_tensor.shape[2])]
    ds = Dataset(
        features=stats.apply(flat),
        labels=train.labels,
        num_classes=train.num_classes,
        feature_names=names,
    )

    candidates = [{"C": c} for c in sorted(grid.C_values)]

    def fit_predict(train_idx, val_idx, cand):
        model = lssvm.fit(ds.subset(train_idx), KernelSpec("linear"), cand["C"])
        return lssvm.predict(model, ds.features[val_idx])[0]

    table = cross_validate(ds.labels, candidates, fit_predict, grid.folds, grid.seed)
    best = best_candidate(table)
    model = lssvm.fit(ds, KernelSpec("linear"), best["C"])
    model.norm_stats = stats
    return model
