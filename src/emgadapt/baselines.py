"""Reference models the adaptive methods are compared against.

No Transfer trains a cross-validated gaussian LS-SVM on target data alone;
its interface takes no source scores at all.  Prior Features discards the
raw features at the classifier input and trains a linear LS-SVM on the
z-normalized concatenation of all source score vectors (the (N, K, G)
tensor of `multi_adapt.source_scores`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import lssvm
from .kernels import KernelSpec
from .lssvm import LssvmModel
from .model_selection import Grid, cross_validate, kfold_labels, select
from .signals import Dataset, apply_normalizer, fit_normalizer


def fit_no_transfer(train: Dataset, grid: Grid) -> LssvmModel:
    """Gaussian LS-SVM on target data with (C, gamma) picked by CV."""
    best, _ = select(train, kfold_labels, grid)
    return lssvm.fit(train, KernelSpec("gaussian", best["gamma"]), best["C"])


def prior_feature_matrix(scores: np.ndarray) -> np.ndarray:
    """Flatten an (N, K, G) score tensor into (N, K*G) rows."""
    n, k, g = scores.shape
    return scores.reshape(n, k * g)


def fit_prior_features(train: Dataset, s_train: np.ndarray, grid: Grid) -> LssvmModel:
    """Linear LS-SVM over the normalized (N, K, G) source scores; C picked by CV.

    The returned model carries the score normalization, so predictions take
    the raw stacked score matrix (see `prior_feature_matrix`).
    """
    s_tensor = lssvm.check_score_tensor(train, s_train)
    raw = Dataset(prior_feature_matrix(s_tensor), train.labels, train.num_classes)
    stats = fit_normalizer(raw)
    ds = apply_normalizer(raw, stats)
    C_values = sorted(grid.C_values)
    candidates = [{"C": c} for c in C_values]
    fold_labels = partial(kfold_labels, ds, KernelSpec("linear"), C_values)
    best, _ = cross_validate(ds.labels, candidates, fold_labels, grid.folds, grid.seed)
    model = lssvm.fit(ds, KernelSpec("linear"), best["C"])
    model.norm_stats = stats
    return model
