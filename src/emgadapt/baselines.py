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
from .lssvm import LssvmModel, kfold_labels
from .model_selection import Grid, cross_validate, select
from .multi_adapt import check_score_tensor
from .signals import Dataset, NormStats


def fit_no_transfer(train: Dataset, grid: Grid) -> LssvmModel:
    """Gaussian LS-SVM on target data with (C, gamma) picked by CV."""
    best, _ = select(train, kfold_labels, grid)
    return lssvm.fit(train, KernelSpec("gaussian", best["gamma"]), best["C"])


def prior_feature_matrix(scores: np.ndarray) -> np.ndarray:
    """Flatten an (N, K, G) score tensor into (N, K*G) rows."""
    n, k, g = scores.shape
    return scores.reshape(n, k * g)


def fit_prior_features(train: Dataset, s_train: np.ndarray, grid: Grid) -> tuple[LssvmModel, NormStats]:
    """Linear LS-SVM over the normalized (N, K, G) source scores; C picked by CV.

    Returns the model and the score normalization it was trained under, the
    pair `predict_prior_features` takes.
    """
    s_tensor = check_score_tensor(s_train, len(train), train.num_classes)
    raw = prior_feature_matrix(s_tensor)
    stats = NormStats.fit(raw)
    ds = Dataset(stats.apply(raw), train.labels, train.num_classes)
    C_values = sorted(grid.C_values)
    candidates = [{"C": c} for c in C_values]
    fold_labels = partial(kfold_labels, ds, KernelSpec("linear"), C_values)
    best, _ = cross_validate(ds.labels, candidates, fold_labels, grid.folds, grid.seed)
    return lssvm.fit(ds, KernelSpec("linear"), best["C"]), stats


def predict_prior_features(
    model: LssvmModel, stats: NormStats, s_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores of query rows from their (M, K, G) source scores."""
    g = model.num_classes
    s_x = check_score_tensor(s_x, len(s_x), g, model.support_inputs.shape[1] // g)
    return lssvm.predict(model, stats.apply(prior_feature_matrix(s_x)))
