"""Multi Adapt: pull the target machine toward a mix of source machines.

Per class g the target hyperplane is regularized toward the non-negative
combination sum_k beta[k, g] * w_source_k_g.  A change of variable turns
this into a plain LS-SVM solve with modified targets

    ytil[i, g] = y[i, g] - sum_k beta[k, g] * s_k_g(x_i)

where s_k_g is source k's score for class g (bias included), and the final
score adds the borrowed part back:

    score_g(x) = sum_i alpha[i, g] k(x_i, x) + b_g + sum_k beta[k, g] * s_k_g(x)

The mixing weights are chosen by minimizing a hinge bound on the exact
leave-one-out error.  Because alpha is affine in beta through the fixed
bordered-system inverse, the LOO prediction of sample i is affine in beta,
and the bound is convex; a projected subgradient descent with step 1/sqrt(t)
keeps beta non-negative with per-class L2 norm at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lssvm
from .kernels import KernelSpec, gram
from .lssvm import LssvmModel
from .signals import Dataset

BETA_ITERATIONS = 300  # projected subgradient steps; the best iterate is kept


@dataclass
class BetaWeights:
    """Non-negative source mixing weights, one column per class."""

    values: np.ndarray  # K x G

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("beta must be a K x G matrix")
        if np.any(self.values < 0):
            raise ValueError("beta entries must be non-negative")
        norms = np.linalg.norm(self.values, axis=0)
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError("per-class beta norm must not exceed 1")


@dataclass
class MaModel:
    base: LssvmModel
    beta: BetaWeights
    loo_bound: float | None = None  # hinge LOO bound at beta; None when beta was given


def source_scores(sources: list[LssvmModel], X: np.ndarray) -> np.ndarray:
    """Score tensor of shape (M, K, G): every source's per-class scores.

    This is the one place source machines become scores; every adaptation
    method takes this tensor instead of the machines.
    """
    if not sources:
        raise ValueError("need at least one source model")
    g = sources[0].num_classes
    d = sources[0].support_inputs.shape[1]
    for s in sources:
        if s.num_classes != g:
            raise ValueError("source models disagree on class count")
        if s.support_inputs.shape[1] != d:
            raise ValueError("source models disagree on feature dimension")
    return np.stack([lssvm.decision_scores(s, X) for s in sources], axis=1)


def check_score_tensor(
    scores: np.ndarray, rows: int, num_classes: int, num_sources: int | None = None
) -> np.ndarray:
    """The float (rows, K, G) score tensor of K source machines, as `source_scores`
    makes it: K is `num_sources`, or any K >= 1 when that is None."""
    scores = np.asarray(scores, dtype=float)
    k = scores.shape[1] if num_sources is None and scores.ndim == 3 else num_sources
    if k is None or k < 1 or scores.shape != (rows, k, num_classes):
        want = "K >= 1" if num_sources is None else num_sources
        raise ValueError(f"source score tensor must be ({rows}, {want}, {num_classes}), got {scores.shape}")
    return scores


def project_beta(values: np.ndarray) -> np.ndarray:
    """Clip negatives to zero, then rescale columns onto the unit L2 ball."""
    v = np.maximum(np.asarray(values, dtype=float), 0.0)
    norms = np.linalg.norm(v, axis=0)
    over = norms > 1.0
    v[:, over] /= norms[over]
    return v


def loo_hinge_bound(Y: np.ndarray, yhat_loo: np.ndarray) -> float:
    """Hinge LOO bound L(beta) = sum_i,g max(0, 1 - y * yhat_loo(beta)), from the LOO predictions."""
    return float(np.maximum(0.0, 1.0 - Y * yhat_loo).sum())


def fit_ma(
    train: Dataset,
    s_train: np.ndarray,
    kernel_spec: KernelSpec,
    C: float,
    *,
    beta: np.ndarray | None = None,
) -> MaModel:
    """Train Multi Adapt on the (N, K, G) source scores of the training rows.

    Pass `beta` to skip optimization and fix the mixing.
    """
    if len(train) < 3:
        raise ValueError("need at least 3 training samples")
    s_tensor = check_score_tensor(s_train, len(train), train.num_classes)
    _, k, g = s_tensor.shape

    kmat = gram(kernel_spec, train.features, train.features)
    Y = lssvm.ova_targets(train.labels, g)

    if beta is None:
        h, d = lssvm.bordered_inverse_block(kmat, C)
        # LOO prediction is y - alpha/diag with alpha = H @ ytil, affine in beta:
        # yhat_loo(beta) = base + V @ beta per class column
        base_loo = Y - (h @ Y) / d[:, None]
        V = np.einsum("ij,jkg->ikg", h, s_tensor) / d[:, None, None]
        # each iterate's predictions give its bound and the next step's active set
        b = np.zeros((k, g))
        yhat = base_loo  # the predictions at b = 0
        best_val, best_beta = loo_hinge_bound(Y, yhat), b
        for t in range(1, BETA_ITERATIONS + 1):
            active = (1.0 - Y * yhat) > 0.0
            grad = -np.einsum("ig,ikg->kg", Y * active, V)
            b = project_beta(b - (1.0 / np.sqrt(t)) * grad)  # a new array, so best_beta may alias it
            yhat = base_loo + np.einsum("ikg,kg->ig", V, b)
            val = loo_hinge_bound(Y, yhat)
            if val < best_val:
                best_val, best_beta = val, b
        beta = best_beta
    else:
        best_val = None
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (k, g):
            raise ValueError("beta must be K x G")

    modified = Y - np.einsum("ikg,kg->ig", s_tensor, beta)
    alphas, biases = lssvm.solve_dual_system(kmat, C, modified)
    base = LssvmModel(
        kernel=kernel_spec,
        C=C,
        num_classes=g,
        support_inputs=train.features.copy(),
        alphas=alphas,
        biases=biases,
    )
    return MaModel(base=base, beta=BetaWeights(beta), loo_bound=best_val)


def predict_ma(model: MaModel, X: np.ndarray, s_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores of X from its (M, K, G) source scores; ties go to the smaller class."""
    s_x = check_score_tensor(s_x, len(X), model.base.num_classes, len(model.beta.values))
    scores = lssvm.decision_scores(model.base, X)
    scores = scores + np.einsum("mkg,kg->mg", s_x, model.beta.values)
    return np.argmax(scores, axis=1), scores
