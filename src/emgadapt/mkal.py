"""Multiclass multi-kernel learning with a (2, p) group-norm penalty.

The decision function is a sum over K + 1 feature blocks: block 0 is a
gaussian kernel over the raw feature vector and block k >= 1 is a linear
kernel over source k's length-G score vector.  Every block holds one
hyperplane per class (the class-sensitive feature map places a sample's
block encoding in the slot of its class), realized here through per-class
dual coefficient columns:

    score(x, y) = sum_k sum_i c[k][i, y] * K_k(x_i, x)

Training minimizes

    lam/2 * ||w||_{2,p}^2 + (1/N) * sum_i xi_i,
    xi_i = max(0, max_{y != y_i} 1 - (score(x_i, y_i) - score(x_i, y)))

with p in (1, 2]: smaller p concentrates weight on few useful blocks, p = 2
is the flat L2 penalty.  The optimizer runs seeded online epochs (worst
violating class, passive-aggressive style updates) followed by batch
subgradient sweeps, both with step 1/(lam * t) and per-block shrink factors
(1 - eta * lam * (||w_k|| / ||w||_{2,p})^(p-2)) clamped at zero.  The best
iterate under the full objective is kept; the zero model (objective exactly
1) is always a candidate, so the returned objective never exceeds 1.

The trainer keeps three cached quantities per block so that no step touches
more than it changes: lazily scaled duals (true duals = m_k * c_hat_k, so a
shrink only rescales the scalar m_k), the training scores f_hat_k = K_k c_hat_k,
and the squared norms ||c_hat_k||_K^2, updated from f_hat_k and the step.  An
online step reads one Gram row per block and costs O((K+1) * N); a batch
epoch costs one K_k @ du product per block.  Block norms are recomputed from
scratch only once per online epoch, when the caches are refreshed.  An
iterate's margins are computed once, with its objective, and feed the next batch
step; the model keeps the best objective, its epoch and the cached norms it used.

Lockstep: `fit_for_each_config` trains several (p, lam) pairs at once, at
one gamma and one seed (so one sample order).  The block Grams are built
once; p, lam and the cached state carry a leading candidate axis, so a step
costs a fixed number of array operations whatever the number of candidates.
Each candidate stays independent of the others element by element, so every
model is bit for bit the one `fit_mkal`, the one-pair case, returns.

Selection: `select_mkal` picks (p, lam) by stratified CV, training each
fold's candidates in lockstep, and refits the winner on every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelSpec, gram, gram_product
from .model_selection import check_grid_values, cross_validate, training_rows
from .multi_adapt import check_score_tensor
from .signals import Dataset


EPOCHS_ONLINE = 5  # seeded online epochs, one step per training row
EPOCHS_BATCH = 20  # batch subgradient sweeps after them


def check_candidate(p: float, lam: float) -> None:
    """Reject a (p, lam) pair the trainer cannot take: p must lie in (1, 2] and lam be > 0."""
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    if not lam > 0:
        raise ValueError("lam must be > 0")


@dataclass(frozen=True)
class MkalSelection:
    """Validation grid for the multi-kernel method; CV uses the main grid's folds."""

    p_grid: tuple[float, ...] = (1.05, 1.25, 1.5, 2.0)
    lambda_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)

    def __post_init__(self):
        check_grid_values("p_grid", self.p_grid)
        check_grid_values("lambda_grid", self.lambda_grid)
        for p, lam in self.candidates():
            check_candidate(p, lam)

    def candidates(self) -> list[tuple[float, float]]:
        """The (p, lam) pairs, lam ascending then p ascending, so ties go to the smaller lam, then p."""
        return [(p, lam) for lam in sorted(self.lambda_grid) for p in sorted(self.p_grid)]


@dataclass
class MkalModel:
    p: float
    lam: float
    kernel0: KernelSpec
    num_classes: int
    train_inputs: np.ndarray         # N x d
    train_source_scores: np.ndarray  # N x K x G
    dual_coeffs: np.ndarray          # (K+1) x N x G
    block_norms: np.ndarray          # K+1
    best_objective: float            # training objective of the kept iterate, <= 1
    best_epoch: int | None           # its epoch, from 1, online then batch; None: zero model

    @property
    def num_sources(self) -> int:
        return self.train_source_scores.shape[1]


def _block_grams(kernel0: KernelSpec, X: np.ndarray, s_tensor: np.ndarray) -> np.ndarray:
    """The (K+1, N, N) stack of block Grams: kernel0 on X, then each source's score Gram."""
    grams = np.empty((s_tensor.shape[1] + 1, len(X), len(X)))
    grams[0] = gram(kernel0, X, X)
    for k in range(s_tensor.shape[1]):
        np.matmul(s_tensor[:, k, :], s_tensor[:, k, :].T, out=grams[k + 1])
    return grams


def _margins(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the margin 1 - (f_yi - max_{y != yi} f_y), whose positive part is the hinge,
    and the worst class y.  `scores` is (..., N, G); leading axes are candidates."""
    rows = np.arange(scores.shape[-2])
    masked = scores.copy()
    masked[..., rows, labels] = -np.inf
    worst = masked.argmax(axis=-1)
    rival = np.take_along_axis(masked, worst[..., None], axis=-1)[..., 0]
    return 1.0 - (scores[..., rows, labels] - rival), worst


def _fold_small_multipliers(
    m: np.ndarray, c_hat: np.ndarray, f_hat: np.ndarray, sq_hat: np.ndarray
) -> None:
    """Fold multipliers below 1e-6 into the stored duals, scores and squared
    norms and reset them to 1, so that 1/m stays tame."""
    small = m < 1e-6
    ms = m[small]
    c_hat[small] *= ms[:, None, None]
    f_hat[small] *= ms[:, None, None]
    sq_hat[small] *= ms * ms
    m[small] = 1.0


def fit_mkal(
    train: Dataset, s_train: np.ndarray, p: float, lam: float, gamma: float, seed: int
) -> MkalModel:
    """Train one (p, lam) pair on the (N, K, G) source scores of the training rows; `gamma`
    is the raw-feature block's bandwidth and `seed` orders the online epochs' samples."""
    return fit_for_each_config(train, s_train, [(p, lam)], gamma, seed)[0]


def fit_for_each_config(
    train: Dataset, s_train: np.ndarray, candidates: Sequence[tuple[float, float]],
    gamma: float, seed: int,
) -> list[MkalModel]:
    """One model per (p, lam) pair, trained in lockstep on the same rows; input order."""
    if not candidates:
        raise ValueError("need at least one (p, lam) candidate")
    for p, lam in candidates:
        check_candidate(p, lam)
    n = len(train)
    g = train.num_classes
    if n < 1:
        raise ValueError("need at least one training sample")
    if g < 2:
        raise ValueError("need at least 2 classes")
    s_tensor = check_score_tensor(s_train, n, g)
    kernel0 = KernelSpec("gaussian", gamma)

    nc = len(candidates)
    lams = np.array([lam for _, lam in candidates])
    # p on the candidate axis, so a candidate's bits never depend on which others
    # share its fit; numpy squares and roots for a lone exponent 2 or 0.5 (one
    # candidate) but calls pow for several, so p = 2 squares and roots itself
    p_col = np.array([p for p, _ in candidates])[:, None]
    inv_p = 1.0 / p_col[:, 0]
    square = p_col == 2.0

    grams = _block_grams(kernel0, train.features, s_tensor)
    nb = grams.shape[0]
    labels = train.labels
    # every block Gram is exactly symmetric, so row grams[kb, i] is its column
    # i; with diag[kb, i] one online step updates every block in a few array ops
    diag = np.diagonal(grams, axis1=1, axis2=2).copy()

    # Lazily scaled state per candidate j and block k: true duals =
    # m[j, k] * c_hat[j, k] (rows x classes); f_hat caches the unscaled
    # training scores K_k @ c_hat[j, k], stored classes x rows so that an
    # online step's class columns are contiguous; sq_hat holds the
    # unscaled squared norms.
    c_hat = np.zeros((nc, nb, n, g))
    f_hat = np.zeros((nc, nb, g, n))
    sq_hat = np.zeros((nc, nb))
    m = np.ones((nc, nb))
    m_col = m[:, :, None]  # m only ever changes in place
    cand_idx = np.arange(nc)

    def group_norms(norms: np.ndarray) -> np.ndarray:
        """Each candidate's (2, p) group norm (sum_k ||w_k||^p)^(1/p), unchecked: norms are >= 0."""
        total = np.where(square, norms * norms, norms**p_col).sum(axis=1)
        return np.where(square[:, 0], np.sqrt(total), total**inv_p)

    def apply_shrink(eta_lam: np.ndarray):
        norms = np.sqrt(np.maximum(m * m * sq_hat, 0.0))
        q = group_norms(norms)[:, None]
        pos = (norms > 0.0) & (q > 0.0)  # a candidate with a zero group norm is not shrunk
        base = np.where(pos, norms, 1.0) / np.where(q > 0.0, q, 1.0)
        m[...] = m * np.maximum(0.0, 1.0 - eta_lam[:, None] * np.where(pos, base ** (p_col - 2.0), 0.0))
        if (m < 1e-6).any():
            _fold_small_multipliers(m, c_hat, f_hat, sq_hat)

    def scores_now() -> np.ndarray:
        """Training scores, candidates x rows x classes (a transposed view)."""
        return (m[:, :, None, None] * f_hat).sum(axis=1).transpose(0, 2, 1)

    # the zero model scores objective exactly 1 and is always a candidate;
    # epochs count from 1, so best_epoch 0 is the zero model
    best_obj = np.ones(nc)
    best_epoch = np.zeros(nc, dtype=int)
    best_duals = np.zeros((nc, nb, n, g))
    best_norms = np.zeros((nc, nb))

    def keep_best(epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Keep each candidate's iterate and block norms if it beats its best; returns `_margins`."""
        margins, worst = _margins(scores_now(), labels)
        norms = np.sqrt(np.maximum(m * m * sq_hat, 0.0))
        obj = lams / 2.0 * group_norms(norms)**2 + np.maximum(0.0, margins).mean(axis=1)
        better = obj < best_obj
        best_obj[better], best_epoch[better] = obj[better], epoch
        best_duals[better] = m[better, :, None, None] * c_hat[better]
        best_norms[better] = norms[better]
        return margins, worst

    # step sizes 1 / (lam * t) at every step t = 1, 2, ... of both phases
    steps = np.arange(1, EPOCHS_ONLINE * n + EPOCHS_BATCH + 1)
    etas = 1.0 / (lams * steps[:, None])
    eta_lams = etas * lams

    rng = np.random.default_rng(seed)
    t = 0
    for epoch in range(1, EPOCHS_ONLINE + 1):
        for i in rng.permutation(n):
            t += 1
            fi = (m_col * f_hat[:, :, :, i]).sum(axis=1)
            yi = labels[i]
            masked = fi.copy()
            masked[:, yi] = -np.inf
            yhat = masked.argmax(axis=1)
            v = (1.0 - (fi[:, yi] - fi[cand_idx, yhat]) > 0.0).nonzero()[0]
            # the regularizer part of the step applies whether or not the
            # margin is violated, otherwise separated iterates never shrink
            apply_shrink(eta_lams[t - 1])
            if not len(v):
                continue
            yh = yhat[v]
            delta = etas[t - 1, v, None] / m[v]
            two_delta = 2.0 * delta
            sq_hat[v] += (
                two_delta * (f_hat[v, :, yi, i] - f_hat[v, :, yh, i])
                + two_delta * delta * diag[:, i]
            )
            c_hat[v, :, i, yi] += delta
            c_hat[v, :, i, yh] -= delta
            step = delta[:, :, None] * grams[:, i]
            f_hat[v, :, yi] += step
            f_hat[v, :, yh] -= step
        block_scores = grams @ c_hat
        sq_hat[...] = np.sum(c_hat * block_scores, axis=(2, 3))
        f_hat[...] = block_scores.transpose(0, 1, 3, 2)
        keep_best(epoch)

    margins, worst = _margins(scores_now(), labels)
    for epoch in range(EPOCHS_ONLINE + 1, EPOCHS_ONLINE + EPOCHS_BATCH + 1):
        t += 1
        violated = margins > 0.0
        apply_shrink(eta_lams[t - 1])
        v = violated.any(axis=1).nonzero()[0]
        if len(v):
            # du[a] is +1 at (row, own class) and -1 at (row, worst class)
            # for every violated row of candidate v[a]
            du = np.zeros((len(v), n, g))
            which, rows = np.nonzero(violated[v])
            du[which, rows, labels[rows]] = 1.0
            du[which, rows, worst[v][which, rows]] = -1.0
            kdu = grams @ du[:, None]
            delta = etas[t - 1, v, None] / (n * m[v])
            # ||c + delta du||_K^2 = ||c||_K^2 + 2 delta <K c, du> + delta^2 <du, K du>
            cross = (f_hat[v] * du.transpose(0, 2, 1)[:, None]).sum(axis=(2, 3))
            quad = (du[:, None] * kdu).sum(axis=(2, 3))
            sq_hat[v] += 2.0 * delta * cross + delta * delta * quad
            c_hat[v] += delta[:, :, None, None] * du[:, None]
            f_hat[v] += (delta[:, :, None, None] * kdu).transpose(0, 1, 3, 2)
        margins, worst = keep_best(epoch)

    inputs, scores_copy = train.features.copy(), s_tensor.copy()
    return [
        MkalModel(
            p,
            lam,
            kernel0,
            num_classes=g,
            train_inputs=inputs,
            train_source_scores=scores_copy,
            dual_coeffs=best_duals[j],
            block_norms=best_norms[j],
            best_objective=float(best_obj[j]),
            best_epoch=int(best_epoch[j]) or None,
        )
        for j, (p, lam) in enumerate(candidates)
    ]


def select_mkal(
    train: Dataset, s_train: np.ndarray, sel: MkalSelection, gamma: float,
    folds: int, cv_seed: int, fit_seed: int,
) -> MkalModel:
    """`fit_mkal` on every row of the (p, lam) pair of `sel.candidates()` with the best
    stratified CV accuracy, each fold's candidates trained in lockstep at `gamma` and `fit_seed`."""
    s_train = check_score_tensor(s_train, len(train), train.num_classes)
    candidates = sel.candidates()

    def fold_labels(val_folds):
        out = []
        for f, va in enumerate(val_folds):
            tr = training_rows(val_folds, f)
            # no name holds a fold's models, so they are freed before the next fold trains
            out.append([predict_mkal(m, train.features[va], s_train[va])[0] for m in
                        fit_for_each_config(train.subset(tr), s_train[tr], candidates, gamma, fit_seed)])
        return out

    best, _ = cross_validate(train.labels, [{"p": p, "lam": lam} for p, lam in candidates],
                             fold_labels, folds, cv_seed)
    return fit_mkal(train, s_train, best["p"], best["lam"], gamma, fit_seed)


def predict_mkal(
    model: MkalModel, X: np.ndarray, source_scores_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and scores; `source_scores_x` is the (M, K, G) tensor."""
    k = model.num_sources
    source_scores_x = check_score_tensor(source_scores_x, len(X), model.num_classes, k)
    scores = gram_product(model.kernel0, X, model.train_inputs, model.dual_coeffs[0])
    for kb in range(k):
        w = model.train_source_scores[:, kb, :].T @ model.dual_coeffs[kb + 1]  # G x G
        scores += source_scores_x[:, kb, :] @ w
    return np.argmax(scores, axis=1), scores

