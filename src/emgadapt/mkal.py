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
online step reads one Gram column per block and costs O((K+1) * N); a batch
epoch costs one K_k @ du product per block.  Block norms are recomputed from
scratch only once per online epoch, when the caches are refreshed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram, gram_product
from .lssvm import check_score_tensor
from .signals import Dataset


@dataclass(frozen=True)
class MkalConfig:
    p: float = 1.25
    lam: float = 1e-3
    gamma: float = 1.0        # bandwidth of the raw-feature block
    epochs_online: int = 5
    epochs_batch: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise ValueError("p must lie in (1, 2]")
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if self.epochs_online < 0 or self.epochs_batch < 0:
            raise ValueError("epoch counts must be >= 0")


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

    @property
    def num_sources(self) -> int:
        return self.train_source_scores.shape[1]


def group_norm(block_norms: np.ndarray, p: float) -> float:
    """(2, p) group norm from per-block L2 norms: (sum ||w_k||^p)^(1/p)."""
    block_norms = np.asarray(block_norms, dtype=float)
    if np.any(block_norms < 0):
        raise ValueError("block norms must be non-negative")
    return float(np.sum(block_norms**p) ** (1.0 / p))


def _block_grams(kernel0: KernelSpec, X: np.ndarray, s_tensor: np.ndarray) -> list[np.ndarray]:
    grams = [gram(kernel0, X, X)]
    for k in range(s_tensor.shape[1]):
        sk = s_tensor[:, k, :]
        grams.append(sk @ sk.T)
    return grams


def _block_sq_norms(grams: list[np.ndarray], duals: np.ndarray) -> np.ndarray:
    """Exact per-block squared RKHS norms sum_y c_y^T K c_y."""
    return np.array([float(np.sum(duals[k] * (km @ duals[k]))) for k, km in enumerate(grams)])


def _hinge_losses(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample worst-class hinge: max(0, 1 - (f_yi - max_{y != yi} f_y))."""
    n = scores.shape[0]
    own = scores[np.arange(n), labels]
    masked = scores.copy()
    masked[np.arange(n), labels] = -np.inf
    worst = masked.max(axis=1)
    return np.maximum(0.0, 1.0 - (own - worst))


def _shrink_factors(sq_norms_true: np.ndarray, p: float, eta: float, lam: float) -> np.ndarray:
    norms = np.sqrt(np.maximum(sq_norms_true, 0.0))
    # group_norm without its input check: these norms are square roots
    q = float((norms**p).sum() ** (1.0 / p))
    if q <= 0.0:
        return np.ones_like(norms)
    g = np.where(norms > 0.0, (np.where(norms > 0.0, norms, 1.0) / q) ** (p - 2.0), 0.0)
    return np.maximum(0.0, 1.0 - eta * lam * g)


def fit_mkal(
    train: Dataset, s_train: np.ndarray, cfg: MkalConfig, *, kernel0: KernelSpec | None = None
) -> MkalModel:
    """Train on the (N, K, G) source scores of the training rows."""
    n = len(train)
    g = train.num_classes
    if n < 1:
        raise ValueError("need at least one training sample")
    if g < 2:
        raise ValueError("need at least 2 classes")
    s_tensor = check_score_tensor(train, s_train)
    k = s_tensor.shape[1]
    if kernel0 is None:
        kernel0 = KernelSpec("gaussian", cfg.gamma)

    grams = _block_grams(kernel0, train.features, s_tensor)
    nb = k + 1
    labels = train.labels
    # cols[kb, i] is column i of block kb's Gram and diag[kb, i] its entry
    # i, so one online step updates every block with a few array ops
    cols = np.stack([km.T for km in grams])
    diag = np.stack([np.diag(km) for km in grams])

    # Lazily scaled state: true duals = m[k] * c_hat[k]; f_hat caches the
    # unscaled training scores K_k @ c_hat[k]; sq_hat the unscaled sq norms.
    c_hat = np.zeros((nb, n, g))
    f_hat = np.zeros((nb, n, g))
    sq_hat = np.zeros(nb)
    m = np.ones(nb)

    def materialize() -> np.ndarray:
        return m[:, None, None] * c_hat

    def refresh_caches():
        nonlocal sq_hat
        for kb in range(nb):
            f_hat[kb] = grams[kb] @ c_hat[kb]
        sq_hat = _block_sq_norms(grams, c_hat)

    def apply_shrink(eta: float):
        nonlocal m
        m = m * _shrink_factors(m * m * sq_hat, cfg.p, eta, cfg.lam)
        # fold small multipliers back into the stored duals so 1/m stays tame
        small = m < 1e-6
        if not small.any():
            return
        for kb in np.flatnonzero(small):
            c_hat[kb] *= m[kb]
            f_hat[kb] *= m[kb]
            sq_hat[kb] *= m[kb] * m[kb]
            m[kb] = 1.0

    def objective_now() -> float:
        scores = (m[:, None, None] * f_hat).sum(axis=0)
        loss = float(np.mean(_hinge_losses(scores, labels)))
        norms = np.sqrt(np.maximum(m * m * sq_hat, 0.0))
        return cfg.lam / 2.0 * group_norm(norms, cfg.p) ** 2 + loss

    # the zero model scores objective exactly 1 and is always a candidate
    best_obj = 1.0
    best_duals = np.zeros((nb, n, g))

    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.epochs_online):
        for i in rng.permutation(n):
            t += 1
            fi = (m[:, None] * f_hat[:, i, :]).sum(axis=0)
            yi = labels[i]
            masked = fi.copy()
            masked[yi] = -np.inf
            yhat = int(np.argmax(masked))
            violated = 1.0 - (fi[yi] - fi[yhat]) > 0.0
            eta = 1.0 / (cfg.lam * t)
            # the regularizer part of the step applies whether or not the
            # margin is violated, otherwise separated iterates never shrink
            apply_shrink(eta)
            if not violated:
                continue
            delta = eta / m
            sq_hat += (
                2.0 * delta * (f_hat[:, i, yi] - f_hat[:, i, yhat])
                + 2.0 * delta * delta * diag[:, i]
            )
            c_hat[:, i, yi] += delta
            c_hat[:, i, yhat] -= delta
            step = delta[:, None] * cols[:, i]
            f_hat[:, :, yi] += step
            f_hat[:, :, yhat] -= step
        refresh_caches()
        obj = objective_now()
        if obj < best_obj:
            best_obj, best_duals = obj, materialize()

    for _ in range(cfg.epochs_batch):
        t += 1
        eta = 1.0 / (cfg.lam * t)
        scores = (m[:, None, None] * f_hat).sum(axis=0)
        own = scores[np.arange(n), labels]
        masked = scores.copy()
        masked[np.arange(n), labels] = -np.inf
        yhat = np.argmax(masked, axis=1)
        violated = (1.0 - (own - masked[np.arange(n), yhat])) > 0.0
        apply_shrink(eta)
        if np.any(violated):
            du = np.zeros((n, g))
            rows = np.flatnonzero(violated)
            np.add.at(du, (rows, labels[rows]), 1.0)
            np.add.at(du, (rows, yhat[rows]), -1.0)
            for kb in range(nb):
                delta = eta / (n * m[kb])
                kdu = grams[kb] @ du
                # ||c + delta du||_K^2 = ||c||_K^2 + 2 delta <K c, du> + delta^2 <du, K du>
                sq_hat[kb] += (
                    2.0 * delta * np.vdot(f_hat[kb], du) + delta * delta * np.vdot(du, kdu)
                )
                c_hat[kb] += delta * du
                f_hat[kb] += delta * kdu
        obj = objective_now()
        if obj < best_obj:
            best_obj, best_duals = obj, materialize()

    final_norms = np.sqrt(np.maximum(_block_sq_norms(grams, best_duals), 0.0))
    return MkalModel(
        p=cfg.p,
        lam=cfg.lam,
        kernel0=kernel0,
        num_classes=g,
        train_inputs=train.features.copy(),
        train_source_scores=s_tensor.copy(),
        dual_coeffs=best_duals,
        block_norms=final_norms,
    )


def predict_mkal(
    model: MkalModel, X: np.ndarray, source_scores_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and scores; `source_scores_x` is the (M, K, G) tensor."""
    X = np.asarray(X, dtype=float)
    source_scores_x = np.asarray(source_scores_x, dtype=float)
    k = model.num_sources
    if source_scores_x.shape != (X.shape[0], k, model.num_classes):
        raise ValueError("source score tensor has the wrong shape")
    scores = gram_product(model.kernel0, X, model.train_inputs, model.dual_coeffs[0])
    for kb in range(k):
        w = model.train_source_scores[:, kb, :].T @ model.dual_coeffs[kb + 1]  # G x G
        scores += source_scores_x[:, kb, :] @ w
    return np.argmax(scores, axis=1), scores

