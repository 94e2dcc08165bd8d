"""One-vs-all multiclass least-squares SVM trained in closed form.

For every class g a machine with targets y in {-1, +1}^N solves the
bordered linear system

    [ 0   1^T     ] [ b ]   [ 0 ]
    [ 1   K + I/C ] [ a ] = [ y ]

so the bias constraint sum(a) = 0 is part of the system.  The score of a
query x is sum_i a_i k(x_i, x) + b and the predicted class is the argmax
over the per-class scores.  The inverse of the same bordered matrix M
gives exact leave-one-out residuals without retraining:

    y_i - f_without_i(x_i) = a_i / inv(M)[i+1, i+1]

and `kfold_scores` extends that to whole folds at every C from one
eigendecomposition of K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelSpec, gram, gram_diagonal, gram_product
from .signals import Dataset


class NumericalError(RuntimeError):
    """Raised when the dual system cannot be solved reliably."""


@dataclass
class LssvmModel:
    kernel: KernelSpec
    C: float
    num_classes: int
    support_inputs: np.ndarray  # N x d
    alphas: np.ndarray          # N x num_classes
    biases: np.ndarray          # num_classes

    def __post_init__(self):
        self.support_inputs = np.asarray(self.support_inputs, dtype=float)
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        n = self.support_inputs.shape[0]
        if self.alphas.shape != (n, self.num_classes):
            raise ValueError("alphas must be N x num_classes")
        if self.biases.shape != (self.num_classes,):
            raise ValueError("biases must have one entry per class")


def ova_targets(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-vs-all +/-1 target matrix, one column per class."""
    n = labels.shape[0]
    y = -np.ones((n, num_classes))
    y[np.arange(n), labels] = 1.0
    return y


def check_ridge(kernel_diag: np.ndarray, C_values: Sequence[float]) -> None:
    """Raise ValueError unless every C > 0 (NaN included), and NumericalError where
    1/C <= 2 n eps trace(K), from K's diagonal: a ridge lost in K's round-off.  The
    factor 2 keeps this above `kfold_scores`' eigenvalue check, n eps max|lam| <= n eps
    trace(K), by more than eigh's round-off in the smallest lam.  Every solve calls it."""
    if not all(C > 0 for C in C_values):
        raise ValueError("C must be > 0")
    floor = 2.0 * len(kernel_diag) * np.finfo(float).eps * float(np.sum(kernel_diag))
    for C in C_values:
        if 1.0 / C <= floor:
            raise NumericalError(f"K + I/C is singular to working precision at C={C}: "
                                 f"1/C <= 2 * n * eps * trace(K) = {floor:.3g}")


def _bordered_matrix(kmat: np.ndarray, C: float) -> np.ndarray:
    check_ridge(np.diagonal(kmat), (C,))
    n = kmat.shape[0]
    # one buffer, with no N x N temporaries
    m = np.empty((n + 1, n + 1))
    m[0, 0] = 0.0
    m[0, 1:] = 1.0
    m[1:, 0] = 1.0
    m[1:, 1:] = kmat
    m[1:, 1:][np.diag_indices(n)] += 1.0 / C
    return m


def solve_dual_system(
    kmat: np.ndarray, C: float, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the bordered system for every target column.

    Returns (alphas, biases).  A constant column c (such as the all -1
    column of a class absent from the training set) gets its exact
    solution alpha = 0, b = c.
    """
    n = kmat.shape[0]
    rhs = np.zeros((n + 1, targets.shape[1]))
    rhs[1:, :] = targets
    try:
        sol = np.linalg.solve(_bordered_matrix(kmat, C), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dual system is singular: {exc}") from exc
    if not np.isfinite(sol).all():
        raise NumericalError("dual system solve produced non-finite values")
    biases = sol[0].copy()
    alphas = sol[1:].copy()
    constant = np.all(targets == targets[0], axis=0)
    biases[constant] = targets[0, constant]
    alphas[:, constant] = 0.0
    return alphas, biases


def fit(train: Dataset, kernel_spec: KernelSpec, C: float) -> LssvmModel:
    if len(train) < 2:
        raise ValueError("need at least 2 training samples")
    kmat = gram(kernel_spec, train.features, train.features)
    alphas, biases = solve_dual_system(kmat, C, ova_targets(train.labels, train.num_classes))
    return LssvmModel(
        kernel=kernel_spec,
        C=C,
        num_classes=train.num_classes,
        support_inputs=train.features.copy(),
        alphas=alphas,
        biases=biases,
    )


def decision_scores(model: LssvmModel, X: np.ndarray) -> np.ndarray:
    """Per-class scores for query rows: sum_i a_i k(x_i, x) + b."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be an M x d array")
    if X.shape[1] != model.support_inputs.shape[1]:
        raise ValueError(
            f"query dimension {X.shape[1]} does not match model dimension "
            f"{model.support_inputs.shape[1]}"
        )
    return gram_product(model.kernel, X, model.support_inputs, model.alphas) + model.biases


def predict(model: LssvmModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and the score matrix; ties go to the smaller class id."""
    scores = decision_scores(model, X)
    return np.argmax(scores, axis=1), scores


def bordered_inverse_block(kmat: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower-right N x N block H of inv(M) and its diagonal.

    The leave-one-out residual of sample i is alpha_i / diag(H)_i, and
    alpha = H @ y for any target column y.
    """
    try:
        minv = np.linalg.inv(_bordered_matrix(kmat, C))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"cannot invert dual system: {exc}") from exc
    h = minv[1:, 1:]
    d = np.diag(h).copy()
    if not np.isfinite(h).all() or np.any(np.abs(d) < 1e-300):
        raise NumericalError("dual system inverse is degenerate")
    return h, d


def _gram_eigh(kernel_spec: KernelSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of K = gram(kernel_spec, X, X) after zeroing each |K_ij| < (eps / n) max_i K_ii,
    one connected block of the remaining non-zero pattern at a time.

    Each row loses less than eps max_i K_ii <= eps ||K||_2, which bounds the
    move of K in 2-norm below eigh's own backward error, about n eps ||K||.
    One block goes to `np.linalg.eigh` whole; else each block of 2+ rows gets
    its own, and a single row i is the pair (K_ii, e_i).  The Gram is freed
    once its blocks are copied out: the peak is a dense eigh's, 2 N x N arrays.
    """
    kmat = gram(kernel_spec, X, X)
    n = len(kmat)
    tol = np.finfo(float).eps / n * np.diagonal(kmat).max()
    for r in range(0, n, 256):  # 256 rows at a time: no N x N float temporary
        kmat[r : r + 256][np.abs(kmat[r : r + 256]) < tol] = 0.0
    linked = kmat != 0  # N x N bytes, an eighth of the Gram
    block = np.full(n, -1)
    for root in range(n):  # a frontier search from each row not yet reached
        frontier = [root] if block[root] < 0 else []
        while len(frontier):
            block[frontier] = root
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & (block < 0))
    del linked
    if block.max() == 0:  # the search from row 0 reached every row
        return np.linalg.eigh(kmat)
    order = np.argsort(block, kind="stable")
    cuts = np.flatnonzero(np.diff(block[order])) + 1
    pairs = [kmat[np.ix_(rows, rows)] for rows in np.split(order, cuts)]
    del kmat
    for i, sub in enumerate(pairs):
        pairs[i] = np.linalg.eigh(sub) if len(sub) > 1 else (sub[0], np.ones((1, 1)))
    lam, vecs = np.empty(n), np.zeros((n, n))
    for rows, cols, (w, v) in zip(np.split(order, cuts), np.split(np.arange(n), cuts), pairs):
        lam[cols], vecs[rows[:, None], cols] = w, v
    return lam, vecs


def kfold_scores(
    train: Dataset,
    kernel_spec: KernelSpec,
    C_values: Sequence[float],
    folds: Sequence[np.ndarray],
) -> list[list[np.ndarray]]:
    """Exact held-out scores of every fold at every C, from one eigendecomposition.

    out[f][j] holds the scores on the rows folds[f] of the model that
    `fit(train.subset(rest), kernel_spec, C_values[j])` trains on the other
    rows, up to round-off.  A class absent from those rows scores exactly -1,
    the bias of its constant column's exact solution.  With K = V diag(lam) V^T, d = 1/(lam + 1/C),
    A = K + I/C, u = A^-1 1, s = 1^T u and the full set's duals
    alpha = A^-1 Y - u (u^T Y) / s, fold F's held-out scores are
    Y_F - H_FF^-1 alpha_F with H_FF = W_F W_F^T - u_F u_F^T / s, W = V diag(sqrt(d))
    (An, Liu & Venkatesh, Pattern Recognition 40, 2007).  Singleton folds
    give exact leave-one-out.  The folds need not cover every row.

    Raises NumericalError where `check_ridge` does, where lam + 1/C is not
    resolved above the eigenvalues' round-off, n * eps * max|lam|, or where a
    held-out score is not finite.
    """
    n = len(train)
    if any(len(f) == 0 or n - len(f) < 2 for f in folds):
        raise ValueError("every fold needs at least 1 row and at least 2 training rows outside it")
    g = train.num_classes
    targets = ova_targets(train.labels, g)
    check_ridge(gram_diagonal(kernel_spec, train.features), C_values)
    lam, vecs = _gram_eigh(kernel_spec, train.features)
    floor = n * np.finfo(float).eps * float(np.abs(lam).max())
    # V^T [1 Y] once; each C rescales it by d and maps it back
    proj = vecs.T @ np.column_stack((np.ones(n), targets))
    per_C = []
    for C in C_values:
        shifted = lam + 1.0 / C
        if shifted.min() <= floor:
            raise NumericalError(
                f"K + I/C is singular to working precision at C={C}: smallest eigenvalue "
                f"{shifted.min():.3g} <= round-off {floor:.3g}"
            )
        d = 1.0 / shifted
        sol = vecs @ (d[:, None] * proj)
        u = sol[:, 0]
        s = u.sum()
        per_C.append((np.sqrt(d), u, s, sol[:, 1:] - np.outer(u, u @ targets) / s))
    out = []
    for f in folds:
        absent = np.ones(g, dtype=bool)
        absent[np.delete(train.labels, f)] = False
        vf = vecs[f]
        scores = []
        for root_d, u, s, alphas in per_C:
            w = vf * root_d
            # w @ w.T is one symmetric rank-k update, half the flops of a general product
            h = w @ w.T - np.outer(u[f], u[f]) / s
            try:
                held_out = targets[f] - np.linalg.solve(h, alphas[f])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"held-out block is singular: {exc}") from exc
            held_out[:, absent] = -1.0
            if not np.isfinite(held_out).all():
                raise NumericalError("held-out scores are not finite")
            scores.append(held_out)
        out.append(scores)
    return out
