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
spectrum of K.  Its cost follows the Gram's structure: a dense eigh where
the Gram is one block or has no singleton row (a row with no off-diagonal
entry above round-off), an eigh of the other rows where it has, with each
singleton row solved in closed form, and for a linear kernel with fewer
features than rows the thin SVD of the inputs, with no Gram at all.

`kfold_labels`, the one k-fold labeller, runs `kfold_scores` or one solve per (fold, C),
by `spectral_cv_is_cheaper`; both check the folds alike and train fold f on `training_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelSpec, gram, gram_diagonal, gram_product
from .model_selection import training_rows
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


def _gram_eigh(kernel_spec: KernelSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectrum of K = gram(kernel_spec, X, X) as (lam, vecs, rows).

    vecs is m x k with orthonormal columns, paired with lam[:k], over the rows
    rows[:m]; `rows` orders all n rows.
    - A linear kernel with fewer features d than rows n: the thin SVD
      X = U S W^T gives vecs = U (m = n, k = d) and lam[:d] = S^2, and no Gram
      is built.  lam[d:] = 0 is K's null space, the complement of U's columns.
    - Else each |K_ij| < (eps / n) max_i K_ii is set to 0 in place.  Each row
      moves by less than eps max_i K_ii <= eps ||K||_2, below eigh's own
      backward error, about n eps ||K||.  The rows then fall into the
      connected blocks of the remaining non-zero pattern.  One block goes to
      `np.linalg.eigh` whole.  Else each block of 2+ rows gets its own eigh,
      placed block-diagonally in an m x m vecs over those rows, ascending, and
      each row left alone, a singleton row i = rows[j] for j >= m, keeps no
      eigenvector: it is the eigenpair (lam[j] = K_ii, e_i).
    The Gram is freed once its blocks are copied out, so the peak is a dense
    eigh's, 2 N x N arrays.
    """
    n, dim = X.shape
    if kernel_spec.kind == "linear" and dim < n:
        vecs, sv, _ = np.linalg.svd(X, full_matrices=False)
        return np.concatenate((sv * sv, np.zeros(n - dim))), vecs, np.arange(n)
    kmat = gram(kernel_spec, X, X)
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
        lam, vecs = np.linalg.eigh(kmat)
        return lam, vecs, np.arange(n)
    shared = np.bincount(block)[block] > 1
    multi, single = np.flatnonzero(shared), np.flatnonzero(~shared)
    order = multi[np.argsort(block[multi], kind="stable")]
    cuts = np.flatnonzero(np.diff(block[order])) + 1
    # np.split of no rows gives one empty part: no block where every row is a singleton
    pairs = [kmat[np.ix_(rows, rows)] for rows in np.split(order, cuts) if len(rows)]
    lam = np.concatenate((np.empty(len(multi)), kmat[single, single]))
    del kmat
    for i in range(len(pairs)):  # no name but pairs[i] holds a block once its eigh is done
        pairs[i] = np.linalg.eigh(pairs[i])
    m = len(multi)
    vecs = np.zeros((m, m))
    at = np.searchsorted(multi, order)  # each row's place among the rows that share a block
    for rows, cols, (w, v) in zip(np.split(at, cuts), np.split(np.arange(m), cuts), pairs):
        lam[cols], vecs[rows[:, None], cols] = w, v
    return lam, vecs, np.concatenate((multi, single))


def checked_training_rows(
    train: Dataset, kernel_spec: KernelSpec, C_values: Sequence[float], folds: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Each fold's `training_rows`: the checks that both k-fold paths meet before any solve.
    Raises ValueError unless the folds partition the rows 0..n-1, n >= 3 and each fold holds
    1 to n - 2 of them, then calls `check_ridge`."""
    n = len(train)
    if not np.array_equal(np.sort(np.concatenate([*folds, np.empty(0, dtype=int)])), np.arange(n)):
        raise ValueError(f"the folds must partition the {n} rows 0..{n - 1}, each row in one fold")
    if n < 3:
        raise ValueError(f"k-fold CV needs at least 3 rows, so that a fold trains on 2; got {n}")
    for f, rows in enumerate(folds):
        if not 1 <= len(rows) <= n - 2:
            raise ValueError(f"fold {f} ({len(rows)} rows) must hold 1 to {n - 2} of the {n} rows, "
                             "so that at least 2 training rows stay outside it")
    check_ridge(gram_diagonal(kernel_spec, train.features), C_values)
    return [training_rows(folds, f) for f in range(len(folds))]


def kfold_scores(
    train: Dataset,
    kernel_spec: KernelSpec,
    C_values: Sequence[float],
    folds: Sequence[np.ndarray],
) -> list[list[np.ndarray]]:
    """Exact held-out scores of every fold at every C, from one spectrum of K.

    out[f][j] holds the scores on the rows folds[f] of the model that
    `fit(train.subset(rest), kernel_spec, C_values[j])` trains on the other
    rows, up to round-off.  A class absent from those rows scores exactly -1,
    the bias of its constant column's exact solution.  With A = K + I/C,
    u = A^-1 1, s = 1^T u and the full set's duals alpha = A^-1 Y - u (u^T Y) / s,
    fold F's held-out scores are Y_F - x with H_FF x = alpha_F,
    H = A^-1 - u u^T / s (An, Liu & Venkatesh, Pattern Recognition 40, 2007).
    Singleton folds give exact leave-one-out.  The folds partition the rows, as
    the formulas assume.

    `_gram_eigh`'s spectrum gives A^-1, so the cost follows the Gram's structure:
    - Rows with eigenvectors V, d = 1/(lam + 1/C): A^-1 = W W^T over them,
      W = V diag(sqrt(d)).  This dense path takes the whole Gram where it is
      one block or has no singleton row, and else the rows of blocks of 2+ rows.
    - A singleton row i, with no off-diagonal entry left in its row of K, is
      its own 1 x 1 block of A and takes no part in the dense products.  Each
      fold eliminates its singleton rows F_S through diag(K_ii + 1/C) and one
      rank-1 (Sherman-Morrison) term for the bias: its other rows F_V solve
      (W W^T - u u^T / s_F)_{F_V} x = alpha_{F_V} + u_{F_V} sum(alpha[F_S]) / s_F,
      with s_F = s - sum(u[F_S]); then with t = (u_{F_V}^T x + sum(alpha[F_S])) / s_F,
      x_i = (K_ii + 1/C) alpha_i + t on F_S.
    - The thin spectrum of a linear kernel with fewer features than rows,
      K = U diag(lam) U^T: A^-1 = C I - U diag(C lam d) U^T, so each fold's
      dense part is C I - W_F W_F^T with W = U diag(sqrt(C lam d)), and no
      N x N array is made.

    Raises as `checked_training_rows` does, NumericalError where lam + 1/C is
    not resolved above the eigenvalues' round-off, n * eps * max|lam| (the thin
    spectrum's null space counts as lam = 0), where a held-out block is
    singular, or where a held-out score is not finite.
    """
    n = len(train)
    outside = checked_training_rows(train, kernel_spec, C_values, folds)
    g = train.num_classes
    targets = ova_targets(train.labels, g)
    lam, vecs, rows = _gram_eigh(kernel_spec, train.features)
    m, k = vecs.shape
    thin = k < m
    floor = n * np.finfo(float).eps * float(np.abs(lam).max())
    ones_targets = np.column_stack((np.ones(n), targets))
    # V^T [1 Y] once; each C rescales it and maps it back
    proj = vecs.T @ ones_targets[rows[:m]]
    per_C = []
    for C in C_values:
        shifted = lam + 1.0 / C
        if shifted.min() <= floor:
            raise NumericalError(
                f"K + I/C is singular to working precision at C={C}: smallest eigenvalue "
                f"{shifted.min():.3g} <= round-off {floor:.3g}"
            )
        d = 1.0 / shifted
        if thin:
            scale = C * lam[:k] * d[:k]  # C - d, without the cancellation
            sol = C * ones_targets - vecs @ (scale[:, None] * proj)
        else:
            scale = d[:k]
            sol = np.empty((n, g + 1))
            sol[rows[:m]] = vecs @ (scale[:, None] * proj)
            sol[rows[m:]] = d[m:, None] * ones_targets[rows[m:]]
        u = sol[:, 0]
        s = u.sum()
        per_C.append((C, shifted, np.sqrt(scale), u, s, sol[:, 1:] - np.outer(u, u @ targets) / s))
    slot = np.empty(n, dtype=int)
    slot[rows] = np.arange(n)  # row i is rows[slot[i]]: slot[i] >= m for a singleton row
    out = []
    for f, rest in zip(folds, outside):
        absent = np.ones(g, dtype=bool)
        absent[train.labels[rest]] = False
        on_vecs = slot[f] < m
        fv, fs = f[on_vecs], f[~on_vecs]
        vf, lam_s = vecs[slot[fv]], slot[fs]
        scores = []
        for C, shifted, root, u, s, alphas in per_C:
            w = vf * root
            # w @ w.T is one symmetric rank-k update, half the flops of a general product
            h = w @ w.T
            if thin:  # (A^-1)_FF = C I - W_F W_F^T
                h *= -1.0
                h[np.diag_indices(len(h))] += C
            # the singleton rows fs leave the bias term the weight s_f and move alpha_s
            # into the right-hand side; with none, s_f = s and this is the plain solve
            s_f = s - u[fs].sum()
            h -= np.outer(u[fv], u[fv]) / s_f
            alpha_s = alphas[fs].sum(axis=0)
            try:
                x = np.linalg.solve(h, alphas[fv] + np.outer(u[fv], alpha_s) / s_f)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"held-out block is singular: {exc}") from exc
            held_out = np.empty((len(f), g))
            held_out[on_vecs] = targets[fv] - x
            t = (u[fv] @ x + alpha_s) / s_f
            held_out[~on_vecs] = targets[fs] - (shifted[lam_s, None] * alphas[fs] + t)
            held_out[:, absent] = -1.0
            if not np.isfinite(held_out).all():
                raise NumericalError("held-out scores are not finite")
            scores.append(held_out)
        out.append(scores)
    return out


# a dense eigh of an n x n matrix costs about this many LU factorizations of the same
# size: 5.1-8.1 measured for n = 40..1000, numpy 2.4 on single-threaded OpenBLAS
EIGH_LU_EQUIVALENTS = 6.0


def spectral_cv_is_cheaper(folds: int, num_C: int) -> bool:
    """Whether `kfold_scores` costs fewer LU-equivalents than one LU solve per (fold, C).

    An LU of size m costs m^3 and a fold holds a share 1 / folds of the n rows: the
    direct path factors folds * num_C systems of (1 - 1 / folds) n rows, the spectral
    path one eigh of size n and folds * num_C products of size |F| x n x |F| (3 |F|^2 n:
    a product does 2 flops per term where an LU does 2/3).  n cancels: 5 folds x 6 C is
    spectral, 3 x 3 direct.  The eigh and products are counted dense, the worst case,
    which a split Gram or a thin linear spectrum undercuts: the rule is not gamma-aware
    on purpose, so a grid keeps its path, and its bits, at every gamma.
    """
    share = 1.0 / folds
    direct = folds * num_C * (1.0 - share) ** 3
    spectral = EIGH_LU_EQUIVALENTS + folds * num_C * 3 * share**2
    return spectral < direct


def kfold_labels(
    train: Dataset, kernel_spec: KernelSpec, C_values: Sequence[float], folds: Sequence[np.ndarray]
) -> list[list[np.ndarray]]:
    """One-vs-all LS-SVM labels of every fold's rows at every C: out[f][j] labels the rows
    folds[f] by `fit` at C_values[j] on every other fold's rows, the `checked_training_rows`
    that each path takes first.  `spectral_cv_is_cheaper` picks the path: `kfold_scores`, or
    per fold one Gram of the training rows, one `solve_dual_system` per C on it and one query
    Gram, the operations `fit` runs.  Their scores agree to round-off, so labels can differ only
    where two classes' scores tie to round-off."""
    if spectral_cv_is_cheaper(len(folds), len(C_values)):
        scores = kfold_scores(train, kernel_spec, C_values, folds)
        return [[np.argmax(s, axis=1) for s in per_C] for per_C in scores]
    labels = []
    for val, rest in zip(folds, checked_training_rows(train, kernel_spec, C_values, folds)):
        fold = train.subset(rest)
        kmat = gram(kernel_spec, fold.features, fold.features)
        targets = ova_targets(fold.labels, fold.num_classes)
        solved = [solve_dual_system(kmat, C, targets) for C in C_values]
        del kmat  # freed before the query Gram, as after a fit
        kq = gram(kernel_spec, train.features[val], fold.features)
        labels.append([np.argmax(kq @ alphas + biases, axis=1) for alphas, biases in solved])
    return labels
