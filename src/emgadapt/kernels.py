"""Kernel functions and Gram-matrix construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("gaussian", "linear")

# gram_product's query blocks hold BLOCK_ROWS to 2 * BLOCK_ROWS - 1 rows
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    kind   -- "gaussian" for exp(-gamma * ||a - b||^2) or "linear" for <a, b>
    gamma  -- bandwidth, required and > 0 for the gaussian kernel
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "gaussian":
            if self.gamma is None or not self.gamma > 0:
                raise ValueError("gaussian kernel requires gamma > 0")


def _squared_norms(X: np.ndarray) -> np.ndarray:
    """||x||^2 for every row x of X.  Raises ValueError where 4 max ||x||^2 overflows: below
    that, by Cauchy-Schwarz, no entry, partial sum or squared distance of a Gram of rows can."""
    with np.errstate(over="ignore"):
        sq = (X * X).sum(axis=1)
    if not np.isfinite(4.0 * sq.max(initial=0.0)):
        raise ValueError("kernel inputs overflow: squared row norms are not finite; scale the features down")
    return sq


def gram(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise kernel matrix with entry (i, j) = k(X[i], Z[j])."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2:
        raise ValueError("gram expects 2-d arrays (rows are vectors)")
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    xx, zz = _squared_norms(X), _squared_norms(Z)
    if spec.kind == "linear":
        return X @ Z.T
    # ||x||^2 + ||z||^2 - 2<x,z>, clamped at zero so round-off cannot feed
    # a negative squared distance into exp.  Built in the buffer of X @ Z.T,
    # adding the norm sums 256 rows at a time, so one output-sized array is
    # alive; each entry sees the same operations as the out-of-place form.
    out = X @ Z.T
    out *= 2.0
    for r in range(0, len(out), 256):
        rows = slice(r, r + 256)
        np.subtract(xx[rows, None] + zz[None, :], out[rows], out=out[rows])
    np.maximum(out, 0.0, out=out)
    out *= -spec.gamma
    return np.exp(out, out=out)


def gram_diagonal(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """k(x, x) for every row x of X, without the Gram: 1 (gaussian) or ||x||^2 (linear)."""
    return _squared_norms(X) if spec.kind == "linear" else np.ones(len(X))


def gram_product(spec: KernelSpec, X: np.ndarray, Z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """`gram(spec, X, Z) @ coeffs`, with at most 2 * BLOCK_ROWS - 1 Gram rows alive.

    The rows of X are split into max(1, len(X) // BLOCK_ROWS) equal,
    contiguous blocks.  A block's rows can differ from the one-shot product
    by round-off, since BLAS may sum in an order that depends on the row count.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 2 * BLOCK_ROWS:
        return gram(spec, X, Z) @ coeffs
    blocks = np.array_split(X, len(X) // BLOCK_ROWS)
    return np.concatenate([gram(spec, b, Z) @ coeffs for b in blocks])
