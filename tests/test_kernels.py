"""Kernel and Gram-matrix behavior: values, symmetry, positive semi-definiteness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt import kernels
from emgadapt.kernels import KernelSpec, gram, gram_product


def kernel(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Scalar kernel of two vectors: the oracle for one entry of `gram`."""
    if spec.kind == "linear":
        return float(a @ b)
    d = a - b
    return float(np.exp(-spec.gamma * (d @ d)))


def three_temporary_gaussian_gram(gamma: float, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The out-of-place Gaussian Gram formula: the bitwise oracle for `gram`."""
    sq = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :] - 2.0 * (X @ Z.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def test_gaussian_scalar_values():
    spec = KernelSpec("gaussian", gamma=0.5)
    a = np.array([1.0, 2.0])
    b = np.array([2.0, 0.0])
    # squared distance 1 + 4 = 5
    assert_allclose(kernel(spec, a, b), np.exp(-0.5 * 5.0), rtol=0, atol=1e-15)
    assert kernel(spec, a, a) == 1.0


def test_linear_scalar_is_dot_product():
    spec = KernelSpec("linear")
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([4.0, 0.5, -1.0])
    assert kernel(spec, a, b) == pytest.approx(a @ b, abs=1e-15)


def test_gram_matches_scalar_kernel_loops():
    rng = np.random.default_rng(0)
    for spec in (KernelSpec("gaussian", 0.7), KernelSpec("linear")):
        X = rng.normal(size=(6, 3))
        Z = rng.normal(size=(4, 3))
        got = gram(spec, X, Z)
        want = np.array([[kernel(spec, x, z) for z in Z] for x in X])
        assert_allclose(got, want, rtol=0, atol=1e-14)
        assert got.shape == (6, 4)


def test_gram_symmetry_and_psd_over_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 6))
        gamma = float(10.0 ** rng.uniform(-2, 2))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        k = gram(KernelSpec("gaussian", gamma), X, X)
        assert np.max(np.abs(k - k.T)) <= 1e-12
        eigs = np.linalg.eigvalsh((k + k.T) / 2.0)
        assert eigs.min() >= -1e-8 * np.trace(k)


def test_gaussian_values_never_exceed_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 5)) * 1e3
    k = gram(KernelSpec("gaussian", 1e-4), X, X)
    # the squared-distance clamp keeps round-off from pushing values past 1
    assert np.all(k <= 1.0)
    assert_allclose(np.diag(k), 1.0, rtol=0, atol=1e-9)


def test_duplicate_rows_hit_the_distance_clamp():
    X = np.array([[1e8, -1e8, 3.0]])
    k = gram(KernelSpec("gaussian", 1.0), X, X)
    assert k[0, 0] == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian")
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -2.0)
    KernelSpec("linear")  # gamma optional for linear


def test_shape_errors():
    spec = KernelSpec("linear")
    with pytest.raises(ValueError):
        gram(spec, np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        gram(spec, np.zeros(3), np.zeros((2, 3)))


def test_overflowing_squared_norms_raise_instead_of_returning_nan():
    # finite rows, but each ||x||^2 overflows
    X = np.random.default_rng(16).normal(size=(60, 10)) * 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        # the unchecked formula: more than half of the entries are NaN
        assert np.isnan(three_temporary_gaussian_gram(1.0, X, X)).sum() > 60 * 60 / 2
    for spec in (KernelSpec("gaussian", 1.0), KernelSpec("linear")):
        for Z in (X, X[:3] * 1e-160):
            with pytest.raises(ValueError, match="overflow"):
                gram(spec, X, Z)
            with pytest.raises(ValueError, match="overflow"):
                gram(spec, Z, X)
    with pytest.raises(ValueError, match="overflow"):
        kernels.gram_diagonal(KernelSpec("linear"), X)
    # rows of about 1e150 square to about 1e301: 4 max ||x||^2 stays finite
    Y = X[:3] * 1e-10
    k = gram(KernelSpec("linear"), Y, Y)
    assert np.isfinite(k).all() and np.isfinite(gram(KernelSpec("gaussian", 1.0), Y, Y)).all()
    assert_allclose(np.diag(k), kernels.gram_diagonal(KernelSpec("linear"), Y), rtol=1e-14)


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize(
    "shape_x, shape_z",
    [((40, 7), (40, 7)), ((33, 5), (17, 5)), ((1, 6), (25, 6)), ((600, 4), (30, 4))],
)
def test_in_place_gaussian_gram_is_bitwise_equal_to_the_out_of_place_formula(gamma, shape_x, shape_z):
    rng = np.random.default_rng(int(gamma * 1000) + shape_x[0])
    X = rng.normal(size=shape_x) * 3.0
    Z = X if shape_x == shape_z else rng.normal(size=shape_z) * 3.0
    got = gram(KernelSpec("gaussian", gamma), X, Z)
    want = three_temporary_gaussian_gram(gamma, X, Z)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gaussian_gram_peaks_at_about_one_output_size(peak_bytes):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(2000, 8))
    Z = rng.normal(size=(1000, 8))
    out_bytes = 2000 * 1000 * 8
    k, peak = peak_bytes(lambda: gram(KernelSpec("gaussian", 0.1), X, Z))
    assert k.nbytes == out_bytes
    assert peak <= 1.2 * out_bytes


BLOCKED_ROWS = [0, 1, 2047, 2048, 4095, 4096, 12747]


@pytest.mark.parametrize(
    "spec", [KernelSpec("gaussian", 0.05), KernelSpec("linear")], ids=["gaussian", "linear"]
)
@pytest.mark.parametrize("rows", BLOCKED_ROWS)
def test_gram_product_matches_the_one_shot_product(spec, rows):
    rng = np.random.default_rng(rows)
    X = rng.normal(size=(rows, 6))
    Z = rng.normal(size=(40, 6))
    coeffs = rng.normal(size=(40, 5))
    got = gram_product(spec, X, Z, coeffs)
    want = gram(spec, X, Z) @ coeffs
    assert got.shape == (rows, 5)
    # blocks may sum in another order than the one-shot product: round-off only
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("rows", BLOCKED_ROWS)
def test_gram_product_builds_one_gram_below_4096_rows_and_bounded_blocks_above(rows, monkeypatch):
    seen = []

    def spy(spec, X, Z):
        seen.append(len(X))
        return gram(spec, X, Z)

    monkeypatch.setattr(kernels, "gram", spy)
    gram_product(KernelSpec("linear"), np.ones((rows, 2)), np.ones((3, 2)), np.ones((3, 1)))
    assert sum(seen) == rows
    if rows < 4096:
        assert seen == [rows]
    else:
        assert len(seen) == rows // 2048
        assert all(2048 <= n <= 4095 for n in seen)
