"""Tests for the dense linear-algebra layer."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import linalg
from prsplit.linalg import (
    NotPositiveDefiniteError,
    rng_from_seed,
    spd_factor,
    spectral_norm_sq,
)

LEAF = linalg._INVERSE_LEAF


def test_spectral_norm_sq_diagonal():
    value = spectral_norm_sq(np.diag([2.0, 1.0]))
    assert_allclose(value, 4.0, rtol=1e-8)


def test_spectral_norm_sq_identity():
    value = spectral_norm_sq(np.eye(5))
    assert_allclose(value, 1.0, rtol=1e-12)


def test_spectral_norm_sq_matches_dense_eigensolver():
    # Independent oracle: full symmetric eigendecomposition of A^T A.
    for seed in range(5):
        A = rng_from_seed(seed).standard_normal((5, 7))
        expected = np.linalg.eigvalsh(A.T @ A)[-1]
        assert_allclose(spectral_norm_sq(A), expected, rtol=1e-8)


def test_spectral_norm_sq_rayleigh_lower_bound():
    rng = np.random.default_rng(5)
    for seed in range(3):
        A = rng_from_seed(seed).standard_normal((6, 9))
        estimate = spectral_norm_sq(A)
        for _ in range(10):
            probe = rng.standard_normal(9)
            rayleigh = np.linalg.norm(A @ probe) ** 2 / np.linalg.norm(probe) ** 2
            assert estimate >= rayleigh - 1e-9 * estimate


def test_spectral_norm_sq_matches_singular_values():
    # LAPACK's SVD, independent of the symmetric eigensolver under test, on
    # tall, wide, and column-deficient (rank 3 of 6 columns) matrices.
    deficient = rng_from_seed(21).standard_normal((8, 3)) @ rng_from_seed(22).standard_normal((3, 6))
    tall = rng_from_seed(23).standard_normal((30, 7))
    wide = rng_from_seed(24).standard_normal((7, 30))
    for A in (tall, wide, deficient):
        sigma_max = np.linalg.svd(A, compute_uv=False)[0]
        assert_allclose(spectral_norm_sq(A), sigma_max**2, rtol=1e-12)


def test_spectral_norm_sq_rejects_nonpositive_tol():
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got 0\.0$"):
        spectral_norm_sq(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="^tol must be positive and finite, got nan$"):
        spectral_norm_sq(np.eye(2), tol=float("nan"))


def test_spectral_norm_sq_rejects_zero_matrix():
    with pytest.raises(ValueError):
        spectral_norm_sq(np.zeros((2, 2)))


def test_spd_factor_identity():
    factor = spd_factor(np.eye(3))
    assert_allclose(factor.inv_lower, np.eye(3), atol=0)
    b = np.array([1.0, -2.0, 3.0])
    assert_allclose(factor.solve(b), b, atol=0)


def test_spd_factor_diagonal():
    M = np.diag([4.0, 9.0])
    assert_allclose(spd_factor(M).solve(np.array([4.0, 9.0])), [1.0, 1.0], rtol=1e-14)


def test_spd_factor_gram_matrix_residual():
    A = rng_from_seed(11).standard_normal((3, 6))
    M = A @ A.T
    rhs = rng_from_seed(12).standard_normal(3)
    x = spd_factor(M).solve(rhs)
    assert np.linalg.norm(M @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_spd_factor_reconstructs_matrix():
    # LEAF is the largest leaf and LEAF + 1 the smallest split; 2 * LEAF
    # splits once into two leaves, while 65, 131 and 500 split oddly at
    # several levels of the blocked factor, whose blocks are written into
    # views of one array.
    sizes = [5, 40, 200, 2 * LEAF + 1, 4 * LEAF + 3, 500, LEAF, LEAF + 1, 2 * LEAF]
    for seed, dim in enumerate(sizes):
        B = rng_from_seed(seed).standard_normal((dim, dim))
        M = B @ B.T + 0.5 * dim * np.eye(dim)
        factor = spd_factor(M)
        # L^{-1} M L^{-T} = I exactly when L L^T = M.
        whitened = factor.inv_lower @ M @ factor.inv_lower.T
        assert np.linalg.norm(whitened - np.eye(dim)) <= 1e-8 * np.sqrt(dim)
        assert not np.any(np.triu(factor.inv_lower, 1))


def test_spd_factor_builds_one_m_by_m_array():
    # Factoring a copy of M in place peaks at about 1.35 m^2 doubles beyond
    # M: the copy plus one (m/2) x (m/2) block product (and numpy's fixed
    # ufunc buffers). A second m x m array, for L or L^{-1}, would peak at
    # about 2.5 m^2. An untraced first call keeps one-off allocations out of
    # the number.
    m = 400
    B = rng_from_seed(7).standard_normal((m, m))
    M = B @ B.T + 0.5 * m * np.eye(m)
    before = M.copy()
    spd_factor(M)
    tracemalloc.start()
    try:
        spd_factor(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * m * 8
    assert np.array_equal(M, before)  # the input is read, never overwritten


def test_spd_factor_solve_round_trip_random():
    for seed, dim in [(3, 10), (4, 80), (5, 200)]:
        B = rng_from_seed(seed).standard_normal((dim, dim))
        M = B @ B.T + 0.5 * dim * np.eye(dim)
        rhs = rng_from_seed(seed + 100).standard_normal(dim)
        x = spd_factor(M).solve(rhs)
        assert np.linalg.norm(M @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_spd_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(np.diag([1.0, -1.0]))


def test_spd_factor_rejects_singular():
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(np.ones((2, 2)))


def test_spd_factor_rejects_pivot_below_floor():
    # LAPACK factors this matrix; the pivot floor 1e-12 * trace / dim rejects it.
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(np.diag([1.0, 1e-14]))


def test_spd_factor_rejects_asymmetric():
    with pytest.raises(ValueError):
        spd_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # M - M^T overflows here; the check says so without a RuntimeWarning.
    with pytest.raises(ValueError, match="^M is not symmetric$"):
        spd_factor(np.array([[1e308, -1e308], [1e308, 1e308]]))
    # One asymmetric entry, the farthest from the diagonal, at orders either side of 32 and past 64.
    for m in (31, 32, 33, 65):
        M = 2.0 * np.eye(m)
        M[-1, 0] = 1.0
        with pytest.raises(ValueError, match="^M is not symmetric$"):
            spd_factor(M)


def test_spd_factor_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match=r"^M must be a nonempty 2-D array, got shape \(0, 0\)$"):
        spd_factor(np.zeros((0, 0)))


@pytest.mark.parametrize("factor, rejected", [(1.01, True), (0.99, False)])
def test_spd_factor_symmetry_tolerance_boundary(factor, rejected):
    # The tolerance is 1e-10 * (1 + max|M_ij|) = 3e-10 for this M.
    M = 2.0 * np.eye(2)
    M[0, 1] = factor * 3e-10
    if rejected:
        with pytest.raises(ValueError, match="not symmetric"):
            spd_factor(M)
    else:
        assert_allclose(spd_factor(M).solve(np.array([2.0, 4.0])), [1.0, 2.0], rtol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_factor_rejects_non_finite_matrix(bad):
    M = np.eye(3)
    M[1, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite") as info:
        spd_factor(M)
    assert not isinstance(info.value, NotPositiveDefiniteError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_rhs(bad):
    factor = spd_factor(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="^rhs holds NaN or infinite entries$"):
        factor.solve(np.array([1.0, bad, 0.0]))


@pytest.mark.parametrize("dim", [1, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 200])
@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
def test_spd_factor_solve_accuracy_across_block_sizes(dim, cond):
    # M = Q diag(d) Q^T with eigenvalues spread log-uniformly over [1/cond, 1];
    # the sizes straddle the leaf of the blocked inverse and its first splits.
    Q, _ = np.linalg.qr(rng_from_seed(dim).standard_normal((dim, dim)))
    d = np.logspace(0.0, -np.log10(cond), dim) if dim > 1 else np.ones(1)
    M = (Q * d) @ Q.T
    M = 0.5 * (M + M.T)
    x_true = rng_from_seed(dim + 1).standard_normal(dim)
    rhs = M @ x_true
    x = spd_factor(M).solve(rhs)
    forward = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    residual = np.linalg.norm(M @ x - rhs) / (np.linalg.norm(M, 2) * np.linalg.norm(x))
    assert forward <= 1e-15 * cond
    assert residual <= 1e-13
