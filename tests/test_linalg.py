"""Tests for the dense linear-algebra layer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import linalg
from prsplit.linalg import (
    NotPositiveDefiniteError,
    gaussian_matrix,
    spd_factor,
    spectral_norm_sq,
)


def test_gaussian_matrix_deterministic():
    first = gaussian_matrix(2, 2, 123)
    second = gaussian_matrix(2, 2, 123)
    assert_allclose(first, second, rtol=0, atol=0)


def test_gaussian_matrix_seeds_differ():
    assert not np.array_equal(gaussian_matrix(4, 4, 0), gaussian_matrix(4, 4, 1))


def test_gaussian_matrix_moments():
    # Law-of-large-numbers check on a tall draw.
    sample = gaussian_matrix(1000, 1, 3).ravel()
    assert abs(sample.mean()) < 0.1
    assert abs(sample.var() - 1.0) < 0.1


def test_gaussian_matrix_shape_and_finiteness():
    sample = gaussian_matrix(3, 4, 99)
    assert sample.shape == (3, 4)
    assert np.all(np.isfinite(sample))


def test_gaussian_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 3, 1)


def test_spectral_norm_sq_diagonal():
    value = spectral_norm_sq(np.diag([2.0, 1.0]))
    assert_allclose(value, 4.0, rtol=1e-8)


def test_spectral_norm_sq_identity():
    value = spectral_norm_sq(np.eye(5))
    assert_allclose(value, 1.0, rtol=1e-12)


def test_spectral_norm_sq_matches_dense_eigensolver():
    # Independent oracle: full symmetric eigendecomposition of A^T A.
    for seed in range(5):
        A = gaussian_matrix(5, 7, seed)
        expected = np.linalg.eigvalsh(A.T @ A)[-1]
        assert_allclose(spectral_norm_sq(A), expected, rtol=1e-8)


def test_spectral_norm_sq_rayleigh_lower_bound():
    rng = np.random.default_rng(5)
    for seed in range(3):
        A = gaussian_matrix(6, 9, seed)
        estimate = spectral_norm_sq(A)
        for _ in range(10):
            probe = rng.standard_normal(9)
            rayleigh = np.linalg.norm(A @ probe) ** 2 / np.linalg.norm(probe) ** 2
            assert estimate >= rayleigh - 1e-9 * estimate


def test_spectral_norm_sq_matches_singular_values():
    # LAPACK's SVD, independent of the symmetric eigensolver under test, on
    # tall, wide, and column-deficient (rank 3 of 6 columns) matrices.
    deficient = gaussian_matrix(8, 3, 21) @ gaussian_matrix(3, 6, 22)
    for A in (gaussian_matrix(30, 7, 23), gaussian_matrix(7, 30, 24), deficient):
        sigma_max = np.linalg.svd(A, compute_uv=False)[0]
        assert_allclose(spectral_norm_sq(A), sigma_max**2, rtol=1e-12)


def test_spectral_norm_sq_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        spectral_norm_sq(np.eye(2), 0.0)


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
    A = gaussian_matrix(3, 6, 11)
    M = A @ A.T
    rhs = gaussian_matrix(3, 1, 12).ravel()
    x = spd_factor(M).solve(rhs)
    assert np.linalg.norm(M @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_spd_factor_reconstructs_matrix():
    for seed, dim in [(0, 5), (1, 40), (2, 200)]:
        B = gaussian_matrix(dim, dim, seed)
        M = B @ B.T + 0.5 * dim * np.eye(dim)
        factor = spd_factor(M)
        # L^{-1} M L^{-T} = I exactly when L L^T = M.
        whitened = factor.inv_lower @ M @ factor.inv_lower.T
        assert np.linalg.norm(whitened - np.eye(dim)) <= 1e-8 * np.sqrt(dim)
        assert not np.any(np.triu(factor.inv_lower, 1))


def test_spd_factor_solve_round_trip_random():
    for seed, dim in [(3, 10), (4, 80), (5, 200)]:
        B = gaussian_matrix(dim, dim, seed)
        M = B @ B.T + 0.5 * dim * np.eye(dim)
        rhs = gaussian_matrix(dim, 1, seed + 100).ravel()
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


def test_solve_rejects_dimension_mismatch():
    factor = spd_factor(np.eye(3))
    with pytest.raises(ValueError):
        factor.solve(np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_rhs(bad):
    factor = spd_factor(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        factor.solve(np.array([1.0, bad, 0.0]))


LEAF = linalg._INVERSE_LEAF


@pytest.mark.parametrize("dim", [1, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 200])
@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
def test_spd_factor_solve_accuracy_across_block_sizes(dim, cond):
    # M = Q diag(d) Q^T with eigenvalues spread log-uniformly over [1/cond, 1];
    # the sizes straddle the leaf of the blocked inverse and its first splits.
    Q, _ = np.linalg.qr(gaussian_matrix(dim, dim, dim))
    d = np.logspace(0.0, -np.log10(cond), dim) if dim > 1 else np.ones(1)
    M = (Q * d) @ Q.T
    M = 0.5 * (M + M.T)
    x_true = gaussian_matrix(dim, 1, dim + 1).ravel()
    rhs = M @ x_true
    x = spd_factor(M).solve(rhs)
    forward = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    residual = np.linalg.norm(M @ x - rhs) / (np.linalg.norm(M, 2) * np.linalg.norm(x))
    assert forward <= 1e-15 * cond
    assert residual <= 1e-13
