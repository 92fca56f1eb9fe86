"""Dense linear algebra and seeded sampling shared by the solvers.

Everything here is deterministic. Random draws are pure functions of an
integer seed, backed by numpy's PCG64 bit generator (a documented 64-bit
PRNG whose normal variates come from the ziggurat transform); the stream
for a given seed is stable across runs and platforms for a fixed numpy
version. Matrices are plain row-major float64 ndarrays, vectors are 1-d
float64 ndarrays; nothing here is sparse.

The one-off dense kernels (eigenvalues, Cholesky) call numpy's LAPACK, not
scipy's: the two packages link separate OpenBLAS builds whose thread pools
contend when their calls interleave.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "NotPositiveDefiniteError",
    "SpdFactorization",
    "gaussian_matrix",
    "rng_from_seed",
    "spd_factor",
    "spectral_norm_sq",
]


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot falls at or below the breakdown floor."""


def rng_from_seed(seed: int) -> np.random.Generator:
    """Generator for `seed`; the single RNG construction point of the package."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Sample a rows-by-cols matrix with i.i.d. standard normal entries.

    The same (rows, cols, seed) triple always produces the same matrix; see
    the module docstring for the generator contract.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
    return rng_from_seed(seed).standard_normal((rows, cols))


def spectral_norm_sq(A: np.ndarray, tol: float = 1e-10) -> float:
    """Largest eigenvalue of A^T A, i.e. the squared spectral norm of A.

    Computed by LAPACK's symmetric eigensolver on the smaller Gram matrix
    (A A^T when A is wide, A^T A otherwise), so the result is exact up to
    rounding: its relative error is a small multiple of machine epsilon,
    far inside the 1e-6 margin that turns it into a curvature bound.

    `tol` must be positive and has no effect, because the result is exact;
    it is accepted so existing positional callers keep working.
    """
    A = np.asarray(A, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.any(A):
        raise ValueError("spectral_norm_sq needs a nonzero matrix")
    gram = A @ A.T if A.shape[0] < A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(gram)[-1])


class SpdFactorization:
    """Lower-triangular Cholesky factor L of a symmetric positive-definite M.

    Built through :func:`spd_factor`; immutable afterwards. ``solve`` applies
    M^{-1} through two triangular solves against L and L^T.
    """

    def __init__(self, lower: np.ndarray):
        self.lower = lower
        self.dim = lower.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dim:
            raise ValueError(f"rhs has length {rhs.shape[0]}, factor has dimension {self.dim}")
        halfway = solve_triangular(self.lower, rhs, lower=True)
        return solve_triangular(self.lower.T, halfway, lower=False)


def spd_factor(M: np.ndarray) -> SpdFactorization:
    """Cholesky factorization M = L L^T with an explicit breakdown threshold.

    The factor comes from LAPACK (through numpy), which reads only the lower
    triangle of M. A pivot L[j, j]^2 at or below 1e-12 * trace(M) / dim, or a
    breakdown inside LAPACK, is treated as loss of positive definiteness and
    raises :class:`NotPositiveDefiniteError` instead of producing a garbage
    factor.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M)) if M.size else 0.0
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * (1.0 + scale)):
        raise ValueError("matrix is not symmetric")

    pivot_floor = 1e-12 * float(np.trace(M)) / M.shape[0]
    try:
        lower = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky breakdown: {exc}") from exc
    pivots = np.diagonal(lower) ** 2
    low = np.flatnonzero(pivots <= pivot_floor)
    if low.size:
        j = int(low[0])
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at column {j} is at or below the floor {pivot_floor:.3e}"
        )
    return SpdFactorization(lower)
