"""Dense linear algebra and seeded sampling shared by the solvers.

Everything here is deterministic. Random draws are pure functions of an
integer seed, backed by numpy's PCG64 bit generator (a documented 64-bit
PRNG whose normal variates come from the ziggurat transform); the stream
for a given seed is stable across runs and platforms for a fixed numpy
version. Matrices are plain row-major float64 ndarrays, vectors are 1-d
float64 ndarrays; nothing here is sparse.

The runtime needs numpy only. The one-off dense kernels here (the largest
eigenvalue, Cholesky, the inverse of the Cholesky factor) call numpy's
LAPACK, and an SPD solve is two numpy matrix-vector products with the
inverse factor, so one BLAS library is loaded and no second thread pool
contends with numpy's.
"""

from __future__ import annotations

import numpy as np

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
    return float(np.linalg.eigvalsh(A @ A.T if A.shape[0] < A.shape[1] else A.T @ A)[-1])


# Triangular blocks at or below this order are inverted by LAPACK directly;
# larger ones are split in two (see `_invert_lower`).
_INVERSE_LEAF = 32


class SpdFactorization:
    """Inverse L^{-1} of the lower Cholesky factor L of an SPD matrix M.

    Built through :func:`spd_factor`; immutable afterwards. ``solve`` applies
    M^{-1} = L^{-T} L^{-1} as two matrix-vector products, one with L^{-1} and
    one with its transpose, with no triangular solve at call time.
    """

    def __init__(self, inv_lower: np.ndarray):
        self.inv_lower = inv_lower
        self.dim = inv_lower.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dim:
            raise ValueError(f"rhs has length {rhs.shape[0]}, factor has dimension {self.dim}")
        if not np.isfinite(rhs).all():
            raise ValueError("rhs contains NaN or infinite entries")
        return self.inv_lower.T @ (self.inv_lower @ rhs)


def _invert_lower(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by 2x2 blocks.

    With L = [[A, 0], [B, C]], L^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]];
    the halves recurse down to leaves of order at most `_INVERSE_LEAF`, and
    the strictly upper triangle of the result is exactly zero.
    """
    n = L.shape[0]
    if n <= _INVERSE_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    a_inv = _invert_lower(L[:h, :h])
    c_inv = _invert_lower(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -(c_inv @ (L[h:, :h] @ a_inv))
    return out


def spd_factor(M: np.ndarray) -> SpdFactorization:
    """Cholesky factorization M = L L^T with an explicit breakdown threshold.

    M must be finite and symmetric to within 1e-10 * (1 + max |M_ij|) in
    every entry; either failure raises ValueError. The factor comes from
    LAPACK (through numpy), which reads only the lower triangle of M. A
    pivot L[j, j]^2 at or below 1e-12 * trace(M) / dim, or a breakdown
    inside LAPACK, is treated as loss of positive definiteness and raises
    :class:`NotPositiveDefiniteError` instead of producing a garbage factor.
    The checked factor is then inverted once, at about the cost of a second
    Cholesky, and only L^{-1} is kept.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or infinite entries")
    scale = np.max(np.abs(M), initial=0.0)
    if np.abs(M - M.T).max(initial=0.0) > 1e-10 * (1.0 + scale):
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
    return SpdFactorization(_invert_lower(lower))
