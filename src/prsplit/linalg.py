"""Dense linear algebra and the seeded generator shared by the solvers.

Everything here is deterministic. Random draws are pure functions of an
integer seed, through :func:`rng_from_seed` and numpy's PCG64 bit generator
(a documented 64-bit PRNG whose normal variates come from the ziggurat
transform); the stream for a given seed is stable across runs and platforms
for a fixed numpy version. Matrices are plain row-major float64 ndarrays,
vectors are 1-d float64 ndarrays; nothing here is sparse.

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
    "rng_from_seed",
    "spd_factor",
    "spectral_norm_sq",
]


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot falls at or below the breakdown floor."""


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, which is an int subclass."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_step(value, name: str = "gamma") -> None:
    """The one step contract: a step lies in (0, inf), so NaN fails too."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _as_vector(value, name: str, n: int | None = None, finite: bool = False) -> np.ndarray:
    """The one point contract: `value` as a float64 array of shape (n,).

    With n None (a set projection, which has no fixed length) any 1-D array
    passes. `finite` also rejects NaN and inf entries.
    """
    w = np.asarray(value, dtype=float)
    if n is None:
        if w.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array, got shape {w.shape}")
    elif w.shape != (n,):
        raise ValueError(f"{name} has shape {w.shape}, expected ({n},)")
    if finite and not np.isfinite(w).all():
        raise ValueError(f"{name} holds NaN or infinite entries")
    return w


def _is_symmetric(M: np.ndarray) -> bool:
    """True when the finite square M equals M^T to within 1e-10 * (1 + max |M_ij|)."""
    D = M - M.T  # the one m x m temporary; max |X| is max(X.max(), -X.min())
    return bool(max(D.max(), -D.min()) <= 1e-10 * (1.0 + max(M.max(), -M.min())))


def rng_from_seed(seed: int) -> np.random.Generator:
    """Generator for `seed`; the single RNG construction point of the package."""
    return np.random.Generator(np.random.PCG64(seed))


def spectral_norm_sq(A: np.ndarray, tol: float = 1e-10) -> float:
    """Largest eigenvalue of A^T A, i.e. the squared spectral norm of A.

    Computed by LAPACK's symmetric eigensolver on the smaller Gram matrix
    (A A^T when A is wide, A^T A otherwise), so the result is exact up to
    rounding: its relative error is a small multiple of machine epsilon,
    far inside the 1e-6 margin that turns it into a curvature bound.

    `tol` must be positive and finite and has no effect, because the result
    is exact; it is accepted so existing positional callers keep working.
    """
    A = np.asarray(A, dtype=float)
    _check_step(tol, "tol")
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
        """M^{-1} rhs for a finite rhs of shape (dim,); anything else raises ValueError."""
        rhs = _as_vector(rhs, "rhs", self.dim, finite=True)
        return self.inv_lower.T @ (self.inv_lower @ rhs)


def _invert_lower(L: np.ndarray) -> np.ndarray:
    """Overwrite the nonsingular lower-triangular L with L^{-1} and return it.

    With L = [[A, 0], [B, C]], L^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]].
    The diagonal blocks recurse in place down to leaves of order at most
    `_INVERSE_LEAF`; then B is overwritten with -C^{-1} (B A^{-1}). The
    product B A^{-1}, about (n/2) x (n/2), is the one temporary of a level,
    and the zero block above the diagonal is never written.
    """
    n = L.shape[0]
    if n <= _INVERSE_LEAF:
        L[...] = np.tril(np.linalg.inv(L))
    else:
        h = n // 2
        A_inv = _invert_lower(L[:h, :h])
        C_inv = _invert_lower(L[h:, h:])
        B = L[h:, :h]
        np.matmul(C_inv, B @ A_inv, out=B)  # B A^{-1} is formed before B is written
        np.negative(B, out=B)
    return L


def spd_factor(M: np.ndarray) -> SpdFactorization:
    """Cholesky factorization M = L L^T with an explicit breakdown threshold.

    M must be nonempty, finite and symmetric to within 1e-10 * (1 + max
    |M_ij|) in every entry; each failure raises ValueError. The factor comes
    from LAPACK (through numpy), which reads only the lower triangle of M. A
    pivot L[j, j]^2 at or below 1e-12 * trace(M) / dim, or a breakdown
    inside LAPACK, is treated as loss of positive definiteness and raises
    :class:`NotPositiveDefiniteError` instead of producing a garbage factor.
    The checked factor is then inverted in place, at about the cost of a
    second Cholesky, so LAPACK's output array becomes the L^{-1} that is
    kept; beyond M the peak is that one m x m array plus an (m/2) x (m/2)
    block product.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or infinite entries")
    if not _is_symmetric(M):
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
