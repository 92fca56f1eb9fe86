"""Dense linear algebra and the seeded generator shared by the solvers.

Everything here is deterministic. Random draws are pure functions of an
integer seed, through :func:`rng_from_seed` and numpy's PCG64 bit generator
(a documented 64-bit PRNG whose normal variates come from the ziggurat
transform); the stream for a given seed is stable across runs and platforms
for a fixed numpy version. Matrices are plain row-major float64 ndarrays,
vectors are 1-d float64 ndarrays; nothing here is sparse.

The runtime needs numpy only. The one-off dense kernels here (the largest
eigenvalue, a blocked Cholesky fused with the inversion of its factor) call
numpy's LAPACK and BLAS, so no second BLAS thread pool contends with numpy's.
Of the two factorizations, :func:`spd_factor` checks its outside matrix, and
its ``solve`` an outside right-hand side; an affine set factors its own Gram
without a second scan. Every Gram matrix of the package is formed by
:func:`_gram`, which names a row or column of A too large to square.

The package checks its public arguments through five private helpers here,
one per contract: a step through :func:`_check_step`, a count (a dimension, a
cap, a budget, an iteration index or a seed) through :func:`_check_count`, a
point through :func:`_as_vector`, a matrix through :func:`_as_matrix` and a
symmetric matrix through :func:`_as_symmetric`. Each raises ValueError with a
message naming the argument.
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


def _check_count(value, name: str, least: int | None = None) -> None:
    """The one count contract: a Python or numpy integer, not a bool, of at least `least` when given."""
    if not _is_integer(value) or (least is not None and value < least):
        floor = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")


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


def _as_matrix(value, name: str) -> np.ndarray:
    """The one matrix contract: `value` as a nonempty, finite float64 2-D array."""
    M = np.asarray(value, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} holds NaN or infinite entries")
    return M


def _as_symmetric(value, name: str) -> np.ndarray:
    """The one symmetric-matrix contract: a square :func:`_as_matrix` within 1e-10 * (1 + max |M_ij|) of M^T.

    M - M^T is antisymmetric to the bit, so its largest entry is its largest
    magnitude. A difference that overflows is inf, beyond any tolerance, so
    it is not warned about.
    """
    M = _as_matrix(value, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    with np.errstate(over="ignore"):
        D = M - M.T
    if D.max() > 1e-10 * (1.0 + max(M.max(), -M.min())):  # max |X| is max(X.max(), -X.min())
        raise ValueError(f"{name} is not symmetric")
    return M


def rng_from_seed(seed: int) -> np.random.Generator:
    """Generator for `seed`; the single RNG construction point of the package."""
    return np.random.Generator(np.random.PCG64(seed))


def spectral_norm_sq(A: np.ndarray, tol: float = 1e-10) -> float:
    """Largest eigenvalue of A^T A, i.e. the squared spectral norm of A.

    Computed by LAPACK's symmetric eigensolver on the smaller Gram matrix
    (A A^T when A is wide, A^T A otherwise), so the result is exact up to
    rounding: its relative error is a small multiple of machine epsilon,
    far inside the 1e-6 margin that turns it into a curvature bound.

    A must be a nonempty, finite 2-D array, or ValueError names it, and a
    row (wide A) or column whose squared norm overflows is named as too
    large (see :func:`_gram`). `tol` must be positive and finite and has no
    effect, because the result is exact; it is accepted so existing
    positional callers keep working.
    """
    _check_step(tol, "tol")
    A = _as_matrix(A, "A")
    if not np.any(A):
        raise ValueError("spectral_norm_sq needs a nonzero matrix")
    return float(np.linalg.eigvalsh(_gram(A, rows=A.shape[0] < A.shape[1]))[-1])


def _gram(A: np.ndarray, rows: bool) -> np.ndarray:
    """A A^T with `rows`, else A^T A, formed with no overflow warning and checked through its diagonal.

    The diagonal holds the squared norms of A's rows (or columns), so one
    scan of it, not of A, finds the first that is not finite: ValueError
    names it as too large when its entries are finite, else as holding NaN
    or inf.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        gram = A @ A.T if rows else A.T @ A
    bad = np.flatnonzero(~np.isfinite(np.diagonal(gram)))
    if bad.size:
        i, kind = int(bad[0]), "row" if rows else "column"
        if np.isfinite(A[i] if rows else A[:, i]).all():
            raise ValueError(f"A {kind} {i} is too large: its squared norm overflows")
        raise ValueError(f"A holds NaN or infinite entries, first in {kind} {i}")
    return gram


# Diagonal blocks at or below this order are factored and inverted by
# LAPACK directly; larger ones are split in two (see `_factor_in_place`).
_INVERSE_LEAF = 32


class SpdFactorization:
    """Inverse L^{-1} of the lower Cholesky factor L of an SPD matrix M.

    Built by :func:`spd_factor` or, from the Gram matrix it owns, by
    :class:`~prsplit.oracles.AffineSet`; immutable afterwards. ``solve``
    applies M^{-1} = L^{-T} L^{-1} as two matrix-vector products, one with
    L^{-1} and one with its transpose, with no triangular solve at call time.
    """

    def __init__(self, inv_lower: np.ndarray):
        self.inv_lower = inv_lower
        self.dim = inv_lower.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs for a finite rhs of shape (dim,); anything else raises ValueError."""
        rhs = _as_vector(rhs, "rhs", self.dim, finite=True)
        return self.inv_lower.T @ (self.inv_lower @ rhs)


def _factor_in_place(M: np.ndarray) -> np.ndarray:
    """Overwrite the square M with L^{-1}, from its lower triangle only, and return it.

    M is not checked: :func:`spd_factor` checks an outside matrix, and an
    :class:`~prsplit.oracles.AffineSet` its own Gram through the diagonal.
    A 2 x 2 block recursion fuses a blocked Cholesky with the inversion:
    once M11 holds L11^{-1}, M21 becomes L21 = M21 L11^{-T}, M22 loses
    L21 L21^T and recurses to L22^{-1}, and M21 becomes -L22^{-1} L21 L11^{-1}.
    Leaves of order at most `_INVERSE_LEAF` go to LAPACK. A level's one
    temporary is an (m/2) x (m/2) block product.
    """
    # 1e-12 times the mean diagonal entry, scaled before the sum so it cannot overflow.
    pivot_floor = float(np.sum(np.diagonal(M) * (1e-12 / M.shape[0])))

    def factor(B: np.ndarray) -> None:
        n = B.shape[0]
        if n <= _INVERSE_LEAF:
            B[...] = np.tril(np.linalg.inv(np.linalg.cholesky(B)))
            return
        h = n // 2
        B11, B21, B22 = B[:h, :h], B[h:, :h], B[h:, h:]
        factor(B11)
        np.matmul(B21, B11.T, out=B21)
        B22 -= B21 @ B21.T
        factor(B22)
        np.matmul(B22, B21 @ B11, out=B21)  # B21 B11 is formed before B21 is written
        np.negative(B21, out=B21)
        B[:h, h:] = 0.0

    try:
        factor(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky breakdown: {exc}") from exc
    pivots = (1.0 / np.diagonal(M)) ** 2  # L[j, j] = 1 / L^{-1}[j, j]
    low = np.flatnonzero(~(pivots > pivot_floor))  # a NaN pivot fails too
    if low.size:
        j = int(low[0])
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at column {j} is at or below the floor {pivot_floor:.3e}"
        )
    return M


def spd_factor(M: np.ndarray) -> SpdFactorization:
    """Cholesky factorization M = L L^T of an outside matrix, checked first.

    M must be nonempty, square, finite and symmetric to within 1e-10 * (1 +
    max |M_ij|) in every entry (see `_as_symmetric`), or ValueError says
    which before M is copied. A pivot L[j, j]^2 at or below the floor, the
    sum of 1e-12 * M[i, i] / dim over i, or a breakdown inside LAPACK, raises :class:`NotPositiveDefiniteError` instead of a
    garbage factor. The factor comes from the lower triangle of M. A copy of
    M is overwritten with the kept L^{-1} (see `_factor_in_place`), so beyond
    M the peak is that copy plus an (m/2) x (m/2) block product.
    """
    M = _as_symmetric(M, "M")
    return SpdFactorization(_factor_in_place(np.array(M, order="C")))
