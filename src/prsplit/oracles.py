"""Proximal and projection toolkit consumed by the splitting engines.

Two oracle shapes drive everything:

- :class:`SmoothOracle` packages a differentiable function: value, gradient,
  a strong-convexity modulus, a gradient Lipschitz modulus, and its exact
  proximal map ``prox(gamma, w) = argmin_y f(y) + ||y - w||^2 / (2 gamma)``.
- :class:`ProxOracle` packages a possibly nonsmooth, possibly nonconvex
  function through one deterministic selection from its proximal map plus a
  plain value callable (which may return +inf outside the domain).

The concrete maps implemented here are the ones the solvers need. The sets
carry their projections as methods: the affine set {x : Ax = b}, the
cardinality-capped infinity-norm ball (hard thresholding then clipping) and
the plain box. Besides those come the prox of the ridge-shifted
least-squares block, the prox of half the squared distance to an affine
set, and the generic "move the quadratic shift across the split"
transformer :func:`shift_split`, the one way a shifted prox is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import NotPositiveDefiniteError, SpdFactorization, spd_factor

# Safety margin on top of the computed largest eigenvalue of A^T A before it
# is used as a curvature bound. The eigensolver is exact up to a relative
# error of a few machine epsilons, which the margin covers: an underestimate
# would invalidate the step-size threshold, an overestimate only shrinks it.
_CURVATURE_MARGIN = 1.0 + 1e-6

__all__ = [
    "AffineSet",
    "BoxSet",
    "ProxOracle",
    "ProxShiftError",
    "RankDeficientError",
    "ShiftedQuadraticProx",
    "SmoothOracle",
    "SparseBoxSet",
    "prox_halfsqdist",
    "quadratic_oracle",
    "shift_split",
]


class ProxShiftError(ValueError):
    """A shifted prox was requested with a step that destroys well-posedness."""


class RankDeficientError(NotPositiveDefiniteError):
    """The rows of an affine set's matrix A are linearly dependent."""


@dataclass(frozen=True)
class SmoothOracle:
    """Differentiable block of a split objective.

    ``prox(gamma, w)`` must return the exact minimizer of
    ``f(y) + ||y - w||^2 / (2 gamma)``; with ``strong_convexity >= 0`` that
    minimizer exists and is unique for every ``gamma > 0``.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float
    grad_lipschitz: float
    prox: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.grad_lipschitz <= 0:
            raise ValueError("gradient Lipschitz modulus must be positive")
        if not 0 <= self.strong_convexity <= self.grad_lipschitz:
            raise ValueError("need 0 <= strong_convexity <= grad_lipschitz")


@dataclass(frozen=True)
class ProxOracle:
    """Nonsmooth block of a split objective.

    ``prox(gamma, w)`` returns one deterministic element of the proximal map
    of the (possibly nonconvex) function; ``value`` may return +inf.
    """

    prox: Callable[[float, np.ndarray], np.ndarray]
    value: Callable[[np.ndarray], float]


class AffineSet:
    """The set C = {x in R^n : A x = b} for full-row-rank A.

    The Gram matrix A A^T is factored once at construction so that each
    projection costs two matrix-vector products with A and two with the
    m x m inverse Cholesky factor of A A^T (see :class:`SpdFactorization`).
    Rank deficiency surfaces as :class:`RankDeficientError`, raised from the
    factorization breakdown. A row of A holding NaN or inf, or too large for
    its squared norm to be finite, raises ValueError naming that row; a NaN
    or inf in b raises ValueError naming b.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A must be m x n and b of length m")
        if not np.isfinite(self.b).all():
            raise ValueError("b holds NaN or infinite entries")
        # The diagonal of the Gram matrix holds the squared row norms, so a
        # bad row shows there without an m x n isfinite temporary.
        with np.errstate(invalid="ignore", over="ignore"):
            gram = self.A @ self.A.T
        bad_rows = np.flatnonzero(~np.isfinite(np.diagonal(gram)))
        if bad_rows.size:
            i = int(bad_rows[0])
            if np.isfinite(self.A[i]).all():
                raise ValueError(f"A row {i} is too large: its squared norm overflows")
            raise ValueError(f"A holds NaN or infinite entries, first in row {i}")
        try:
            self.gram_factor: SpdFactorization = spd_factor(gram)
        except NotPositiveDefiniteError as exc:
            m, n = self.A.shape
            raise RankDeficientError(
                f"A ({m} x {n}) does not have full row rank: its rows are linearly dependent"
            ) from exc

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def project(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape[0] != self.dim:
            raise ValueError(f"point has length {w.shape[0]}, set lives in R^{self.dim}")
        multiplier = self.gram_factor.solve(self.A @ w - self.b)
        return w - self.A.T @ multiplier


@dataclass(frozen=True)
class SparseBoxSet:
    """Points with at most `r` nonzeros, each bounded by `bound` in magnitude."""

    r: int
    bound: float = 1e6

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("cardinality cap r must be at least 1")
        if self.bound <= 0:
            raise ValueError("bound must be positive")

    def project(self, w: np.ndarray) -> np.ndarray:
        """Nearest-point selection for the cardinality-capped box.

        Keeps the `r` entries of largest magnitude (ties broken toward the
        lowest index, NaN entries last), zeroes the rest, then clips the
        survivors to [-bound, bound]; the r-th largest magnitude comes from a
        partition, not a full sort. The clip never moves a kept entry for the
        huge default bound, in which case this is an exact nearest point; with
        an active bound it is the documented keep-then-clip selection.
        """
        w = np.asarray(w, dtype=float)
        r = self.r
        if w.shape[0] < r:
            raise ValueError(f"point has length {w.shape[0]} but the cap keeps {r} entries")
        # Ordering by -|w| puts NaN last, as the stable sort below does, so the
        # r-th smallest key is NaN only when fewer than r entries are numbers.
        key = -np.abs(w)
        threshold = np.partition(key, r - 1)[r - 1]
        if np.isnan(threshold):
            # Stable sort on -|w| keeps the lowest index first among tied magnitudes.
            keep = np.argsort(key, kind="stable")[:r]
        else:
            above = np.flatnonzero(key < threshold)
            tied = np.flatnonzero(key == threshold)[: r - above.size]
            keep = np.concatenate((above, tied))
        out = np.zeros_like(w)
        out[keep] = np.clip(w[keep], -self.bound, self.bound)
        return out

    def contains(self, z: np.ndarray, tol: float = 0.0) -> bool:
        z = np.asarray(z, dtype=float)
        return (
            int(np.count_nonzero(z)) <= self.r
            and float(np.max(np.abs(z), initial=0.0)) <= self.bound * (1.0 + tol) + tol
        )

    def indicator(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z, tol=1e-12) else np.inf


@dataclass(frozen=True)
class BoxSet:
    """The convex box [-bound, bound]^n."""

    bound: float

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("bound must be positive")

    def project(self, w: np.ndarray) -> np.ndarray:
        """Componentwise clip of w to [-bound, bound]."""
        return np.clip(np.asarray(w, dtype=float), -self.bound, self.bound)

    def contains(self, z: np.ndarray, tol: float = 0.0) -> bool:
        z = np.asarray(z, dtype=float)
        return float(np.max(np.abs(z), initial=0.0)) <= self.bound * (1.0 + tol) + tol

    def indicator(self, z: np.ndarray) -> float:
        # Tolerant membership so that convex averages of projected points,
        # which may overshoot by rounding, still count as inside.
        return 0.0 if self.contains(z, tol=1e-9) else np.inf


class ShiftedQuadraticProx:
    """Prox of f(y) = ||Ay - b||^2 / 2 + (5 lam_max / 2) ||y||^2 from one eigendecomposition.

    ``lam_max`` is the largest eigenvalue of A^T A times
    ``_CURVATURE_MARGIN``, so it bounds the curvature of the least-squares
    term from above. Evaluating ``prox(gamma, w)`` solves

        [c I + gamma A^T A] y = v,  c = 1 + 5 gamma lam_max,  v = w + gamma A^T b.

    At construction the Gram matrix G (A A^T when m < n/2, A^T A otherwise)
    is diagonalized once, G = V diag(d) V^T, and only V and d are kept. At
    any gamma the inverse is V diag(1 / (c + gamma d)) V^T, applied with two
    matrix-vector products by V, so a new step factors nothing. For wide A
    the solve is routed through the m x m system

        y = (v - gamma A^T (c I + gamma A A^T)^{-1} A v) / c,

    which is the same inverse pushed through the Woodbury identity.

    A or b holding NaN or inf, or a zero A, raises ValueError naming it.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        for name, data in (("A", self.A), ("b", self.b)):
            if not np.isfinite(data).all():
                raise ValueError(f"{name} holds NaN or infinite entries")
        self.dim = n
        self.Atb = self.A.T @ self.b
        self._wide = m < n / 2
        eigenvalues, self._V = np.linalg.eigh(self.A @ self.A.T if self._wide else self.A.T @ self.A)
        if not eigenvalues[-1] > 0:
            raise ValueError("A is zero: its Gram matrix has no positive eigenvalue")
        self._d = np.maximum(eigenvalues, 0.0)
        self.lam_max = float(eigenvalues[-1]) * _CURVATURE_MARGIN

    def __call__(self, gamma: float, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if not 0 < gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if w.shape[0] != self.dim:
            raise ValueError(f"point has length {w.shape[0]}, expected {self.dim}")
        if not np.isfinite(w).all():
            raise ValueError("w contains NaN or infinite entries")
        c = 1.0 + 5.0 * gamma * self.lam_max
        v = w + gamma * self.Atb
        V = self._V
        if self._wide:
            mu = V @ ((V.T @ (self.A @ v)) / (c + gamma * self._d))
            return (v - gamma * (self.A.T @ mu)) / c
        return V @ ((V.T @ v) / (c + gamma * self._d))


def prox_halfsqdist(cset: AffineSet, gamma: float, w: np.ndarray) -> np.ndarray:
    """Prox of f(y) = dist(y, C)^2 / 2: returns (w + gamma * P_C(w)) / (1 + gamma)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    w = np.asarray(w, dtype=float)
    return (w + gamma * cset.project(w)) / (1.0 + gamma)


def shift_split(
    F: SmoothOracle, G: ProxOracle, alpha: float
) -> tuple[SmoothOracle, ProxOracle]:
    """Move a quadratic of weight alpha from the nonsmooth to the smooth block.

    Returns oracles for f = F + (alpha/2)||.||^2 and g = G - (alpha/2)||.||^2,
    which leave the sum F + G untouched while making f strongly convex with
    modulus alpha more than F's. Both proxes are composed analytically:

        prox of gamma f at w  =  F.prox(gamma / (1 + alpha gamma), w / (1 + alpha gamma))
        prox of gamma g at w  =  G.prox(gamma / (1 - alpha gamma), w / (1 - alpha gamma))

    The g side needs alpha * gamma < 1; violating steps raise
    :class:`ProxShiftError` at call time.
    """
    if alpha <= 2.0 * F.grad_lipschitz:
        raise ValueError(
            "shift must exceed twice the gradient Lipschitz modulus "
            f"(alpha={alpha}, modulus={F.grad_lipschitz})"
        )

    def f_value(w: np.ndarray) -> float:
        return F.value(w) + 0.5 * alpha * float(w @ w)

    def f_gradient(w: np.ndarray) -> np.ndarray:
        return F.gradient(w) + alpha * w

    def f_prox(gamma: float, w: np.ndarray) -> np.ndarray:
        scale = 1.0 + alpha * gamma
        return F.prox(gamma / scale, w / scale)

    def g_value(z: np.ndarray) -> float:
        return G.value(z) - 0.5 * alpha * float(z @ z)

    def g_prox(gamma: float, w: np.ndarray) -> np.ndarray:
        scale = 1.0 - alpha * gamma
        if scale <= 0.0:
            raise ProxShiftError(
                f"shift destroys prox well-posedness: alpha*gamma = {alpha * gamma} >= 1"
            )
        return G.prox(gamma / scale, w / scale)

    f = SmoothOracle(
        value=f_value,
        gradient=f_gradient,
        strong_convexity=F.strong_convexity + alpha,
        grad_lipschitz=F.grad_lipschitz + alpha,
        prox=f_prox,
    )
    g = ProxOracle(prox=g_prox, value=g_value)
    return f, g


def quadratic_oracle(Q: np.ndarray, c: np.ndarray | None = None) -> SmoothOracle:
    """Smooth oracle for f(y) = y^T Q y / 2 + c^T y with Q symmetric PSD.

    Q is diagonalized once, Q = V diag(d) V^T. The moduli are the extreme
    eigenvalues, and the prox solves (I + gamma Q) y = w - gamma c as
    V diag(1 / (1 + gamma d)) V^T (w - gamma c), so any step costs two
    matrix-vector products with V.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
    eigenvalues, V = np.linalg.eigh(Q)
    if eigenvalues[0] < -1e-10 * max(1.0, abs(eigenvalues[-1])):
        raise ValueError("quadratic_oracle needs a positive semidefinite Q")

    def prox(gamma: float, w: np.ndarray) -> np.ndarray:
        return V @ ((V.T @ (w - gamma * c)) / (1.0 + gamma * eigenvalues))

    return SmoothOracle(
        value=lambda y: 0.5 * float(y @ (Q @ y)) + float(c @ y),
        gradient=lambda y: Q @ y + c,
        strong_convexity=max(float(eigenvalues[0]), 0.0),
        grad_lipschitz=float(eigenvalues[-1]),
        prox=prox,
    )
