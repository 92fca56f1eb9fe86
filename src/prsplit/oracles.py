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
the plain box. Besides those come :func:`shift_split`, which moves a
quadratic across the split, and the closed-form prox of the unshifted
least-squares block. The f and g halves of :func:`shift_split` are the one
place a shifted value, gradient or modulus is written, and one checked
rescaling is the prox of both. Least squares takes both halves, and its
f-prox is that one rescaling of the closed-form unshifted prox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    NotPositiveDefiniteError,
    SpdFactorization,
    _as_symmetric,
    _as_vector,
    _check_count,
    _check_step,
    _factor_in_place,
    _gram,
)

# Safety margin on top of the computed largest eigenvalue of A^T A before it
# is used as a curvature bound. The eigensolver is exact up to a relative
# error of a few machine epsilons, which the margin covers: an underestimate
# would invalidate the step-size threshold, an overestimate only shrinks it.
_CURVATURE_MARGIN = 1.0 + 1e-6

# The shift weight a of shift_split per unit of L, the smooth block's gradient
# Lipschitz modulus: the PR step cap (a - 2L) / (a + L)^2 of the shifted block
# is largest at a = 5L, where it is 1 / (12 L). Everything that shifts reads it.
_SHIFT_WEIGHT = 5.0

__all__ = [
    "AffineSet",
    "BoxSet",
    "ProxOracle",
    "ProxShiftError",
    "RankDeficientError",
    "SmoothOracle",
    "SparseBoxSet",
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
    minimizer exists and is unique for every ``gamma > 0``. ``grad_lipschitz``
    must be positive and finite, and ``strong_convexity`` lie in
    ``[0, grad_lipschitz]``; anything else raises ValueError.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float
    grad_lipschitz: float
    prox: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_step(self.grad_lipschitz, "grad_lipschitz")
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

    A A^T is factored once, in place, into the m x m inverse Cholesky factor
    L^{-1}, so each projection is two matrix-vector products with A and two
    with L^{-1}, and construction holds one m x m array beyond A, plus an
    (m/2) x (m/2) block product while it factors. That Gram gets none of
    :func:`spd_factor`'s scans of an outside matrix: its diagonal checks
    every row of A, and the factor reads only its lower triangle.
    Rank deficiency, an all-zero row included, raises :class:`RankDeficientError`
    from the factorization breakdown. ValueError names an A with no rows, a
    row of A holding NaN or inf or too large for its squared norm to be
    finite, a nonzero row too small for its squared norm to be a normal float
    (below ``np.finfo(float).tiny``, where the factor and the projection lose
    their precision and then overflow), and a b holding NaN or inf.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A must be m x n and b of length m")
        if self.A.shape[0] == 0:
            raise ValueError("A has no rows: an affine set needs at least one equation")
        if not np.isfinite(self.b).all():
            raise ValueError("b holds NaN or infinite entries")
        gram = _gram(self.A, rows=True)
        small = np.flatnonzero(np.diagonal(gram) < np.finfo(float).tiny)
        small = small[np.any(self.A[small], axis=1)]  # an all-zero row is rank deficiency, below
        if small.size:
            raise ValueError(f"A row {int(small[0])} is too small: its squared norm underflows")
        try:
            self.gram_factor = SpdFactorization(_factor_in_place(gram))
        except NotPositiveDefiniteError as exc:
            m, n = self.A.shape
            raise RankDeficientError(
                f"A ({m} x {n}) does not have full row rank: its rows are linearly dependent"
            ) from exc

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def project(self, w: np.ndarray) -> np.ndarray:
        """Nearest point of C to a finite w of shape (dim,), or ValueError naming w. A w so large
        that A w overflows gives NaN entries, and a run from such an x0 ends "diverged" at t = 0."""
        w = _as_vector(w, "w", self.dim, finite=True)
        L = self.gram_factor.inv_lower
        return w - self.A.T @ (L.T @ (L @ (self.A @ w - self.b)))


@dataclass(frozen=True)
class SparseBoxSet:
    """Points with at most `r` nonzeros, each bounded by `bound` in magnitude."""

    r: int
    bound: float = 1e6

    def __post_init__(self):
        _check_count(self.r, "cardinality cap r", 1)
        if not self.bound > 0:  # also rejects NaN
            raise ValueError("bound must be positive")

    def project(self, w: np.ndarray) -> np.ndarray:
        """Nearest-point selection for the cardinality-capped box.

        Keeps the `r` entries of largest magnitude (ties broken toward the
        lowest index, NaN entries last), zeroes the rest, then clips the
        survivors to [-bound, bound]; the r-th largest magnitude comes from a
        partition, not a full sort. The clip never moves a kept entry for the
        huge default bound, in which case this is an exact nearest point; with
        an active bound it is the documented keep-then-clip selection.
        w must be 1-D and hold at least r entries, or ValueError says which.
        """
        w = _as_vector(w, "w")
        r = self.r
        if w.shape[0] < r:
            raise ValueError(f"point has length {w.shape[0]} but the cap keeps {r} entries")
        # NaN entries get key +inf, which no number's key -|w| reaches, so they
        # rank after every number and tie only with each other.
        key = -np.abs(w)
        key[np.isnan(key)] = np.inf
        threshold = np.partition(key, r - 1)[r - 1]
        above = np.flatnonzero(key < threshold)
        tied = np.flatnonzero(key == threshold)[: r - above.size]  # lowest index first
        keep = np.concatenate((above, tied))
        out = np.zeros_like(w)
        out[keep] = np.clip(w[keep], -self.bound, self.bound)
        return out

    def indicator(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        within = np.max(np.abs(z), initial=0.0) <= self.bound * (1.0 + 1e-12) + 1e-12
        return 0.0 if np.count_nonzero(z) <= self.r and within else np.inf


@dataclass(frozen=True)
class BoxSet:
    """The convex box [-bound, bound]^n."""

    bound: float

    def __post_init__(self):
        if not self.bound > 0:  # also rejects NaN
            raise ValueError("bound must be positive")

    def project(self, w: np.ndarray) -> np.ndarray:
        """Componentwise clip of a 1-D w to [-bound, bound]."""
        return np.clip(_as_vector(w, "w"), -self.bound, self.bound)

    def indicator(self, z: np.ndarray) -> float:
        # Tolerant membership so that convex averages of projected points,
        # which may overshoot by rounding, still count as inside.
        within = np.max(np.abs(np.asarray(z, dtype=float)), initial=0.0) <= self.bound * (1.0 + 1e-9) + 1e-9
        return 0.0 if within else np.inf


class ShiftedQuadraticProx:
    """Prox of f(y) = ||Ay - b||^2 / 2 + (a / 2) ||y||^2 from one eigendecomposition.

    ``lam_max`` is the largest eigenvalue of A^T A times
    ``_CURVATURE_MARGIN``, so it bounds the curvature of the least-squares
    term from above, and a = 5 lam_max is :func:`shift_split`'s weight for
    it. The shift is :func:`_rescaled_prox`'s, at weight a, around the
    unshifted least-squares prox, which solves

        [I + gamma A^T A] y = v,  v = w + gamma A^T b.

    At construction the Gram matrix G (A A^T when m < n/2, A^T A otherwise)
    is diagonalized once, G = V diag(d) V^T, and only V and d are kept. At
    any gamma the inverse is V diag(1 / (1 + gamma d)) V^T, applied with two
    matrix-vector products by V, so a new step factors nothing. For wide A
    the solve is routed through the m x m system

        y = v - gamma A^T (I + gamma A A^T)^{-1} A v,

    which is the same inverse pushed through the Woodbury identity.

    ValueError names a row (wide route) or column of A whose squared norm
    overflows, and says whether A is zero or, nonzero, too small for its
    Gram matrix to have a positive eigenvalue. The shape and finiteness of A
    and b are :class:`~prsplit.problems.LsInstance`'s to check, not checked again here.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        m, n = self.A.shape
        self.dim = n
        self.Atb = self.A.T @ self.b
        self._wide = m < n / 2
        eigenvalues, self._V = np.linalg.eigh(_gram(self.A, rows=self._wide))
        if not eigenvalues[-1] > 0:
            size = "too small" if np.any(self.A) else "zero"
            raise ValueError(f"A is {size}: its Gram matrix has no positive eigenvalue")
        self._d = np.maximum(eigenvalues, 0.0)
        self.lam_max = float(eigenvalues[-1]) * _CURVATURE_MARGIN

    def __call__(self, gamma: float, w: np.ndarray) -> np.ndarray:
        """The prox at a step in (0, inf) and a finite w of shape (dim,); else ValueError."""
        # Built per call: kept on self, the closure would tie self into a reference cycle.
        return _rescaled_prox(self._solve, _SHIFT_WEIGHT * self.lam_max)(gamma, w)

    def _solve(self, gamma: float, w: np.ndarray) -> np.ndarray:
        """The unshifted prox: argmin_y ||Ay - b||^2 / 2 + ||y - w||^2 / (2 gamma)."""
        w = _as_vector(w, "w", self.dim, finite=True)
        v = w + gamma * self.Atb
        V = self._V
        if self._wide:
            mu = V @ ((V.T @ (self.A @ v)) / (1.0 + gamma * self._d))
            return v - gamma * (self.A.T @ mu)
        return V @ ((V.T @ v) / (1.0 + gamma * self._d))


def shift_split(F: SmoothOracle, G: ProxOracle) -> tuple[SmoothOracle, ProxOracle]:
    """Move a quadratic of weight a = 5 L from the nonsmooth to the smooth block.

    L is ``F.grad_lipschitz``. Returns oracles for f = F + (a/2)||.||^2 and
    g = G - (a/2)||.||^2, which leave the sum F + G untouched while making f
    strongly convex with modulus a more than F's and L-smooth with modulus
    6 L. One checked rescaling, :func:`_rescaled_prox` at weight a and -a,
    composes both proxes analytically:

        prox of gamma f at w  =  F.prox(gamma / (1 + a gamma), w / (1 + a gamma))
        prox of gamma g at w  =  G.prox(gamma / (1 - a gamma), w / (1 - a gamma))

    The g side needs a * gamma < 1; violating steps raise
    :class:`ProxShiftError` at call time.
    """
    lipschitz = F.grad_lipschitz
    f_prox = _rescaled_prox(F.prox, _SHIFT_WEIGHT * lipschitz)
    return _shifted_f(F.value, F.gradient, F.strong_convexity, lipschitz, f_prox), _shifted_g(G, lipschitz)


def _rescaled_prox(prox, alpha: float):
    """The prox of H + (alpha/2)||.||^2 from H's: ``prox(gamma / s, w / s)``, s = 1 + alpha gamma > 0."""

    def rescaled(gamma: float, w: np.ndarray) -> np.ndarray:
        _check_step(gamma)
        scale = 1.0 + alpha * gamma
        if scale <= 0.0:
            raise ProxShiftError(f"shift destroys prox well-posedness: alpha*gamma = {-alpha * gamma} >= 1")
        return prox(gamma / scale, np.asarray(w, dtype=float) / scale)

    return rescaled


def _shifted_f(value, gradient, strong_convexity: float, lipschitz: float, prox) -> SmoothOracle:
    """The f half of :func:`shift_split`: F + (a/2)||.||^2, a = 5 lipschitz, with the given prox."""
    alpha = _SHIFT_WEIGHT * lipschitz
    return SmoothOracle(
        value=lambda w: value(w) + 0.5 * alpha * float(w @ w),
        gradient=lambda w: gradient(w) + alpha * w,
        strong_convexity=strong_convexity + alpha,
        grad_lipschitz=(1.0 + _SHIFT_WEIGHT) * lipschitz,
        prox=prox,
    )


def _shifted_g(G: ProxOracle, lipschitz: float) -> ProxOracle:
    """The g half of :func:`shift_split`: G - (a/2)||.||^2, a = 5 lipschitz, with its prox."""
    alpha = _SHIFT_WEIGHT * lipschitz
    return ProxOracle(prox=_rescaled_prox(G.prox, -alpha), value=lambda z: G.value(z) - 0.5 * alpha * float(z @ z))


def quadratic_oracle(Q: np.ndarray, c: np.ndarray | None = None) -> SmoothOracle:
    """Smooth oracle for f(y) = y^T Q y / 2 + c^T y with Q symmetric PSD.

    Q must be a nonempty, finite square matrix within 1e-10 * (1 + max |Q_ij|)
    of Q^T, and c finite of shape (n,), or ValueError names the argument. So does the
    prox, given a step outside (0, inf) or a w that is not finite of shape (n,).

    Q is diagonalized once, Q = V diag(d) V^T. The moduli are the extreme
    eigenvalues, and the prox solves (I + gamma Q) y = w - gamma c as
    V diag(1 / (1 + gamma d)) V^T (w - gamma c), so any step costs two
    matrix-vector products with V.
    """
    Q = _as_symmetric(Q, "Q")
    n = Q.shape[0]
    c = np.zeros(n) if c is None else _as_vector(c, "c", n, finite=True)
    eigenvalues, V = np.linalg.eigh(Q)
    if eigenvalues[0] < -1e-10 * max(1.0, abs(eigenvalues[-1])):
        raise ValueError("quadratic_oracle needs a positive semidefinite Q")

    def prox(gamma: float, w: np.ndarray) -> np.ndarray:
        _check_step(gamma)
        w = _as_vector(w, "w", n, finite=True)
        return V @ ((V.T @ (w - gamma * c)) / (1.0 + gamma * eigenvalues))

    return SmoothOracle(
        value=lambda y: 0.5 * float(y @ (Q @ y)) + float(c @ y),
        gradient=lambda y: Q @ y + c,
        strong_convexity=max(float(eigenvalues[0]), 0.0),
        grad_lipschitz=float(eigenvalues[-1]),
        prox=prox,
    )
