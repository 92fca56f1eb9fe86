"""Proximal and projection toolkit consumed by the splitting engines.

Two oracle shapes drive everything:

- :class:`SmoothOracle` packages a differentiable function: value, gradient,
  a strong-convexity modulus, a gradient Lipschitz modulus, and its exact
  proximal map ``prox(gamma, w) = argmin_y f(y) + ||y - w||^2 / (2 gamma)``.
- :class:`ProxOracle` packages a possibly nonsmooth, possibly nonconvex
  function through one deterministic selection from its proximal map plus a
  plain value callable (which may return +inf outside the domain).

The concrete maps implemented here are the ones the solvers need: projection
onto an affine set {x : Ax = b}, projection onto a cardinality-capped
infinity-norm ball (hard thresholding then clipping), projection onto a plain
box, the prox of the ridge-shifted least-squares block, the prox of half the
squared distance to an affine set (shifted and unshifted), and the generic
"move the quadratic shift across the split" transformer
:func:`shift_split`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import NotPositiveDefiniteError, SpdFactorization, spd_factor

__all__ = [
    "AffineSet",
    "BoxSet",
    "ProxOracle",
    "ProxShiftError",
    "RankDeficientError",
    "ShiftedQuadraticProx",
    "SmoothOracle",
    "SparseBoxSet",
    "project_affine",
    "project_box",
    "project_sparse_box",
    "prox_halfsqdist",
    "prox_shifted_halfsqdist",
    "prox_shifted_quadratic",
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
    factorization breakdown.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A must be m x n and b of length m")
        try:
            self.gram_factor: SpdFactorization = spd_factor(self.A @ self.A.T)
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
        return project_sparse_box(self, w)

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
        return project_box(self, w)

    def contains(self, z: np.ndarray, tol: float = 0.0) -> bool:
        z = np.asarray(z, dtype=float)
        return float(np.max(np.abs(z), initial=0.0)) <= self.bound * (1.0 + tol) + tol

    def indicator(self, z: np.ndarray) -> float:
        # Tolerant membership so that convex averages of projected points,
        # which may overshoot by rounding, still count as inside.
        return 0.0 if self.contains(z, tol=1e-9) else np.inf


def project_affine(cset: AffineSet, w: np.ndarray) -> np.ndarray:
    """Nearest point of {x : Ax = b} to w, i.e. w - A^T (A A^T)^{-1} (A w - b)."""
    return cset.project(w)


def project_sparse_box(dset: SparseBoxSet, w: np.ndarray) -> np.ndarray:
    """Nearest-point selection for the cardinality-capped box.

    Keeps the `r` entries of largest magnitude (ties broken toward the lowest
    index), zeroes the rest, then clips the survivors to [-bound, bound].
    The clip never moves a kept entry for the huge default bound, in which
    case this is an exact nearest point; with an active bound it is the
    documented keep-then-clip selection.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[0] < dset.r:
        raise ValueError(f"point has length {w.shape[0]} but the cap keeps {dset.r} entries")
    # Stable sort on -|w| keeps the lowest index first among tied magnitudes.
    keep = np.argsort(-np.abs(w), kind="stable")[: dset.r]
    out = np.zeros_like(w)
    out[keep] = np.clip(w[keep], -dset.bound, dset.bound)
    return out


def project_box(bset: BoxSet, w: np.ndarray) -> np.ndarray:
    """Componentwise clip of w to [-bound, bound]."""
    return np.clip(np.asarray(w, dtype=float), -bset.bound, bset.bound)


class ShiftedQuadraticProx:
    """Prox of f(y) = ||Ay - b||^2 / 2 + (5 lam_max / 2) ||y||^2 with cached factors.

    Evaluating ``prox(gamma, w)`` solves

        [(5 gamma lam_max + 1) I + gamma A^T A] y = w + gamma A^T b,

    so the per-step cost must be two matrix-vector products with a cached
    inverse Cholesky factor: the system is factored once per distinct gamma
    and reused. The cache write is last-wins, so concurrent first calls at
    the same gamma can at worst factor redundantly. For wide matrices
    (m < n/2) the solve is routed through the m x m Gram system

        y = (v - gamma A^T (c I + gamma A A^T)^{-1} A v) / c,  c = 1 + 5 gamma lam_max,

    which is the same inverse pushed through the Woodbury identity.

    The Gram matrix (A A^T when wide, A^T A otherwise; see :meth:`gram_of`)
    is formed at construction unless `gram` passes in the one the caller
    already holds, for instance to read lam_max from it.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lam_max: float, gram: np.ndarray | None = None):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        if lam_max <= 0:
            raise ValueError("lam_max must be positive")
        self.lam_max = float(lam_max)
        self.dim = n
        self.Atb = self.A.T @ self.b
        self._wide = m < n / 2
        self._gram = self.gram_of(self.A) if gram is None else gram
        order = m if self._wide else n
        if self._gram.shape != (order, order):
            raise ValueError(f"gram has shape {self._gram.shape}, expected ({order}, {order})")
        self._factors: dict[float, SpdFactorization] = {}

    @staticmethod
    def gram_of(A: np.ndarray) -> np.ndarray:
        """The Gram matrix the prox factors: A A^T if m < n/2, else A^T A."""
        A = np.asarray(A, dtype=float)
        m, n = A.shape
        return A @ A.T if m < n / 2 else A.T @ A

    def _factor(self, gamma: float) -> SpdFactorization:
        factor = self._factors.get(gamma)
        if factor is None:
            c = 1.0 + 5.0 * gamma * self.lam_max
            if self._wide:
                system = gamma * self._gram + c * np.eye(self.A.shape[0])
            else:
                system = gamma * self._gram + c * np.eye(self.dim)
            factor = spd_factor(system)
            self._factors[gamma] = factor
        return factor

    def __call__(self, gamma: float, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if w.shape[0] != self.dim:
            raise ValueError(f"point has length {w.shape[0]}, expected {self.dim}")
        v = w + gamma * self.Atb
        factor = self._factor(gamma)
        if self._wide:
            c = 1.0 + 5.0 * gamma * self.lam_max
            return (v - gamma * (self.A.T @ factor.solve(self.A @ v))) / c
        return factor.solve(v)


def prox_shifted_quadratic(
    A: np.ndarray, b: np.ndarray, lam_max: float, gamma: float, w: np.ndarray
) -> np.ndarray:
    """One-shot form of :class:`ShiftedQuadraticProx` (no factor reuse across calls)."""
    return ShiftedQuadraticProx(A, b, lam_max)(gamma, w)


def prox_shifted_halfsqdist(cset: AffineSet, gamma: float, w: np.ndarray) -> np.ndarray:
    """Prox of f(y) = dist(y, C)^2 / 2 + (5/2) ||y||^2 at step gamma.

    Closed form: (gamma * P_C(w / (1 + 5 gamma)) + w) / (6 gamma + 1).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    w = np.asarray(w, dtype=float)
    anchor = cset.project(w / (1.0 + 5.0 * gamma))
    return (gamma * anchor + w) / (6.0 * gamma + 1.0)


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

    The moduli are measured from the spectrum of Q, and the prox solves the
    linear system (I + gamma Q) y = w - gamma c with one cached factorization
    per distinct gamma.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
    eigenvalues = np.linalg.eigvalsh(Q)
    if eigenvalues[0] < -1e-10 * max(1.0, abs(eigenvalues[-1])):
        raise ValueError("quadratic_oracle needs a positive semidefinite Q")
    factors: dict[float, SpdFactorization] = {}

    def prox(gamma: float, w: np.ndarray) -> np.ndarray:
        factor = factors.get(gamma)
        if factor is None:
            factor = spd_factor(np.eye(n) + gamma * Q)
            factors[gamma] = factor
        return factor.solve(w - gamma * c)

    return SmoothOracle(
        value=lambda y: 0.5 * float(y @ (Q @ y)) + float(c @ y),
        gradient=lambda y: Q @ y + c,
        strong_convexity=max(float(eigenvalues[0]), 0.0),
        grad_lipschitz=float(eigenvalues[-1]),
        prox=prox,
    )
