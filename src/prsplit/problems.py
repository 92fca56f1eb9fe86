"""Assembly of the two application problems into solver-ready splittings.

Sparse feasibility: find a point in C intersect D where C = {x : Ax = b} is
an affine set and D caps both the cardinality and the magnitude of the
entries. The DR baseline runs on the pair f = dist(., C)^2 / 2 (sigma = 0,
L = 1), g = indicator_D. The PR splitting is :func:`shift_split` of that
pair (L = 1, so its weight 5 L is 5), the decomposition

    f(y) = dist(y, C)^2 / 2 + (5/2) |y|^2       (sigma = 5, L = 6)
    g(z) = indicator_D(z) - (5/2) |z|^2         (prox: P_D(w / (1 - 5 gamma)))

which keeps f + g equal to the original objective while satisfying the
strong-convexity requirement of the PR engine; valid steps are
gamma < 1/12, and the g-prox additionally needs gamma < 1/5 to stay
well-posed.

Constrained least squares: minimize |Au - b|^2 / 2 over u in D, through the
same shift, with the same f and g halves, at weight 5 lam, lam an upper
bound on the largest eigenvalue of A^T A. Its smooth prox is the shift's one
rescaling of the closed-form unshifted least-squares prox, which applies an
eigendecomposition of the Gram matrix of A computed once per pair of A and
b arrays. Valid steps are gamma < 1 / (12 lam).

Random instances follow one recipe: Gaussian A, a planted r-sparse Gaussian
solution with r = ceil(m / 5), and b defined so the planted point is
feasible. Solution quality is reported as dist(z, C)^2 / 2 at the returned
point and classified success below 1e-12, failure above 1e-6, undecided in
the band between (the band counts toward neither).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_matrix, _as_vector, _check_count, _check_step, _is_integer, rng_from_seed
from .oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ShiftedQuadraticProx,
    SmoothOracle,
    SparseBoxSet,
    _shifted_f,
    _shifted_g,
    shift_split,
)
from .splitting import SplitProblem

__all__ = [
    "FeasibilityInstance",
    "LsInstance",
    "build_constrained_ls",
    "build_feasibility_dr",
    "build_feasibility_pr",
    "classify",
    "distance_feasibility_problem",
    "evaluate_fval",
    "gen_feasibility",
]

SUCCESS_THRESHOLD = 1e-12
FAILURE_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class FeasibilityInstance:
    """A planted sparse-feasibility instance, checked once when it is built.

    :class:`SparseBoxSet` checks r and bound; :class:`AffineSet` checks A and
    b, factors A A^T and raises :class:`RankDeficientError` without full row
    rank; r must not exceed n; x_true must hold n finite entries, at most r
    nonzero. A x_true = b is the maker's part (:func:`gen_feasibility` sets
    b = A x_true). Modify no array in place. An instance
    equals only itself, and hashes by identity.
    """

    A: np.ndarray
    b: np.ndarray
    r: int
    bound: float
    seed: int
    x_true: np.ndarray
    _dset: SparseBoxSet = field(init=False, repr=False)
    _cset: AffineSet = field(init=False, repr=False)

    def __post_init__(self):
        dset, cset = SparseBoxSet(self.r, self.bound), AffineSet(self.A, self.b)
        _check_cap(dset, cset.dim)
        x_true = np.asarray(self.x_true, dtype=float)
        if x_true.shape != (cset.dim,) or not np.isfinite(x_true).all() or np.count_nonzero(x_true) > self.r:
            raise ValueError(f"x_true must hold n = {cset.dim} finite entries, at most r = {self.r} of them nonzero")
        for name, value in (("A", cset.A), ("b", cset.b), ("x_true", x_true), ("_dset", dset), ("_cset", cset)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def affine_set(self) -> AffineSet:
        return self._cset

    def sparse_set(self) -> SparseBoxSet:
        return self._dset


@dataclass(frozen=True, eq=False)
class LsInstance:
    """Data and constraint set of a constrained least-squares problem.

    Construction is the one check of the data: A must be a nonempty m x n
    array and b of length m, both finite, and constraint a
    :class:`SparseBoxSet` with r at most n or a :class:`BoxSet`, or
    ValueError names the field.
    Array-likes are converted to float arrays; a float64 array is kept as
    the same object.
    Do not modify A or b in place once a problem is built from them: the
    problem keeps an eigendecomposition of their Gram matrix, and problems
    built from the same A and b arrays share it (see
    :func:`build_constrained_ls`). An instance equals only itself, and
    hashes by identity.
    """

    A: np.ndarray
    b: np.ndarray
    constraint: SparseBoxSet | BoxSet

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "b", _as_vector(self.b, "b", self.A.shape[0], finite=True))
        if not isinstance(self.constraint, (SparseBoxSet, BoxSet)):
            raise ValueError(f"constraint must be a SparseBoxSet or a BoxSet, got {self.constraint!r}")
        if isinstance(self.constraint, SparseBoxSet):
            _check_cap(self.constraint, self.A.shape[1])


def _check_cap(dset: SparseBoxSet, n: int) -> None:
    """Raise ValueError unless the cardinality cap of `dset` fits in R^n."""
    if dset.r > n:
        raise ValueError(f"cardinality cap r = {dset.r} exceeds the dimension n = {n}")


def check_shape(m: int, n: int) -> None:
    """Raise ValueError unless (m, n) is a shape :func:`gen_feasibility` can plant."""
    if not all(_is_integer(k) for k in (m, n)):
        raise ValueError(f"m and n must be integers, got {m!r}x{n!r}")
    if m < 5:
        raise ValueError(f"m must be at least 5, got {m}x{n}")
    if n < m:
        raise ValueError(f"need n >= m, got {m}x{n}")


def gen_feasibility(m: int, n: int, seed: int) -> FeasibilityInstance:
    """Random instance: Gaussian A, planted r-sparse solution, r = ceil(m/5).

    All draws come from one seeded stream in a fixed order (A row-major,
    then the r support values, then the support positions by a seeded
    shuffle), so the instance is a pure function of (m, n, seed); the seed
    must be a nonnegative integer. Its entry bound is :class:`SparseBoxSet`'s
    default.
    """
    check_shape(m, n)
    _check_count(seed, "seed", 0)
    r = math.ceil(m / 5)
    rng = rng_from_seed(seed)
    A = rng.standard_normal((m, n))
    values = rng.standard_normal(r)
    support = rng.permutation(n)[:r]
    x_true = np.zeros(n)
    x_true[support] = values
    return FeasibilityInstance(A=A, b=A @ x_true, r=r, bound=SparseBoxSet.bound, seed=seed, x_true=x_true)


def distance_feasibility_problem(cset: AffineSet, dset) -> SplitProblem:
    """Unshifted splitting dist(., C)^2 / 2 + indicator_D for the DR baseline.

    Works for any constraint object D with ``project`` and ``indicator``:
    the sparse-box D gives the benchmark problem, a plain box its convex
    counterpart. The closures read ``cset.project`` at call time, so a
    projection swapped onto the instance afterwards is the one they use.
    Both proxes raise ValueError for a step outside (0, inf).
    """

    def prox(gamma: float, w: np.ndarray) -> np.ndarray:
        _check_step(gamma)
        return (w + gamma * cset.project(w)) / (1.0 + gamma)

    f = SmoothOracle(
        value=lambda y: _halfsqdist(cset, y),
        gradient=lambda y: y - cset.project(y),
        strong_convexity=0.0,
        grad_lipschitz=1.0,
        prox=prox,
    )
    return SplitProblem(f=f, g=_indicator(dset), dim=cset.dim)


def _halfsqdist(cset: AffineSet, y: np.ndarray) -> float:
    """dist(y, C)^2 / 2 for the affine set C."""
    gap = y - cset.project(y)
    return 0.5 * float(gap @ gap)


def _indicator(dset) -> ProxOracle:
    """indicator_D, whose prox at any step in (0, inf) is the projection onto D."""

    def prox(gamma: float, w: np.ndarray) -> np.ndarray:
        _check_step(gamma)
        return dset.project(w)

    return ProxOracle(prox=prox, value=dset.indicator)


def build_feasibility_pr(inst: FeasibilityInstance) -> SplitProblem:
    """Shifted PR splitting of a sparse-feasibility instance (steps in (0, 1/12))."""
    dr = build_feasibility_dr(inst)
    return SplitProblem(*shift_split(dr.f, dr.g), dim=dr.dim)


def build_feasibility_dr(inst: FeasibilityInstance) -> SplitProblem:
    """Unshifted DR baseline for a sparse-feasibility instance."""
    return distance_feasibility_problem(inst.affine_set(), inst.sparse_set())


# Live smooth proxes by (id(A), id(b)) of the arrays they were built from.
# Weak values: an entry goes when the last problem holding its prox does.
_SMOOTH_PROXES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _smooth_prox(A: np.ndarray, b: np.ndarray) -> ShiftedQuadraticProx:
    """The prox built from exactly these A and b arrays, built once while it lives.

    A live entry's prox holds both of its arrays, so no other array can
    carry their ids, and a hit is the prox of these very A and b. Data that
    :class:`LsInstance` converts (not float64) is a new array per instance
    and is not shared.
    """
    key = (id(A), id(b))
    prox = _SMOOTH_PROXES.get(key)
    if prox is None:
        prox = ShiftedQuadraticProx(A, b)
        _SMOOTH_PROXES[key] = prox
    return prox


def build_constrained_ls(inst: LsInstance) -> SplitProblem:
    """Shifted PR splitting of min |Au - b|^2 / 2 over u in the constraint set.

    f and g are :func:`shift_split`'s two halves for |Au - b|^2 / 2 (L = lam)
    and the constraint's indicator. The f-prox, :class:`ShiftedQuadraticProx`,
    is their one rescaling of the closed-form unshifted least-squares prox,
    which alone is this problem's own. lam is its ``lam_max``: the largest
    eigenvalue of A^T A from a dense symmetric eigensolver, inflated by a
    1e-6 relative margin, so never below the true value even when the top
    eigenvalues nearly coincide. Valid steps are gamma < 1 / (12 lam); the
    g-prox needs gamma < 1 / (5 lam).

    Only g depends on the constraint set, so problems built from the same A
    and b arrays (the same objects, not equal copies) share one smooth prox
    and pay its eigendecomposition once. A and b must therefore not be
    modified in place once a problem is built from them.
    """
    A, b = inst.A, inst.b
    smooth_prox = _smooth_prox(A, b)
    lam = smooth_prox.lam_max

    def value(y: np.ndarray) -> float:
        residual = A @ y - b
        return 0.5 * float(residual @ residual)

    f = _shifted_f(value, lambda y: A.T @ (A @ y - b), 0.0, lam, smooth_prox)
    return SplitProblem(f=f, g=_shifted_g(_indicator(inst.constraint), lam), dim=A.shape[1])


def evaluate_fval(z: np.ndarray, inst: FeasibilityInstance) -> float:
    """Solution quality dist(z, C)^2 / 2 of a finite candidate z of shape (n,), or ValueError naming z."""
    return _halfsqdist(inst.affine_set(), _as_vector(z, "z", inst.n, finite=True))


def classify(fval: float) -> str:
    """Bucket a terminal quality value: success / failure / undecided."""
    if not fval >= 0:
        raise ValueError(f"fval must be nonnegative, got {fval}")
    if fval < SUCCESS_THRESHOLD:
        return "success"
    if fval > FAILURE_THRESHOLD:
        return "failure"
    return "undecided"
