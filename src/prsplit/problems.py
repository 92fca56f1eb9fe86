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
import re
import weakref
import zipfile
import zlib
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
    "load_instance",
    "save_instance",
]

SUCCESS_THRESHOLD = 1e-12
FAILURE_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class FeasibilityInstance:
    """A planted sparse-feasibility instance, checked once when it is built.

    :class:`SparseBoxSet` checks r and bound; :class:`AffineSet` checks A and
    b, factors A A^T and raises :class:`RankDeficientError` without full row
    rank; r must not exceed n; x_true must hold n finite entries, at most r
    nonzero. A x_true = b is the maker's part (:func:`save_instance` and
    :func:`load_instance` test it). Modify no array in place. An instance
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

    A hit needs ``prox.A is A and prox.b is b``: the live prox holds both
    arrays, so their ids cannot be reused by other data. Data that
    :class:`LsInstance` converts (not float64) is a new array per instance
    and is not shared.
    """
    key = (id(A), id(b))
    prox = _SMOOTH_PROXES.get(key)
    if prox is None or prox.A is not A or prox.b is not b:
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


def _check_seed_text(seed: str) -> None:
    if not re.fullmatch(r"[0-9]+", seed):
        raise ValueError(f"seed must be a nonnegative decimal integer, got {seed!r}")


def _check_solves(A: np.ndarray, b: np.ndarray, x_true: np.ndarray) -> None:
    residual, tol = np.linalg.norm(A @ x_true - b), 1e-10 * np.linalg.norm(A) * np.linalg.norm(x_true)
    if not residual <= tol:
        raise ValueError(f"x_true does not solve A x = b: |A x_true - b| = {residual:.3e} > {tol:.3e}")


def save_instance(inst: FeasibilityInstance, path) -> None:
    """Write an instance to `path`, with no suffix added, as one ``.npz`` archive.

    The seed is stored as its decimal string, so any nonnegative integer
    seed, even one past 64 bits, reloads exactly, as A, b, x_true, r and
    bound do, and nothing is pickled. A seed, shape or x_true that
    :func:`load_instance` would reject raises its ValueError, and nothing is written.
    """
    seed = str(inst.seed)
    _check_seed_text(seed)
    check_shape(inst.m, inst.n)
    _check_solves(inst.A, inst.b, inst.x_true)
    with open(path, "wb") as handle:
        np.savez(handle, A=inst.A, b=inst.b, x_true=inst.x_true, r=inst.r, seed=seed, bound=float(inst.bound))


# The arrays of an instance file, each with its dimension and the numpy type of its dtype.
_FILE_ARRAYS = {
    "A": (2, np.float64),
    "b": (1, np.float64),
    "x_true": (1, np.float64),
    "r": (0, np.integer),
    "seed": (0, np.str_),
    "bound": (0, np.float64),
}


def load_instance(path) -> FeasibilityInstance:
    """Read an instance written by :func:`save_instance`; ValueError if the file is not one.

    A file that is not an ``.npz`` archive of plain arrays (empty, truncated,
    text or ``.npy``) fails naming the file. The archive must hold exactly
    the six arrays that :func:`save_instance` writes: float64 A (2-d), b and
    x_true (1-d) and bound (0-d), an integer r and a seed string of decimal
    digits, with a shape and seed :func:`gen_feasibility` accepts and b and
    x_true to match it. The built :class:`FeasibilityInstance` checks the values.
    Last, x_true must solve A x = b to rounding: |A x_true - b| <= 1e-10 *
    |A|_F * |x_true| (2-norms), which bounds the rounding of A x_true for
    any n below 4e5.
    """
    try:
        with open(path, "rb") as handle:
            data = np.load(handle, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy file loads as one array
                raise ValueError
            arrays = {key: np.asarray(data[key]) for key in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error):
        raise ValueError(f"{path} is not an instance file: expected an .npz archive of arrays") from None
    if sorted(arrays) != sorted(_FILE_ARRAYS):
        raise ValueError(f"{path} must hold exactly the arrays {', '.join(_FILE_ARRAYS)}, got {', '.join(arrays)}")
    for key, value in arrays.items():
        ndim, kind = _FILE_ARRAYS[key]
        if value.ndim != ndim or not np.issubdtype(value.dtype, kind):
            raise ValueError(f"{key} must be a {ndim}-d {kind.__name__} array, got {value.ndim}-d {value.dtype}")
    A, b, x_true, seed = arrays["A"], arrays["b"], arrays["x_true"], str(arrays["seed"])
    _check_seed_text(seed)
    (m, n), r, bound = A.shape, int(arrays["r"]), float(arrays["bound"])
    check_shape(m, n)
    if b.shape != (m,) or x_true.shape != (n,):
        raise ValueError(f"A is {m} x {n}, so b needs {m} entries and x_true {n}; got {b.size} and {x_true.size}")
    inst = FeasibilityInstance(A=A, b=b, r=r, bound=bound, seed=int(seed), x_true=x_true)
    _check_solves(A, b, x_true)
    return inst
