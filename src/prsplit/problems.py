"""Assembly of the two application problems into solver-ready splittings.

Sparse feasibility: find a point in C intersect D where C = {x : Ax = b} is
an affine set and D caps both the cardinality and the magnitude of the
entries. The DR baseline runs on the pair f = dist(., C)^2 / 2 (sigma = 0,
L = 1), g = indicator_D. The PR splitting is :func:`shift_split` of that
pair with weight 5, the decomposition

    f(y) = dist(y, C)^2 / 2 + (5/2) |y|^2       (sigma = 5, L = 6)
    g(z) = indicator_D(z) - (5/2) |z|^2         (prox: P_D(w / (1 - 5 gamma)))

which keeps f + g equal to the original objective while satisfying the
strong-convexity requirement of the PR engine; valid steps are
gamma < 1/12, and the g-prox additionally needs gamma < 1/5 to stay
well-posed.

Constrained least squares: minimize |Au - b|^2 / 2 over u in D, through the
same shift with weight 5 lam, lam an upper bound on the largest eigenvalue
of A^T A; the smooth prox applies an eigendecomposition of the Gram matrix
of A, computed once, and valid steps are gamma < 1 / (12 lam).

Random instances follow one recipe: Gaussian A, a planted r-sparse Gaussian
solution with r = ceil(m / 5), and b defined so the planted point is
feasible. Solution quality is reported as dist(z, C)^2 / 2 at the returned
point and classified success below 1e-12, failure above 1e-6, undecided in
the band between (the band counts toward neither).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import rng_from_seed
from .oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ProxShiftError,
    ShiftedQuadraticProx,
    SmoothOracle,
    SparseBoxSet,
    prox_halfsqdist,
    shift_split,
)
from .splitting import SplitProblem

__all__ = [
    "FeasibilityInstance",
    "LsInstance",
    "build_constrained_ls",
    "build_feasibility_dr",
    "build_feasibility_pr",
    "check_shape",
    "classify",
    "distance_feasibility_problem",
    "evaluate_fval",
    "gen_feasibility",
    "load_instance",
    "save_instance",
]

SUCCESS_THRESHOLD = 1e-12
FAILURE_THRESHOLD = 1e-6


@dataclass
class FeasibilityInstance:
    """A planted sparse-feasibility instance; immutable after generation.

    The planted point ``x_true`` has at most ``r`` nonzeros and satisfies
    A x_true = b by construction. The affine set caches its factorization,
    so reuse ``affine_set()`` rather than rebuilding from A and b.
    """

    A: np.ndarray
    b: np.ndarray
    r: int
    bound: float
    seed: int
    x_true: np.ndarray
    _cset: AffineSet | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def affine_set(self) -> AffineSet:
        if self._cset is None:
            self._cset = AffineSet(self.A, self.b)
        return self._cset

    def sparse_set(self) -> SparseBoxSet:
        return SparseBoxSet(self.r, self.bound)


@dataclass(frozen=True)
class LsInstance:
    """Data and constraint set of a constrained least-squares problem."""

    A: np.ndarray
    b: np.ndarray
    constraint: SparseBoxSet | BoxSet

    def __post_init__(self):
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValueError("A must be m x n with b of length m")
        for name, data in (("A", self.A), ("b", self.b)):
            if not np.isfinite(data).all():
                raise ValueError(f"{name} holds NaN or infinite entries")


def check_shape(m: int, n: int) -> None:
    """Raise ValueError unless (m, n) is a shape :func:`gen_feasibility` can plant."""
    if m < 5:
        raise ValueError(f"m must be at least 5, got {m}x{n}")
    if n < m:
        raise ValueError(f"need n >= m, got {m}x{n}")


def gen_feasibility(m: int, n: int, seed: int, bound: float = 1e6) -> FeasibilityInstance:
    """Random instance: Gaussian A, planted r-sparse solution, r = ceil(m/5).

    All draws come from one seeded stream in a fixed order (A row-major,
    then the r support values, then the support positions by a seeded
    shuffle), so the instance is a pure function of (m, n, seed, bound).
    """
    check_shape(m, n)
    r = math.ceil(m / 5)
    rng = rng_from_seed(seed)
    A = rng.standard_normal((m, n))
    values = rng.standard_normal(r)
    support = rng.permutation(n)[:r]
    x_true = np.zeros(n)
    x_true[support] = values
    return FeasibilityInstance(A=A, b=A @ x_true, r=r, bound=bound, seed=seed, x_true=x_true)


def distance_feasibility_problem(cset: AffineSet, dset) -> SplitProblem:
    """Unshifted splitting dist(., C)^2 / 2 + indicator_D for the DR baseline.

    Works for any constraint object D with ``project`` and ``indicator``:
    the sparse-box D gives the benchmark problem, a plain box its convex
    counterpart. The closures read ``cset.project`` at call time, so a
    projection swapped onto the instance afterwards is the one they use.
    """

    def f_value(y: np.ndarray) -> float:
        gap = y - cset.project(y)
        return 0.5 * float(gap @ gap)

    f = SmoothOracle(
        value=f_value,
        gradient=lambda y: y - cset.project(y),
        strong_convexity=0.0,
        grad_lipschitz=1.0,
        prox=lambda gamma, w: prox_halfsqdist(cset, gamma, w),
    )
    g = ProxOracle(
        prox=lambda gamma, w: dset.project(w),
        value=dset.indicator,
    )
    return SplitProblem(f=f, g=g, dim=cset.dim)


def build_feasibility_pr(inst: FeasibilityInstance) -> SplitProblem:
    """Shifted PR splitting of a sparse-feasibility instance (steps in (0, 1/12))."""
    dr = build_feasibility_dr(inst)
    f, g = shift_split(dr.f, dr.g, 5.0)
    return SplitProblem(f=f, g=g, dim=dr.dim)


def build_feasibility_dr(inst: FeasibilityInstance) -> SplitProblem:
    """Unshifted DR baseline for a sparse-feasibility instance."""
    return distance_feasibility_problem(inst.affine_set(), inst.sparse_set())


def build_constrained_ls(inst: LsInstance) -> SplitProblem:
    """Shifted PR splitting of min |Au - b|^2 / 2 over u in the constraint set.

    The curvature bound lam is the largest eigenvalue of A^T A from a dense
    symmetric eigensolver, inflated by a 1e-6 relative margin, so it is never
    below the true value even when the top eigenvalues nearly coincide;
    valid steps are gamma < 1 / (12 lam) and the g-prox needs
    gamma < 1 / (5 lam). It is the ``lam_max`` of the smooth prox, which
    reads it from the eigendecomposition it keeps.
    """
    smooth_prox = ShiftedQuadraticProx(inst.A, inst.b)
    lam = smooth_prox.lam_max
    dset = inst.constraint

    def f_value(y: np.ndarray) -> float:
        residual = inst.A @ y - inst.b
        return 0.5 * float(residual @ residual) + 2.5 * lam * float(y @ y)

    def f_gradient(y: np.ndarray) -> np.ndarray:
        return inst.A.T @ (inst.A @ y - inst.b) + 5.0 * lam * y

    def g_prox(gamma: float, w: np.ndarray) -> np.ndarray:
        scale = 1.0 - 5.0 * lam * gamma
        if scale <= 0.0:
            raise ProxShiftError(
                f"shift destroys prox well-posedness: 5*lam*gamma = {5.0 * lam * gamma} >= 1"
            )
        return dset.project(w / scale)

    f = SmoothOracle(
        value=f_value,
        gradient=f_gradient,
        strong_convexity=5.0 * lam,
        grad_lipschitz=6.0 * lam,
        prox=smooth_prox,
    )
    g = ProxOracle(
        prox=g_prox,
        value=lambda z: dset.indicator(z) - 2.5 * lam * float(z @ z),
    )
    return SplitProblem(f=f, g=g, dim=inst.A.shape[1])


def evaluate_fval(z: np.ndarray, inst: FeasibilityInstance) -> float:
    """Solution quality dist(z, C)^2 / 2 of a candidate point."""
    z = np.asarray(z, dtype=float)
    gap = z - inst.affine_set().project(z)
    return 0.5 * float(gap @ gap)


def classify(fval: float) -> str:
    """Bucket a terminal quality value: success / failure / undecided."""
    if not fval >= 0:
        raise ValueError(f"fval must be nonnegative, got {fval}")
    if fval < SUCCESS_THRESHOLD:
        return "success"
    if fval > FAILURE_THRESHOLD:
        return "failure"
    return "undecided"


def save_instance(inst: FeasibilityInstance, path) -> None:
    """Write an instance to a plain-text file for exact reproduction.

    Format: a header line "m n r seed bound", then the m rows of A (n
    entries each), one line with b, one line with the support positions of
    the planted point, and one line with its values there. Floats use repr
    precision, so a load reproduces the instance bit for bit.
    """
    support = np.nonzero(inst.x_true)[0]
    lines = [f"{inst.m} {inst.n} {inst.r} {inst.seed} {float(inst.bound)!r}"]
    for row in inst.A:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in inst.b))
    lines.append(" ".join(str(int(i)) for i in support))
    lines.append(" ".join(repr(float(v)) for v in inst.x_true[support]))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_instance(path) -> FeasibilityInstance:
    """Read an instance written by :func:`save_instance`.

    Raises ``ValueError`` on a file that does not describe one: a missing
    header, a wrong line count or row length, a ``b`` line whose length is
    not m, support and value lines of different lengths, support positions
    that are out of range, repeated or more than r, or non-finite numbers in
    A, b or the values.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 5:
        raise ValueError("expected a header line 'm n r seed bound'")
    m, n, r, seed = (int(tok) for tok in header[:4])
    bound = float(header[4])
    if len(lines) != m + 4:
        raise ValueError(f"expected {m + 4} lines for an {m} x {n} instance, got {len(lines)}")
    A = np.array([[float(tok) for tok in lines[1 + i].split()] for i in range(m)])
    if A.shape != (m, n):
        raise ValueError(f"matrix block has shape {A.shape}, header says {(m, n)}")
    b = np.array([float(tok) for tok in lines[m + 1].split()])
    if b.shape != (m,):
        raise ValueError(f"b has {b.size} entries, header says m = {m}")
    support = np.array([int(tok) for tok in lines[m + 2].split()], dtype=int)
    values = np.array([float(tok) for tok in lines[m + 3].split()])
    if support.shape != values.shape:
        raise ValueError(f"{support.size} support positions but {values.size} values")
    if support.size > r:
        raise ValueError(f"{support.size} support positions, header caps them at r = {r}")
    if np.any((support < 0) | (support >= n)):
        raise ValueError(f"support positions must lie in [0, {n})")
    if np.unique(support).size != support.size:
        raise ValueError("support positions repeat")
    for name, data in (("A", A), ("b", b), ("values", values)):
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{name} holds non-finite entries")
    x_true = np.zeros(n)
    x_true[support] = values
    return FeasibilityInstance(A=A, b=b, r=r, bound=bound, seed=seed, x_true=x_true)
