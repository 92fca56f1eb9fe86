"""The benchmark's workloads: seeded inputs, problem set-up and output checks.

Each workload is a fixed list of solve tasks, a pure function of the
workload seed. Set-up generates the instances and builds every problem,
forcing the one-off factorizations a user pays before the first solve: the
Gram Cholesky of `AffineSet` (inside the feasibility builders),
`spectral_norm_sq` and the first `ShiftedQuadraticProx` factor (inside
`build_constrained_ls` and one prox call at the solve's step).

Why these three workloads:

- ``feas-desk``: every desk shape with both methods. n <= 1000, so the cost
  of an iteration is interpreter and scipy call overhead, the merit's second
  projection and `run` bookkeeping rather than BLAS. PR's known failures at
  150x500 stay in, unfiltered.
- ``feas-full``: 500x4000 with both methods. A is 16 MB, so the two matvecs
  of each affine projection and the argsort over n=4000 dominate; set-up
  holds a 500x500 Cholesky.
- ``ls``: constrained least squares with the default fixed step. It never
  touches `AffineSet`, and it uses the factor cache on both routes: the
  n x n direct solve on tall A and the m x m Woodbury solve on wide A.

The first task of each list is the warm-up solve, so each list starts with a
task whose iteration count varies little between seeds: DR on the largest
desk shape, DR at full scale, the tall box-constrained least squares.

Outputs are checked without the library's own quality function:
`DistanceCheck` measures dist(z, C) through an orthonormal basis of the
row space of A from a Householder QR, and the least-squares check
tests set membership and the objective directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from prsplit import (
    BoxSet,
    LsInstance,
    SparseBoxSet,
    build_constrained_ls,
    build_feasibility_dr,
    build_feasibility_pr,
    classify,
    evaluate_fval,
    gen_feasibility,
)
from prsplit.bench import DESK_PAIRS, BenchConfig, solver_config, trial_seed
from prsplit.splitting import SolverConfig, gamma_threshold

# Same thresholds as the library's quality classes, restated so the check
# does not read them from the code under test.
SUCCESS_BELOW = 1e-12
FAILURE_ABOVE = 1e-6

FEAS_BUILDERS = {"pr": build_feasibility_pr, "dr": build_feasibility_dr}
FEAS_METHODS = ("dr", "pr")
FULL_PAIRS = ((500, 4000),)
LS_SHAPES = ((600, 300), (200, 1000))
LS_SPARSITY = 20
LS_NOISE = 0.01
LS_SETS: dict[str, Callable[[], SparseBoxSet | BoxSet]] = {
    "box": lambda: BoxSet(0.5),
    "sparse": lambda: SparseBoxSet(LS_SPARSITY),
}

# Instances per shape. Iteration counts vary widely between instances (the
# sparse least-squares and small-m feasibility solves have heavy tails), so
# a run averages over many; one pass over a workload's tasks takes 10-15 s
# on a 2-core machine.
TRIALS = {"feas-desk": 6, "feas-full": 4, "ls": 6}
WORKLOADS = tuple(TRIALS)


@dataclass(frozen=True)
class Verdict:
    """Result of checking one solve's output.

    ``outcome`` is success, failure or undecided for a valid output, and
    invalid for one outside its set or not finite.
    """

    outcome: str
    value: float  # library fval (feasibility) or objective (least squares)
    check: float  # the independently computed counterpart
    consistent: bool  # library-reported value agrees with the check
    library_class: str | None = None  # classify() of the library's fval


@dataclass
class Task:
    """One solve: a built problem, its solver settings and its output check."""

    label: str
    shape: tuple[int, int]
    method: str
    seed: int
    problem: object
    config: SolverConfig
    setup_s: float
    data: object  # FeasibilityInstance or LsInstance
    gamma: float  # the solve's first step, used by the layer microbenchmarks
    check: Callable[[object, str], Verdict]  # shared by the tasks of one instance
    cset: object = None  # AffineSet of a feasibility task

    @property
    def dim(self) -> int:
        return self.shape[1]


@dataclass
class Setup:
    """The tasks of one workload plus where the set-up time went."""

    tasks: list[Task]
    gen_s: float
    build_s: float


def _valid_vector(z, n: int) -> bool:
    return z is not None and np.shape(z) == (n,) and bool(np.all(np.isfinite(z)))


class DistanceCheck:
    """Independent quality check of a feasibility output.

    With A^T = Q R (Q has orthonormal columns), A x = b holds exactly when
    Q^T x = R^{-T} b, so dist(z, C) = |Q^T z - c| with c = R^{-T} b.
    """

    def __init__(self, inst):
        self.inst = inst
        self.basis = self.offset = None

    def __call__(self, z, reason: str) -> Verdict:
        inst = self.inst
        if self.basis is None:  # built on first use, after the timed phase
            self.basis, rfac = np.linalg.qr(inst.A.T)
            self.offset = np.linalg.solve(rfac.T, inst.b)
        if not _valid_vector(z, inst.n):
            return Verdict("invalid", np.inf, np.inf, True)
        if np.count_nonzero(z) > inst.r or np.max(np.abs(z)) > inst.bound:
            return Verdict("invalid", np.inf, np.inf, True)
        gap = self.basis.T @ z - self.offset
        check = 0.5 * float(gap @ gap)
        value = evaluate_fval(z, inst)
        # Agreement to rounding; at a class threshold the check decides.
        consistent = abs(value - check) <= 1e-6 * check + 1e-14
        return Verdict(_quality(check), value, check, consistent, classify(value))


def _quality(fval: float) -> str:
    if fval < SUCCESS_BELOW:
        return "success"
    if fval > FAILURE_ABOVE:
        return "failure"
    return "undecided"


class LsCheck:
    """A least-squares solve succeeds when it converged inside its set and
    does no worse than the feasible point 0."""

    def __init__(self, inst: LsInstance):
        self.inst = inst

    def __call__(self, z, reason: str) -> Verdict:
        inst = self.inst
        n = inst.A.shape[1]
        if not _valid_vector(z, n):
            return Verdict("invalid", np.inf, np.inf, True)
        dset = inst.constraint
        if isinstance(dset, SparseBoxSet) and np.count_nonzero(z) > dset.r:
            return Verdict("invalid", np.inf, np.inf, True)
        if np.max(np.abs(z)) > dset.bound * (1.0 + 1e-9):
            return Verdict("invalid", np.inf, np.inf, True)
        residual = inst.A @ z - inst.b
        value = 0.5 * float(residual @ residual)
        at_zero = 0.5 * float(inst.b @ inst.b)
        ok = reason == "converged" and value <= at_zero
        return Verdict("success" if ok else "failure", value, at_zero, True)


def feasibility_setup(pairs, trials: int, seed: int) -> Setup:
    """Tasks (shape, trial, method) in the instance order of `run_bench`."""
    cfg = BenchConfig(pairs=tuple(pairs), trials=trials, base_seed=seed)
    tasks: list[Task] = []
    gen_s = build_s = 0.0
    for m, n in pairs:
        for trial in range(trials):
            inst_seed = trial_seed(seed, m, n, trial)
            start = time.perf_counter()
            inst = gen_feasibility(m, n, inst_seed)
            made = time.perf_counter()
            gen_s += made - start
            check = DistanceCheck(inst)
            for method in FEAS_METHODS:
                begin = time.perf_counter()
                problem = FEAS_BUILDERS[method](inst)
                built = time.perf_counter() - begin
                build_s += built
                config = solver_config(cfg, method)
                tasks.append(
                    Task(
                        label=f"{m}x{n}/{method}",
                        shape=(m, n),
                        method=method,
                        seed=inst_seed,
                        problem=problem,
                        config=config,
                        setup_s=(made - start) / len(FEAS_METHODS) + built,
                        data=inst,
                        gamma=config.gamma0,
                        check=check,
                        cset=inst.affine_set(),
                    )
                )
    return Setup(tasks, gen_s, build_s)


def ls_data(m: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian A and b = A x + noise for a planted sparse x."""
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.standard_normal((m, n))
    x = np.zeros(n)
    x[rng.permutation(n)[:LS_SPARSITY]] = rng.standard_normal(LS_SPARSITY)
    return A, A @ x + LS_NOISE * rng.standard_normal(m)


def ls_setup(trials: int, seed: int) -> Setup:
    """Tasks (shape, trial, constraint set), all PR with the default fixed step."""
    tasks: list[Task] = []
    build_s = 0.0
    config = SolverConfig()
    for m, n in LS_SHAPES:
        for trial in range(trials):
            inst_seed = trial_seed(seed, m, n, trial)
            A, b = ls_data(m, n, inst_seed)
            for name, make_set in LS_SETS.items():
                inst = LsInstance(A, b, make_set())
                begin = time.perf_counter()
                problem = build_constrained_ls(inst)
                gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
                problem.f.prox(gamma, np.zeros(n))
                built = time.perf_counter() - begin
                build_s += built
                tasks.append(
                    Task(
                        label=f"{m}x{n}/{name}",
                        shape=(m, n),
                        method="pr",
                        seed=inst_seed,
                        problem=problem,
                        config=config,
                        setup_s=built,
                        data=inst,
                        gamma=gamma,
                        check=LsCheck(inst),
                    )
                )
    return Setup(tasks, 0.0, build_s)


def setup(workload: str, seed: int, trials: int | None = None) -> Setup:
    """Build every task of `workload` for `seed`."""
    trials = TRIALS[workload] if trials is None else trials
    if workload == "feas-desk":
        return feasibility_setup(DESK_PAIRS[::-1], trials, seed)
    if workload == "feas-full":
        return feasibility_setup(FULL_PAIRS, trials, seed)
    if workload == "ls":
        return ls_setup(trials, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
