"""Peaceman-Rachford and Douglas-Rachford splitting engines.

Both methods iterate the same two prox steps on a split objective f + g,

    y' = prox of gamma f at x
    z' = prox of gamma g at 2 y' - x
    x' = x + k (z' - y')

with step factor k = 2 for Peaceman-Rachford (PR) and k = 1 for
Douglas-Rachford (DR). For PR with f strongly convex (modulus sigma) and
grad-Lipschitz (modulus L), the merit function

    merit_pr(y, z, x) = f(y) + g(z) - 3 ||y - z||^2 / (2 gamma)
                        + <x - y, z - y> / gamma

is nonincreasing along the iterates whenever 3 sigma > 2 L and
0 < gamma < (3 sigma - 2 L) / L^2; :func:`gamma_threshold` computes that
stationary step-size cap. The DR merit drops the factor 3 to 1 in the
coupling term, and the two are related by merit_pr = merit_dr -
||y - z||^2 / gamma.

:func:`run` drives either engine with the relative-change termination rule

    max(|dx|, |dy|, |dz|) / max(|x_prev|, |y_prev|, |z_prev|, 1) < tol,

where |dx| = k |z - y| reuses the norm of the gap trace, and one step-size
rule, the paper's: after step t, while gamma is above the floor ``gamma1``,
a drift |y_t - y_{t-1}| above 1000 / t or a norm |y_t| above 1e10 sets
gamma = max(gamma / 2, 0.9999 gamma1), so gamma settles just below the
floor and never moves again. Those four numbers are module constants that
no config can change; the floor defaults to the start step, so a fixed step
is the rule with nothing left to shrink. :func:`run` checks x0 and
:class:`SolverConfig` its fields once, and no iteration checks again what
it derives from them. The remaining helpers are convergence diagnostics:
the explicit stationarity residual available after every step, the ergodic
objective-gap bound that holds when g is convex, and a contraction-factor
fit for linearly convergent tails.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .linalg import _as_vector, _check_count, _check_step
from .oracles import _SHIFT_WEIGHT, ProxOracle, SmoothOracle

__all__ = [
    "IterateState",
    "SolverConfig",
    "SolverReport",
    "SplitProblem",
    "StationarityResidual",
    "dr_step",
    "ergodic_gap_bound",
    "fit_contraction",
    "gamma_threshold",
    "initial_state",
    "merit_dr",
    "merit_pr",
    "pr_step",
    "run",
    "stationarity_residual",
]

# Iterates beyond this norm abort the run as diverged.
_DIVERGENCE_NORM = 1e12
# So does a relative change >= 1 (each step moves the iterates by their own
# size) this many steps in a row at a step the step-size rule can no longer shrink,
# as when a bounded prox holds an unstable step's iterates below the norm guard;
# while gamma can still shrink, the rule's own triggers answer instead.
_STALL_STEPS = 100

# The paper's fixed numbers of run's step-size rule: above the floor, a drift
# |y_t - y_{t-1}| > _DRIFT_LIMIT / t or a norm |y_t| > _NORM_LIMIT sets
# gamma = max(_SHRINK * gamma, _SETTLE * floor).
_SHRINK = 0.5
_SETTLE = 0.9999
_DRIFT_LIMIT = 1000.0
_NORM_LIMIT = 1e10

# Each method's step factor k of x' = x + k (z' - y') and coupling c of its
# merit f(y) + g(z) - c |y-z|^2/gamma + <x-y, z-y>/gamma.
_METHODS = {"pr": (2.0, 1.5), "dr": (1.0, 0.5)}

# The positive floats whose square is a finite normal float: 2**-511 up to the last float below 2**512.
_SQUARABLE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


@dataclass(frozen=True)
class SplitProblem:
    """A split objective f + g plus the ambient dimension."""

    f: SmoothOracle
    g: ProxOracle
    dim: int

    def __post_init__(self):
        _check_count(self.dim, "dim", 1)


@dataclass(frozen=True)
class SolverConfig:
    """Engine selection, step size and termination.

    The step starts at ``gamma0``, or, with that unset, at
    0.99 * gamma_threshold(sigma, L) of the problem the engine is given.
    :func:`run`'s step-size rule may shrink it toward just below the floor
    ``gamma1``, which needs an explicit gamma0, must not exceed it and
    defaults to it, so an unset or equal floor keeps the step fixed.
    ``tol`` and ``max_iter`` live here alone; only ``prsplit solve --tol/--max-iter`` override them.
    Each field is checked at construction: a step positive and finite,
    ``tol`` nonnegative and finite, ``max_iter`` a Python or numpy integer
    (not a bool) of at least 0, ``method`` "pr" or "dr"; anything else
    raises ValueError naming the field.
    """

    gamma0: float | None = None
    gamma1: float | None = None
    method: str = "pr"
    tol: float = 1e-8
    max_iter: int = 50_000

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in _METHODS:
            raise ValueError(f"method must be 'pr' or 'dr', got {self.method!r}")
        for name in ("gamma0", "gamma1"):
            if getattr(self, name) is not None:
                _check_step(getattr(self, name), name)
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")
        _check_count(self.max_iter, "max_iter", 0)
        if self.gamma1 is not None and self.gamma0 is None:
            raise ValueError("the step-size heuristic (gamma1) needs an explicit gamma0")
        if self.gamma1 is not None and self.gamma1 > self.gamma0:
            raise ValueError(f"the floor gamma1 = {self.gamma1} must not exceed the start step gamma0 = {self.gamma0}")


@dataclass(frozen=True)
class IterateState:
    """One (y, z, x) triple at iteration t.

    ``x_prev`` is the x the step started from (the previous state's array,
    not a copy), so y = prox of gamma f at x_prev; it is None for the t = 0
    state, which has no y or z either.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    t: int = 0
    x_prev: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SolverReport:
    """Everything a finished run exposes.

    Per-iteration traces hold the merit value (PR or DR merit to match the
    engine, +inf where f or g is), the gamma used, and |z - y|, which is
    |x - x_prev| / k for the step factor k (2 for PR, 1 for DR);
    ``run(..., observer=lambda state, gamma: states.append(state))`` keeps
    the states.
    The stationarity residual pair is None only for runs that took no step.
    """

    state: IterateState
    iterations: int
    reason: str
    merit_trace: np.ndarray
    gamma_trace: np.ndarray
    gap_trace: np.ndarray
    residual: "StationarityResidual | None"


class StationarityResidual(NamedTuple):
    identity: float
    practical: float


def gamma_threshold(sigma: float, lipschitz: float) -> float:
    """Stationary step-size cap (3 sigma - 2 L) / L^2 for the PR merit descent.

    L must be positive, with L^2 a finite normal float, so that the cap is
    computed to full precision; anything else raises ValueError naming it.
    """
    for name, value in (("sigma", sigma), ("lipschitz", lipschitz)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lipschitz <= 0:
        raise ValueError("lipschitz modulus must be positive")
    if not _SQUARABLE[0] <= lipschitz <= _SQUARABLE[1]:
        raise ValueError(
            f"lipschitz must lie in [{_SQUARABLE[0]}, {_SQUARABLE[1]}] for its square to be a finite normal float, "
            f"got {lipschitz}"
        )
    if 3.0 * sigma <= 2.0 * lipschitz:
        raise ValueError(
            "insufficient strong convexity: need 3*sigma > 2*lipschitz, "
            f"got sigma={sigma}, lipschitz={lipschitz}"
        )
    return (3.0 * sigma - 2.0 * lipschitz) / lipschitz**2


def _norm(v: np.ndarray) -> float:
    """|v| of a 1-D float array: np.linalg.norm's own sqrt(v . v), bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def _step(state: IterateState, problem: SplitProblem, gamma: float, factor: float) -> IterateState:
    """One step at a gamma the caller has checked."""
    x = state.x
    y = problem.f.prox(gamma, x)
    z = problem.g.prox(gamma, 2.0 * y - x)
    return IterateState(x=x + factor * (z - y), y=y, z=z, t=state.t + 1, x_prev=x)


def pr_step(state: IterateState, problem: SplitProblem, gamma: float) -> IterateState:
    """One Peaceman-Rachford step: x' = x + 2 (z' - y'); gamma must be positive and finite."""
    _check_step(gamma)
    return _step(state, problem, gamma, _METHODS["pr"][0])


def dr_step(state: IterateState, problem: SplitProblem, gamma: float) -> IterateState:
    """One Douglas-Rachford step: x' = x + (z' - y'); gamma must be positive and finite."""
    _check_step(gamma)
    return _step(state, problem, gamma, _METHODS["dr"][0])


def _merit(problem: SplitProblem, y, z, x, gap: float, gamma: float, method: str) -> float:
    """The merit of `method` at (y, z, x) given gap = |z-y| and a checked gamma; +inf where f or g is."""
    inner = float((x - y) @ (z - y))
    return problem.f.value(y) + problem.g.value(z) - _METHODS[method][1] * gap**2 / gamma + inner / gamma


def _checked_merit(problem: SplitProblem, y, z, x, gamma: float, method: str) -> float:
    """:func:`_merit` at a caller's checked gamma and (y, z, x), each checked as a finite point of R^dim."""
    _check_step(gamma)
    y, z, x = (_as_vector(v, name, problem.dim, finite=True) for name, v in zip("yzx", (y, z, x)))
    return _merit(problem, y, z, x, _norm(z - y), gamma, method)


def merit_pr(
    y: np.ndarray, z: np.ndarray, x: np.ndarray, problem: SplitProblem, gamma: float
) -> float:
    """PR merit f(y) + g(z) - 3|y-z|^2/(2 gamma) + <x-y, z-y>/gamma.

    Acceptance criterion 3 checks it against its two expanded forms, with the
    inner product rewritten through 2y - z - x or through |x-y|^2 - |x-z|^2.
    gamma must be positive and finite, and y, z and x finite points of R^dim.
    """
    return _checked_merit(problem, y, z, x, gamma, "pr")


def merit_dr(
    y: np.ndarray, z: np.ndarray, x: np.ndarray, problem: SplitProblem, gamma: float
) -> float:
    """DR merit f(y) + g(z) - |y-z|^2/(2 gamma) + <x-y, z-y>/gamma.

    gamma must be positive and finite, and y, z and x finite points of R^dim.
    """
    return _checked_merit(problem, y, z, x, gamma, "dr")


def stationarity_residual(
    state: IterateState, problem: SplitProblem, gamma: float
) -> StationarityResidual:
    """Residual pair of the stationarity inclusion at a post-step state.

    The z-update certifies v = (2y - x_prev - z)/gamma in the subdifferential
    of g at z, so grad f + v + (z - y)/gamma = grad f + (y - x_prev)/gamma.
    The identity residual |grad f(y) + (y - x_prev)/gamma| is the optimality
    condition of y = prox of gamma f at x_prev and vanishes up to rounding
    after any step; the practical residual evaluates the gradient at the
    merged point z instead and measures how close z is to a stationary point.
    gamma must be positive and finite.
    """
    _check_step(gamma)
    if state.x_prev is None or state.y is None or state.z is None:
        raise ValueError("stationarity_residual needs a state produced by a step")
    drift = (state.y - state.x_prev) / gamma
    identity = _norm(problem.f.gradient(state.y) + drift)
    practical = _norm(problem.f.gradient(state.z) + drift)
    return StationarityResidual(identity, practical)


def initial_state(x0: np.ndarray) -> IterateState:
    """The t = 0 state: only x is defined, from a finite 1-D x0, or ValueError."""
    return IterateState(x=_as_vector(x0, "x0", finite=True))


def _norms(state: IterateState) -> tuple[float, float, float] | None:
    """(|x|, |y|, |z|) of a post-step state, or None past the divergence guard
    (a NaN or inf entry makes the norm NaN or inf, which fails the test too)."""
    norms = tuple(_norm(vec) for vec in (state.x, state.y, state.z))
    return norms if all(norm <= _DIVERGENCE_NORM for norm in norms) else None


def run(
    problem: SplitProblem,
    config: SolverConfig,
    x0: np.ndarray,
    observer: Callable[[IterateState, float], None] | None = None,
) -> SolverReport:
    """Drive the configured engine from x0 until termination.

    Stops with reason "converged" when the relative change of all three
    iterates drops below ``config.tol`` (checked from the second iteration
    on, once a previous triple exists), with "max_iter" when the budget runs
    out, and with "diverged" when an iterate goes non-finite or beyond the
    divergence guard, or when the relative change stays at or above 1 for
    ``_STALL_STEPS`` steps in a row at a step at or below its floor; a
    non-finite or too large step is discarded, so the report always ends at
    a finite state. Between steps gamma follows the module's step-size rule.
    The observer, if given, is called after every kept step with the new
    state and the gamma that produced it.
    An x0 not finite or not of shape ``(problem.dim,)`` raises ValueError.
    """
    state = IterateState(x=_as_vector(x0, "x0", problem.dim, finite=True))
    factor, _ = _METHODS[config.method]
    if config.gamma0 is not None:
        gamma = config.gamma0
    else:
        gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
    floor = gamma if config.gamma1 is None else config.gamma1
    prev_norms = None
    stalled = 0
    merits: list[float] = []
    gammas: list[float] = []
    gaps: list[float] = []

    reason = "max_iter"
    for t in range(1, config.max_iter + 1):
        prev = state
        new = _step(prev, problem, gamma, factor)
        norms = _norms(new)
        if norms is None:
            reason = "diverged"
            break
        state = new
        x, y, z = state.x, state.y, state.z

        gap = _norm(z - y)
        merits.append(_merit(problem, y, z, x, gap, gamma, config.method))
        gammas.append(gamma)
        gaps.append(gap)
        if observer is not None:
            observer(state, gamma)

        drift = 0.0
        if prev_norms is not None:
            drift = _norm(y - prev.y)
            change = max(factor * gap, drift, _norm(z - prev.z))
            scale = max(*prev_norms, 1.0)
            if change < config.tol * scale:
                reason = "converged"
                break
            stalled = stalled + 1 if gamma <= floor and change >= scale else 0
            if stalled == _STALL_STEPS:
                reason = "diverged"
                break
        prev_norms = norms
        if gamma > floor and (drift > _DRIFT_LIMIT / t or norms[1] > _NORM_LIMIT):
            gamma = max(_SHRINK * gamma, _SETTLE * floor)

    residual = None
    if state.t > 0:
        residual = stationarity_residual(state, problem, gammas[-1])
    return SolverReport(
        state=state,
        iterations=state.t,
        reason=reason,
        merit_trace=np.asarray(merits),
        gamma_trace=np.asarray(gammas),
        gap_trace=np.asarray(gaps),
        residual=residual,
    )


def ergodic_gap_bound(
    z_iters: Sequence[np.ndarray],
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    x_ref: np.ndarray,
    z_ref: np.ndarray,
    gamma: float,
    grad_lipschitz: float,
    n: int,
) -> tuple[float, float]:
    """Objective gap of the ergodic average against its a-priori bound.

    For the shifted splitting of a convex objective run with fixed gamma
    below 1 / (12 L), the average z_bar of the first n z-iterates satisfies

        objective(z_bar) - objective(z_ref)
            <= (1/gamma - 5 L) |x0 - x_ref|^2 / (40 gamma n L),

    where L is the gradient Lipschitz modulus of the smooth part before the
    shift and (z_ref, x_ref) is the limit the run converges to (in practice
    the terminal point of a high-precision reference run); gamma and L must
    be positive and finite, n an integer of at least 1, and x0, x_ref and
    z_ref finite 1-D arrays of one length. Returns
    (lhs, rhs); the caller asserts lhs <= rhs.
    """
    _check_step(gamma)
    _check_step(grad_lipschitz, "grad_lipschitz")
    _check_count(n, "n", 1)
    if len(z_iters) < n:
        raise ValueError(f"need at least {n} z-iterates, got {len(z_iters)}")
    z_ref = _as_vector(z_ref, "z_ref", finite=True)
    x0, x_ref = (_as_vector(v, name, z_ref.size, finite=True) for name, v in (("x0", x0), ("x_ref", x_ref)))
    z_bar = np.mean(np.asarray(z_iters[:n], dtype=float), axis=0)
    lhs = objective(z_bar) - objective(z_ref)
    dist_sq = float(np.linalg.norm(x0 - x_ref)) ** 2
    rhs = (1.0 / gamma - _SHIFT_WEIGHT * grad_lipschitz) * dist_sq / (40.0 * gamma * n * grad_lipschitz)
    return lhs, rhs


def fit_contraction(
    x_iters: Sequence[np.ndarray], x_ref: np.ndarray, tail: int = 50
) -> float:
    """Tightest per-step contraction factor of |x_t - x_ref|^2 over a tail.

    Returns the largest ratio |x_{t+1} - x_ref|^2 / |x_t - x_ref|^2 across
    the final `tail` steps (an integer of at least 1), i.e. the smallest r
    for which the one-step contraction inequality holds on that window.
    Steps from an exactly converged point to a non-converged one yield inf.
    x_ref and the iterates in the window must be finite 1-D arrays of one
    length; anything else raises ValueError naming the argument.
    """
    _check_count(tail, "tail", 1)
    if len(x_iters) < tail + 1:
        raise ValueError(f"need at least {tail + 1} x-iterates, got {len(x_iters)}")
    x_ref = _as_vector(x_ref, "x_ref", finite=True)
    window = [_as_vector(x, "x_iters", x_ref.size, finite=True) for x in x_iters[-(tail + 1) :]]
    dist_sq = [float(np.linalg.norm(x - x_ref)) ** 2 for x in window]
    ratio = 0.0
    for before, after in zip(dist_sq, dist_sq[1:]):
        if before == 0.0:
            if after > 0.0:
                return np.inf
            continue
        ratio = max(ratio, after / before)
    return ratio
