"""Peaceman-Rachford and Douglas-Rachford splitting engines.

Both methods iterate the same two prox steps on a split objective f + g,

    y' = prox of gamma f at x
    z' = prox of gamma g at 2 y' - x
    x' = x + step_factor * (z' - y')

with step_factor 2 for Peaceman-Rachford (PR) and 1 for Douglas-Rachford
(DR). For PR with f strongly convex (modulus sigma) and grad-Lipschitz
(modulus L), the merit function

    merit_pr(y, z, x) = f(y) + g(z) - 3 ||y - z||^2 / (2 gamma)
                        + <x - y, z - y> / gamma

is nonincreasing along the iterates whenever 3 sigma > 2 L and
0 < gamma < (3 sigma - 2 L) / L^2; :func:`gamma_threshold` computes that
stationary step-size cap. The DR merit drops the factor 3 to 1 in the
coupling term, and the two are related by merit_pr = merit_dr -
||y - z||^2 / gamma.

:func:`run` drives either engine with the relative-change termination rule

    max(|dx|, |dy|, |dz|) / max(|x_prev|, |y_prev|, |z_prev|, 1) < tol

and an optional step-size heuristic that starts above the stationary cap
and halves gamma whenever the iterates look unstable (see
:func:`heuristic_update`). The remaining helpers are convergence
diagnostics: the explicit stationarity residual available after every step,
the ergodic objective-gap bound that holds when g is convex, and a
contraction-factor fit for linearly convergent tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .oracles import ProxOracle, SmoothOracle

__all__ = [
    "HeuristicConfig",
    "IterateState",
    "SolverConfig",
    "SolverReport",
    "SplitProblem",
    "StationarityResidual",
    "dr_step",
    "ergodic_gap_bound",
    "fit_contraction",
    "gamma_threshold",
    "heuristic_update",
    "initial_state",
    "merit_dr",
    "merit_pr",
    "pr_step",
    "run",
    "stationarity_residual",
]

# Iterates beyond this norm abort the run as diverged.
_DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class SplitProblem:
    """A split objective f + g plus the ambient dimension."""

    f: SmoothOracle
    g: ProxOracle
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class HeuristicConfig:
    """Step-size decay rule: start large, shrink toward just below gamma1.

    After each iteration t, if gamma > gamma1 and either |y_t - y_{t-1}| >
    step_limit / t or |y_t| > norm_limit, gamma becomes
    max(shrink * gamma, settle * gamma1).
    """

    gamma1: float
    shrink: float = 0.5
    settle: float = 0.9999
    step_limit: float = 1000.0
    norm_limit: float = 1e10

    def __post_init__(self):
        if self.gamma1 <= 0:
            raise ValueError("gamma1 must be positive")
        if not 0 < self.shrink < 1 or not 0 < self.settle < 1:
            raise ValueError("shrink and settle must lie in (0, 1)")


@dataclass(frozen=True)
class SolverConfig:
    """Engine selection, step size, termination, and trace options.

    With ``gamma0`` unset and no heuristic, the engine uses the fixed step
    0.99 * gamma_threshold(sigma, L) of the problem it is given. A heuristic
    requires an explicit starting gamma0.
    """

    gamma0: float | None = None
    method: str = "pr"
    tol: float = 1e-8
    max_iter: int = 50_000
    heuristic: HeuristicConfig | None = None
    record_trace: bool = False

    def __post_init__(self):
        if self.method not in ("pr", "dr"):
            raise ValueError(f"method must be 'pr' or 'dr', got {self.method!r}")
        if self.gamma0 is not None and self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.heuristic is not None and self.gamma0 is None:
            raise ValueError("the step-size heuristic needs an explicit gamma0")


@dataclass(frozen=True)
class IterateState:
    """One (y, z, x) triple at iteration t.

    ``g_subgrad`` is the explicit member of the subdifferential of g at z
    that the z-update certifies, (2y - x_prev - z) / gamma; it is recorded by
    the step functions and is None for the t = 0 state, which has no y or z.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    t: int = 0
    g_subgrad: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SolverReport:
    """Everything a finished run exposes.

    Per-iteration traces always hold the merit value (PR or DR merit to
    match the engine), the gamma used, |z - y|, and |x - x_prev|; the full
    state trajectory is kept only when the config asked for it. The
    stationarity residual pair is None only for runs that took no step.
    """

    state: IterateState
    iterations: int
    reason: str
    merit_trace: np.ndarray
    gamma_trace: np.ndarray
    gap_trace: np.ndarray
    step_trace: np.ndarray
    residual: "StationarityResidual | None"
    states: list[IterateState] | None = None


class StationarityResidual(NamedTuple):
    identity: float
    practical: float


def gamma_threshold(sigma: float, lipschitz: float) -> float:
    """Stationary step-size cap (3 sigma - 2 L) / L^2 for the PR merit descent."""
    if lipschitz <= 0:
        raise ValueError("lipschitz modulus must be positive")
    if 3.0 * sigma <= 2.0 * lipschitz:
        raise ValueError(
            "insufficient strong convexity: need 3*sigma > 2*lipschitz, "
            f"got sigma={sigma}, lipschitz={lipschitz}"
        )
    return (3.0 * sigma - 2.0 * lipschitz) / lipschitz**2


def _step(state: IterateState, problem: SplitProblem, gamma: float, factor: float) -> IterateState:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = state.x
    y = problem.f.prox(gamma, x)
    z = problem.g.prox(gamma, 2.0 * y - x)
    return IterateState(
        x=x + factor * (z - y),
        y=y,
        z=z,
        t=state.t + 1,
        g_subgrad=(2.0 * y - x - z) / gamma,
    )


def pr_step(state: IterateState, problem: SplitProblem, gamma: float) -> IterateState:
    """One Peaceman-Rachford step: x' = x + 2 (z' - y')."""
    return _step(state, problem, gamma, 2.0)


def dr_step(state: IterateState, problem: SplitProblem, gamma: float) -> IterateState:
    """One Douglas-Rachford step: x' = x + (z' - y')."""
    return _step(state, problem, gamma, 1.0)


def _coupling_terms(y: np.ndarray, z: np.ndarray, x: np.ndarray) -> tuple[float, ...]:
    dyz = float(np.linalg.norm(y - z)) ** 2
    dxy = float(np.linalg.norm(x - y)) ** 2
    dxz = float(np.linalg.norm(x - z)) ** 2
    refl = float(np.linalg.norm(2.0 * y - z - x)) ** 2
    inner = float((x - y) @ (z - y))
    return dyz, dxy, dxz, refl, inner


def merit_pr(
    y: np.ndarray, z: np.ndarray, x: np.ndarray, problem: SplitProblem, gamma: float
) -> float:
    """PR merit f(y) + g(z) - 3|y-z|^2/(2 gamma) + <x-y, z-y>/gamma.

    The value is cross-checked against its two expanded forms (the inner
    product rewritten through either the reflected point 2y - z - x or the
    difference of |x-y|^2 and |x-z|^2); disagreement beyond rounding level
    means corrupted inputs and raises ArithmeticError.
    """
    fy = problem.f.value(y)
    gz = problem.g.value(z)
    if not np.isfinite(gz):
        raise ValueError("merit undefined: g is infinite at z (z outside dom g)")
    if not np.isfinite(fy):
        raise ValueError("merit undefined: f is infinite at y")
    dyz, dxy, dxz, refl, inner = _coupling_terms(y, z, x)
    base = fy + gz
    first = base - 1.5 * dyz / gamma + inner / gamma
    second = base + (refl - dxy) / (2.0 * gamma) - 2.0 * dyz / gamma
    third = base + (dxy - dxz - 2.0 * dyz) / (2.0 * gamma)
    # Identity check relative to the size of the terms being cancelled.
    scale = abs(fy) + abs(gz) + (dyz + dxy + dxz + refl) / (2.0 * gamma) + 1.0
    if max(abs(first - second), abs(first - third)) > 1e-9 * scale:
        raise ArithmeticError("merit formulas disagree beyond rounding; inputs look corrupted")
    return first


def merit_dr(
    y: np.ndarray, z: np.ndarray, x: np.ndarray, problem: SplitProblem, gamma: float
) -> float:
    """DR merit f(y) + g(z) - |y-z|^2/(2 gamma) + <x-y, z-y>/gamma."""
    dyz = float(np.linalg.norm(y - z)) ** 2
    return merit_pr(y, z, x, problem, gamma) + dyz / gamma


def stationarity_residual(
    state: IterateState, problem: SplitProblem, gamma: float
) -> StationarityResidual:
    """Residual pair of the stationarity inclusion at a post-step state.

    With v the recorded subgradient of g at z, the identity residual
    |grad f(y) + v + (z - y)/gamma| vanishes up to rounding for any state a
    step produced; the practical residual evaluates the gradient at the
    merged point z instead, |grad f(z) + v + (z - y)/gamma|, and measures
    how close z is to an actual stationary point.
    """
    if state.g_subgrad is None or state.y is None or state.z is None:
        raise ValueError("stationarity_residual needs a state produced by a step")
    drift = (state.z - state.y) / gamma + state.g_subgrad
    identity = float(np.linalg.norm(problem.f.gradient(state.y) + drift))
    practical = float(np.linalg.norm(problem.f.gradient(state.z) + drift))
    return StationarityResidual(identity, practical)


def heuristic_update(
    gamma: float, t: int, y_t: np.ndarray, y_prev: np.ndarray, h: HeuristicConfig
) -> float:
    """Shrink gamma toward h.settle * h.gamma1 when the iterates look unstable.

    No-op unless gamma > h.gamma1 and the trigger fires: |y_t - y_prev| >
    h.step_limit / t or |y_t| > h.norm_limit. On a trigger the new value is
    max(h.shrink * gamma, h.settle * h.gamma1), so gamma lands just below
    h.gamma1 after finitely many shrinks and then never moves again.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma <= h.gamma1:
        return gamma
    drift = float(np.linalg.norm(y_t - y_prev))
    if drift > h.step_limit / t or float(np.linalg.norm(y_t)) > h.norm_limit:
        return max(h.shrink * gamma, h.settle * h.gamma1)
    return gamma


def initial_state(x0: np.ndarray) -> IterateState:
    """The t = 0 state: only x is defined."""
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return IterateState(x=x0)


def _is_diverging(state: IterateState) -> bool:
    for vec in (state.y, state.z, state.x):
        if not np.all(np.isfinite(vec)) or np.linalg.norm(vec) > _DIVERGENCE_NORM:
            return True
    return False


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
    divergence guard; the diverging step itself is discarded so the report
    always ends at a finite state. The observer, if given, is called after
    every kept step with the new state and the gamma that produced it.
    """
    step = pr_step if config.method == "pr" else dr_step
    merit = merit_pr if config.method == "pr" else merit_dr

    if config.gamma0 is not None:
        gamma = config.gamma0
    else:
        gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)

    state = initial_state(x0)
    merits: list[float] = []
    gammas: list[float] = []
    gaps: list[float] = []
    steps: list[float] = []
    states: list[IterateState] | None = [] if config.record_trace else None

    reason = "max_iter"
    for t in range(1, config.max_iter + 1):
        prev = state
        new = step(prev, problem, gamma)
        if _is_diverging(new):
            reason = "diverged"
            break
        state = new

        merits.append(merit(state.y, state.z, state.x, problem, gamma))
        gammas.append(gamma)
        gaps.append(float(np.linalg.norm(state.z - state.y)))
        steps.append(float(np.linalg.norm(state.x - prev.x)))
        if states is not None:
            states.append(state)
        if observer is not None:
            observer(state, gamma)

        if prev.y is not None:
            change = max(
                steps[-1],
                float(np.linalg.norm(state.y - prev.y)),
                float(np.linalg.norm(state.z - prev.z)),
            )
            anchor = max(
                float(np.linalg.norm(prev.x)),
                float(np.linalg.norm(prev.y)),
                float(np.linalg.norm(prev.z)),
                1.0,
            )
            if change < config.tol * anchor:
                reason = "converged"
                break

        if config.heuristic is not None:
            y_prev = prev.y if prev.y is not None else state.y
            gamma = heuristic_update(gamma, t, state.y, y_prev, config.heuristic)

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
        step_trace=np.asarray(steps),
        residual=residual,
        states=states,
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
    the terminal point of a high-precision reference run). Returns
    (lhs, rhs); the caller asserts lhs <= rhs.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(z_iters) < n:
        raise ValueError(f"need at least {n} z-iterates, got {len(z_iters)}")
    z_bar = np.mean(np.asarray(z_iters[:n], dtype=float), axis=0)
    lhs = objective(z_bar) - objective(z_ref)
    dist_sq = float(np.linalg.norm(np.asarray(x0, dtype=float) - x_ref)) ** 2
    rhs = (1.0 / gamma - 5.0 * grad_lipschitz) * dist_sq / (40.0 * gamma * n * grad_lipschitz)
    return lhs, rhs


def fit_contraction(
    x_iters: Sequence[np.ndarray], x_ref: np.ndarray, tail: int = 50
) -> float:
    """Tightest per-step contraction factor of |x_t - x_ref|^2 over a tail.

    Returns the largest ratio |x_{t+1} - x_ref|^2 / |x_t - x_ref|^2 across
    the final `tail` steps, i.e. the smallest r for which the one-step
    contraction inequality holds on that window. Steps from an exactly
    converged point to a non-converged one yield inf.
    """
    if len(x_iters) < tail + 1:
        raise ValueError(f"need at least {tail + 1} x-iterates, got {len(x_iters)}")
    window = x_iters[-(tail + 1) :]
    dist_sq = [float(np.linalg.norm(x - x_ref)) ** 2 for x in window]
    ratio = 0.0
    for before, after in zip(dist_sq, dist_sq[1:]):
        if before == 0.0:
            if after > 0.0:
                return np.inf
            continue
        ratio = max(ratio, after / before)
    return ratio
