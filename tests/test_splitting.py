"""Tests for the PR/DR engines, merit functions, and diagnostics."""

import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit.bench import METHOD_STEPS, BenchConfig, solver_config, trial_seed
from prsplit.oracles import BoxSet, ProxOracle, SmoothOracle, SparseBoxSet, quadratic_oracle
from prsplit.problems import (
    LsInstance,
    build_constrained_ls,
    build_feasibility_dr,
    build_feasibility_pr,
    gen_feasibility,
)
from prsplit.splitting import (
    SolverConfig,
    SplitProblem,
    _norm,
    dr_step,
    ergodic_gap_bound,
    fit_contraction,
    gamma_threshold,
    initial_state,
    merit_dr,
    merit_pr,
    pr_step,
    run,
    stationarity_residual,
)


def zero_prox_oracle():
    """g = 0: identity prox, zero value."""
    return ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)


def halved_norm_problem(dim=2):
    """f = |y|^2 / 2 (sigma = L = 1, prox w/(1+gamma)), g = 0."""
    f = SmoothOracle(
        value=lambda y: 0.5 * float(y @ y),
        gradient=lambda y: y,
        strong_convexity=1.0,
        grad_lipschitz=1.0,
        prox=lambda gamma, w: w / (1.0 + gamma),
    )
    return SplitProblem(f=f, g=zero_prox_oracle(), dim=dim)


def random_quadratic_sparse_problem(seed, dim=12, r=4):
    """Strongly convex quadratic with 3 sigma > 2 L plus a sparse-box indicator."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = rng.uniform(1.0, 1.4, size=dim)
    Q = (basis * eigenvalues) @ basis.T
    c = rng.standard_normal(dim)
    f = quadratic_oracle(Q, c)
    dset = SparseBoxSet(r=r)
    g = ProxOracle(prox=lambda gamma, w: dset.project(w), value=dset.indicator)
    return SplitProblem(f=f, g=g, dim=dim)


# ------------------------------------------------------------- gamma threshold


def test_gamma_threshold_values():
    assert_allclose(gamma_threshold(5.0, 6.0), 1.0 / 12.0, rtol=1e-15)
    assert_allclose(gamma_threshold(1.0, 1.0), 1.0, rtol=1e-15)
    # The extreme moduli whose square is still a finite normal float give the cap 1 / L to full precision.
    for modulus in (2.0**-511, np.sqrt(np.finfo(float).max)):
        assert_allclose(gamma_threshold(modulus, modulus) * modulus, 1.0, rtol=1e-15)


def test_gamma_threshold_boundary_rejected():
    with pytest.raises(ValueError, match="insufficient strong convexity"):
        gamma_threshold(2.0 / 3.0, 1.0)


# ----------------------------------------------------------------------- steps


def test_pr_step_hand_case():
    problem = halved_norm_problem()
    state = initial_state(np.array([2.0, 0.0]))
    out = pr_step(state, problem, gamma=1.0)
    assert_allclose(out.y, [1.0, 0.0], atol=0)
    assert_allclose(out.z, [0.0, 0.0], atol=0)
    assert_allclose(out.x, [0.0, 0.0], atol=0)
    assert out.t == 1


def test_dr_step_hand_case():
    problem = halved_norm_problem()
    out = dr_step(initial_state(np.array([2.0, 0.0])), problem, gamma=1.0)
    assert_allclose(out.y, [1.0, 0.0], atol=0)
    assert_allclose(out.z, [0.0, 0.0], atol=0)
    assert_allclose(out.x, [1.0, 0.0], atol=0)


def test_steps_fixed_point_when_blocks_agree():
    problem = halved_norm_problem()
    state = initial_state(np.zeros(2))
    for step in (pr_step, dr_step):
        out = step(state, problem, gamma=0.5)
        assert_allclose(out.y, out.z, atol=0)
        assert_allclose(out.x, state.x, atol=0)


def test_step_update_identities():
    problem = random_quadratic_sparse_problem(0)
    state = initial_state(np.random.default_rng(1).standard_normal(12))
    for step, factor in ((pr_step, 2.0), (dr_step, 1.0)):
        out = step(state, problem, gamma=0.3)
        assert out.x_prev is state.x  # the step keeps the x it started from, not a copy
        assert_allclose(
            np.linalg.norm(out.x - state.x),
            factor * np.linalg.norm(out.z - out.y),
            rtol=1e-15,
        )


# ----------------------------------------------------------------------- merit


def zero_problem(dim=2):
    f = SmoothOracle(
        value=lambda y: 0.0,
        gradient=lambda y: np.zeros_like(y),
        strong_convexity=0.0,
        grad_lipschitz=1.0,
        prox=lambda gamma, w: w,
    )
    return SplitProblem(f=f, g=zero_prox_oracle(), dim=dim)


def test_merit_collapses_when_triple_coincides():
    problem = random_quadratic_sparse_problem(2)
    z = np.zeros(12)  # in dom g
    expected = problem.f.value(z) + problem.g.value(z)
    assert_allclose(merit_pr(z, z, z, problem, 0.7), expected, rtol=1e-12)
    assert_allclose(merit_dr(z, z, np.ones(12), problem, 0.7), expected, rtol=1e-12)


def test_merit_hand_values():
    problem = zero_problem()
    y = np.zeros(2)
    z = np.array([1.0, 0.0])
    x = np.zeros(2)
    assert_allclose(merit_pr(y, z, x, problem, 1.0), -1.5, rtol=1e-15)
    assert_allclose(merit_dr(y, z, x, problem, 1.0), -0.5, rtol=1e-15)


def test_merit_pr_three_forms_agree():
    problem = random_quadratic_sparse_problem(3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        y, x = rng.standard_normal((2, 12))
        z = SparseBoxSet(r=4).project(rng.standard_normal(12))
        gamma = rng.uniform(0.05, 2.0)
        fy, gz = problem.f.value(y), problem.g.value(z)
        base = fy + gz
        dyz = np.linalg.norm(y - z) ** 2
        first = base - 1.5 * dyz / gamma + (x - y) @ (z - y) / gamma
        second = (
            base
            + (np.linalg.norm(2 * y - z - x) ** 2 - np.linalg.norm(x - y) ** 2) / (2 * gamma)
            - 2.0 * dyz / gamma
        )
        third = base + (np.linalg.norm(x - y) ** 2 - np.linalg.norm(x - z) ** 2 - 2 * dyz) / (2 * gamma)
        value = merit_pr(y, z, x, problem, gamma)
        scale = max(1.0, abs(first), abs(second), abs(third))
        assert abs(value - first) <= 1e-9 * scale
        assert abs(value - second) <= 1e-9 * scale
        assert abs(value - third) <= 1e-9 * scale


def test_merit_dr_minus_pr_is_gap_term():
    problem = random_quadratic_sparse_problem(5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        y, x = rng.standard_normal((2, 12))
        z = SparseBoxSet(r=4).project(rng.standard_normal(12))
        gamma = rng.uniform(0.05, 2.0)
        diff = merit_dr(y, z, x, problem, gamma) - merit_pr(y, z, x, problem, gamma)
        assert_allclose(diff, np.linalg.norm(y - z) ** 2 / gamma, rtol=1e-9, atol=1e-12)


def test_merit_rejects_point_outside_domain():
    # The merit is +inf at a z outside dom g or a y outside dom f, for either
    # method, instead of raising.
    problem = random_quadratic_sparse_problem(7)
    z_bad = np.ones(12)  # 12 nonzeros > r = 4
    infinite_f = SplitProblem(replace(problem.f, value=lambda y: np.inf), problem.g, problem.dim)
    for merit in (merit_pr, merit_dr):
        assert merit(np.zeros(12), z_bad, np.zeros(12), problem, 0.5) == np.inf
        assert merit(np.zeros(12), np.zeros(12), np.zeros(12), infinite_f, 0.5) == np.inf


# ---------------------------------------------------------------- stationarity


def _norm_cases():
    rng = np.random.default_rng(5)
    yield from (("random", rng.standard_normal(n) * scale) for n in (1, 7, 500, 4000) for scale in (1e-3, 1.0, 1e3))
    yield from (("zero", np.zeros(n)) for n in (1, 500))
    yield from (("tiny", rng.standard_normal(50) * scale) for scale in (1e-160, 5e-324))
    yield from (("huge", rng.standard_normal(50) * scale) for scale in (1e150, 1e200))
    yield from (("nan", np.array(v)) for v in ([np.nan], [1.0, np.nan, 2.0], [np.inf, 1.0], [np.inf, np.nan]))


@pytest.mark.parametrize("kind, v", list(_norm_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_norm_is_np_linalg_norm_bit_for_bit(kind, v):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = _norm(v), float(np.linalg.norm(v))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_stationarity_identity_residual_vanishes_after_step():
    problem = random_quadratic_sparse_problem(8)
    gamma = 0.9 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
    state = initial_state(np.random.default_rng(9).standard_normal(12))
    for _ in range(3):
        state = pr_step(state, problem, gamma)
        residual = stationarity_residual(state, problem, gamma)
        assert residual.identity <= 1e-12


def test_stationarity_requires_a_step():
    with pytest.raises(ValueError):
        stationarity_residual(initial_state(np.zeros(2)), halved_norm_problem(), 0.5)


# ------------------------------------------------------------------------- run


def test_run_converges_to_quadratic_minimizer():
    # f = |y - a|^2 / 2 via Q = I, c = -a; g = 0. Unique stationary point a.
    target = np.array([1.5, -2.0, 0.25])
    f = quadratic_oracle(np.eye(3), -target)
    problem = SplitProblem(f=f, g=zero_prox_oracle(), dim=3)
    config = SolverConfig(gamma0=0.9 * gamma_threshold(1.0, 1.0), tol=1e-10)
    report = run(problem, config, np.zeros(3))
    assert report.reason == "converged"
    assert_allclose(report.state.y, target, atol=1e-8)
    assert_allclose(report.state.z, target, atol=1e-8)
    # Merit is nonincreasing from the first recorded iterate on.
    drops = np.diff(report.merit_trace)
    assert np.all(drops <= 1e-9 * (1.0 + np.abs(report.merit_trace[:-1])))
    assert report.residual.practical <= 1e-8


def test_run_zero_budget():
    report = run(halved_norm_problem(), SolverConfig(gamma0=0.5, max_iter=0), np.ones(2))
    assert report.iterations == 0
    assert report.reason == "max_iter"
    assert report.residual is None
    assert report.merit_trace.size == 0


def test_run_traces_have_matching_lengths():
    problem = random_quadratic_sparse_problem(10)
    config = SolverConfig(max_iter=40, tol=0.0)
    states = []
    report = run(problem, config, np.zeros(12), observer=lambda state, gamma: states.append(state))
    assert report.iterations == 40
    assert report.reason == "max_iter"
    for trace in (report.merit_trace, report.gamma_trace, report.gap_trace):
        assert len(trace) == 40
    assert len(states) == 40
    assert states[-1].t == 40


def test_run_detects_divergence():
    # A deliberately inconsistent "prox" that inflates the iterate.
    f = SmoothOracle(
        value=lambda y: 0.0,
        gradient=lambda y: np.zeros_like(y),
        strong_convexity=0.0,
        grad_lipschitz=1.0,
        prox=lambda gamma, w: 3.0 * w,
    )
    problem = SplitProblem(f=f, g=zero_prox_oracle(), dim=2)
    report = run(problem, SolverConfig(gamma0=1.0, max_iter=1000), np.ones(2))
    assert report.reason == "diverged"
    assert np.all(np.isfinite(report.state.x))
    assert report.iterations < 1000


def test_run_ends_diverged_when_an_unstable_step_stalls():
    # PR at the fixed step 0.19, above the cap 1/12 of the shifted feasibility
    # f. From t = 2 on each step moves the iterates by 1-2.6 times their own
    # size; the box bound 1e6 caps z, and from t of about 35 on |x| stays near
    # 1e7, so the 1e12 norm guard never trips and only the stall stop ends
    # the run before max_iter, at t = 101.
    inst = gen_feasibility(150, 500, trial_seed(42, 150, 500, 0))
    problem = build_feasibility_pr(inst)
    report = run(problem, SolverConfig(gamma0=0.19, max_iter=2000), np.zeros(500))
    assert (report.reason, report.iterations) == ("diverged", 101)
    assert np.all(np.isfinite(report.state.x)) and np.linalg.norm(report.state.x) < 1e8
    assert np.all(np.abs(report.state.z) <= 1e6)
    # A step below the cap on the same instance runs on past that point.
    steady = run(problem, SolverConfig(gamma0=0.99 / 12, max_iter=200), np.zeros(500))
    assert steady.reason == "max_iter"


def test_run_ends_diverged_on_a_nan_iterate():
    calls = []

    def prox(gamma, w):
        calls.append(gamma)
        y = w / (1.0 + gamma)
        if len(calls) == 3:
            y[0] = np.nan
        return y

    f = SmoothOracle(
        value=lambda y: 0.5 * float(y @ y),
        gradient=lambda y: y,
        strong_convexity=1.0,
        grad_lipschitz=1.0,
        prox=prox,
    )
    problem = SplitProblem(f=f, g=zero_prox_oracle(), dim=3)
    report = run(problem, SolverConfig(gamma0=0.5, max_iter=10, tol=0.0), np.ones(3))
    assert report.reason == "diverged"
    assert report.iterations == 2
    assert report.state.t == 2
    assert np.all(np.isfinite(report.state.x))
    assert np.all(np.isfinite(report.state.z))
    assert len(report.merit_trace) == 2


@pytest.mark.parametrize("method", ["pr", "dr"])
def test_run_from_a_point_whose_affine_image_overflows_ends_diverged_at_t_0(method):
    # x0 = 1.7e308 * 1 is finite, so the projection's one check passes it,
    # and A x0 overflows into NaN entries.
    inst = gen_feasibility(10, 40, 0)
    x0 = np.full(40, 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(inst.affine_set().project(x0)).all()
        problem = (build_feasibility_pr if method == "pr" else build_feasibility_dr)(inst)
        report = run(problem, SolverConfig(*METHOD_STEPS[method], method=method), x0)
    assert (report.reason, report.iterations, report.residual) == ("diverged", 0, None)
    assert np.array_equal(report.state.x, x0)


@pytest.mark.parametrize("method", ["pr", "dr"])
def test_run_records_an_infinite_merit_and_runs_on(method):
    # A merit that cannot be evaluated is a diagnostic: it reads inf, and the
    # run keeps its iterations, reason and final state bit for bit.
    problem = halved_norm_problem(4)
    outside = SplitProblem(problem.f, replace(problem.g, value=lambda z: np.inf), problem.dim)
    config = SolverConfig(gamma0=0.5, gamma1=0.1, method=method, tol=1e-10)
    x0 = np.full(4, 3.0)
    finite, infinite = run(problem, config, x0), run(outside, config, x0)
    assert finite.reason == "converged"
    assert (infinite.iterations, infinite.reason) == (finite.iterations, finite.reason)
    np.testing.assert_array_equal(infinite.state.x, finite.state.x)
    np.testing.assert_array_equal(infinite.state.z, finite.state.z)
    np.testing.assert_array_equal(infinite.gamma_trace, finite.gamma_trace)
    np.testing.assert_array_equal(infinite.gap_trace, finite.gap_trace)
    assert infinite.residual == finite.residual
    assert np.all(np.isfinite(finite.merit_trace)) and np.all(infinite.merit_trace == np.inf)


def test_run_observer_sees_every_kept_step():
    problem = random_quadratic_sparse_problem(11)
    seen = []
    run(
        problem,
        SolverConfig(max_iter=7, tol=0.0),
        np.zeros(12),
        observer=lambda state, gamma: seen.append((state.t, gamma)),
    )
    assert [t for t, _ in seen] == list(range(1, 8))


def test_run_requires_gamma0_with_heuristic():
    with pytest.raises(ValueError, match="gamma0"):
        SolverConfig(gamma1=0.1)


def test_solver_config_rejects_a_floor_above_the_start_step():
    # Most likely a swapped pair; it would only hold the step fixed at gamma0.
    with pytest.raises(ValueError, match=r"^the floor gamma1 = 0\.1 must not exceed the start step gamma0 = 0\.05$"):
        SolverConfig(gamma0=0.05, gamma1=0.1)
    assert SolverConfig(gamma0=0.1, gamma1=0.1).gamma1 == 0.1


@pytest.mark.parametrize(
    "field, value",
    [
        ("gamma0", float("nan")),
        ("gamma0", float("inf")),
        ("gamma1", float("nan")),
        ("gamma1", float("inf")),
        ("gamma1", 0.0),
        ("gamma1", -0.1),
        ("tol", float("nan")),
        ("tol", float("inf")),
    ],
)
def test_solver_config_rejects_non_finite_or_nonpositive_settings(field, value):
    settings = {"gamma0": 0.5, "gamma1": 0.1, "tol": 1e-8, field: value}
    with pytest.raises(ValueError, match=field):
        SolverConfig(**settings)


def test_solver_config_accepts_a_numpy_integer_max_iter():
    report = run(halved_norm_problem(), SolverConfig(max_iter=np.int64(3), tol=0.0), np.ones(2))
    assert report.iterations == 3


@pytest.mark.parametrize(
    "problem, x0",
    [
        (build_feasibility_pr(gen_feasibility(10, 40, 3)), np.zeros((40, 1))),
        (build_feasibility_dr(gen_feasibility(10, 40, 3)), np.float64(0.0)),
        (build_constrained_ls(LsInstance(np.eye(4, 6), np.ones(4), BoxSet(1.0))), np.zeros((6, 1))),
    ],
    ids=["feasibility (n, 1)", "scalar", "least squares (n, 1)"],
)
def test_run_rejects_x0_of_the_wrong_shape(problem, x0):
    message = f"x0 has shape {np.shape(x0)}, expected ({problem.dim},)"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(problem, SolverConfig(gamma0=0.05), x0)


def test_run_heuristic_shrinks_gamma_on_unstable_iterates():
    problem = random_quadratic_sparse_problem(12)
    threshold = gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
    config = SolverConfig(gamma0=10.0 * threshold, gamma1=threshold, max_iter=200, tol=0.0)
    # From this far out the drift |y_t - y_{t-1}| beats 1000 / t at t = 2..5,
    # which takes gamma through 5, 2.5 and 1.25 times the floor to just below it.
    report = run(problem, config, np.full(12, 1e6))
    assert report.gamma_trace[0] == 10.0 * threshold
    assert report.gamma_trace[-1] == pytest.approx(0.9999 * threshold)


def reference_run(problem, config, x0):
    """The engine loop written out plainly: every norm taken where it is used,
    a finiteness scan per vector, and the step-size rule on the vectors."""
    step = pr_step if config.method == "pr" else dr_step
    gamma = config.gamma0
    if gamma is None:
        gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
    state = initial_state(x0)
    merits, gammas, gaps, steps = [], [], [], []
    reason, stalled = "max_iter", 0
    for t in range(1, config.max_iter + 1):
        prev = state
        new = step(prev, problem, gamma)
        if any(not np.all(np.isfinite(v)) or np.linalg.norm(v) > 1e12 for v in (new.y, new.z, new.x)):
            reason = "diverged"
            break
        state = new
        merit = merit_pr(state.y, state.z, state.x, problem, gamma)
        if config.method == "dr":
            merit += float(np.linalg.norm(state.y - state.z)) ** 2 / gamma
        merits.append(merit)
        gammas.append(gamma)
        gaps.append(float(np.linalg.norm(state.z - state.y)))
        steps.append(float(np.linalg.norm(state.x - prev.x)))
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
            can_shrink = config.gamma1 is not None and gamma > config.gamma1
            stalled = 0 if can_shrink or change < anchor else stalled + 1
            if stalled == 100:
                reason = "diverged"
                break
        gamma1 = config.gamma1
        if gamma1 is not None and gamma > gamma1:
            y_prev = prev.y if prev.y is not None else state.y
            drift = float(np.linalg.norm(state.y - y_prev))
            if drift > 1000.0 / t or float(np.linalg.norm(state.y)) > 1e10:
                gamma = max(0.5 * gamma, 0.9999 * gamma1)
    return state, reason, merits, gammas, gaps, steps, stationarity_residual(state, problem, gammas[-1])


# label: (method, gamma0, tol, max_iter, each entry of x0) of the runs on f = |y|^2/2, g = 0, all at the floor 0.1
HALVED_CASES = {
    "halved-anchor": ("pr", 0.5, 1.0, 50_000, 1e10),
    "halved-trigger": ("pr", 0.5, 0.0, 30, 500.0),
    "halved-drift": ("pr", 0.5, 0.0, 30, 1000.0),
    "halved-settle": ("pr", 0.19, 0.0, 12, 4e11),
    "halved-settle-dr": ("dr", 0.19, 0.0, 12, 4e11),
    "halved-floor-norm": ("pr", 0.1, 0.0, 12, 4e11),
    "halved-anchor-dr": ("dr", 0.5, 1.0, 50_000, 1e10),
    "halved-drift-dr": ("dr", 0.5, 0.0, 30, 2000.0),
}


def reference_case(label):
    """(problem, config, x0) of one run to replay through `reference_run`.

    PR whose heuristic shrinks gamma near t = 10, PR on the same instance at
    the fixed step 0.19, which stalls, once with no floor and once with its
    floor at that start, heuristic DR at 100x1000, fixed-step
    least squares that converges, and runs on f = |y|^2/2, g = 0, whose
    norms shrink 2-3x per step and scale with x0. In "halved-anchor"
    |x0| = 2e10 puts the 1e10 norm trigger between |x_1| = |x0|/3 and
    |y_1| = |x0|/1.5, and tol = 1 stops the run at t = 2 only against the
    previous step's norms. In "halved-trigger" |x0| = 1000, so the drift
    4|x0|/9 at t = 2 stays below 1000 / 2 but above 1000 / 3; in
    "halved-drift" |x0| = 2000 puts it above 1000 / 2. In "halved-settle"
    and "halved-floor-norm" |x0| = 8e11 keeps |y_t| above the 1e10 norm
    trigger for the first steps, once with the start step 0.19 above the
    floor 0.1 and once with the floor at the start step. "halved-anchor-dr"
    and "halved-settle-dr" are DR runs of "halved-anchor" and
    "halved-settle", and "halved-drift-dr" a DR run whose drift at
    |x0| = 4000 beats 1000 / t at t = 2 and 3.
    """
    if label == "ls-fixed":
        rng = np.random.default_rng(4000)
        A = rng.standard_normal((30, 12))
        b = rng.standard_normal(30)
        scale = np.linalg.norm(A, 2)
        problem = build_constrained_ls(LsInstance(A=A / scale, b=b / scale, constraint=BoxSet(0.3)))
        return problem, SolverConfig(tol=1e-8), np.zeros(12)
    if label in HALVED_CASES:
        method, gamma0, tol, max_iter, entry = HALVED_CASES[label]
        config = SolverConfig(gamma0=gamma0, gamma1=0.1, method=method, tol=tol, max_iter=max_iter)
        return halved_norm_problem(4), config, np.full(4, entry)
    method = label[:2]
    m, n = (150, 500) if method == "pr" else (100, 1000)
    inst = gen_feasibility(m, n, trial_seed(42, m, n, 0))
    build = build_feasibility_pr if method == "pr" else build_feasibility_dr
    config = solver_config(BenchConfig(), method)
    if label == "pr-stalled":
        config = SolverConfig(gamma0=0.19, max_iter=2000)
    if label == "pr-floor-at-start":
        config = SolverConfig(gamma0=0.19, gamma1=0.19, max_iter=2000)
    return build(inst), config, np.zeros(n)


@pytest.mark.parametrize(
    "label",
    ["pr-heuristic", "pr-stalled", "pr-floor-at-start", "dr-heuristic", "ls-fixed", *HALVED_CASES],
)
def test_run_matches_plain_reference_loop(label):
    problem, config, x0 = reference_case(label)
    report = run(problem, config, x0)
    state, reason, merits, gammas, gaps, steps, residual = reference_run(problem, config, x0)
    assert (report.iterations, report.reason) == (state.t, reason)
    if label in ("pr-stalled", "pr-floor-at-start"):
        assert (state.t, reason) == (101, "diverged")
    if label == "pr-heuristic":
        # The drift trigger fired at t = 11 and 12, and the second shrink settled just below the floor.
        assert sorted(set(gammas), reverse=True) == [0.19, 0.095, 0.9999 * config.gamma1]
    if label == "pr-floor-at-start":
        assert set(gammas) == {0.19}  # the drift trigger fires from t = 11 on, but a step at its floor never moves
    if label in ("ls-fixed", "halved-anchor", "halved-anchor-dr"):
        assert reason == "converged"
    if label in ("halved-anchor", "halved-anchor-dr"):
        assert gammas == [0.5, 0.25]  # the norm trigger fired at t = 1
    if label == "halved-trigger":
        assert set(gammas) == {0.5}  # the drift at t = 2 never beat 1000 / t: no trigger, no shrink above the floor
    if label == "halved-drift":
        assert gammas[:3] == [0.5, 0.5, 0.25] and set(gammas) == {0.5, 0.25}  # the drift trigger fired at t = 2 only
    if label in ("halved-settle", "halved-settle-dr"):
        # The norm trigger at t = 1 settled 0.19 just below the floor, not at 0.095; below it the trigger moves nothing.
        assert gammas == [0.19] + [0.9999 * 0.1] * 11
    if label == "halved-floor-norm":
        assert set(gammas) == {0.1}  # both triggers fire at the first steps, but a step at its floor never moves
    if label == "halved-drift-dr":
        assert gammas[:4] == [0.5, 0.5, 0.25, 0.125] and set(gammas) == {0.5, 0.25, 0.125}
    np.testing.assert_array_equal(report.gamma_trace, gammas)
    np.testing.assert_array_equal(report.state.z, state.z)
    np.testing.assert_array_equal(report.state.x, state.x)
    np.testing.assert_array_equal(report.gap_trace, gaps)
    # run stops on k |z - y| for |x - x_prev|; the (iterations, reason) check
    # above shows it stops where the measured |x - x_prev| does. The two agree
    # up to the rounding of x + k (z - y) at the scale of x: 1.2e-14 relative
    # at most on these runs.
    factor = 2.0 if config.method == "pr" else 1.0
    np.testing.assert_allclose(factor * report.gap_trace, steps, rtol=1e-13)
    assert report.residual == residual
    if config.method == "pr":
        np.testing.assert_array_equal(report.merit_trace, merits)
    else:
        # The DR merit is summed in another order, so it moves at rounding
        # level. Relative to the trace's scale, not elementwise: a converging
        # feasibility run drives the merit to ~1e-16 by cancellation.
        scale = float(np.max(np.abs(merits)))
        assert_allclose(report.merit_trace, merits, rtol=0, atol=1e-15 * scale)


# --------------------------------------------------------- trace inequalities


def test_fixed_gamma_pr_run_satisfies_descent_inequalities():
    # Quantified merit decrease and the gap-vs-step bound along a fixed-gamma run.
    problem = random_quadratic_sparse_problem(13)
    sigma, lipschitz = problem.f.strong_convexity, problem.f.grad_lipschitz
    gamma = 0.99 * gamma_threshold(sigma, lipschitz)
    config = SolverConfig(gamma0=gamma, max_iter=250, tol=0.0)
    states = []
    report = run(problem, config, np.zeros(12), observer=lambda state, gamma: states.append(state))
    y_list = [s.y for s in states]
    z_list = [s.z for s in states]
    decrease_rate = 0.5 * (-3.0 * sigma + 2.0 * lipschitz + gamma * lipschitz**2)
    assert decrease_rate < 0
    for t in range(len(y_list) - 1):
        dy = np.linalg.norm(y_list[t + 1] - y_list[t])
        drop = report.merit_trace[t + 1] - report.merit_trace[t]
        assert drop <= decrease_rate * dy**2 + 1e-9
        gap = np.linalg.norm(y_list[t] - z_list[t])
        assert 2.0 * gap <= (1.0 + gamma * lipschitz) * dy + 1e-9


# ----------------------------------------------------------------- diagnostics


def test_ergodic_gap_bound_trivial_case():
    z_ref = np.array([1.0, 2.0])
    lhs, rhs = ergodic_gap_bound(
        [z_ref],
        objective=lambda z: float(z @ z),
        x0=np.zeros(2),
        x_ref=np.ones(2),
        z_ref=z_ref,
        gamma=0.05,
        grad_lipschitz=1.0,
        n=1,
    )
    assert lhs == 0.0
    assert rhs > 0.0
    assert lhs <= rhs


def test_ergodic_gap_bound_rejects_empty_window():
    with pytest.raises(ValueError):
        ergodic_gap_bound([], lambda z: 0.0, np.zeros(2), np.zeros(2), np.zeros(2), 0.05, 1.0, 0)


def test_fit_contraction_recovers_geometric_rate():
    x_ref = np.zeros(2)
    rate = 0.8
    xs = [np.array([1.0, 0.0]) * rate ** (t / 2.0) for t in range(60)]
    fitted = fit_contraction(xs, x_ref, tail=50)
    assert_allclose(fitted, rate, rtol=1e-12)


def test_fit_contraction_at_an_exactly_converged_point():
    one, ref = np.ones(2), np.zeros(2)
    assert fit_contraction([one, ref, ref], ref, tail=2) == 0.0  # staying put is no step
    assert fit_contraction([one, ref, ref, one], ref, tail=3) == np.inf  # leaving is unbounded


def test_fit_contraction_needs_enough_points():
    with pytest.raises(ValueError):
        fit_contraction([np.zeros(2)] * 10, np.zeros(2), tail=50)


# ------------------------------------------------------------ boundary errors


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SolverConfig(method="newton"), "method must be 'pr' or 'dr', got 'newton'"),
        (lambda: SolverConfig(method=["pr"]), "method must be 'pr' or 'dr', got ['pr']"),
        (lambda: SolverConfig(method={"pr"}), "method must be 'pr' or 'dr', got {'pr'}"),
        (lambda: gamma_threshold(1.0, 0.0), "lipschitz modulus must be positive"),
        # L^2 overflows, underflows to 0, or is subnormal, where the cap came out up to 7% too large; the last two
        # moduli are the floats just outside the accepted range.
        *[
            (
                lambda modulus=modulus: gamma_threshold(modulus, modulus),
                "lipschitz must lie in [1.4916681462400413e-154, 1.3407807929942596e+154] for its square to be "
                f"a finite normal float, got {modulus}",
            )
            for modulus in (
                1.4e154, 1e-162, 1e-160, 2.3e-162, float(np.nextafter(2.0**-511, 0.0)),
                float(np.nextafter(np.sqrt(np.finfo(float).max), np.inf)),
            )
        ],
        (lambda: initial_state(np.array([0.0, np.nan])), "x0 holds NaN or infinite entries"),
        (
            lambda: ergodic_gap_bound([np.zeros(2)], lambda z: 0.0, *[np.zeros(2)] * 3, 0.05, 1.0, 2),
            "need at least 2 z-iterates, got 1",
        ),
        # max(0.0, nan) is 0.0, so a NaN iterate would read as perfect contraction.
        (
            lambda: fit_contraction([np.array([1.0]), np.array([np.nan]), np.array([0.5])], np.zeros(1), tail=2),
            "x_iters holds NaN or infinite entries",
        ),
        (
            lambda: fit_contraction([np.zeros(2)] * 3, np.array([np.inf, 0.0]), tail=2),
            "x_ref holds NaN or infinite entries",
        ),
        (
            lambda: ergodic_gap_bound([np.zeros(2)], lambda z: 0.0, *[np.zeros(2)] * 3, 0.05, 0.0, 1),
            "grad_lipschitz must be positive and finite, got 0.0",
        ),
        (
            lambda: ergodic_gap_bound([np.zeros(2)], lambda z: 0.0, *[np.zeros(2)] * 3, 0.05, np.nan, 1),
            "grad_lipschitz must be positive and finite, got nan",
        ),
    ],
    ids=[
        "method", "method list", "method set", "lipschitz", "lipschitz^2 overflows", "lipschitz^2 is 0",
        "lipschitz^2 subnormal", "lipschitz^2 subnormal, cap past 0.99", "lipschitz just below range",
        "lipschitz just above range", "x0", "z-iterates", "nan iterate", "inf x_ref",
        "gap lipschitz 0", "gap lipschitz nan",
    ],
)
def test_boundary_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: gamma_threshold(np.nan, 1.0), "sigma"),
        (lambda: gamma_threshold(np.inf, 1.0), "sigma"),
        (lambda: gamma_threshold(5.0, np.nan), "lipschitz"),
        (lambda: gamma_threshold(5.0, np.inf), "lipschitz"),
    ],
    ids=["sigma nan", "sigma inf", "lipschitz nan", "lipschitz inf"],
)
def test_engine_arguments_are_checked_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()
