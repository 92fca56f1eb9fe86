"""Tests for the PR/DR engines, merit functions, and diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit.oracles import ProxOracle, SmoothOracle, SparseBoxSet, quadratic_oracle
from prsplit.splitting import (
    HeuristicConfig,
    SolverConfig,
    SplitProblem,
    dr_step,
    ergodic_gap_bound,
    fit_contraction,
    gamma_threshold,
    heuristic_update,
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
        assert_allclose(
            np.linalg.norm(out.x - state.x),
            factor * np.linalg.norm(out.z - out.y),
            rtol=1e-15,
        )


def test_step_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        pr_step(initial_state(np.zeros(2)), halved_norm_problem(), gamma=0.0)


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
    problem = random_quadratic_sparse_problem(7)
    z_bad = np.ones(12)  # 12 nonzeros > r = 4
    with pytest.raises(ValueError, match="outside dom g"):
        merit_pr(np.zeros(12), z_bad, np.zeros(12), problem, 0.5)


# ---------------------------------------------------------------- stationarity


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
    config = SolverConfig(max_iter=40, tol=0.0, record_trace=True)
    report = run(problem, config, np.zeros(12))
    assert report.iterations == 40
    assert report.reason == "max_iter"
    for trace in (report.merit_trace, report.gamma_trace, report.gap_trace, report.step_trace):
        assert len(trace) == 40
    assert len(report.states) == 40
    assert report.states[-1].t == 40


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
    with pytest.raises(ValueError):
        SolverConfig(heuristic=HeuristicConfig(gamma1=0.1))


def test_run_heuristic_shrinks_gamma_on_unstable_iterates():
    problem = random_quadratic_sparse_problem(12)
    threshold = gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
    config = SolverConfig(
        gamma0=10.0 * threshold,
        heuristic=HeuristicConfig(gamma1=threshold, step_limit=1e-9),
        max_iter=200,
        tol=0.0,
    )
    report = run(problem, config, np.zeros(12))
    assert report.gamma_trace[0] == 10.0 * threshold
    assert report.gamma_trace[-1] == pytest.approx(0.9999 * threshold)


# ------------------------------------------------------------------- heuristic


def test_heuristic_update_shrinks_on_trigger():
    y = np.full(3, 1e11)  # norm trigger
    out = heuristic_update(0.19, 5, y, y, HeuristicConfig(gamma1=1.0 / 12.0))
    assert_allclose(out, 0.095, rtol=1e-15)


def test_heuristic_update_settles_just_below_floor():
    y_prev = np.zeros(3)
    y = np.full(3, 1e3)  # step trigger at t = 1
    out = heuristic_update(0.09, 1, y, y_prev, HeuristicConfig(gamma1=1.0 / 12.0))
    assert_allclose(out, 0.9999 / 12.0, rtol=1e-15)


def test_heuristic_update_noop_below_floor():
    y = np.full(3, 1e11)
    assert heuristic_update(0.05, 5, y, y, HeuristicConfig(gamma1=1.0 / 12.0)) == 0.05


def test_heuristic_update_noop_without_trigger():
    y = np.ones(3)
    assert heuristic_update(0.19, 1000, y, y, HeuristicConfig(gamma1=1.0 / 12.0)) == 0.19


# --------------------------------------------------------- trace inequalities


def test_fixed_gamma_pr_run_satisfies_descent_inequalities():
    # Quantified merit decrease and the gap-vs-step bound along a fixed-gamma run.
    problem = random_quadratic_sparse_problem(13)
    sigma, lipschitz = problem.f.strong_convexity, problem.f.grad_lipschitz
    gamma = 0.99 * gamma_threshold(sigma, lipschitz)
    config = SolverConfig(gamma0=gamma, max_iter=250, tol=0.0, record_trace=True)
    report = run(problem, config, np.zeros(12))
    y_list = [s.y for s in report.states]
    z_list = [s.z for s in report.states]
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


def test_fit_contraction_needs_enough_points():
    with pytest.raises(ValueError):
        fit_contraction([np.zeros(2)] * 10, np.zeros(2), tail=50)
