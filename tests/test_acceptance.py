"""Acceptance gate: every exit criterion checked at its stated tolerance.

Each criterion prints one ``ACCEPTANCE <id>: PASS/FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them stream. Criteria 7,
7a, 7b, 8 and 11 and the gate table read one desk-preset pass at GATE_SEED,
7c one PR pass at a full-scale shape, and the held-out check one pass of
each at HELDOUT_SEED; :func:`recorded_bench` keeps every trial of a pass, so
none is solved twice. These take a minute or two; the other criteria solve
their own problems and are fast.

The paper claims PR is faster than DR with slightly lower solution quality
on its sparse-feasibility grid. ``FULL_PAIRS`` is read as that grid (the
README and the bench CLI present it so; the abstract alone does not give
it), so the speed and success claims (7a, 7c) are asserted where that grid
reaches: shapes with ``m/n`` at most the grid's largest ratio (1/8). The
desk preset also holds ``150x500`` (``m/n = 0.3``), past that range. There
PR's start step 0.19 is unstable (its linear map on the settled support has
spectral radius about 1.6, against at most 0.95 on the other desk shapes),
the heuristic drops gamma just below 1/12 within a dozen steps, and PR ends
at stationary points that are mostly spurious. Stationarity is what the
theory promises there, and criterion 8 asserts it on those runs; 7b still
compares DR with PR at every desk shape.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import bench
from prsplit.bench import DESK_PAIRS, FULL_PAIRS, BenchConfig, run_bench, solve_trial, solver_config, trial_seed
from prsplit.linalg import rng_from_seed
from prsplit.oracles import AffineSet, BoxSet, SparseBoxSet, shift_split
from prsplit.problems import build_feasibility_dr, build_feasibility_pr, distance_feasibility_problem, gen_feasibility
from prsplit.splitting import (
    SolverConfig,
    SplitProblem,
    ergodic_gap_bound,
    fit_contraction,
    gamma_threshold,
    merit_pr,
    run,
)

from helpers import kkt_projection, ls_box_problem, quadratic_sparse_problem


GATE_TRIALS = 20
GATE_SEED = 42
# A seed nothing was tuned on: 7a, 7b and 7c must hold there too, or the claim is a property of seed 42.
HELDOUT_SEED = 7

# The paper's experimental range: m/n up to the largest ratio of its grid.
PAPER_MAX_RATIO = max(Fraction(m, n) for m, n in FULL_PAIRS)
PAPER_DESK_PAIRS = tuple((m, n) for m, n in DESK_PAIRS if Fraction(m, n) <= PAPER_MAX_RATIO)
FULL_SCALE_PAIR = max(FULL_PAIRS, key=lambda pair: Fraction(*pair))


@contextmanager
def criterion(label, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {label}: PASS - {description}")


# --------------------------------------------------------------------- suites


@pytest.fixture(scope="session")
def quad_suite():
    """Criteria 1, 2, 9: 50 fixed-step PR runs of 2000 iterations each."""
    records = []
    start = time.perf_counter()
    for i in range(50):
        problem = quadratic_sparse_problem(1000 + i, dim=20, r=5)
        sigma = problem.f.strong_convexity
        lipschitz = problem.f.grad_lipschitz
        gamma = 0.99 * gamma_threshold(sigma, lipschitz)
        config = SolverConfig(gamma0=gamma, tol=0.0, max_iter=2000)
        states = []
        report = run(problem, config, np.zeros(problem.dim), observer=lambda s, g: states.append(s))
        records.append((problem, gamma, report, states))
    return records, time.perf_counter() - start


def recorded_bench(cfg):
    """``run_bench(cfg)``'s rows, and the ``(report, fval, outcome)`` of each trial they count, in trial order.

    Both are keyed by ``(m, n, method)``: a spy in ``prsplit.bench.solve_trial``'s place records what it returns.
    """
    runs = {(m, n, method): [] for m, n in cfg.pairs for method in cfg.methods}

    def spy(inst, config):
        result = solve_trial(inst, config)
        runs[(inst.m, inst.n, config.method)].append(result[:3])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "solve_trial", spy)
        rows = run_bench(cfg)
    return {(row.m, row.n, row.method): row for row in rows}, runs


@pytest.fixture(scope="session")
def gate_pass():
    """Criteria 7, 7a, 7b, 8 and 11 and the gate table: the desk-scale preset at GATE_SEED, 20 trials per shape.

    7a reads the shapes inside the paper's m/n range (the module docstring says why), 8 the ``150x500`` PR runs,
    11 every run; 7b and the gate table read every shape."""
    start = time.perf_counter()
    cells, runs = recorded_bench(BenchConfig(pairs=DESK_PAIRS, trials=GATE_TRIALS, base_seed=GATE_SEED))
    return cells, runs, time.perf_counter() - start


@pytest.fixture(scope="session")
def full_scale_pr():
    """Criterion 7c, at GATE_SEED and HELDOUT_SEED, and its spot check of trial 0: PR on the paper grid's
    largest m/n shape (500x4000), one pass per seed, keyed by seed. PR only, since 7c makes no claim
    about DR. About 10 s per seed on a 2-core machine."""
    return {
        seed: recorded_bench(BenchConfig((FULL_SCALE_PAIR,), GATE_TRIALS, seed, methods=("pr",)))
        for seed in (GATE_SEED, HELDOUT_SEED)
    }


@pytest.fixture(scope="session")
def heldout_cells():
    """Criteria 7a and 7b at HELDOUT_SEED: both methods on the desk shapes inside the paper's m/n range."""
    return recorded_bench(BenchConfig(pairs=PAPER_DESK_PAIRS, trials=GATE_TRIALS, base_seed=HELDOUT_SEED))[0]


@pytest.fixture(scope="session")
def convex_box_suite():
    """Criterion 5: 20 convex instances (affine set + box) under the shifted split."""
    gamma = 0.99 / 12.0
    records = []
    for i in range(20):
        rng = rng_from_seed(3000 + i)
        m, n = 8, 24
        A = rng.standard_normal((m, n))
        x_feasible = 0.5 * rng.standard_normal(n)
        box = BoxSet(1.0 + 2.0 * float(np.max(np.abs(x_feasible))))
        dr = distance_feasibility_problem(AffineSet(A, A @ x_feasible), box)
        problem = SplitProblem(*shift_split(dr.f, dr.g), dim=n)
        reference = run(problem, SolverConfig(gamma0=gamma, tol=1e-12, max_iter=50_000), np.zeros(n))
        states = []
        run(
            problem,
            SolverConfig(gamma0=gamma, tol=0.0, max_iter=1001),
            np.zeros(n),
            observer=lambda s, g: states.append(s),
        )
        records.append((problem, gamma, reference, states))
    return records


@pytest.fixture(scope="session")
def ls_box_suite():
    """Criteria 6, 8: 10 strongly convex box-constrained least-squares runs."""
    records = []
    for i in range(10):
        problem = ls_box_problem(4000 + i)
        reference = run(problem, SolverConfig(tol=1e-13, max_iter=50_000), np.zeros(12))
        states = []
        working = run(
            problem,
            SolverConfig(tol=1e-8, max_iter=50_000),
            np.zeros(12),
            observer=lambda s, g: states.append(s),
        )
        records.append((problem, reference, working, states))
    return records


# ------------------------------------------------------------------- criteria


def test_criterion_1_merit_monotone(quad_suite):
    records, elapsed = quad_suite
    with criterion("1", "PR merit nonincreasing over 2000 fixed-step iterations, 50 problems"):
        for _, _, report, _ in records:
            merits = report.merit_trace
            violation = np.diff(merits) - 1e-9 * (1.0 + np.abs(merits[:-1]))
            assert np.max(violation) <= 0.0
        assert elapsed <= 60.0


def test_criterion_2_quantified_decrease(quad_suite):
    records, _ = quad_suite
    description = "per-step merit drop below (-3*sigma + 2*L + gamma*L^2)/2 * |dy|^2; 2|y - z| <= (1 + gamma*L) |dy|"
    with criterion("2", description):
        for problem, gamma, report, states in records:
            sigma = problem.f.strong_convexity
            lipschitz = problem.f.grad_lipschitz
            rate = 0.5 * (-3.0 * sigma + 2.0 * lipschitz + gamma * lipschitz**2)
            assert rate < 0.0
            for t in range(len(states) - 1):
                dy = float(np.linalg.norm(states[t + 1].y - states[t].y))
                drop = report.merit_trace[t + 1] - report.merit_trace[t]
                assert drop <= rate * dy**2 + 1e-9
                gap = float(np.linalg.norm(states[t].y - states[t].z))
                assert 2.0 * gap <= (1.0 + gamma * lipschitz) * dy + 1e-9


def test_criterion_3_merit_formula_equivalence():
    with criterion("3", "three merit expressions agree to 1e-9 relative on 1000 random triples"):
        problems = [quadratic_sparse_problem(2000 + i, dim=12, r=4) for i in range(5)]
        dset = SparseBoxSet(r=4)
        rng = rng_from_seed(2100)
        for k in range(1000):
            problem = problems[k % len(problems)]
            y, x = rng.standard_normal((2, 12))
            z = dset.project(rng.standard_normal(12))
            gamma = float(rng.uniform(0.05, 2.0))
            fy, gz = problem.f.value(y), problem.g.value(z)
            base = fy + gz
            dyz = np.linalg.norm(y - z) ** 2
            forms = (
                base - 1.5 * dyz / gamma + float((x - y) @ (z - y)) / gamma,
                base
                + (np.linalg.norm(2 * y - z - x) ** 2 - np.linalg.norm(x - y) ** 2) / (2 * gamma)
                - 2.0 * dyz / gamma,
                base
                + (np.linalg.norm(x - y) ** 2 - np.linalg.norm(x - z) ** 2 - 2.0 * dyz) / (2 * gamma),
            )
            value = merit_pr(y, z, x, problem, gamma)
            scale = max(1.0, *(abs(f) for f in forms))
            for form in forms:
                assert abs(value - form) <= 1e-9 * scale


def test_criterion_4_projection_oracles():
    with criterion("4", "hard-threshold projection vs enumeration; affine projection vs KKT"):
        rng = rng_from_seed(2200)
        # 200 sparse-box cases, n <= 8, r <= 3, mixed scales, ties, active bounds.
        for case in range(200):
            n = int(rng.integers(4, 9))
            r = int(rng.integers(1, min(3, n - 1) + 1))
            w = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)
            if case % 10 == 0:
                w = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)  # forced magnitude ties
            bound = 1e6 if case % 3 else float(np.median(np.abs(w)) + 1e-3)
            dset = SparseBoxSet(r=r, bound=bound)
            projected = dset.project(w)
            best = np.inf
            for support in itertools.combinations(range(n), r):
                z = np.zeros(n)
                z[list(support)] = np.clip(w[list(support)], -bound, bound)
                best = min(best, float(np.linalg.norm(z - w) ** 2))
            assert abs(float(np.linalg.norm(projected - w) ** 2) - best) <= 1e-12
        # 100 affine projections against the (n + m) KKT system.
        for case in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m + 1, 13))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            w = rng.standard_normal(n)
            assert_allclose(AffineSet(A, b).project(w), kkt_projection(A, b, w), atol=1e-8, rtol=1e-8)


def test_criterion_5_ergodic_bound(convex_box_suite):
    with criterion("5", "ergodic objective gap below its bound; scaled min-step decays"):
        for problem, gamma, reference, states in convex_box_suite:
            objective = lambda u: problem.f.value(u) + problem.g.value(u)
            z_iters = [state.z for state in states]
            for n_window in (10, 50, 100, 500):
                lhs, rhs = ergodic_gap_bound(
                    z_iters,
                    objective,
                    np.zeros(problem.dim),
                    reference.state.x,
                    reference.state.z,
                    gamma,
                    grad_lipschitz=1.0,
                    n=n_window,
                )
                assert lhs <= rhs
            # |x - x_prev| = k |z - y| with k = 2 for PR
            steps = [2.0 * np.linalg.norm(state.z - state.y) for state in states]
            scaled_100 = np.min(steps[:100]) * np.sqrt(100.0)
            scaled_1000 = np.min(steps[:1000]) * np.sqrt(1000.0)
            assert scaled_1000 <= 0.2 * scaled_100


def test_criterion_6_linear_convergence(ls_box_suite):
    with criterion("6", "per-step contraction of |x - x_ref|^2 fits r <= 0.999 on the tail"):
        for _, reference, working, states in ls_box_suite:
            assert working.reason == "converged"
            x_ref = reference.state.x
            xs = [state.x for state in states]
            fitted = fit_contraction(xs, x_ref, tail=50)
            assert fitted <= 0.999
            tail = xs[-51:]
            for before, after in zip(tail, tail[1:]):
                assert (
                    np.linalg.norm(after - x_ref) ** 2
                    <= fitted * np.linalg.norm(before - x_ref) ** 2 * (1.0 + 1e-6)
                )


def test_criterion_7_runtime_budget(gate_pass):
    _, _, elapsed = gate_pass
    with criterion("7-runtime", "desk-scale benchmark preset completes within 10 minutes"):
        assert elapsed <= 600.0


def assert_pr_fewer_iterations(cells, shapes):
    """Claim 7a on `shapes`."""
    offenders = [
        (m, n, cells[(m, n, "pr")].mean_iterations, cells[(m, n, "dr")].mean_iterations)
        for m, n in shapes
        if not cells[(m, n, "pr")].mean_iterations < cells[(m, n, "dr")].mean_iterations
    ]
    assert not offenders, f"PR not faster on: {offenders}"


def assert_dr_quality(cells, shapes):
    """Claim 7b on `shapes`."""
    offenders = [
        (m, n, cells[(m, n, "pr")].successes, cells[(m, n, "dr")].successes)
        for m, n in shapes
        if cells[(m, n, "dr")].successes < cells[(m, n, "pr")].successes
    ]
    assert not offenders, f"DR quality below PR on: {offenders}"


def assert_pr_solves_full_scale(cells):
    """Claim 7c: PR solves at least 90% of the trials."""
    successes = cells[(*FULL_SCALE_PAIR, "pr")].successes
    assert successes >= 0.9 * GATE_TRIALS, f"PR solved {successes}/{GATE_TRIALS}"


def test_criterion_7a_pr_fewer_iterations(gate_pass):
    cells, _, _ = gate_pass
    description = f"PR mean iterations below DR on every shape with m/n <= {PAPER_MAX_RATIO}"
    with criterion("7a", description):
        assert PAPER_DESK_PAIRS, "no desk shape inside the paper's m/n range"
        assert_pr_fewer_iterations(cells, PAPER_DESK_PAIRS)


def test_criterion_7b_dr_solution_quality(gate_pass):
    cells, _, _ = gate_pass
    with criterion("7b", "DR success count at least PR success count on every shape"):
        assert_dr_quality(cells, DESK_PAIRS)


# The desk table at the gate's seed: m, n, method, mean iterations, successes,
# failures, undecided. Any change here is an algorithm change, not a refactor.
# The fval columns are left out (they move at rounding level with the LAPACK
# build), and so are the wall-time seconds.
GATE_TABLE = (
    (50, 500, "pr", 123.4, 9, 11, 0),
    (50, 500, "dr", 814.95, 20, 0, 0),
    (50, 1000, "pr", 228.25, 1, 19, 0),
    (50, 1000, "dr", 1167.25, 19, 1, 0),
    (100, 500, "pr", 421.65, 14, 6, 0),
    (100, 500, "dr", 664.85, 20, 0, 0),
    (100, 1000, "pr", 137.4, 13, 7, 0),
    (100, 1000, "dr", 723.5, 20, 0, 0),
    (150, 500, "pr", 965.6, 0, 20, 0),
    (150, 500, "dr", 639.6, 20, 0, 0),
    (150, 1000, "pr", 92.0, 17, 3, 0),
    (150, 1000, "dr", 685.85, 20, 0, 0),
)


def test_gate_table_iterations_and_outcomes_are_pinned(gate_pass):
    cells, _, _ = gate_pass
    got = tuple(
        (row.m, row.n, row.method, row.mean_iterations, row.successes, row.failures, row.undecided)
        for row in cells.values()
    )
    assert got == GATE_TABLE


def test_criterion_7c_pr_success_in_easiest_regime(full_scale_pr):
    cells, _ = full_scale_pr[GATE_SEED]
    m, n = FULL_SCALE_PAIR
    with criterion("7c", f"PR solves at least 90% of trials at the full grid's largest m/n, {m}x{n}"):
        assert_pr_solves_full_scale(cells)


def test_full_scale_spot_check(full_scale_pr):
    """7c's recorded trial 0, pinned to its behavior band: PR solves it in a couple hundred iterations."""
    _, runs = full_scale_pr[GATE_SEED]
    report, _, outcome = runs[(*FULL_SCALE_PAIR, "pr")][0]
    assert outcome == "success" and 50 <= report.iterations <= 400


def test_criteria_7a_7b_7c_hold_at_a_held_out_seed(heldout_cells, full_scale_pr):
    # The claims only, at the same bounds; GATE_TABLE alone pins numbers.
    with criterion("7a/7b/7c", f"the paper-range claims at held-out seed {HELDOUT_SEED}"):
        assert_pr_fewer_iterations(heldout_cells, PAPER_DESK_PAIRS)
        assert_dr_quality(heldout_cells, PAPER_DESK_PAIRS)
        assert_pr_solves_full_scale(full_scale_pr[HELDOUT_SEED][0])


def test_criterion_8_termination_contract(ls_box_suite, gate_pass):
    with criterion("8", "converged runs end with small practical residual and y-z gap"):
        reports = []
        # Quadratic-plus-sparse problems at the standard tolerance.
        for i in range(10):
            problem = quadratic_sparse_problem(5000 + i, dim=20, r=5)
            gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
            config = SolverConfig(gamma0=gamma, tol=1e-8)
            reports.append((config.tol, run(problem, config, np.zeros(problem.dim))))
        # Heuristic-driven feasibility runs, both engines.
        bench_cfg = BenchConfig(pairs=((20, 80), (30, 120)))
        for m, n in bench_cfg.pairs:
            for method, builder in (("pr", build_feasibility_pr), ("dr", build_feasibility_dr)):
                config = solver_config(bench_cfg, method)
                for trial in range(3):
                    inst = gen_feasibility(m, n, trial_seed(9, m, n, trial))
                    reports.append((config.tol, run(builder(inst), config, np.zeros(n))))
        # The desk preset's PR runs at its largest m/n (150x500): the heuristic
        # settles gamma below 1/12, and every run must end at a stationary point.
        _, runs, _ = gate_pass
        config = solver_config(BenchConfig(), "pr")
        m, n = max(DESK_PAIRS, key=lambda pair: Fraction(*pair))
        for trial, (report, _, _) in enumerate(runs[(m, n, "pr")]):
            assert report.reason == "converged", f"PR at {m}x{n}, trial {trial}: {report.reason}"
            reports.append((config.tol, report))
        # Box-constrained least-squares runs from the linear-convergence suite.
        for _, _, working, _ in ls_box_suite:
            reports.append((1e-8, working))

        converged = [(tol, report) for tol, report in reports if report.reason == "converged"]
        assert len(converged) >= 30
        for tol, report in converged:
            assert report.residual.practical <= 1e-6
            gap = np.linalg.norm(report.state.z - report.state.y)
            assert gap <= 10.0 * tol * max(1.0, float(np.linalg.norm(report.state.y)))


def test_criterion_9_boundedness(quad_suite):
    records, _ = quad_suite
    with criterion("9", "iterates stay bounded and the merit floors the shifted objective"):
        for problem, gamma, report, states in records:
            lipschitz = problem.f.grad_lipschitz
            first_merit = report.merit_trace[0]
            for state in states:
                for vec in (state.y, state.z, state.x):
                    assert float(np.linalg.norm(vec)) < 1e6
            for state in states:
                floor = (
                    problem.f.value(state.z)
                    + problem.g.value(state.z)
                    + 0.5 * (1.0 / gamma - lipschitz) * float(np.linalg.norm(state.y - state.z)) ** 2
                )
                assert first_merit >= floor - 1e-8


# Rounding allowance of criteria 10 and 11, relative to 1 + |merit|. The
# largest merit rise measured on criterion 10's four runs was 2.7e-14, and
# on criterion 11's runs after they enter the theory's range 3.2e-14.
THEORY_ROUNDING = 1e-12


def test_criterion_10_theorem_on_the_feasibility_split():
    description = "fixed-step PR inside the theory on the shifted feasibility split: descent and stationarity"
    with criterion("10", description):
        # The shifted split has sigma = 5 and L = 6, so its step cap is 1/12.
        sigma, lipschitz = 5.0, 6.0
        gamma = 0.99 * gamma_threshold(sigma, lipschitz)
        rate = 0.5 * (-3.0 * sigma + 2.0 * lipschitz + gamma * lipschitz**2)
        config = SolverConfig(gamma0=gamma, tol=1e-10, max_iter=3000)
        converged = []
        for m, n in ((50, 500), (100, 1000)):
            for trial in range(2):
                inst = gen_feasibility(m, n, trial_seed(GATE_SEED, m, n, trial))
                problem = build_feasibility_pr(inst)
                assert (problem.f.strong_convexity, problem.f.grad_lipschitz) == (sigma, lipschitz)
                ys = []
                report = run(problem, config, np.zeros(n), observer=lambda state, _: ys.append(state.y))
                merits = report.merit_trace
                slack = THEORY_ROUNDING * (1.0 + np.abs(merits[:-1]))
                assert np.max(np.diff(merits) - slack) <= 0.0, (m, n, trial)
                dy_sq = np.array([float(np.linalg.norm(b - a)) ** 2 for a, b in zip(ys, ys[1:])])
                assert np.max(np.diff(merits) - rate * dy_sq - slack) <= 0.0, (m, n, trial)
                if report.reason == "converged":
                    converged.append(report)
        # Criterion 8's termination contract on the runs that converged.
        assert converged
        for report in converged:
            assert report.residual.practical <= 1e-6
            gap = np.linalg.norm(report.state.z - report.state.y)
            assert gap <= 10.0 * config.tol * max(1.0, float(np.linalg.norm(report.state.y)))


def test_criterion_11_theorem_on_the_gate_pr_runs(gate_pass):
    description = "gate PR runs: merit nonincreasing from the first step below gamma_threshold on"
    with criterion("11", description):
        _, runs, _ = gate_pass
        cap = gamma_threshold(5.0, 6.0)  # the shifted split's (sigma, L), which criterion 10 checks
        entered = outside = rising = 0
        for m, n in DESK_PAIRS:
            for trial, (report, _, _) in enumerate(runs[(m, n, "pr")]):
                merits = report.merit_trace
                inside = np.flatnonzero(report.gamma_trace < cap)
                if not inside.size:
                    # Outside the theory: counted at criterion 1's tolerance, not asserted.
                    outside += 1
                    rising += np.max(np.diff(merits) - 1e-9 * (1.0 + np.abs(merits[:-1])), initial=0.0) > 0.0
                    continue
                entered += 1
                # The step never moves again once below the cap, so these merits share one gamma.
                merits = merits[inside[0]:]
                slack = THEORY_ROUNDING * (1.0 + np.abs(merits[:-1]))
                assert np.max(np.diff(merits) - slack, initial=0.0) <= 0.0, (m, n, trial)
        assert entered, "no gate PR run reached a step below the cap"
        print(f"criterion 11: {entered} of {entered + outside} runs reach a step below {cap:.6g}; {rising} of the rest rise")
        # Printed, not asserted: which DR runs of the same pass shrink their step, how often, and to what.
        shrunk = [
            f"{m}x{n} trial {trial} gamma {np.count_nonzero(np.diff(gammas) < 0)}x to {gammas[-1]:g}"
            for m, n in DESK_PAIRS
            for trial, gammas in enumerate(report.gamma_trace for report, _, _ in runs[(m, n, "dr")])
            if np.any(np.diff(gammas) < 0)
        ]
        print(f"criterion 11: {len(shrunk)} of {len(DESK_PAIRS) * GATE_TRIALS} DR runs shrink: {', '.join(shrunk)}")
