"""Tests for instance generation, problem builders, and classification."""

import gc
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit.linalg import gaussian_matrix, spectral_norm_sq
from prsplit.oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ProxShiftError,
    SmoothOracle,
    SparseBoxSet,
    shift_split,
)
from prsplit.problems import (
    FeasibilityInstance,
    LsInstance,
    build_constrained_ls,
    build_feasibility_dr,
    build_feasibility_pr,
    classify,
    evaluate_fval,
    gen_feasibility,
    load_instance,
    save_instance,
)
from prsplit.splitting import SolverConfig, dr_step, gamma_threshold, initial_state, pr_step, run


def tiny_instance():
    """Hand-checkable 2 x 4 instance with a single planted nonzero."""
    A = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 1.0]])
    x_true = np.array([0.0, 0.0, 2.0, 0.0])
    return FeasibilityInstance(A=A, b=A @ x_true, r=1, bound=1e6, seed=-1, x_true=x_true)


# ------------------------------------------------------------------ generation


def test_gen_feasibility_cardinality_rule():
    assert gen_feasibility(100, 400, 0).r == 20
    assert gen_feasibility(101, 400, 0).r == 21


def test_gen_feasibility_deterministic():
    first = gen_feasibility(20, 60, 5)
    second = gen_feasibility(20, 60, 5)
    assert_allclose(first.A, second.A, atol=0)
    assert_allclose(first.b, second.b, atol=0)
    assert_allclose(first.x_true, second.x_true, atol=0)


def test_gen_feasibility_seeds_differ():
    assert not np.array_equal(gen_feasibility(20, 60, 5).A, gen_feasibility(20, 60, 6).A)


def test_gen_feasibility_planted_point_is_feasible_and_sparse():
    for seed in range(5):
        inst = gen_feasibility(25, 80, seed)
        assert np.linalg.norm(inst.A @ inst.x_true - inst.b) <= 1e-9 * (1 + np.linalg.norm(inst.b))
        assert np.count_nonzero(inst.x_true) <= inst.r
        assert evaluate_fval(inst.x_true, inst) <= 1e-18


def test_gen_feasibility_validates_shape():
    with pytest.raises(ValueError):
        gen_feasibility(4, 100, 0)
    with pytest.raises(ValueError):
        gen_feasibility(50, 40, 0)


# ----------------------------------------------------------- feasibility split


def test_build_feasibility_pr_moduli_and_threshold():
    problem = build_feasibility_pr(tiny_instance())
    assert problem.f.strong_convexity / problem.f.grad_lipschitz == pytest.approx(5.0 / 6.0)
    assert gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz) == pytest.approx(
        1.0 / 12.0
    )


def test_build_feasibility_pr_gprox_at_zero():
    problem = build_feasibility_pr(tiny_instance())
    assert_allclose(problem.g.prox(0.05, np.zeros(4)), np.zeros(4), atol=0)


def test_build_feasibility_pr_gprox_scaling():
    inst = tiny_instance()
    problem = build_feasibility_pr(inst)
    dset = inst.sparse_set()
    rng = np.random.default_rng(0)
    for gamma in (0.02, 1.0 / 13.0):
        w = rng.standard_normal(4)
        assert_allclose(problem.g.prox(gamma, w), dset.project(w / (1 - 5 * gamma)))


def test_build_feasibility_pr_gprox_ill_posed():
    problem = build_feasibility_pr(tiny_instance())
    with pytest.raises(ProxShiftError):
        problem.g.prox(0.2, np.zeros(4))


def test_feasibility_pr_step_matches_hand_formulas():
    inst = tiny_instance()
    problem = build_feasibility_pr(inst)
    cset = inst.affine_set()
    gamma = 0.05
    x0 = np.zeros(4)
    out = pr_step(initial_state(x0), problem, gamma)
    # Direct evaluation of the three closed-form updates.
    y1 = (gamma * cset.project(x0 / (1 + 5 * gamma)) + x0) / (6 * gamma + 1)
    z1 = inst.sparse_set().project((2 * y1 - x0) / (1 - 5 * gamma))
    x1 = x0 + 2 * (z1 - y1)
    assert_allclose(out.y, y1, atol=1e-14)
    assert_allclose(out.z, z1, atol=1e-14)
    assert_allclose(out.x, x1, atol=1e-14)


def test_feasibility_dr_step_matches_hand_formulas():
    inst = tiny_instance()
    problem = build_feasibility_dr(inst)
    cset = inst.affine_set()
    gamma = 0.4
    x0 = np.array([0.5, -1.0, 2.0, 0.0])
    out = dr_step(initial_state(x0), problem, gamma)
    y1 = (x0 + gamma * cset.project(x0)) / (1 + gamma)
    z1 = inst.sparse_set().project(2 * y1 - x0)
    assert_allclose(out.y, y1, atol=1e-14)
    assert_allclose(out.z, z1, atol=1e-14)
    assert_allclose(out.x, x0 + (z1 - y1), atol=1e-14)


def test_build_feasibility_dr_oracle_contracts():
    inst = tiny_instance()
    problem = build_feasibility_dr(inst)
    assert problem.f.grad_lipschitz == 1.0
    assert problem.f.strong_convexity == 0.0
    w = inst.affine_set().project(np.array([1.0, 2.0, -1.0, 0.5]))
    assert_allclose(problem.f.prox(0.8, w), w, atol=1e-12)


def test_feasibility_pr_matches_generic_shift_split():
    # Dual route: the shift_split-built problem against dense references.
    # The f-prox solves its optimality system
    # (A^T (A A^T)^-1 A + 5 I + I / gamma) y = w / gamma + A^T (A A^T)^-1 b.
    inst = gen_feasibility(6, 15, 3)
    problem = build_feasibility_pr(inst)
    A, b = inst.A, inst.b
    row_pinv = A.T @ np.linalg.inv(A @ A.T)
    dset = inst.sparse_set()

    def f_ref_value(y):
        gap = row_pinv @ (A @ y - b)
        return 0.5 * float(gap @ gap) + 2.5 * float(y @ y)

    rng = np.random.default_rng(4)
    for gamma in (0.01, 0.05, 0.08):
        w = rng.standard_normal(15)
        system = row_pinv @ A + (5.0 + 1.0 / gamma) * np.eye(15)
        f_ref_prox = np.linalg.solve(system, w / gamma + row_pinv @ b)
        assert_allclose(problem.f.prox(gamma, w), f_ref_prox, atol=1e-10)
        assert_allclose(problem.g.prox(gamma, w), dset.project(w / (1 - 5 * gamma)), atol=1e-10)
        assert_allclose(problem.f.value(w), f_ref_value(w), atol=1e-10)
        z = problem.g.prox(gamma, w)
        assert_allclose(problem.g.value(z), dset.indicator(z) - 2.5 * float(z @ z), atol=1e-10)


# ------------------------------------------------------- constrained least sq.


@pytest.mark.parametrize("name", ["A", "b"])
def test_ls_instance_names_non_finite_data(name):
    data = {"A": np.eye(4, 3), "b": np.ones(4)}
    data[name][1] = np.inf if name == "A" else np.nan
    with pytest.raises(ValueError, match=f"^{name} holds NaN or infinite entries"):
        LsInstance(A=data["A"], b=data["b"], constraint=BoxSet(1.0))


def test_build_constrained_ls_threshold():
    A = gaussian_matrix(5, 12, 7)
    inst = LsInstance(A=A, b=gaussian_matrix(5, 1, 8).ravel(), constraint=SparseBoxSet(r=2))
    problem = build_constrained_ls(inst)
    lam = spectral_norm_sq(A) * (1 + 1e-6)
    assert problem.f.strong_convexity == pytest.approx(5 * lam, rel=1e-12)
    assert problem.f.grad_lipschitz == pytest.approx(6 * lam, rel=1e-12)
    assert gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz) == pytest.approx(
        1.0 / (12.0 * lam), rel=1e-12
    )


@pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6])
def test_build_constrained_ls_bound_covers_clustered_top_eigenvalues(delta):
    # Eigenvalues of A^T A are 1 - delta * k: the top one is 1.0 and the gap
    # below it is delta, where power iteration stalls or stops short of 1.
    A = np.diag(np.sqrt(1.0 - delta * np.arange(10)))
    problem = build_constrained_ls(LsInstance(A=A, b=np.ones(10), constraint=BoxSet(1.0)))
    assert problem.f.prox.lam_max >= 1.0


def test_build_constrained_ls_retains_one_factor_and_no_gram():
    # After one prox call the problem holds A, b and one 300 x 300 inverse
    # factor; the 300 x 300 Gram matrix it was built from is released.
    m, n = 600, 300
    A = gaussian_matrix(m, n, 41)
    inst = LsInstance(A=A, b=gaussian_matrix(m, 1, 42).ravel(), constraint=BoxSet(1.0))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem = build_constrained_ls(inst)
        gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
        problem.f.prox(gamma, np.zeros(n))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= n * n * 8 + 32 * n * 8


def test_build_constrained_ls_identity_design_stationary_at_zero():
    inst = LsInstance(A=np.eye(6), b=np.zeros(6), constraint=SparseBoxSet(r=1))
    problem = build_constrained_ls(inst)
    report = run(problem, SolverConfig(), np.zeros(6))
    assert report.reason == "converged"
    assert_allclose(report.state.z, np.zeros(6), atol=1e-12)


def test_build_constrained_ls_gprox_scaling():
    A = gaussian_matrix(4, 9, 9)
    dset = SparseBoxSet(r=3)
    inst = LsInstance(A=A, b=gaussian_matrix(4, 1, 10).ravel(), constraint=dset)
    problem = build_constrained_ls(inst)
    lam = problem.f.strong_convexity / 5.0
    gamma = 1.0 / (24.0 * lam)
    w = gaussian_matrix(9, 1, 11).ravel()
    assert_allclose(problem.g.prox(gamma, w), dset.project(w / (1 - 5.0 / 24.0)))
    with pytest.raises(ProxShiftError):
        problem.g.prox(1.0 / (4.0 * lam), w)


def test_constrained_ls_matches_generic_shift_split():
    A = gaussian_matrix(4, 10, 12)
    b = gaussian_matrix(4, 1, 13).ravel()
    inst = LsInstance(A=A, b=b, constraint=BoxSet(5.0))
    problem = build_constrained_ls(inst)
    lam = problem.f.strong_convexity / 5.0

    def ls_prox(gamma, w):
        return np.linalg.solve(np.eye(10) + gamma * A.T @ A, w + gamma * A.T @ b)

    F = SmoothOracle(
        value=lambda y: 0.5 * float((A @ y - b) @ (A @ y - b)),
        gradient=lambda y: A.T @ (A @ y - b),
        strong_convexity=0.0,
        grad_lipschitz=lam,
        prox=ls_prox,
    )
    G = ProxOracle(prox=lambda gamma, w: np.clip(w, -5.0, 5.0), value=BoxSet(5.0).indicator)
    f_ref, g_ref = shift_split(F, G, alpha=5.0 * lam)
    rng = np.random.default_rng(14)
    gamma = 1.0 / (13.0 * lam)
    for _ in range(5):
        w = rng.standard_normal(10)
        assert_allclose(problem.f.prox(gamma, w), f_ref.prox(gamma, w), atol=1e-10)
        assert_allclose(problem.g.prox(gamma, w), g_ref.prox(gamma, w), atol=1e-10)


# -------------------------------------------------------------- fval, classify


def test_evaluate_fval_zero_on_feasible_points():
    inst = gen_feasibility(10, 30, 20)
    assert evaluate_fval(inst.x_true, inst) <= 1e-18
    z = inst.affine_set().project(np.random.default_rng(21).standard_normal(30))
    assert evaluate_fval(z, inst) <= 1e-18


def test_evaluate_fval_matches_kkt_oracle():
    inst = gen_feasibility(8, 24, 22)
    rng = np.random.default_rng(23)
    for _ in range(5):
        z = rng.standard_normal(24)
        m = inst.m
        system = np.block([[np.eye(24), inst.A.T], [inst.A, np.zeros((m, m))]])
        nearest = np.linalg.solve(system, np.concatenate([z, inst.b]))[:24]
        assert_allclose(evaluate_fval(z, inst), 0.5 * np.linalg.norm(z - nearest) ** 2, rtol=1e-8)


def test_classify_thresholds():
    assert classify(1e-15) == "success"
    assert classify(1e-3) == "failure"
    assert classify(1e-9) == "undecided"
    # Band edges fall in the undecided bucket.
    assert classify(1e-12) == "undecided"
    assert classify(1e-6) == "undecided"


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify(-1e-9)
    with pytest.raises(ValueError):
        classify(float("nan"))


# --------------------------------------------------------------- serialization


def test_instance_round_trip(tmp_path):
    inst = gen_feasibility(12, 40, 77)
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded.r == inst.r
    assert loaded.seed == inst.seed
    assert loaded.bound == inst.bound
    assert_allclose(loaded.A, inst.A, atol=0)
    assert_allclose(loaded.b, inst.b, atol=0)
    assert_allclose(loaded.x_true, inst.x_true, atol=0)


def test_load_instance_rejects_truncated_file(tmp_path):
    inst = gen_feasibility(12, 40, 78)
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_instance(path)


def saved_lines(tmp_path):
    """Lines of a saved 12 x 40 instance (r = 3): header, A rows 1-12, b, support, values."""
    path = tmp_path / "instance.txt"
    save_instance(gen_feasibility(12, 40, 78), path)
    return path, path.read_text().splitlines()


def rejects(path, lines, match):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match):
        load_instance(path)


def test_load_instance_rejects_empty_file(tmp_path):
    path = tmp_path / "instance.txt"
    rejects(path, [], "header line")


def test_load_instance_rejects_short_b_line(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[13] = " ".join(lines[13].split()[:-1])
    rejects(path, lines, "b has 11 entries")


def test_load_instance_rejects_support_value_length_mismatch(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[15] = " ".join(lines[15].split()[:-1])
    rejects(path, lines, "3 support positions but 2 values")


def test_load_instance_rejects_out_of_range_support(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[14] = " ".join(lines[14].split()[:-1] + ["40"])
    rejects(path, lines, "must lie in")


def test_load_instance_rejects_repeated_support(tmp_path):
    path, lines = saved_lines(tmp_path)
    support = lines[14].split()
    lines[14] = " ".join(support[:-1] + support[:1])
    rejects(path, lines, "repeat")


def test_load_instance_rejects_more_than_r_support_positions(tmp_path):
    path, lines = saved_lines(tmp_path)
    unused = next(str(i) for i in range(40) if str(i) not in lines[14].split())
    lines[14] += " " + unused
    lines[15] += " 1.0"
    rejects(path, lines, "caps them at r = 3")


@pytest.mark.parametrize("name, line", [("A", 5), ("b", 13), ("values", 15)])
def test_load_instance_rejects_non_finite_entries(tmp_path, name, line):
    path, lines = saved_lines(tmp_path)
    lines[line] = " ".join(["nan"] + lines[line].split()[1:])
    rejects(path, lines, f"{name} holds non-finite")
