"""Tests for instance generation, problem builders, and classification."""

import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import oracles
from prsplit.linalg import rng_from_seed
from prsplit.oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ProxShiftError,
    RankDeficientError,
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


# ------------------------------------------------------------ instance checks


def test_feasibility_instance_is_frozen():
    inst = tiny_instance()
    for name in ("A", "b", "r", "bound", "seed", "x_true"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, getattr(inst, name))


def test_feasibility_instance_equals_only_itself():
    # Field-wise == would compare arrays, whose truth value is ambiguous.
    inst = gen_feasibility(10, 40, 1)
    assert inst == inst and inst != gen_feasibility(10, 40, 1)
    assert len({inst, inst}) == 1


def test_feasibility_instance_rejects_a_rank_deficient_a():
    inst = tiny_instance()
    A = np.vstack([inst.A, inst.A[0]])
    message = r"^A \(3 x 4\) does not have full row rank: its rows are linearly dependent$"
    with pytest.raises(RankDeficientError, match=message):
        FeasibilityInstance(A=A, b=A @ inst.x_true, r=1, bound=1e6, seed=-1, x_true=inst.x_true)


@pytest.mark.parametrize(
    "x_true",
    [np.zeros(3), np.array([0.0, 0.0, np.nan, 0.0]), np.array([0.0, 0.0, np.inf, 0.0]), np.array([1.0, 0.0, 2.0, 0.0])],
    ids=["wrong length", "nan", "inf", "over the cap"],
)
def test_feasibility_instance_names_a_bad_x_true(x_true):
    A = tiny_instance().A
    with pytest.raises(ValueError, match=r"^x_true must hold n = 4 finite entries, at most r = 1 of them nonzero$"):
        FeasibilityInstance(A=A, b=np.zeros(2), r=1, bound=1e6, seed=-1, x_true=x_true)


def test_spd_factor_runs_once_per_instance(monkeypatch):
    shapes = []
    factor = oracles._factor_in_place  # AffineSet's factorization of its Gram
    monkeypatch.setattr(oracles, "_factor_in_place", lambda M: shapes.append(M.shape) or factor(M))
    inst = gen_feasibility(10, 40, 3)
    assert shapes == [(10, 10)]  # paid when the instance is drawn
    for build in (build_feasibility_pr, build_feasibility_dr):
        build(inst)
    evaluate_fval(inst.x_true, inst)
    assert shapes == [(10, 10)]


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


def test_gen_feasibility_rejects_a_non_integer_shape():
    with pytest.raises(ValueError, match=r"^m and n must be integers, got 10x40\.0$"):
        gen_feasibility(10, 40.0, 1)
    assert gen_feasibility(np.int64(10), np.int32(40), 1).A.shape == (10, 40)


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
    # LsInstance is the one check of the data; ShiftedQuadraticProx repeats none.
    for value in (np.nan, np.inf, -np.inf):
        data = {"A": np.eye(4, 3), "b": np.ones(4)}
        data[name][1] = value
        with pytest.raises(ValueError, match=f"^{name} holds NaN or infinite entries"):
            LsInstance(A=data["A"], b=data["b"], constraint=BoxSet(1.0))


def test_ls_instance_converts_array_likes():
    inst = LsInstance(A=[[1.0, 2.0]], b=[1.0], constraint=BoxSet(1.0))
    assert (inst.A.dtype, inst.A.shape, inst.b.dtype, inst.b.shape) == (np.float64, (1, 2), np.float64, (1,))
    assert build_constrained_ls(inst).dim == 2
    # A float64 array is kept as given, so problems built on it share one prox.
    A, b = np.eye(2), np.ones(2)
    same = LsInstance(A=A, b=b, constraint=BoxSet(1.0))
    assert same.A is A and same.b is b


def test_ls_instance_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"^b has shape \(3,\), expected \(4,\)$"):
        LsInstance(A=np.eye(4, 3), b=np.ones(3), constraint=BoxSet(1.0))


@pytest.mark.parametrize("constraint", ["box", None, 0.5])
def test_ls_instance_rejects_a_constraint_that_is_not_a_box_set(constraint):
    # It fails at construction, not as an AttributeError inside build_constrained_ls.
    message = f"constraint must be a SparseBoxSet or a BoxSet, got {constraint!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LsInstance(A=np.eye(2), b=np.ones(2), constraint=constraint)


def test_ls_instance_rejects_a_cap_above_n():
    with pytest.raises(ValueError, match=r"^cardinality cap r = 3 exceeds the dimension n = 2$"):
        LsInstance(A=np.eye(2), b=np.ones(2), constraint=SparseBoxSet(3))


def test_ls_instance_equals_only_itself():
    A, b = np.eye(2), np.ones(2)
    inst = LsInstance(A=A, b=b, constraint=BoxSet(1.0))
    assert inst == inst and inst != LsInstance(A=A, b=b, constraint=BoxSet(1.0))
    assert len({inst, inst}) == 1


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no rows", "no columns"])
def test_build_constrained_ls_rejects_empty_data(shape):
    # The instance that would carry the data to the build fails first.
    with pytest.raises(ValueError, match=rf"^A must be a nonempty 2-D array, got shape \({shape[0]}, {shape[1]}\)"):
        build_constrained_ls(LsInstance(A=np.ones(shape), b=np.ones(shape[0]), constraint=BoxSet(1.0)))


def test_build_constrained_ls_threshold():
    A = rng_from_seed(7).standard_normal((5, 12))
    inst = LsInstance(A=A, b=rng_from_seed(8).standard_normal(5), constraint=SparseBoxSet(r=2))
    problem = build_constrained_ls(inst)
    lam = np.linalg.eigvalsh(A.T @ A)[-1] * (1 + 1e-6)
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
    # After one prox call the problem holds A, b and one 300 x 300
    # eigenvector matrix; the 300 x 300 Gram matrix it was built from is
    # released. A second problem from the same arrays shares that matrix.
    m, n = 600, 300
    A = rng_from_seed(41).standard_normal((m, n))
    b = rng_from_seed(42).standard_normal(m)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem = build_constrained_ls(LsInstance(A=A, b=b, constraint=BoxSet(1.0)))
        gamma = 0.99 * gamma_threshold(problem.f.strong_convexity, problem.f.grad_lipschitz)
        problem.f.prox(gamma, np.zeros(n))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        second = build_constrained_ls(LsInstance(A=A, b=b, constraint=SparseBoxSet(r=20)))
        second.f.prox(gamma, np.zeros(n))
        gc.collect()
        retained_second = tracemalloc.get_traced_memory()[0] - before - retained
    finally:
        tracemalloc.stop()
    assert retained <= n * n * 8 + 32 * n * 8
    assert retained_second <= 32 * n * 8


def count_eighs(monkeypatch):
    """Record each np.linalg.eigh call from here on."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append("eigh") or eigh(M))
    return calls


def ls_data(m=6, n=15, seed=43):
    return rng_from_seed(seed).standard_normal((m, n)), rng_from_seed(seed + 1).standard_normal(m)


def test_build_constrained_ls_shares_prox_across_constraint_sets(monkeypatch):
    A, b = ls_data()
    calls = count_eighs(monkeypatch)
    box = build_constrained_ls(LsInstance(A=A, b=b, constraint=BoxSet(0.5)))
    cap = build_constrained_ls(LsInstance(A=A, b=b, constraint=SparseBoxSet(r=3)))
    assert calls == ["eigh"]
    assert cap.f.prox is box.f.prox


@pytest.mark.parametrize("other", ["A copy", "new b", "float32 A"])
def test_build_constrained_ls_does_not_share_prox_across_arrays(other, monkeypatch):
    # Equal copies are not shared, and neither is data the prox converts to
    # float64, even when both problems hold the same float32 array.
    A, b = ls_data()
    if other == "float32 A":
        A = A.astype(np.float32)
    A2, b2 = {"A copy": (A.copy(), b), "new b": (A, b + 1.0), "float32 A": (A, b)}[other]
    calls = count_eighs(monkeypatch)
    first = build_constrained_ls(LsInstance(A=A, b=b, constraint=BoxSet(0.5)))
    second = build_constrained_ls(LsInstance(A=A2, b=b2, constraint=BoxSet(0.5)))
    assert calls == ["eigh", "eigh"]
    assert second.f.prox is not first.f.prox


def test_build_constrained_ls_shared_prox_dies_with_its_problems():
    # With the cycle collector off: the prox is in no reference cycle, so its
    # eigenvectors go as soon as its last problem does.
    A, b = ls_data()
    box = build_constrained_ls(LsInstance(A=A, b=b, constraint=BoxSet(0.5)))
    cap = build_constrained_ls(LsInstance(A=A, b=b, constraint=SparseBoxSet(r=3)))
    prox = weakref.ref(box.f.prox)
    gc.disable()
    try:
        del box, cap
        assert prox() is None
    finally:
        gc.enable()


def test_build_constrained_ls_shared_prox_runs_bit_identical():
    A, b = ls_data()
    box = build_constrained_ls(LsInstance(A=A, b=b, constraint=BoxSet(0.5)))
    shared = build_constrained_ls(LsInstance(A=A, b=b, constraint=SparseBoxSet(r=3)))
    alone = build_constrained_ls(LsInstance(A=A.copy(), b=b.copy(), constraint=SparseBoxSet(r=3)))
    assert shared.f.prox is box.f.prox and alone.f.prox is not box.f.prox
    got = run(shared, SolverConfig(), np.zeros(15))
    expected = run(alone, SolverConfig(), np.zeros(15))
    assert got.reason == "converged"
    assert (got.iterations, got.reason) == (expected.iterations, expected.reason)
    np.testing.assert_array_equal(got.state.z, expected.state.z)
    np.testing.assert_array_equal(got.state.x, expected.state.x)


def test_build_constrained_ls_identity_design_stationary_at_zero():
    inst = LsInstance(A=np.eye(6), b=np.zeros(6), constraint=SparseBoxSet(r=1))
    problem = build_constrained_ls(inst)
    report = run(problem, SolverConfig(), np.zeros(6))
    assert report.reason == "converged"
    assert_allclose(report.state.z, np.zeros(6), atol=1e-12)


def test_build_constrained_ls_gprox_scaling():
    A = rng_from_seed(9).standard_normal((4, 9))
    dset = SparseBoxSet(r=3)
    inst = LsInstance(A=A, b=rng_from_seed(10).standard_normal(4), constraint=dset)
    problem = build_constrained_ls(inst)
    lam = problem.f.strong_convexity / 5.0
    gamma = 1.0 / (24.0 * lam)
    w = rng_from_seed(11).standard_normal(9)
    assert_allclose(problem.g.prox(gamma, w), dset.project(w / (1 - 5.0 / 24.0)))
    with pytest.raises(ProxShiftError):
        problem.g.prox(1.0 / (4.0 * lam), w)


def test_constrained_ls_matches_generic_shift_split():
    # Least squares is shift_split's f and g halves around its own f-prox, so
    # value, gradient and moduli match the generic split exactly, the proxes
    # to rounding.
    A = rng_from_seed(12).standard_normal((4, 10))
    b = rng_from_seed(13).standard_normal(4)
    inst = LsInstance(A=A, b=b, constraint=BoxSet(5.0))
    problem = build_constrained_ls(inst)
    lam = problem.f.prox.lam_max

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
    f_ref, g_ref = shift_split(F, G)
    assert problem.f.strong_convexity == f_ref.strong_convexity
    assert problem.f.grad_lipschitz == f_ref.grad_lipschitz
    rng = np.random.default_rng(14)
    gamma = 1.0 / (13.0 * lam)
    for _ in range(5):
        w = rng.standard_normal(10)
        assert problem.f.value(w) == f_ref.value(w)
        np.testing.assert_array_equal(problem.f.gradient(w), f_ref.gradient(w))
        assert_allclose(problem.f.prox(gamma, w), f_ref.prox(gamma, w), atol=1e-10)
        assert_allclose(problem.g.prox(gamma, w), g_ref.prox(gamma, w), atol=1e-10)


def planted_ls_data(m, n, seed):
    """Gaussian A and b = A x + 0.01 noise for a planted 5-sparse x, all from one seeded stream."""
    rng = rng_from_seed(seed)
    A = rng.standard_normal((m, n))
    x = np.zeros(n)
    x[rng.permutation(n)[:5]] = rng.standard_normal(5)
    return A, A @ x + 0.01 * rng.standard_normal(m)


LS_SETS = {"box": lambda: BoxSet(0.5), "cap": lambda: SparseBoxSet(r=5)}
# (m, n, seed, constraint, iterations, reason) of a default-config run from zero: tall data takes the
# smooth prox's direct route, wide data its Woodbury route.
LS_TABLE = (
    (60, 30, 2, "box", 982, "converged"),
    (60, 30, 2, "cap", 468, "converged"),
    (60, 30, 3, "box", 1220, "converged"),
    (60, 30, 3, "cap", 373, "converged"),
    (20, 100, 2, "box", 353, "converged"),
    (20, 100, 2, "cap", 1526, "converged"),
    (20, 100, 3, "box", 318, "converged"),
    (20, 100, 3, "cap", 1497, "converged"),
)


def test_ls_table_iterations_and_reasons_are_pinned():
    got = []
    for m, n, seed, name, _, _ in LS_TABLE:
        A, b = planted_ls_data(m, n, seed)
        report = run(build_constrained_ls(LsInstance(A, b, LS_SETS[name]())), SolverConfig(), np.zeros(n))
        got.append((m, n, seed, name, report.iterations, report.reason))
    assert tuple(got) == LS_TABLE


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
    # Seeds past 64 bits too: the file holds the seed's decimal string.
    path = tmp_path / "instance.npz"
    for m, n, seed in ((10, 40, 1), (500, 4000, 7), (12, 40, 2**64 - 1), (12, 40, 2**70)):
        inst = gen_feasibility(m, n, seed)
        save_instance(inst, path)
        loaded = load_instance(path)
        assert (loaded.r, loaded.seed, loaded.bound) == (inst.r, seed, inst.bound)
        assert (type(loaded.r), type(loaded.seed), type(loaded.bound)) == (int, int, float)
        for name in ("A", "b", "x_true"):
            assert getattr(loaded, name).tobytes() == getattr(inst, name).tobytes(), name


def test_save_instance_writes_exactly_the_path_given(tmp_path):
    save_instance(gen_feasibility(10, 40, 1), tmp_path / "x.txt")
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]
    assert load_instance(tmp_path / "x.txt").seed == 1


def _with_x_true_off(inst):
    x_true = inst.x_true.copy()
    x_true[np.flatnonzero(x_true)[0]] *= 1 + 1e-8
    return dataclasses.replace(inst, x_true=x_true)


@pytest.mark.parametrize(
    "make, match",
    [
        (tiny_instance, r"^seed must be a nonnegative decimal integer, got '-1'$"),
        (lambda: dataclasses.replace(tiny_instance(), seed=0), r"^m must be at least 5, got 2x4$"),
        (lambda: dataclasses.replace(gen_feasibility(10, 40, 1), seed=-1), r"got '-1'$"),
        (lambda: dataclasses.replace(gen_feasibility(10, 40, 1), seed=2.5), r"got '2\.5'$"),
        (lambda: dataclasses.replace(gen_feasibility(10, 40, 1), seed="abc"), r"got 'abc'$"),
        (lambda: _with_x_true_off(gen_feasibility(12, 40, 78)), r"^x_true does not solve A x = b: "),
        # The instance itself refuses the cap, so no such instance reaches the writer.
        (lambda: dataclasses.replace(gen_feasibility(10, 40, 1), r=41), r"^cardinality cap r = 41 exceeds the dimension n = 40$"),
    ],
    ids=["tiny", "2x4", "seed -1", "seed 2.5", "seed abc", "x_true off", "r above n"],
)
def test_save_instance_writes_nothing_load_instance_would_reject(make, match, tmp_path):
    path = tmp_path / "instance.npz"
    with pytest.raises(ValueError, match=match):
        save_instance(make(), path)
    assert list(tmp_path.iterdir()) == []


def saved_arrays(tmp_path, m=12):
    """Path and arrays of a saved m x 40 instance (r = 3 at m = 12)."""
    path = tmp_path / "instance.npz"
    save_instance(gen_feasibility(m, 40, 78), path)
    with np.load(path) as data:
        return path, dict(data)


def rejects(path, arrays, match, error=ValueError):
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    with pytest.raises(error, match=match):
        load_instance(path)


def not_an_instance_file(path):
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} is not an instance file: "):
        load_instance(path)


def test_load_instance_rejects_truncated_file(tmp_path):
    path, _ = saved_arrays(tmp_path)
    path.write_bytes(path.read_bytes()[:-100])
    not_an_instance_file(path)


def test_load_instance_rejects_empty_file(tmp_path):
    path = tmp_path / "instance.npz"
    path.write_bytes(b"")
    not_an_instance_file(path)


def old_text_lines(arrays):
    """The plain-text layout instance files had before .npz: a header line, A's rows, b, x_true."""
    m, n = arrays["A"].shape
    header = f"{m} {n} {arrays['r']} {arrays['seed']} {float(arrays['bound'])!r}"
    return [header] + [" ".join(repr(float(v)) for v in row) for row in (*arrays["A"], arrays["b"], arrays["x_true"])]


@pytest.mark.parametrize("kind", ["text", "support layout", "npy", "object array", "bad crc", "bad deflate stream"])
def test_load_instance_rejects_a_file_that_is_not_an_npz_of_plain_arrays(kind, tmp_path):
    path, arrays = saved_arrays(tmp_path)
    if kind in ("text", "support layout"):
        lines = old_text_lines(arrays)
        if kind == "support layout":  # the oldest: x_true as a line of support positions and a line of values
            support = np.flatnonzero(arrays["x_true"])
            lines[-1:] = [" ".join(map(str, support)), " ".join(repr(float(v)) for v in arrays["x_true"][support])]
        path.write_text("\n".join(lines) + "\n")
    elif kind == "npy":
        with open(path, "wb") as handle:
            np.save(handle, arrays["A"])
    elif kind == "object array":  # loading it would unpickle
        ragged = np.empty(2, dtype=object)
        ragged[:] = [arrays["A"][0], arrays["A"][1, :-1]]
        with open(path, "wb") as handle:
            np.savez(handle, **dict(arrays, A=ragged))
    else:  # one byte of A's stored or compressed data flipped
        if kind == "bad deflate stream":
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **arrays)
        data = bytearray(path.read_bytes())
        data[{"bad crc": 200, "bad deflate stream": 100}[kind]] ^= 0xFF
        path.write_bytes(bytes(data))
    not_an_instance_file(path)


@pytest.mark.parametrize(
    "change, got",
    [
        ("missing", "A, b, x_true, r, seed"),
        ("missing seed", "A, b, x_true, r, bound"),
        ("extra", "A, b, x_true, r, seed, bound, m"),
    ],
    ids=["missing", "missing seed", "extra"],
)
def test_load_instance_requires_exactly_the_instance_arrays(change, got, tmp_path):
    path, arrays = saved_arrays(tmp_path)
    if change == "extra":
        arrays["m"] = np.array(12)
    else:
        del arrays["seed" if change == "missing seed" else "bound"]
    message = f"{path} must hold exactly the arrays A, b, x_true, r, seed, bound, got {got}"
    rejects(path, arrays, f"^{re.escape(message)}$")


@pytest.mark.parametrize(
    "name, convert, match",
    [
        ("A", lambda A: A.astype(str), r"^A must be a 2-d float64 array, got 2-d <U"),
        ("A", lambda A: np.rint(A).astype(np.int64), r"^A must be a 2-d float64 array, got 2-d int64$"),
        ("A", np.ravel, r"^A must be a 2-d float64 array, got 1-d float64$"),
        ("b", lambda b: b.astype(np.float32), r"^b must be a 1-d float64 array, got 1-d float32$"),
        ("x_true", lambda x: x[None], r"^x_true must be a 1-d float64 array, got 2-d float64$"),
        ("r", lambda r: r.astype(float), r"^r must be a 0-d integer array, got 0-d float64$"),
        ("r", np.atleast_1d, r"^r must be a 0-d integer array, got 1-d int64$"),
        ("bound", lambda bound: bound.astype(np.int64), r"^bound must be a 0-d float64 array, got 0-d int64$"),
        ("seed", lambda seed: seed.astype(np.int64), r"^seed must be a 0-d str_ array, got 0-d int64$"),
    ],
    ids=[
        "string A", "integer A", "flat A", "float32 b", "2-d x_true",
        "float r", "array r", "integer bound", "integer seed",
    ],
)
def test_load_instance_names_an_array_of_the_wrong_dtype_or_dimension(name, convert, match, tmp_path):
    path, arrays = saved_arrays(tmp_path)
    arrays[name] = convert(arrays[name])
    rejects(path, arrays, match)


def test_load_instance_rejects_an_a_block_of_the_wrong_width(tmp_path):
    path, arrays = saved_arrays(tmp_path)
    arrays["A"] = arrays["A"][:, :-1]
    rejects(path, arrays, r"^A is 12 x 39, so b needs 12 entries and x_true 39; got 12 and 40$")


def test_load_instance_rejects_short_b_line(tmp_path):
    # One entry short, or one too long.
    path, arrays = saved_arrays(tmp_path)
    for b, size in ((arrays["b"][:-1], 11), (np.append(arrays["b"], 0.0), 13)):
        rejects(path, dict(arrays, b=b), rf"^A is 12 x 40, so b needs 12 entries and x_true 40; got {size} and 40$")


def test_load_instance_rejects_more_than_r_support_positions(tmp_path):
    path, arrays = saved_arrays(tmp_path)
    arrays["x_true"][np.flatnonzero(arrays["x_true"] == 0.0)[0]] = 1.0
    rejects(path, arrays, r"^x_true must hold n = 40 finite entries, at most r = 3 of them nonzero$")


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("bound", np.nan, "bound must be positive"),
        ("bound", -1.0, "bound must be positive"),
        ("bound", 0.0, "bound must be positive"),
        ("r", 0, "cardinality cap r must be an integer of at least 1, got 0"),
        ("r", 41, r"^cardinality cap r = 41 exceeds the dimension n = 40$"),
        ("seed", "1.5", r"^seed must be a nonnegative decimal integer, got '1\.5'$"),
        ("seed", "-1", r"^seed must be a nonnegative decimal integer, got '-1'$"),
        ("bound", "1e6x", r"^bound must be a 0-d float64 array, got 0-d <U4$"),
    ],
    ids=["nan bound", "negative bound", "zero bound", "zero r", "r above n", "float seed", "negative seed", "non-number bound"],
)
def test_load_instance_rejects_a_bad_header_r_or_bound(tmp_path, field, value, match):
    # r, seed and bound: the scalars that the text layout kept in its header line.
    path, arrays = saved_arrays(tmp_path)
    arrays[field] = np.asarray(value)
    rejects(path, arrays, match)


def test_load_instance_rejects_a_shape_gen_feasibility_refuses(tmp_path):
    # A consistent 1 x 3 instance: every array fits, yet m < 5.
    arrays = dict(A=np.array([[1.0, 2.0, 3.0]]), b=np.ones(1), x_true=np.array([1.0, 0.0, 0.0]))
    arrays.update(r=np.array(1), seed=np.array("0"), bound=np.array(1.0))
    rejects(tmp_path / "instance.npz", arrays, r"^m must be at least 5, got 1x3$")


def test_load_instance_rejects_an_x_true_that_does_not_solve_a_x_b(tmp_path):
    path, arrays = saved_arrays(tmp_path)
    arrays["x_true"][np.flatnonzero(arrays["x_true"])[0]] *= 1 + 1e-8
    rejects(path, arrays, r"^x_true does not solve A x = b: \|A x_true - b\| = ")


def test_load_instance_accepts_b_off_by_rounding(tmp_path):
    path, arrays = saved_arrays(tmp_path)
    arrays["b"][0] = np.nextafter(arrays["b"][0], np.inf)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    assert load_instance(path).b[0] == arrays["b"][0]


@pytest.mark.parametrize("name, index", [("A", 5), ("b", 13), ("x_true", 14)])
def test_load_instance_rejects_non_finite_entries(tmp_path, name, index):
    # The instance checks its data, so A's rows count from 0 as AffineSet's do.
    path, arrays = saved_arrays(tmp_path, m=20)
    arrays[name][index] = np.nan
    match = {
        "A": r"^A holds NaN or infinite entries, first in row 5$",
        "b": r"^b holds NaN or infinite entries$",
        "x_true": r"^x_true must hold n = 40 finite entries, at most r = 4 of them nonzero$",
    }[name]
    rejects(path, arrays, match)


def test_load_instance_rejects_a_rank_deficient_a(tmp_path):
    # A row 1 repeats row 0 and b entry 1 repeats entry 0, so A x_true = b still holds.
    path, arrays = saved_arrays(tmp_path)
    arrays["A"][1], arrays["b"][1] = arrays["A"][0], arrays["b"][0]
    message = r"^A \(12 x 40\) does not have full row rank: its rows are linearly dependent$"
    rejects(path, arrays, message, error=RankDeficientError)
