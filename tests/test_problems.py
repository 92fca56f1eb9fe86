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
)
from prsplit.splitting import SolverConfig, dr_step, gamma_threshold, initial_state, pr_step, run

from helpers import count_solver_calls, kkt_projection


def tiny_instance():
    """Hand-checkable 2 x 4 instance with a single planted nonzero."""
    A = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 1.0]])
    x_true = np.array([0.0, 0.0, 2.0, 0.0])
    return FeasibilityInstance(A=A, b=A @ x_true, r=1, bound=1e6, x_true=x_true)


# ------------------------------------------------------------ instance checks


def test_feasibility_instance_is_frozen():
    inst = tiny_instance()
    for name in ("A", "b", "r", "bound", "x_true"):
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
        FeasibilityInstance(A=A, b=A @ inst.x_true, r=1, bound=1e6, x_true=inst.x_true)


@pytest.mark.parametrize(
    "x_true",
    [
        np.zeros(3),
        np.array([0.0, 0.0, np.nan, 0.0]),
        np.array([0.0, 0.0, np.inf, 0.0]),
        np.array([1.0, 0.0, 2.0, 0.0]),
        np.array([[0.0, 0.0, 2.0, 0.0]]),
    ],
    ids=["wrong length", "nan", "inf", "over the cap", "2-d"],
)
def test_feasibility_instance_names_a_bad_x_true(x_true):
    A = tiny_instance().A
    with pytest.raises(ValueError, match=r"^x_true must hold n = 4 finite entries, at most r = 1 of them nonzero$"):
        FeasibilityInstance(A=A, b=np.zeros(2), r=1, bound=1e6, x_true=x_true)


def test_feasibility_instance_rejects_a_cap_above_n():
    inst = tiny_instance()
    with pytest.raises(ValueError, match=r"^cardinality cap r = 5 exceeds the dimension n = 4$"):
        FeasibilityInstance(A=inst.A, b=inst.b, r=5, bound=1e6, x_true=inst.x_true)


@pytest.mark.parametrize("name", ["A", "b", "x_true"])
@pytest.mark.parametrize("convert", [lambda a: a.tolist(), lambda a: a.astype(np.int64)], ids=["list", "integer"])
def test_feasibility_instance_converts_array_likes_to_float(name, convert):
    # The tiny instance's entries are all integers, so either conversion keeps their values.
    fields = {k: getattr(tiny_instance(), k) for k in ("A", "b", "r", "bound", "x_true")}
    inst = FeasibilityInstance(**dict(fields, **{name: convert(fields[name])}))
    value = getattr(inst, name)
    assert isinstance(value, np.ndarray) and value.dtype == np.float64
    assert np.array_equal(value, fields[name])


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


@pytest.mark.parametrize(
    "m, n, seed",
    [(10, 40, 1), (500, 4000, 7), (12, 40, 2**63 - 1), (12, 40, 2**64 - 1), (12, 40, 2**70)],
    ids=["10x40", "500x4000", "seed 2**63-1", "seed 2**64-1", "seed 2**70"],
)
def test_gen_feasibility_rebuilds_an_instance_bit_for_bit(m, n, seed):
    # The seed is the instance: drawing it again is how a run is reproduced, past 64 bits too.
    first, second = gen_feasibility(m, n, seed), gen_feasibility(m, n, seed)
    assert (second.r, second.bound) == (-(-m // 5), SparseBoxSet.bound)
    assert type(second.r) is int
    for name in ("A", "b", "x_true"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


@pytest.mark.parametrize("m, n, seed", [(10, 40, 1), (23, 60, 2**70)])
def test_gen_feasibility_draws_in_its_documented_order(m, n, seed):
    # A row-major, then the r support values, then the support positions by a seeded shuffle.
    rng, r = rng_from_seed(seed), -(-m // 5)
    A, values, support = rng.standard_normal((m, n)), rng.standard_normal(r), rng.permutation(n)[:r]
    inst = gen_feasibility(m, n, seed)
    assert inst.A.tobytes() == A.tobytes()
    assert np.array_equal(np.flatnonzero(inst.x_true), np.sort(support))
    assert inst.x_true[support].tobytes() == values.tobytes()
    assert inst.b.tobytes() == (A @ inst.x_true).tobytes()


@pytest.mark.parametrize(
    "m, n, message",
    [
        (4, 100, "m must be at least 5, got 4x100"),
        (0, 0, "m must be at least 5, got 0x0"),
        (-5, 10, "m must be at least 5, got -5x10"),
        (50, 40, "need n >= m, got 50x40"),
        (6, 5, "need n >= m, got 6x5"),
        ("10", 40, "m and n must be integers, got '10'x40"),
        (True, 40, "m and n must be integers, got Truex40"),
        (10.0, 40, "m and n must be integers, got 10.0x40"),
    ],
    ids=["m 4", "empty", "negative m", "n below m", "n one below m", "string m", "bool m", "float m"],
)
def test_gen_feasibility_names_the_shape_it_refuses(m, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen_feasibility(m, n, 0)


@pytest.mark.parametrize("m, n", [(5, 5), (5, 6), (6, 6)])
def test_gen_feasibility_plants_the_smallest_shapes(m, n):
    inst = gen_feasibility(m, n, 3)
    assert inst.A.shape == (m, n) and inst.r == -(-m // 5)
    assert 0 < np.count_nonzero(inst.x_true) <= inst.r
    assert evaluate_fval(inst.x_true, inst) <= 1e-24


def test_gen_feasibility_seeds_differ():
    assert not np.array_equal(gen_feasibility(20, 60, 5).A, gen_feasibility(20, 60, 6).A)


def test_gen_feasibility_planted_point_is_feasible_and_sparse():
    for seed in range(5):
        inst = gen_feasibility(25, 80, seed)
        assert np.linalg.norm(inst.A @ inst.x_true - inst.b) <= 1e-9 * (1 + np.linalg.norm(inst.b))
        assert np.count_nonzero(inst.x_true) <= inst.r
        assert evaluate_fval(inst.x_true, inst) <= 1e-18


def test_gen_feasibility_rejects_a_non_integer_shape():
    with pytest.raises(ValueError, match=r"^m and n must be integers, got 10x40\.0$"):
        gen_feasibility(10, 40.0, 1)
    assert gen_feasibility(np.int64(10), np.int32(40), 1).A.shape == (10, 40)


# ----------------------------------------------------------- feasibility split


def test_build_feasibility_pr_gprox_at_zero():
    problem = build_feasibility_pr(tiny_instance())
    assert_allclose(problem.g.prox(0.05, np.zeros(4)), np.zeros(4), atol=0)


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


# 0.19 is the bench's PR start step, just below 1/5, where the g-prox stops being well-posed.
SHIFT_SPLIT_STEPS = (0.01, 0.05, 0.08, 0.02, 1.0 / 13.0, 0.19)


@pytest.mark.parametrize("case", range(len(SHIFT_SPLIT_STEPS)), ids=[f"gamma={g:.4g}" for g in SHIFT_SPLIT_STEPS])
def test_feasibility_pr_matches_generic_shift_split(case):
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

    gamma = SHIFT_SPLIT_STEPS[case]
    w = np.random.default_rng(4).standard_normal((case + 1, 15))[case]  # each step has its own draw of one stream
    system = row_pinv @ A + (5.0 + 1.0 / gamma) * np.eye(15)
    f_ref_prox = np.linalg.solve(system, w / gamma + row_pinv @ b)
    assert_allclose(problem.f.prox(gamma, w), f_ref_prox, atol=1e-10)
    assert_allclose(problem.g.prox(gamma, w), dset.project(w / (1 - 5 * gamma)), rtol=1e-12)
    assert_allclose(problem.f.value(w), f_ref_value(w), atol=1e-10)
    z = problem.g.prox(gamma, w)
    assert_allclose(problem.g.value(z), dset.indicator(z) - 2.5 * float(z @ z), atol=1e-10)


# ------------------------------------------------------- constrained least sq.


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["A", "b"])
def test_ls_instance_names_non_finite_data(name, value):
    # LsInstance is the one check of the data; ShiftedQuadraticProx repeats none.
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


def ls_data(m=6, n=15, seed=43):
    return rng_from_seed(seed).standard_normal((m, n)), rng_from_seed(seed + 1).standard_normal(m)


def test_build_constrained_ls_shares_prox_across_constraint_sets(monkeypatch):
    A, b = ls_data()
    calls = count_solver_calls(monkeypatch)
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
    calls = count_solver_calls(monkeypatch)
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
        nearest = kkt_projection(inst.A, inst.b, z)
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
