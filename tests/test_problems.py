"""Tests for instance generation, problem builders, and classification."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import oracles
from prsplit.linalg import rng_from_seed, spectral_norm_sq
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
    factor = oracles.spd_factor
    monkeypatch.setattr(oracles, "spd_factor", lambda M: shapes.append(M.shape) or factor(M))
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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no rows", "no columns"])
def test_build_constrained_ls_rejects_empty_data(shape):
    # The instance that would carry the data to the build fails first.
    with pytest.raises(ValueError, match=rf"^A has shape \({shape[0]}, {shape[1]}\)"):
        build_constrained_ls(LsInstance(A=np.ones(shape), b=np.ones(shape[0]), constraint=BoxSet(1.0)))


def test_build_constrained_ls_threshold():
    A = rng_from_seed(7).standard_normal((5, 12))
    inst = LsInstance(A=A, b=rng_from_seed(8).standard_normal(5), constraint=SparseBoxSet(r=2))
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
    A, b = ls_data()
    box = build_constrained_ls(LsInstance(A=A, b=b, constraint=BoxSet(0.5)))
    cap = build_constrained_ls(LsInstance(A=A, b=b, constraint=SparseBoxSet(r=3)))
    prox = weakref.ref(box.f.prox)
    del box, cap
    gc.collect()
    assert prox() is None


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
    assert (loaded.m, loaded.n, loaded.r, loaded.bound, loaded.seed) == (inst.m, inst.n, inst.r, inst.bound, inst.seed)
    for name in ("A", "b", "x_true"):
        assert getattr(loaded, name).tobytes() == getattr(inst, name).tobytes(), name


def test_load_instance_rejects_truncated_file(tmp_path):
    inst = gen_feasibility(12, 40, 78)
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_instance(path)


def saved_lines(tmp_path):
    """Lines of a saved 12 x 40 instance (r = 3): header, A rows 1-12, b, x_true."""
    path = tmp_path / "instance.txt"
    save_instance(gen_feasibility(12, 40, 78), path)
    return path, path.read_text().splitlines()


def rejects(path, lines, match):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match):
        load_instance(path)


def test_ls_instance_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="^A must be m x n with b of length m$"):
        LsInstance(A=np.eye(4, 3), b=np.ones(3), constraint=BoxSet(1.0))


def test_load_instance_rejects_an_a_block_of_the_wrong_width(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[1:13] = [" ".join(row.split()[:-1]) for row in lines[1:13]]
    rejects(path, lines, r"^A row 1 has 39 entries, header says n = 40$")


def test_load_instance_names_one_short_a_row(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[4] = " ".join(lines[4].split()[:-1])
    rejects(path, lines, r"^A row 4 has 39 entries, header says n = 40$")


def test_load_instance_rejects_empty_file(tmp_path):
    path = tmp_path / "instance.txt"
    rejects(path, [], "header line")


def test_load_instance_rejects_short_b_line(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[13] = " ".join(lines[13].split()[:-1])
    rejects(path, lines, "b has 11 entries")


def test_load_instance_rejects_more_than_r_support_positions(tmp_path):
    path, lines = saved_lines(tmp_path)
    x_true = lines[14].split()
    x_true[x_true.index("0.0")] = "1.0"
    lines[14] = " ".join(x_true)
    rejects(path, lines, r"^x_true must hold n = 40 finite entries, at most r = 3 of them nonzero$")


def test_load_instance_rejects_a_file_in_the_support_layout(tmp_path):
    # Before x_true was written densely, its support positions and its
    # values there took one line each.
    path, lines = saved_lines(tmp_path)
    x_true = lines[14].split()
    support = [i for i, tok in enumerate(x_true) if float(tok) != 0.0]
    lines[14:] = [" ".join(map(str, support)), " ".join(x_true[i] for i in support)]
    rejects(path, lines, r"^expected 15 lines for an 12 x 40 instance, got 16$")


@pytest.mark.parametrize(
    "field, token, match",
    [
        (4, "nan", "bound must be positive"),
        (4, "-1.0", "bound must be positive"),
        (4, "0", "bound must be positive"),
        (2, "0", "cardinality cap r must be an integer of at least 1, got 0"),
        (0, "5e1", r"^header field m must be an integer, got '5e1'$"),
        (3, "1.5", r"^header field seed must be an integer, got '1.5'$"),
        (4, "1e6x", r"^header field bound must be a number, got '1e6x'$"),
    ],
    ids=["nan bound", "negative bound", "zero bound", "zero r", "float m", "float seed", "non-number bound"],
)
def test_load_instance_rejects_a_bad_header_r_or_bound(tmp_path, field, token, match):
    path, lines = saved_lines(tmp_path)
    header = lines[0].split()
    header[field] = token
    lines[0] = " ".join(header)
    rejects(path, lines, match)


def test_load_instance_rejects_a_shape_gen_feasibility_refuses(tmp_path):
    # A consistent 1 x 3 file: every line has its length, yet m < 5.
    rejects(tmp_path / "instance.txt", ["1 3 1 0 1.0", "1 2 3", "1", "0 0 0"], r"^m must be at least 5, got 1x3$")


def test_load_instance_rejects_an_x_true_that_does_not_solve_a_x_b(tmp_path):
    path, lines = saved_lines(tmp_path)
    x_true = lines[14].split()
    i = next(k for k, tok in enumerate(x_true) if float(tok) != 0.0)
    x_true[i] = repr(float(x_true[i]) * (1 + 1e-8))
    lines[14] = " ".join(x_true)
    rejects(path, lines, r"^x_true does not solve A x = b: \|A x_true - b\| = ")


def test_load_instance_accepts_b_off_by_rounding(tmp_path):
    path, lines = saved_lines(tmp_path)
    b = [float(tok) for tok in lines[13].split()]
    b[0] = float(np.nextafter(b[0], np.inf))
    lines[13] = " ".join(repr(v) for v in b)
    path.write_text("\n".join(lines) + "\n")
    assert load_instance(path).b[0] == b[0]


@pytest.mark.parametrize(
    "line, match",
    [
        (5, r"^A holds NaN or infinite entries, first in row 4$"),
        (13, r"^b holds NaN or infinite entries$"),
        (14, r"^x_true must hold n = 40 finite entries, at most r = 3 of them nonzero$"),
    ],
    ids=["A-5", "b-13", "x_true-14"],
)
def test_load_instance_rejects_non_finite_entries(tmp_path, line, match):
    # The instance checks its data, so A's rows count from 0 as AffineSet's do.
    path, lines = saved_lines(tmp_path)
    lines[line] = " ".join(["nan"] + lines[line].split()[1:])
    rejects(path, lines, match)


@pytest.mark.parametrize("name, line", [("A row 2", 2), ("b", 13), ("x_true", 14)])
def test_load_instance_names_a_token_that_is_not_a_number(tmp_path, name, line):
    path, lines = saved_lines(tmp_path)
    lines[line] = " ".join(["0.1.2"] + lines[line].split()[1:])
    rejects(path, lines, f"^{name} holds '0.1.2', which is not a number$")


def test_load_instance_rejects_a_rank_deficient_a(tmp_path):
    # A row 2 repeats row 1 and b entry 2 repeats entry 1, so A x_true = b still holds.
    path, lines = saved_lines(tmp_path)
    lines[2] = lines[1]
    b = lines[13].split()
    lines[13] = " ".join([b[0], b[0]] + b[2:])
    path.write_text("\n".join(lines) + "\n")
    message = r"^A \(12 x 40\) does not have full row rank: its rows are linearly dependent$"
    with pytest.raises(RankDeficientError, match=message):
        load_instance(path)
