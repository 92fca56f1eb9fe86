"""Tests for the prox/projection toolkit, each against an independent oracle."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import oracles
from prsplit.linalg import _INVERSE_LEAF, rng_from_seed, spd_factor, spectral_norm_sq
from prsplit.oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ProxShiftError,
    RankDeficientError,
    ShiftedQuadraticProx,
    SmoothOracle,
    SparseBoxSet,
    quadratic_oracle,
    shift_split,
)
from prsplit.problems import (
    FeasibilityInstance,
    LsInstance,
    build_constrained_ls,
    build_feasibility_pr,
    distance_feasibility_problem,
    evaluate_fval,
)
from prsplit.splitting import gamma_threshold


def kkt_projection(A, b, w):
    """Oracle: nearest point on {x: Ax=b} via the full (n+m) KKT system."""
    m, n = A.shape
    system = np.block([[np.eye(n), A.T], [A, np.zeros((m, m))]])
    return np.linalg.solve(system, np.concatenate([w, b]))[:n]


def shifted_halfsqdist_prox_reference(A, b, gamma, w):
    """Oracle: prox of dist(., C)^2 / 2 + (5/2)|.|^2 at step gamma, C = {x : Ax = b},
    from a dense solve of its optimality system
    (A^T (A A^T)^-1 A + 5 I + I / gamma) y = w / gamma + A^T (A A^T)^-1 b."""
    row_pinv = A.T @ np.linalg.inv(A @ A.T)
    system = row_pinv @ A + (5.0 + 1.0 / gamma) * np.eye(A.shape[1])
    return np.linalg.solve(system, w / gamma + row_pinv @ b)


def pr_feasibility_f_prox(A, b):
    """The smooth prox of the PR feasibility problem for C = {x : Ax = b}."""
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    inst = FeasibilityInstance(A=A, b=b, r=A.shape[1], bound=1e6, seed=0, x_true=x)
    return build_feasibility_pr(inst).f.prox


def sparse_box_best_distance(w, r, bound):
    """Oracle: best keep-r-then-clip distance over all supports, enumerated."""
    best = np.inf
    for support in itertools.combinations(range(len(w)), r):
        z = np.zeros_like(w)
        z[list(support)] = np.clip(w[list(support)], -bound, bound)
        best = min(best, float(np.linalg.norm(z - w)))
    return best


# ---------------------------------------------------------------- projections


def test_project_affine_line():
    cset = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert_allclose(cset.project(np.zeros(2)), [1.0, 0.0], atol=1e-14)
    # Rows of squared norm 1.44e308: the Gram's trace overflows, but the pivot floor stays finite.
    cset = AffineSet(1.2e154 * np.eye(2), np.array([1.2e154, 0.0]))
    assert_allclose(cset.project(np.zeros(2)), [1.0, 0.0], atol=1e-14)


def test_project_affine_fixes_feasible_points():
    A = rng_from_seed(0).standard_normal((3, 6))
    x_feasible = rng_from_seed(1).standard_normal(6)
    cset = AffineSet(A, A @ x_feasible)
    assert_allclose(cset.project(x_feasible), x_feasible, atol=1e-12)


def test_project_affine_matches_kkt_oracle():
    for seed in range(8):
        A = rng_from_seed(seed).standard_normal((3, 6))
        b = rng_from_seed(seed + 50).standard_normal(3)
        w = rng_from_seed(seed + 100).standard_normal(6)
        cset = AffineSet(A, b)
        assert_allclose(cset.project(w), kkt_projection(A, b, w), atol=1e-8)


def test_project_affine_output_is_feasible_and_orthogonal():
    A = rng_from_seed(2).standard_normal((4, 10))
    b = rng_from_seed(3).standard_normal(4)
    cset = AffineSet(A, b)
    w = rng_from_seed(4).standard_normal(10)
    p = cset.project(w)
    assert np.linalg.norm(A @ p - b) <= 1e-9 * (1.0 + np.linalg.norm(b))
    # w - p lies in the row space of A: projecting it onto the nullspace gives 0.
    nullspace_part = (w - p) - A.T @ np.linalg.solve(A @ A.T, A @ (w - p))
    assert np.linalg.norm(nullspace_part) <= 1e-9 * (1.0 + np.linalg.norm(w - p))


def test_project_affine_idempotent():
    A = rng_from_seed(5).standard_normal((3, 7))
    b = rng_from_seed(6).standard_normal(3)
    cset = AffineSet(A, b)
    w = rng_from_seed(7).standard_normal(7)
    once = cset.project(w)
    assert np.linalg.norm(cset.project(once) - once) <= 1e-10 * (1 + np.linalg.norm(once))


def test_project_affine_nonexpansive():
    A = rng_from_seed(8).standard_normal((3, 8))
    b = rng_from_seed(9).standard_normal(3)
    cset = AffineSet(A, b)
    rng = np.random.default_rng(10)
    for _ in range(20):
        u, v = rng.standard_normal((2, 8))
        gap = np.linalg.norm(cset.project(u) - cset.project(v))
        assert gap <= np.linalg.norm(u - v) * (1 + 1e-12)


def test_project_affine_rank_deficient_surfaces_factorization_error():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficientError, match="2 x 2.*linearly dependent"):
        AffineSet(A, np.array([1.0, 1.0]))


def test_affine_set_with_infinite_entry_is_not_called_rank_deficient():
    A = np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^A holds NaN or infinite entries, first in row 1") as info:
            AffineSet(A, np.array([1.0, 1.0]))
    assert not isinstance(info.value, RankDeficientError)


def test_affine_set_names_the_row_of_a_nan_or_an_overflowing_norm():
    cases = [
        (np.array([[1.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]]), "NaN or infinite entries, first in row 1"),
        (np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 0.0]]), "row 2 is too large"),
    ]
    for A, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^A .*{message}"):
                AffineSet(A, np.ones(3))


@pytest.mark.parametrize(
    "scale, rows, message",
    [
        (1e-155, {}, "A row 0 is too small: its squared norm underflows"),
        (1e-160, {}, "A row 0 is too small: its squared norm underflows"),
        (1e-200, {}, "A row 0 is too small: its squared norm underflows"),
        (1.0, {1: 1e-160}, "A row 1 is too small: its squared norm underflows"),
        (1e-200, {0: 0.0}, "A row 1 is too small: its squared norm underflows"),
        (1.0, {1: 0.0}, r"A \(2 x 5\) does not have full row rank"),
    ],
    ids=["1e-155", "1e-160", "1e-200", "one tiny row", "zero row before a tiny one", "zero row"],
)
def test_affine_set_names_a_row_whose_squared_norm_underflows(scale, rows, message):
    # Below the normal floats the factor loses its precision, and the projection
    # overflows (s = 1e-155, 1e-160) or the factor breaks down (1e-200). An
    # all-zero row stays rank deficiency.
    A = scale * rng_from_seed(60).standard_normal((2, 5))
    for i, value in rows.items():
        A[i] = value
    with pytest.raises(ValueError, match=f"^{message}") as info:
        AffineSet(A, np.ones(2))
    assert isinstance(info.value, RankDeficientError) == ("full row rank" in message)


def test_affine_set_projects_exactly_down_to_rows_of_normal_squared_norm():
    G = rng_from_seed(60).standard_normal((2, 5))
    edge = np.sqrt(np.finfo(float).tiny / np.min(np.sum(G**2, axis=1)))
    A = 1.01 * edge * G
    x = AffineSet(A, np.ones(2)).project(np.zeros(5))
    assert_allclose(A @ x, np.ones(2), rtol=1e-14)
    assert_allclose(x, kkt_projection(G, np.ones(2) / (1.01 * edge), np.zeros(5)), rtol=1e-13)
    with pytest.raises(ValueError, match="too small"):
        AffineSet(0.99 * edge * G, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_affine_set_rejects_non_finite_b_at_construction(bad):
    with pytest.raises(ValueError, match="^b holds NaN or infinite entries"):
        AffineSet(np.eye(2, 3), np.array([bad, 1.0]))


def test_affine_set_rejects_an_a_with_no_rows():
    with pytest.raises(ValueError, match="^A has no rows"):
        AffineSet(np.ones((0, 3)), np.ones(0))


def test_affine_set_factors_its_gram_in_place():
    # The Gram matrix A A^T becomes the kept L^{-1}, so construction peaks at
    # about 1.35 m^2 doubles beyond A: that one m x m array plus an
    # (m/2) x (m/2) block product. Factoring a copy of the Gram would peak
    # at about 2.25 m^2. An untraced first call keeps one-off allocations out.
    m = 400
    A = rng_from_seed(17).standard_normal((m, 2 * m))
    b = np.zeros(m)
    AffineSet(A, b)
    tracemalloc.start()
    try:
        AffineSet(A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * m * 8
    # The set factors its Gram unscanned, bit for bit as the checked spd_factor does, across the
    # leaf edges of the blocked inverse; the factor never reads the Gram's upper triangle.
    for m in (5, _INVERSE_LEAF, _INVERSE_LEAF + 1, 131):
        A = rng_from_seed(m).standard_normal((m, 3 * m))
        expected = spd_factor(A @ A.T).inv_lower
        assert AffineSet(A, np.zeros(m)).gram_factor.inv_lower.tobytes() == expected.tobytes()
        gram = A @ A.T
        gram[np.triu_indices(m, 1)] = np.nan
        assert oracles._factor_in_place(gram).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "make, projected",
    [(lambda bound: SparseBoxSet(2, bound), [3.0, 0.0, 2.0]), (BoxSet, [3.0, -1.0, 2.0])],
    ids=["sparse box", "box"],
)
def test_box_sets_reject_a_nan_bound_and_accept_inf(make, projected):
    with pytest.raises(ValueError, match="^bound must be positive$"):
        make(float("nan"))
    assert make(float("inf")).project(np.array([3.0, -1.0, 2.0])).tolist() == projected


def test_sparse_box_set_accepts_a_numpy_integer_cap():
    assert SparseBoxSet(np.int64(2)).project(np.array([3.0, -1.0, 2.0])).tolist() == [3.0, 0.0, 2.0]


def test_project_sparse_box_two_largest():
    dset = SparseBoxSet(r=2)
    assert_allclose(dset.project(np.array([3.0, -1.0, 2.0])), [3.0, 0.0, 2.0])


def test_project_sparse_box_tie_lowest_index():
    dset = SparseBoxSet(r=1)
    assert_allclose(dset.project(np.array([5.0, 5.0])), [5.0, 0.0])


def test_project_sparse_box_matches_enumeration():
    rng = np.random.default_rng(11)
    dset = SparseBoxSet(r=3)
    for _ in range(20):
        w = rng.standard_normal(8)
        projected = dset.project(w)
        assert_allclose(
            np.linalg.norm(projected - w),
            sparse_box_best_distance(w, 3, dset.bound),
            atol=1e-12,
        )


def reference_sparse_box(dset, w):
    """Oracle: stable argsort on -|w| (lowest index first among ties, NaN last)."""
    keep = np.argsort(-np.abs(w), kind="stable")[: dset.r]
    out = np.zeros_like(w)
    out[keep] = np.clip(w[keep], -dset.bound, dset.bound)
    return out


def sparse_box_inputs(seed):
    """Random points of several kinds: continuous, tied, infinite, NaN."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    yield rng.standard_normal(n)
    yield rng.integers(-2, 3, n).astype(float)  # magnitudes 0, 1, 2 tie often
    for specials in ([np.inf, -np.inf], [np.nan], [np.nan, np.inf, -np.inf]):
        w = rng.integers(-2, 3, n).astype(float)
        hit = rng.random(n) < 0.3
        w[hit] = rng.choice(specials, int(hit.sum()))
        yield w


@pytest.mark.parametrize("seed", range(40))
def test_project_sparse_box_partition_matches_stable_argsort(seed):
    for w in sparse_box_inputs(seed):
        for r in sorted({1, (w.shape[0] + 1) // 2, w.shape[0]}):
            for bound in (1.5, 1e6):
                dset = SparseBoxSet(r, bound)
                np.testing.assert_array_equal(dset.project(w), reference_sparse_box(dset, w))


def test_project_sparse_box_clips_to_bound():
    dset = SparseBoxSet(r=2, bound=1.5)
    out = dset.project(np.array([4.0, -3.0, 0.5]))
    assert_allclose(out, [1.5, -1.5, 0.0])
    assert dset.indicator(out) == 0.0


def test_project_sparse_box_idempotent():
    rng = np.random.default_rng(12)
    dset = SparseBoxSet(r=3)
    w = rng.standard_normal(9)
    once = dset.project(w)
    assert_allclose(dset.project(once), once, atol=1e-10)


def test_project_box_is_clip():
    bset = BoxSet(2.0)
    assert_allclose(bset.project(np.array([3.0, -5.0, 1.0])), [2.0, -2.0, 1.0])
    assert bset.indicator(np.array([2.0, 0.0])) == 0.0
    assert bset.indicator(np.array([2.1, 0.0])) == np.inf


def test_set_indicators_keep_their_tolerances_and_reject_nan():
    dset, bset = SparseBoxSet(r=2, bound=1.5), BoxSet(2.0)
    assert dset.indicator(np.array([1.5 * (1.0 + 1e-12), 0.0, 0.0])) == 0.0
    assert dset.indicator(np.array([1.5 * (1.0 + 1e-11), 0.0, 0.0])) == np.inf
    assert dset.indicator(np.array([1.0, 1.0, 1.0])) == np.inf  # three nonzeros, cap 2
    assert bset.indicator(np.array([2.0 * (1.0 + 1e-9), 0.0])) == 0.0
    assert bset.indicator(np.array([2.0 * (1.0 + 1e-8), 0.0])) == np.inf
    for z in (np.array([np.nan, 0.0, 0.0]), np.array([np.nan, 0.0])):
        assert dset.indicator(z) == np.inf and bset.indicator(z) == np.inf


# ---------------------------------------------------------------------- proxes


def test_prox_shifted_quadratic_identity_design():
    # A = I, b = 0 collapses the solve to w / (1 + 5 gamma lam + gamma).
    w = np.array([1.0, -2.0, 0.5])
    prox = ShiftedQuadraticProx(np.eye(3), np.zeros(3))
    for gamma in (0.05, 1.0 / 24.0):
        out = prox(gamma, w)
        assert_allclose(out, w / (1.0 + 5.0 * gamma * prox.lam_max + gamma), rtol=1e-12)


def test_prox_shifted_quadratic_zero_fixed_point():
    A = rng_from_seed(13).standard_normal((4, 6))
    out = ShiftedQuadraticProx(A, np.zeros(4))(0.01, np.zeros(6))
    assert_allclose(out, np.zeros(6), atol=1e-14)


def test_prox_shifted_quadratic_first_order_condition():
    for seed in range(5):
        A = rng_from_seed(seed + 20).standard_normal((4, 6))
        b = rng_from_seed(seed + 40).standard_normal(4)
        w = rng_from_seed(seed + 60).standard_normal(6)
        prox = ShiftedQuadraticProx(A, b)
        lam = prox.lam_max
        gamma = 1.0 / (24.0 * lam)
        y = prox(gamma, w)
        grad = A.T @ (A @ y - b) + 5.0 * lam * y + (y - w) / gamma
        assert np.linalg.norm(grad) <= 1e-8


def test_shifted_quadratic_prox_woodbury_matches_dense_solve():
    # Wide shape takes the Gram-system route; square-ish takes the direct one.
    for m, n, seed in [(4, 16, 0), (6, 8, 1)]:
        A = rng_from_seed(seed).standard_normal((m, n))
        b = rng_from_seed(seed + 5).standard_normal(m)
        w = rng_from_seed(seed + 9).standard_normal(n)
        prox = ShiftedQuadraticProx(A, b)
        lam = prox.lam_max
        gamma = 1.0 / (20.0 * lam)
        expected = np.linalg.solve(
            (5.0 * gamma * lam + 1.0) * np.eye(n) + gamma * A.T @ A, w + gamma * A.T @ b
        )
        assert_allclose(prox(gamma, w), expected, rtol=1e-10, atol=1e-12)


def count_solver_calls(monkeypatch):
    """Record each np.linalg.eigh and Cholesky factorization (AffineSet's) from here on."""
    calls = []
    eigh = np.linalg.eigh
    factor = oracles._factor_in_place
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append("eigh") or eigh(M))
    monkeypatch.setattr(oracles, "_factor_in_place", lambda M: calls.append("spd_factor") or factor(M))
    return calls


@pytest.mark.parametrize("shape", [(3, 12), (12, 5)], ids=["wide", "tall"])
def test_shifted_quadratic_prox_one_eigensolve_serves_every_gamma(shape, monkeypatch):
    # One eigensolve at construction; a new gamma, or a return to an earlier
    # one, factors nothing. Each result is bit-identical to a fresh prox's
    # and agrees with a dense solve of the shifted system.
    m, n = shape
    A = rng_from_seed(31).standard_normal((m, n))
    b = rng_from_seed(32).standard_normal(m)
    w = rng_from_seed(33).standard_normal(n)
    lam = ShiftedQuadraticProx(A, b).lam_max
    gammas = (1.0 / (20.0 * lam), 1.0 / (40.0 * lam), 1.0 / (20.0 * lam))
    fresh = [ShiftedQuadraticProx(A, b)(gamma, w) for gamma in gammas]
    calls = count_solver_calls(monkeypatch)
    prox = ShiftedQuadraticProx(A, b)
    assert calls == ["eigh"]
    for gamma, expected in zip(gammas, fresh):
        y = prox(gamma, w)
        np.testing.assert_array_equal(y, expected)
        dense = np.linalg.solve((1.0 + 5.0 * gamma * lam) * np.eye(n) + gamma * A.T @ A, w + gamma * A.T @ b)
        assert_allclose(y, dense, rtol=1e-10, atol=1e-12)
    assert calls == ["eigh"]


def test_shifted_quadratic_prox_rejects_zero_matrix():
    with pytest.raises(ValueError, match="A is zero"):
        ShiftedQuadraticProx(np.zeros((4, 6)), np.ones(4))


@pytest.mark.parametrize(
    "A, message",
    [
        (1e200 * np.ones((3, 2)), "A column 0 is too large: its squared norm overflows"),
        (np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1e200]]), "A column 1 is too large: its squared norm overflows"),
        (1e200 * np.ones((2, 6)), "A row 0 is too large: its squared norm overflows"),
        (np.array([[1.0] * 6, [1.0] * 4 + [1e200, 1.0]]), "A row 1 is too large: its squared norm overflows"),
        (1e-200 * np.ones((3, 2)), "A is too small: its Gram matrix has no positive eigenvalue"),
        (1e-200 * np.ones((2, 6)), "A is too small: its Gram matrix has no positive eigenvalue"),
    ],
    ids=["tall large", "tall column 1", "wide large", "wide row 1", "tall tiny", "wide tiny"],
)
def test_constrained_ls_names_a_gram_that_overflows_or_underflows(A, message):
    # The tall route's Gram is A^T A, whose diagonal holds column norms; the wide route's (m < n/2) is A A^T.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_constrained_ls(LsInstance(A, np.ones(A.shape[0]), BoxSet(1.0)))


def test_prox_shifted_halfsqdist_origin_fixed_point():
    prox = pr_feasibility_f_prox(np.array([[1.0, 1.0]]), np.array([0.0]))  # 0 in C
    out = prox(0.04, np.zeros(2))
    assert_allclose(out, np.zeros(2), atol=1e-14)


def test_prox_shifted_halfsqdist_hand_case():
    # C = {x: x1 = 1} in R^2, gamma = 1/24, w = 0: anchor is (1,0), output (1/30, 0).
    prox = pr_feasibility_f_prox(np.array([[1.0, 0.0]]), np.array([1.0]))
    out = prox(1.0 / 24.0, np.zeros(2))
    assert_allclose(out, [1.0 / 30.0, 0.0], rtol=1e-14)


def test_prox_shifted_halfsqdist_local_minimality():
    rng = np.random.default_rng(21)
    A = rng_from_seed(22).standard_normal((3, 6))
    b = rng_from_seed(23).standard_normal(3)
    cset = AffineSet(A, b)
    gamma = 0.05
    w = rng.standard_normal(6)

    def objective(y):
        gap = y - cset.project(y)
        return 0.5 * gap @ gap + 2.5 * y @ y + (y - w) @ (y - w) / (2 * gamma)

    y_star = pr_feasibility_f_prox(A, b)(gamma, w)
    base = objective(y_star)
    for _ in range(20):
        assert base <= objective(y_star + 1e-3 * rng.standard_normal(6)) + 1e-12


def _halfsqdist_oracle(cset):
    """dist(., C)^2 / 2 with its prox: the smooth block of the DR feasibility problem."""
    return distance_feasibility_problem(cset, BoxSet(1.0)).f


def test_prox_halfsqdist_feasible_point_is_fixed():
    A = rng_from_seed(24).standard_normal((2, 5))
    x_feasible = rng_from_seed(25).standard_normal(5)
    cset = AffineSet(A, A @ x_feasible)
    assert_allclose(_halfsqdist_oracle(cset).prox(0.7, x_feasible), x_feasible, atol=1e-12)


def test_prox_halfsqdist_scalar_case():
    # C = {x: x = 0} in R^1, gamma = 1, w = 2: minimize y^2/2 + (y-2)^2/2 -> 1.
    cset = AffineSet(np.array([[1.0]]), np.array([0.0]))
    assert_allclose(_halfsqdist_oracle(cset).prox(1.0, np.array([2.0])), [1.0], rtol=1e-14)


def test_prox_halfsqdist_first_order_condition():
    A = rng_from_seed(26).standard_normal((3, 7))
    b = rng_from_seed(27).standard_normal(3)
    cset = AffineSet(A, b)
    rng = np.random.default_rng(28)
    for gamma in (0.3, 1.0, 4.0):
        w = rng.standard_normal(7)
        y = _halfsqdist_oracle(cset).prox(gamma, w)
        grad = (y - cset.project(y)) + (y - w) / gamma
        assert np.linalg.norm(grad) <= 1e-8


# ----------------------------------------------------------------- shift_split


def test_shift_split_moduli():
    cset = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    f, g = shift_split(F, G)
    assert f.strong_convexity == 5.0
    assert f.grad_lipschitz == 6.0


def test_shift_split_sparse_projection_form():
    # With G the sparse-box indicator and weight 5 (L = 1), the shifted g-prox is
    # exactly the projection of w / (1 - 5 gamma).
    dset = SparseBoxSet(r=2)
    G = ProxOracle(prox=lambda gamma, w: dset.project(w), value=dset.indicator)
    cset = AffineSet(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
    _, g = shift_split(_halfsqdist_oracle(cset), G)
    rng = np.random.default_rng(30)
    for gamma in (0.02, 1.0 / 13.0, 0.19):
        w = rng.standard_normal(3)
        assert_allclose(g.prox(gamma, w), dset.project(w / (1.0 - 5.0 * gamma)), rtol=1e-12)


def test_shift_split_sum_identity():
    cset = AffineSet(rng_from_seed(31).standard_normal((2, 5)), rng_from_seed(32).standard_normal(2))
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: float(np.abs(z).sum()))
    f, g = shift_split(F, G)
    rng = np.random.default_rng(33)
    for _ in range(10):
        w = rng.standard_normal(5)
        assert_allclose(f.value(w) + g.value(w), F.value(w) + G.value(w), rtol=1e-12, atol=1e-12)


def test_shift_split_f_prox_matches_closed_form():
    # Dual route: generic composed prox against a dense solve of the
    # shifted prox's optimality system.
    A, b = rng_from_seed(34).standard_normal((3, 8)), rng_from_seed(35).standard_normal(3)
    F = _halfsqdist_oracle(AffineSet(A, b))
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    f, _ = shift_split(F, G)
    rng = np.random.default_rng(36)
    for gamma in (0.01, 0.05, 1.0 / 12.5):
        w = rng.standard_normal(8)
        assert_allclose(f.prox(gamma, w), shifted_halfsqdist_prox_reference(A, b, gamma, w), atol=1e-10)


def test_shift_split_ill_posed_prox_raises():
    cset = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    _, g = shift_split(F, G)
    with pytest.raises(ProxShiftError, match=r"^shift destroys prox well-posedness: alpha\*gamma = 1.0 >= 1$"):
        g.prox(0.2, np.zeros(2))


def _ls_oracle():
    """Unshifted least squares |Ay - b|^2 / 2 of a wide A: sigma = 0, L = lam."""
    A = rng_from_seed(38).standard_normal((3, 7))
    return quadratic_oracle(A.T @ A, np.zeros(7))


@pytest.mark.parametrize(
    "make_F",
    [lambda: _halfsqdist_oracle(AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))), _ls_oracle],
    ids=["L=1", "L=lam"],
)
def test_shift_split_weight_maximizes_the_step_cap(make_F):
    # The applied weight a = 5 L puts f's PR step cap at 1 / (12 L); the
    # weights 4.9 L and 5.1 L, with moduli (a, L + a), give smaller caps.
    F = make_F()
    L = F.grad_lipschitz
    f, _ = shift_split(F, ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0))
    cap = gamma_threshold(f.strong_convexity, f.grad_lipschitz)
    if L == 1.0:
        assert cap == 1.0 / 12.0
    assert cap == pytest.approx(1.0 / (12.0 * L), rel=1e-12)
    for ratio in (4.9, 5.1):
        assert gamma_threshold(ratio * L, L + ratio * L) < cap


# ----------------------------------------------------------- quadratic oracle


def test_quadratic_oracle_moduli_and_prox():
    rng = np.random.default_rng(37)
    B = rng.standard_normal((5, 5))
    Q = B @ B.T + np.eye(5)
    c = rng.standard_normal(5)
    oracle = quadratic_oracle(Q, c)
    eigenvalues = np.linalg.eigvalsh(Q)
    assert_allclose(oracle.strong_convexity, eigenvalues[0], rtol=1e-12)
    assert_allclose(oracle.grad_lipschitz, eigenvalues[-1], rtol=1e-12)
    gamma, w = 0.2, rng.standard_normal(5)
    y = oracle.prox(gamma, w)
    assert np.linalg.norm(Q @ y + c + (y - w) / gamma) <= 1e-10


def test_quadratic_oracle_one_eigensolve_serves_every_gamma(monkeypatch):
    # One eigensolve at construction; a return to an earlier gamma factors
    # nothing, and every result is bit-identical to a fresh oracle's and
    # agrees with a dense solve of (I + gamma Q) y = w - gamma c.
    rng = np.random.default_rng(39)
    B = rng.standard_normal((6, 6))
    Q, c, w = B @ B.T, rng.standard_normal(6), rng.standard_normal(6)
    gammas = (0.2, 0.1, 0.2)
    fresh = [quadratic_oracle(Q, c).prox(gamma, w) for gamma in gammas]
    calls = count_solver_calls(monkeypatch)
    oracle = quadratic_oracle(Q, c)
    assert calls == ["eigh"]
    for gamma, expected in zip(gammas, fresh):
        y = oracle.prox(gamma, w)
        np.testing.assert_array_equal(y, expected)
        assert_allclose(y, np.linalg.solve(np.eye(6) + gamma * Q, w - gamma * c), rtol=1e-10, atol=1e-12)
    assert calls == ["eigh"]


def test_quadratic_oracle_gradient_matches_finite_differences():
    rng = np.random.default_rng(38)
    B = rng.standard_normal((4, 4))
    Q = B @ B.T + np.eye(4)
    c = rng.standard_normal(4)
    oracle = quadratic_oracle(Q, c)
    y = rng.standard_normal(4)
    step = 1e-6
    for i in range(4):
        probe = np.zeros(4)
        probe[i] = step
        numeric = (oracle.value(y + probe) - oracle.value(y - probe)) / (2 * step)
        assert_allclose(oracle.gradient(y)[i], numeric, rtol=1e-5, atol=1e-6)


def test_smooth_oracle_validates_moduli():
    with pytest.raises(ValueError):
        SmoothOracle(
            value=lambda y: 0.0,
            gradient=lambda y: y,
            strong_convexity=2.0,
            grad_lipschitz=1.0,
            prox=lambda gamma, w: w,
        )


# ------------------------------------------------------------ boundary errors


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: SmoothOracle(lambda y: 0.0, lambda y: y, 0.0, 0.0, lambda gamma, w: w),
            "grad_lipschitz must be positive and finite, got 0.0",
        ),
        (
            lambda: SmoothOracle(lambda y: 0.0, lambda y: y, 0.0, np.inf, lambda gamma, w: w),
            "grad_lipschitz must be positive and finite, got inf",
        ),
        (
            lambda: SmoothOracle(lambda y: 0.0, lambda y: y, 0.0, np.nan, lambda gamma, w: w),
            "grad_lipschitz must be positive and finite, got nan",
        ),
        (lambda: AffineSet(np.eye(2, 3), np.ones(3)), "A must be m x n and b of length m"),
        (lambda: AffineSet(np.eye(2, 3), np.ones(2)).project(np.zeros(4)), "w has shape (4,), expected (3,)"),
        (
            lambda: AffineSet(np.eye(2, 3), np.ones(2)).project(np.array([0.0, np.nan, 0.0])),
            "w holds NaN or infinite entries",
        ),
        (
            lambda: evaluate_fval(
                np.array([0.0, np.nan, 0.0]), FeasibilityInstance(np.eye(2, 3), np.zeros(2), 1, 1.0, 0, np.zeros(3))
            ),
            "z holds NaN or infinite entries",
        ),
        (lambda: SparseBoxSet(3).project(np.zeros(2)), "point has length 2 but the cap keeps 3 entries"),
        (lambda: quadratic_oracle(np.diag([1.0, -1.0])), "quadratic_oracle needs a positive semidefinite Q"),
        # eigh reads only the lower triangle, which is PSD here; Q's symmetric part is not.
        (lambda: quadratic_oracle(np.array([[1.0, 5.0], [0.0, 1.0]])), "Q is not symmetric"),
        # Q - Q^T overflows here; the check says so without a RuntimeWarning.
        (lambda: quadratic_oracle(np.array([[1e308, -1e308], [1e308, 1e308]])), "Q is not symmetric"),
        (lambda: quadratic_oracle(np.ones(3)), "Q must be a nonempty 2-D array, got shape (3,)"),
        (lambda: quadratic_oracle(np.eye(3), np.ones(2)), "c has shape (2,), expected (3,)"),
        (lambda: quadratic_oracle(np.eye(2), np.array([np.nan, 0.0])), "c holds NaN or infinite entries"),
        (lambda: spectral_norm_sq(np.ones(3)), "A must be a nonempty 2-D array, got shape (3,)"),
        (lambda: spectral_norm_sq(np.array([[np.nan, 1.0], [0.0, 1.0]])), "A holds NaN or infinite entries"),
        (lambda: spectral_norm_sq(np.array([[np.inf, 1.0]])), "A holds NaN or infinite entries"),
    ],
    ids=[
        "lipschitz", "lipschitz inf", "lipschitz nan", "affine shape", "affine point", "affine non-finite point",
        "non-finite fval point", "sparse box point", "indefinite Q", "asymmetric Q", "overflowing asymmetric Q",
        "1-D Q", "short c", "non-finite c", "1-D A", "NaN A", "inf A",
    ],
)
def test_boundary_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
