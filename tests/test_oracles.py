"""Tests for the prox/projection toolkit, each against an independent oracle."""

import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prsplit import oracles
from prsplit.linalg import gaussian_matrix, spd_factor
from prsplit.oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ProxShiftError,
    RankDeficientError,
    ShiftedQuadraticProx,
    SmoothOracle,
    SparseBoxSet,
    prox_halfsqdist,
    quadratic_oracle,
    shift_split,
)
from prsplit.problems import FeasibilityInstance, build_feasibility_pr


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


def test_project_affine_fixes_feasible_points():
    A = gaussian_matrix(3, 6, 0)
    x_feasible = gaussian_matrix(6, 1, 1).ravel()
    cset = AffineSet(A, A @ x_feasible)
    assert_allclose(cset.project(x_feasible), x_feasible, atol=1e-12)


def test_project_affine_matches_kkt_oracle():
    for seed in range(8):
        A = gaussian_matrix(3, 6, seed)
        b = gaussian_matrix(3, 1, seed + 50).ravel()
        w = gaussian_matrix(6, 1, seed + 100).ravel()
        cset = AffineSet(A, b)
        assert_allclose(cset.project(w), kkt_projection(A, b, w), atol=1e-8)


def test_project_affine_output_is_feasible_and_orthogonal():
    A = gaussian_matrix(4, 10, 2)
    b = gaussian_matrix(4, 1, 3).ravel()
    cset = AffineSet(A, b)
    w = gaussian_matrix(10, 1, 4).ravel()
    p = cset.project(w)
    assert np.linalg.norm(A @ p - b) <= 1e-9 * (1.0 + np.linalg.norm(b))
    # w - p lies in the row space of A: projecting it onto the nullspace gives 0.
    nullspace_part = (w - p) - A.T @ np.linalg.solve(A @ A.T, A @ (w - p))
    assert np.linalg.norm(nullspace_part) <= 1e-9 * (1.0 + np.linalg.norm(w - p))


def test_project_affine_idempotent():
    A = gaussian_matrix(3, 7, 5)
    b = gaussian_matrix(3, 1, 6).ravel()
    cset = AffineSet(A, b)
    w = gaussian_matrix(7, 1, 7).ravel()
    once = cset.project(w)
    assert np.linalg.norm(cset.project(once) - once) <= 1e-10 * (1 + np.linalg.norm(once))


def test_project_affine_nonexpansive():
    A = gaussian_matrix(3, 8, 8)
    b = gaussian_matrix(3, 1, 9).ravel()
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_affine_set_rejects_non_finite_b_at_construction(bad):
    with pytest.raises(ValueError, match="^b holds NaN or infinite entries"):
        AffineSet(np.eye(2, 3), np.array([bad, 1.0]))


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
    assert dset.contains(out)


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


# ---------------------------------------------------------------------- proxes


def test_prox_shifted_quadratic_identity_design():
    # A = I, b = 0 collapses the solve to w / (6 gamma + 1).
    w = np.array([1.0, -2.0, 0.5])
    for gamma in (0.05, 1.0 / 24.0):
        out = ShiftedQuadraticProx(np.eye(3), np.zeros(3), 1.0)(gamma, w)
        assert_allclose(out, w / (6.0 * gamma + 1.0), rtol=1e-12)


def test_prox_shifted_quadratic_zero_fixed_point():
    A = gaussian_matrix(4, 6, 13)
    lam = np.linalg.eigvalsh(A.T @ A)[-1]
    out = ShiftedQuadraticProx(A, np.zeros(4), lam)(0.01, np.zeros(6))
    assert_allclose(out, np.zeros(6), atol=1e-14)


def test_prox_shifted_quadratic_first_order_condition():
    for seed in range(5):
        A = gaussian_matrix(4, 6, seed + 20)
        b = gaussian_matrix(4, 1, seed + 40).ravel()
        w = gaussian_matrix(6, 1, seed + 60).ravel()
        lam = np.linalg.eigvalsh(A.T @ A)[-1]
        gamma = 1.0 / (24.0 * lam)
        y = ShiftedQuadraticProx(A, b, lam)(gamma, w)
        grad = A.T @ (A @ y - b) + 5.0 * lam * y + (y - w) / gamma
        assert np.linalg.norm(grad) <= 1e-8


def test_shifted_quadratic_prox_woodbury_matches_dense_solve():
    # Wide shape takes the Gram-system route; square-ish takes the direct one.
    for m, n, seed in [(4, 16, 0), (6, 8, 1)]:
        A = gaussian_matrix(m, n, seed)
        b = gaussian_matrix(m, 1, seed + 5).ravel()
        w = gaussian_matrix(n, 1, seed + 9).ravel()
        lam = np.linalg.eigvalsh(A.T @ A)[-1]
        gamma = 1.0 / (20.0 * lam)
        expected = np.linalg.solve(
            (5.0 * gamma * lam + 1.0) * np.eye(n) + gamma * A.T @ A, w + gamma * A.T @ b
        )
        assert_allclose(ShiftedQuadraticProx(A, b, lam)(gamma, w), expected, rtol=1e-10, atol=1e-12)


def test_shifted_quadratic_prox_caches_factor_per_gamma(monkeypatch):
    # One (gamma, factor) slot: repeats at the slot's gamma reuse the factor,
    # any other gamma refactors and replaces it.
    calls = []
    monkeypatch.setattr(oracles, "spd_factor", lambda M: calls.append(M) or spd_factor(M))
    A = gaussian_matrix(3, 12, 3)
    prox = ShiftedQuadraticProx(A, np.zeros(3), 10.0)
    w = np.ones(12)
    first = prox(0.001, w)
    assert len(calls) == 1
    second = prox(0.001, w)
    assert len(calls) == 1
    assert_allclose(first, second, atol=0)
    prox(0.0005, w)
    assert len(calls) == 2
    prox(0.0005, w)
    assert len(calls) == 2
    prox(0.001, w)
    assert len(calls) == 3


@pytest.mark.parametrize("shape", [(3, 12), (12, 5)], ids=["wide", "tall"])
def test_shifted_quadratic_prox_refactor_is_bit_identical(shape):
    m, n = shape
    A = gaussian_matrix(m, n, 31)
    b = gaussian_matrix(m, 1, 32).ravel()
    w = gaussian_matrix(n, 1, 33).ravel()
    lam = float(np.linalg.eigvalsh(A.T @ A)[-1])
    gram = ShiftedQuadraticProx.gram_of(A)
    prox = ShiftedQuadraticProx(A, b, lam, gram=gram)
    for gamma in (1.0 / (20.0 * lam), 1.0 / (40.0 * lam), 1.0 / (20.0 * lam)):
        fresh = ShiftedQuadraticProx(A, b, lam)(gamma, w)
        np.testing.assert_array_equal(prox(gamma, w), fresh)


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
    A = gaussian_matrix(3, 6, 22)
    b = gaussian_matrix(3, 1, 23).ravel()
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


def test_prox_halfsqdist_feasible_point_is_fixed():
    A = gaussian_matrix(2, 5, 24)
    x_feasible = gaussian_matrix(5, 1, 25).ravel()
    cset = AffineSet(A, A @ x_feasible)
    assert_allclose(prox_halfsqdist(cset, 0.7, x_feasible), x_feasible, atol=1e-12)


def test_prox_halfsqdist_scalar_case():
    # C = {x: x = 0} in R^1, gamma = 1, w = 2: minimize y^2/2 + (y-2)^2/2 -> 1.
    cset = AffineSet(np.array([[1.0]]), np.array([0.0]))
    assert_allclose(prox_halfsqdist(cset, 1.0, np.array([2.0])), [1.0], rtol=1e-14)


def test_prox_halfsqdist_first_order_condition():
    A = gaussian_matrix(3, 7, 26)
    b = gaussian_matrix(3, 1, 27).ravel()
    cset = AffineSet(A, b)
    rng = np.random.default_rng(28)
    for gamma in (0.3, 1.0, 4.0):
        w = rng.standard_normal(7)
        y = prox_halfsqdist(cset, gamma, w)
        grad = (y - cset.project(y)) + (y - w) / gamma
        assert np.linalg.norm(grad) <= 1e-8


# ----------------------------------------------------------------- shift_split


def _halfsqdist_oracle(cset):
    def value(y):
        gap = y - cset.project(y)
        return 0.5 * float(gap @ gap)

    return SmoothOracle(
        value=value,
        gradient=lambda y: y - cset.project(y),
        strong_convexity=0.0,
        grad_lipschitz=1.0,
        prox=lambda gamma, w: prox_halfsqdist(cset, gamma, w),
    )


def test_shift_split_moduli():
    cset = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    f, g = shift_split(F, G, alpha=5.0)
    assert f.strong_convexity == 5.0
    assert f.grad_lipschitz == 6.0


def test_shift_split_sparse_projection_form():
    # With G the sparse-box indicator and alpha = 5, the shifted g-prox is
    # exactly the projection of w / (1 - 5 gamma).
    dset = SparseBoxSet(r=2)
    G = ProxOracle(prox=lambda gamma, w: dset.project(w), value=dset.indicator)
    cset = AffineSet(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
    _, g = shift_split(_halfsqdist_oracle(cset), G, alpha=5.0)
    rng = np.random.default_rng(30)
    for gamma in (0.02, 1.0 / 13.0, 0.19):
        w = rng.standard_normal(3)
        assert_allclose(g.prox(gamma, w), dset.project(w / (1.0 - 5.0 * gamma)), rtol=1e-12)


def test_shift_split_sum_identity():
    cset = AffineSet(gaussian_matrix(2, 5, 31), gaussian_matrix(2, 1, 32).ravel())
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: float(np.abs(z).sum()))
    f, g = shift_split(F, G, alpha=5.0)
    rng = np.random.default_rng(33)
    for _ in range(10):
        w = rng.standard_normal(5)
        assert_allclose(f.value(w) + g.value(w), F.value(w) + G.value(w), rtol=1e-12, atol=1e-12)


def test_shift_split_f_prox_matches_closed_form():
    # Dual route: generic composed prox against a dense solve of the
    # shifted prox's optimality system.
    A, b = gaussian_matrix(3, 8, 34), gaussian_matrix(3, 1, 35).ravel()
    F = _halfsqdist_oracle(AffineSet(A, b))
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    f, _ = shift_split(F, G, alpha=5.0)
    rng = np.random.default_rng(36)
    for gamma in (0.01, 0.05, 1.0 / 12.5):
        w = rng.standard_normal(8)
        assert_allclose(f.prox(gamma, w), shifted_halfsqdist_prox_reference(A, b, gamma, w), atol=1e-10)


def test_shift_split_ill_posed_prox_raises():
    cset = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    _, g = shift_split(F, G, alpha=5.0)
    with pytest.raises(ProxShiftError):
        g.prox(0.2, np.zeros(2))


def test_shift_split_requires_large_alpha():
    cset = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    F = _halfsqdist_oracle(cset)
    G = ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0)
    with pytest.raises(ValueError):
        shift_split(F, G, alpha=2.0)


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


def test_quadratic_oracle_keeps_one_factor(monkeypatch):
    # One (gamma, factor) slot: a return to an earlier gamma factors again,
    # and every result is bit-identical to a fresh oracle's.
    rng = np.random.default_rng(39)
    B = rng.standard_normal((6, 6))
    Q, c, w = B @ B.T, rng.standard_normal(6), rng.standard_normal(6)
    gammas = (0.2, 0.1, 0.2)
    fresh = [quadratic_oracle(Q, c).prox(gamma, w) for gamma in gammas]
    calls = []
    monkeypatch.setattr(oracles, "spd_factor", lambda M: calls.append(M) or spd_factor(M))
    oracle = quadratic_oracle(Q, c)
    for gamma, expected in zip(gammas, fresh):
        np.testing.assert_array_equal(oracle.prox(gamma, w), expected)
        np.testing.assert_array_equal(oracle.prox(gamma, w), expected)
    assert len(calls) == 3


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
