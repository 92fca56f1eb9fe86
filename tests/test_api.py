"""The public API has no stale exports and still holds every name the benchmark imports, every public map checks
its steps, points and counts one way each, a run checks them once however long it runs, no solve path calls the
checked helpers kept for callers outside the package, and only the two callers that check their matrix reach the
unchecked factorization."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import prsplit
from prsplit import (
    AffineSet,
    BenchConfig,
    BenchRow,
    BoxSet,
    FeasibilityInstance,
    IterateState,
    LsInstance,
    ProxOracle,
    SolverConfig,
    SolverReport,
    SparseBoxSet,
    SplitProblem,
    build_constrained_ls,
    build_feasibility_dr,
    build_feasibility_pr,
    distance_feasibility_problem,
    dr_step,
    ergodic_gap_bound,
    evaluate_fval,
    fit_contraction,
    gen_feasibility,
    initial_state,
    merit_dr,
    merit_pr,
    pr_step,
    quadratic_oracle,
    run,
    run_bench,
    shift_split,
    solve_trial,
    spd_factor,
    stationarity_residual,
    trial_seed,
)
from prsplit import splitting
from prsplit.bench import METHOD_STEPS, solver_config
from prsplit.cli import main
from prsplit.linalg import SpdFactorization
from prsplit.oracles import ShiftedQuadraticProx

MODULES = [info.name for info in pkgutil.iter_modules(prsplit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"prsplit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_benchmark_imports_from_the_package_resolves():
    """Each `from prsplit... import name` and `import prsplit...` in perfbench/*.py, read as source only.

    A library change that drops a name the benchmark imports fails here, not only in the benchmark's own
    tests. Attribute reads on what those names return (such as an oracle prox's `lam_max`) are not checked.
    """
    imported = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "prsplit":
                imported |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "prsplit"}
    assert {"initial_state", "spd_factor", "pr_step"} <= {name for _, name in imported}
    for module, name in sorted(imported, key=str):
        assert name is None or hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_package_reexports_only_public_names_of_its_modules():
    tree = ast.parse(Path(prsplit.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"prsplit.{node.module}")
        for alias in node.names:
            assert hasattr(prsplit, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not in __all__"


# ------------------------------------------ the step, point and count contracts


def _problem():
    return SplitProblem(quadratic_oracle(np.eye(3)), ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0), dim=3)


def _ls_prox():
    return ShiftedQuadraticProx(np.eye(2, 3), np.ones(2))


def _feasibility():
    return FeasibilityInstance(np.eye(2, 3), np.zeros(2), 1, 1.0, np.zeros(3))


# Each public builder of oracles or problems -> a call building a small sample in R^3.
BUILDERS = {
    build_feasibility_pr: lambda: build_feasibility_pr(_feasibility()),
    build_feasibility_dr: lambda: build_feasibility_dr(_feasibility()),
    build_constrained_ls: lambda: build_constrained_ls(LsInstance(np.eye(2, 3), np.ones(2), BoxSet(1.0))),
    distance_feasibility_problem: lambda: distance_feasibility_problem(
        AffineSet(np.eye(2, 3), np.ones(2)), BoxSet(1.0)
    ),
    shift_split: lambda: shift_split(_problem().f, _problem().g),
    quadratic_oracle: lambda: quadratic_oracle(np.eye(3)),
}


def _built_proxes(builder):
    """label -> prox of each oracle in the builder's sample: a problem's or a pair's f and g, or the one oracle."""
    built = BUILDERS[builder]()
    if isinstance(built, SplitProblem):
        built = built.f, built.g
    oracles = {"f.": built[0], "g.": built[1]} if isinstance(built, tuple) else {"": built}
    return {f"{builder.__name__}().{half}prox": oracle.prox for half, oracle in oracles.items()}


# (callable, parameter): a call that passes the bad step `gamma` as that parameter.
STEP_TAKERS = {
    (SolverConfig, "gamma0"): lambda gamma: SolverConfig(gamma0=gamma),
    (SolverConfig, "gamma1"): lambda gamma: SolverConfig(gamma0=0.1, gamma1=gamma),
    (pr_step, "gamma"): lambda gamma: pr_step(initial_state(np.ones(3)), _problem(), gamma),
    (dr_step, "gamma"): lambda gamma: dr_step(initial_state(np.ones(3)), _problem(), gamma),
    (merit_pr, "gamma"): lambda gamma: merit_pr(np.ones(3), np.zeros(3), np.ones(3), _problem(), gamma),
    (merit_dr, "gamma"): lambda gamma: merit_dr(np.ones(3), np.zeros(3), np.ones(3), _problem(), gamma),
    (stationarity_residual, "gamma"): lambda gamma: stationarity_residual(
        pr_step(initial_state(np.ones(3)), _problem(), 0.1), _problem(), gamma
    ),
    (ergodic_gap_bound, "gamma"): lambda gamma: ergodic_gap_bound(
        [np.ones(3)], lambda z: 0.0, np.ones(3), np.zeros(3), np.zeros(3), gamma, 1.0, 1
    ),
    (ShiftedQuadraticProx.__call__, "gamma"): lambda gamma: _ls_prox()(gamma, np.zeros(3)),
}
# Every prox of every builder's sample, by its label.
BUILT_PROXES = {label: prox for builder in BUILDERS for label, prox in _built_proxes(builder).items()}
# Each of them at the point 0 of R^3.
STEP_TAKERS.update(
    {(label, "gamma"): lambda gamma, prox=prox: prox(gamma, np.zeros(3)) for label, prox in BUILT_PROXES.items()}
)


# (callable, parameter) -> (least count or None, a call that passes `count` as that parameter).
COUNT_TAKERS = {
    (SparseBoxSet, "r"): (1, SparseBoxSet),
    (SplitProblem, "dim"): (1, lambda count: SplitProblem(_problem().f, _problem().g, count)),
    (SolverConfig, "max_iter"): (0, lambda count: SolverConfig(max_iter=count)),
    (ergodic_gap_bound, "n"): (
        1,
        lambda count: ergodic_gap_bound([np.ones(3)] * 2, lambda z: 0.0, *[np.zeros(3)] * 3, 0.05, 1.0, count),
    ),
    (fit_contraction, "tail"): (1, lambda count: fit_contraction([np.ones(3)] * 3, np.zeros(3), count)),
    (BenchConfig, "trials"): (1, lambda count: BenchConfig(pairs=((10, 40),), trials=count)),
    (BenchConfig, "base_seed"): (None, lambda count: BenchConfig(pairs=((10, 40),), base_seed=count)),
    # base_seed, m and n are only hashed, so any integer is a seed.
    (trial_seed, "base_seed"): (None, lambda count: trial_seed(count, 50, 500, 0)),
    (trial_seed, "m"): (None, lambda count: trial_seed(0, count, 500, 0)),
    (trial_seed, "n"): (None, lambda count: trial_seed(0, 50, count, 0)),
    (trial_seed, "trial"): (0, lambda count: trial_seed(0, 50, 500, count)),
    (gen_feasibility, "seed"): (0, lambda count: gen_feasibility(10, 40, count)),
}
# A count whose message gives more than its parameter name.
COUNT_NAMES = {(SparseBoxSet, "r"): "cardinality cap r"}
# Public int parameters outside the count contract: fields of the result records, the shape pair
# that check_shape checks (with its own "m must be at least 5" message), and the instance's cap r,
# which SparseBoxSet checks.
COUNT_EXEMPT = {
    *[(BenchRow, p) for p in ("m", "n", "successes", "failures", "undecided")],
    (SolverReport, "iterations"),
    (IterateState, "t"),
    (gen_feasibility, "m"),
    (gen_feasibility, "n"),
    (BenchConfig, "pairs"),
    (FeasibilityInstance, "r"),
}


# name -> (argument name, call on a point, fixed length or None)
POINT_MAPS = {
    "AffineSet.project": ("w", lambda w: AffineSet(np.eye(2, 3), np.ones(2)).project(w), 3),
    "SparseBoxSet.project": ("w", lambda w: SparseBoxSet(1).project(w), None),
    "BoxSet.project": ("w", lambda w: BoxSet(1.0).project(w), None),
    "SpdFactorization.solve": ("rhs", lambda w: spd_factor(np.eye(3)).solve(w), 3),
    "ShiftedQuadraticProx": ("w", lambda w: _ls_prox()(0.1, w), 3),
    "quadratic_oracle": ("c", lambda w: quadratic_oracle(np.eye(3), w), 3),
    "quadratic_oracle(...).prox": ("w", lambda w: quadratic_oracle(np.eye(3)).prox(0.1, w), 3),
    "initial_state": ("x0", initial_state, None),
    "run": ("x0", lambda w: run(_problem(), SolverConfig(gamma0=0.1), w), 3),
    "evaluate_fval": ("z", lambda w: evaluate_fval(w, _feasibility()), 3),
}


def _merit_at(merit, arg):
    """A call of `merit` with the point w as its argument `arg` and ones(3) as the other two."""
    return lambda w: merit(
        **{"y": np.ones(3), "z": np.ones(3), "x": np.ones(3), arg: w}, problem=_problem(), gamma=0.1
    )


def _gap_bound_at(arg):
    """A call of ergodic_gap_bound with the point w as its argument `arg` and zeros(3) as the other two."""
    return lambda w: ergodic_gap_bound(
        [np.zeros(3)], lambda z: 0.0, **{"x0": np.zeros(3), "x_ref": np.zeros(3), "z_ref": np.zeros(3), arg: w},
        gamma=0.05, grad_lipschitz=1.0, n=1,
    )


POINT_MAPS.update(
    {f"{merit.__name__}({arg})": (arg, _merit_at(merit, arg), 3) for merit in (merit_pr, merit_dr) for arg in "yzx"}
)
# z_ref sets the length that x0 and x_ref must share.
POINT_MAPS.update({f"ergodic_gap_bound({arg})": (arg, _gap_bound_at(arg), 3) for arg in ("x0", "x_ref")})
POINT_MAPS["ergodic_gap_bound(z_ref)"] = ("z_ref", _gap_bound_at("z_ref"), None)
# The set projections pass NaN on, so a user's f-prox that returns NaN ends a run "diverged".
NAN_PASSING = {"SparseBoxSet.project", "BoxSet.project"}


def _taker_id(key):
    """The id of a STEP_TAKERS key: the callable's qualified name, or a built prox's label, and the parameter."""
    return f"{getattr(key[0], '__qualname__', key[0])}-{key[1]}"


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("taker", list(STEP_TAKERS), ids=_taker_id)
def test_every_step_taker_rejects_a_step_outside_zero_to_inf(taker, gamma):
    with pytest.raises(ValueError, match=f"^{taker[1]} must be positive and finite, got {gamma}$"):
        STEP_TAKERS[taker](gamma)


@pytest.mark.parametrize("kind", ["2-D", "wrong length"])
@pytest.mark.parametrize("name", list(POINT_MAPS))
def test_every_point_map_rejects_a_point_of_the_wrong_shape(name, kind):
    arg, call, n = POINT_MAPS[name]
    if n is None:  # no fixed length: the other wrong point is a scalar
        point = np.zeros((3, 1)) if kind == "2-D" else np.float64(0.0)
        message = f"{arg} must be a 1-D array, got shape {point.shape}"
    else:
        point = np.zeros((n, 1)) if kind == "2-D" else np.zeros(n + 1)
        message = f"{arg} has shape {point.shape}, expected ({n},)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(point)


@pytest.mark.parametrize("name", [name for name in POINT_MAPS if name not in NAN_PASSING])
def test_every_other_point_map_rejects_a_nan(name):
    arg, call, n = POINT_MAPS[name]
    with pytest.raises(ValueError, match=f"^{arg} holds NaN or infinite entries$"):
        call(np.full(n or 3, np.nan))


@pytest.mark.parametrize("label", list(BUILT_PROXES))
def test_every_built_prox_takes_a_list_point_as_that_array_and_rejects_a_string(label):
    prox = BUILT_PROXES[label]
    w = np.array([0.3, -0.2, 0.1])
    np.testing.assert_array_equal(prox(0.01, w.tolist()), prox(0.01, w))
    with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
        prox(0.01, "abc")


def test_every_public_step_taker_is_in_the_step_contract_test():
    # A new public callable with a gamma, gamma0 or gamma1 parameter must join STEP_TAKERS,
    # and a new public builder of oracles or problems BUILDERS, which puts its proxes there.
    found, builders = set(), set()
    for name in dir(prsplit):
        obj = getattr(prsplit, name)
        if name.startswith("_") or not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        signature = inspect.signature(obj)
        found |= {(obj, p) for p in signature.parameters if re.fullmatch(r"gamma[01]?", p)}
        if re.search(r"SplitProblem|SmoothOracle|ProxOracle", str(signature.return_annotation)):
            builders.add(obj)
    assert builders == set(BUILDERS)
    for builder in BUILDERS:
        for label, prox in _built_proxes(builder).items():
            found.add((label, "gamma"))
            if not inspect.isfunction(prox):  # a prox object: its class's __call__ takes the step
                found.add((type(prox).__call__, "gamma"))
    assert found == set(STEP_TAKERS)


def _bad_counts():
    """(taker, count) for every COUNT_TAKERS entry: non-integers, a bool, and one below its floor."""
    for taker, (least, _) in COUNT_TAKERS.items():
        for count in (1.5, 2.0, True, None, "1") + (() if least is None else (least - 1,)):
            yield taker, count


@pytest.mark.parametrize(
    "taker, count", list(_bad_counts()), ids=lambda v: _taker_id(v) if isinstance(v, tuple) else repr(v)
)
def test_every_count_taker_rejects_a_non_integer_or_a_count_below_its_floor(taker, count):
    least, call = COUNT_TAKERS[taker]
    floor = "" if least is None else f" of at least {least}"
    message = f"{COUNT_NAMES.get(taker, taker[1])} must be an integer{floor}, got {count!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(count)


@pytest.mark.parametrize("taker", list(COUNT_TAKERS), ids=_taker_id)
def test_every_count_taker_accepts_a_numpy_integer_at_its_floor(taker):
    least, call = COUNT_TAKERS[taker]
    call(np.int32(-7 if least is None else least))


def test_every_public_int_parameter_is_in_the_count_contract_test():
    # A new public callable with a parameter annotated int must join COUNT_TAKERS or, with a reason, COUNT_EXEMPT.
    found = set()
    for name in dir(prsplit):
        obj = getattr(prsplit, name)
        if name.startswith("_") or not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        parameters = inspect.signature(obj).parameters.values()
        found |= {(obj, p.name) for p in parameters if re.search(r"\bint\b", str(p.annotation))}
    assert found == set(COUNT_TAKERS) | COUNT_EXEMPT


@pytest.mark.parametrize("rule", ["shrinking", "fixed", "default"])
@pytest.mark.parametrize("method", ["pr", "dr"])
def test_a_run_checks_its_steps_and_counts_once_however_long_it_runs(monkeypatch, method, rule):
    # SolverConfig checks its fields and the end of a run its last gamma; no iteration checks a step or count again,
    # whether the step may shrink, is fixed, or starts at the default below gamma_threshold (on least squares,
    # whose moduli have one).
    calls = []
    for name in ("_check_step", "_check_count"):
        check = getattr(splitting, name)
        monkeypatch.setattr(splitting, name, lambda *args, check=check, name=name: calls.append(name) or check(*args))
    if rule == "default":
        A = np.random.default_rng(0).standard_normal((30, 12))
        problem = build_constrained_ls(LsInstance(A / np.linalg.norm(A, 2), np.ones(30), BoxSet(0.3)))
    else:
        problem = (build_feasibility_pr if method == "pr" else build_feasibility_dr)(gen_feasibility(10, 40, 0))
    gammas = {"shrinking": METHOD_STEPS[method], "fixed": METHOD_STEPS[method][:1], "default": ()}[rule]
    counts = []
    for steps in (10, 100):
        calls.clear()
        config = SolverConfig(*gammas, method=method, tol=0.0, max_iter=steps)
        assert run(problem, config, np.zeros(problem.dim)).iterations == steps
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


# ------------------------------------------ the checked helpers for outside callers

# Public helpers that check what an outside caller hands them, and the symmetry scan of an outside
# matrix; the package's own solves skip them. _as_matrix is not here: building an LsInstance runs it.
OUTSIDE_ONLY = ("spd_factor", "spectral_norm_sq", "initial_state", "_as_symmetric")


class _CalledFromInside(AssertionError):
    """Raised by a stubbed helper; neither run_bench nor the CLI catches it, as they do ValueError."""


def test_no_solve_path_calls_the_checked_helpers_for_outside_callers(monkeypatch, capsys):
    calls = []

    def refuse(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise _CalledFromInside(f"a solve path called {name}")

        return stub

    for module in [prsplit, *(importlib.import_module(f"prsplit.{name}") for name in MODULES)]:
        for name in set(OUTSIDE_ONLY) & set(vars(module)):
            monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(SpdFactorization, "solve", refuse("SpdFactorization.solve"))

    inst = gen_feasibility(10, 40, 0)
    for method in ("pr", "dr"):
        assert solve_trial(inst, solver_config(BenchConfig(), method))[0].iterations > 0
    A = np.random.default_rng(3).standard_normal((8, 20))
    for constraint in (BoxSet(1.0), SparseBoxSet(3)):
        problem = build_constrained_ls(LsInstance(A, A @ np.ones(20), constraint))
        assert run(problem, SolverConfig(max_iter=50), np.zeros(20)).iterations == 50
    # A trial that raised ValueError would count 0 iterations.
    assert all(row.mean_iterations > 0 for row in run_bench(BenchConfig(pairs=((5, 20),), trials=1)))
    assert main(["solve", "--m", "10", "--n", "40"]) == 0
    assert "iterations" in capsys.readouterr().out
    assert calls == []


def test_only_spd_factor_and_affine_set_hand_a_matrix_to_the_unchecked_factor():
    # _factor_in_place checks nothing: spd_factor checks an outside matrix first, and AffineSet
    # checks the rows behind its own Gram. Any other caller could hand it an unchecked matrix.
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "_factor_in_place":
                    callers.add(scope)
            visit(child, scope)

    for path in sorted(Path(prsplit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert callers == {"spd_factor", "AffineSet.__init__"}
