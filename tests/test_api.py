"""The public API has no stale exports, and every public map checks its step and point one way."""

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
    BoxSet,
    FeasibilityInstance,
    LsInstance,
    ProxOracle,
    SolverConfig,
    SparseBoxSet,
    SplitProblem,
    build_constrained_ls,
    build_feasibility_dr,
    build_feasibility_pr,
    distance_feasibility_problem,
    dr_step,
    ergodic_gap_bound,
    evaluate_fval,
    heuristic_update,
    initial_state,
    merit_dr,
    merit_pr,
    pr_step,
    quadratic_oracle,
    run,
    shift_split,
    spd_factor,
    stationarity_residual,
)
from prsplit.oracles import ShiftedQuadraticProx

MODULES = [info.name for info in pkgutil.iter_modules(prsplit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"prsplit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_public_names_of_its_modules():
    tree = ast.parse(Path(prsplit.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"prsplit.{node.module}")
        for alias in node.names:
            assert hasattr(prsplit, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not in __all__"


# ------------------------------------------------ the step and point contracts


def _problem():
    return SplitProblem(quadratic_oracle(np.eye(3)), ProxOracle(prox=lambda gamma, w: w, value=lambda z: 0.0), dim=3)


def _ls_prox():
    return ShiftedQuadraticProx(np.eye(2, 3), np.ones(2))


def _feasibility():
    return FeasibilityInstance(np.eye(2, 3), np.zeros(2), 1, 1.0, 0, np.zeros(3))


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
    (heuristic_update, "gamma"): lambda gamma: heuristic_update(gamma, 1, 0.0, 0.0, 0.1),
    (heuristic_update, "gamma1"): lambda gamma: heuristic_update(0.1, 1, 0.0, 0.0, gamma),
    (stationarity_residual, "gamma"): lambda gamma: stationarity_residual(
        pr_step(initial_state(np.ones(3)), _problem(), 0.1), _problem(), gamma
    ),
    (ergodic_gap_bound, "gamma"): lambda gamma: ergodic_gap_bound(
        [np.ones(3)], lambda z: 0.0, np.ones(3), np.zeros(3), np.zeros(3), gamma, 1.0, 1
    ),
    (ShiftedQuadraticProx.__call__, "gamma"): lambda gamma: _ls_prox()(gamma, np.zeros(3)),
}
# Every prox of every builder's sample, at the point 0 of R^3.
STEP_TAKERS.update(
    {
        (label, "gamma"): lambda gamma, prox=prox: prox(gamma, np.zeros(3))
        for builder in BUILDERS
        for label, prox in _built_proxes(builder).items()
    }
)


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
