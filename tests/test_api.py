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
    ProxOracle,
    SolverConfig,
    SparseBoxSet,
    SplitProblem,
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


# name -> (argument name, call on a point, fixed length or None)
POINT_MAPS = {
    "AffineSet.project": ("w", lambda w: AffineSet(np.eye(2, 3), np.ones(2)).project(w), 3),
    "SparseBoxSet.project": ("w", lambda w: SparseBoxSet(1).project(w), None),
    "BoxSet.project": ("w", lambda w: BoxSet(1.0).project(w), None),
    "SpdFactorization.solve": ("rhs", lambda w: spd_factor(np.eye(3)).solve(w), 3),
    "ShiftedQuadraticProx": ("w", lambda w: _ls_prox()(0.1, w), 3),
    "quadratic_oracle": ("c", lambda w: quadratic_oracle(np.eye(3), w), 3),
    "initial_state": ("x0", initial_state, None),
    "run": ("x0", lambda w: run(_problem(), SolverConfig(gamma0=0.1), w), 3),
    "evaluate_fval": (
        "z",
        lambda w: evaluate_fval(w, FeasibilityInstance(np.eye(2, 3), np.zeros(2), 1, 1.0, 0, np.zeros(3))),
        3,
    ),
}


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("taker", list(STEP_TAKERS), ids=lambda key: f"{key[0].__qualname__}-{key[1]}")
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
    # A new public callable with a gamma, gamma0 or gamma1 parameter must join STEP_TAKERS.
    found = set()
    for name in dir(prsplit):
        obj = getattr(prsplit, name)
        if name.startswith("_") or not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        found |= {(obj, p) for p in inspect.signature(obj).parameters if re.fullmatch(r"gamma[01]?", p)}
    found.add((ShiftedQuadraticProx.__call__, "gamma"))
    assert found == set(STEP_TAKERS)
