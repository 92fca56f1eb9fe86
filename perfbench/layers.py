"""Per-layer measurement from outside the package: spans and microbenchmarks.

Spans wrap the callables the engine calls into -- the smooth and nonsmooth
oracles of a `SplitProblem` and `AffineSet.project` -- without editing the
package. To bound memory over long runs, spans are aggregated per solve:
for each name, the number of calls, the seconds inside them and, for the
affine projection, the bytes its two matvecs read (2 * 8 * m * n per call,
computed from the shape, not measured). Oracle spans are children of the
`run` span; `affine_project` spans are children of the oracle that called
it, so the four oracle spans partition `run` except for its own work.

Microbenchmarks time single calls at a workload's shapes on warm caches and
report the median over repeats.
"""

from __future__ import annotations

import time
from dataclasses import replace
from statistics import median

import numpy as np

from prsplit import BoxSet, SparseBoxSet, spd_factor, spectral_norm_sq
from prsplit.problems import evaluate_fval
from prsplit.splitting import (
    SplitProblem,
    dr_step,
    initial_state,
    merit_dr,
    merit_pr,
    pr_step,
)

ORACLE_SPANS = ("f_prox", "g_prox", "f_value", "g_value")
SPANS = ORACLE_SPANS + ("affine_project",)

STEPS = {"pr": pr_step, "dr": dr_step}
MERITS = {"pr": merit_pr, "dr": merit_dr}


class Tracer:
    """Per-solve span totals, filled in by wrapped callables."""

    def __init__(self):
        self._slots: dict[str, list] = {name: [0, 0.0, 0] for name in SPANS}

    def wrap(self, name: str, fn, nbytes: int = 0):
        slot = self._slots[name]
        clock = time.perf_counter

        def traced(*args):
            start = clock()
            out = fn(*args)
            slot[1] += clock() - start
            slot[0] += 1
            slot[2] += nbytes
            return out

        return traced

    def reset(self) -> None:
        for slot in self._slots.values():
            slot[:] = [0, 0.0, 0]

    def snapshot(self) -> dict[str, dict]:
        return {
            name: {"calls": calls, "s": seconds, "bytes": nbytes}
            for name, (calls, seconds, nbytes) in self._slots.items()
        }

    def traced_problem(self, problem: SplitProblem) -> SplitProblem:
        """The same problem with its four oracle callables wrapped in spans."""
        f = replace(
            problem.f,
            prox=self.wrap("f_prox", problem.f.prox),
            value=self.wrap("f_value", problem.f.value),
        )
        g = replace(
            problem.g,
            prox=self.wrap("g_prox", problem.g.prox),
            value=self.wrap("g_value", problem.g.value),
        )
        return SplitProblem(f=f, g=g, dim=problem.dim)

    def attach(self, cset) -> None:
        """Route `cset.project` through a span (an instance attribute
        shadows the method, so every caller holding `cset` sees it).
        Problems without an affine set pass None."""
        if cset is None:
            return
        m, n = cset.A.shape
        cset.project = self.wrap("affine_project", type(cset).project.__get__(cset), 16 * m * n)

    @staticmethod
    def detach(cset) -> None:
        if cset is not None:
            cset.__dict__.pop("project", None)


def time_call(fn, *args, repeats: int = 5, min_seconds: float = 0.005) -> float:
    """Median microseconds per call over `repeats`, each at least `min_seconds`."""
    fn(*args)
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or loops >= 1 << 16:
            break
        loops *= 2
    samples = [elapsed / loops]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        samples.append((time.perf_counter() - start) / loops)
    return 1e6 * median(samples)


def _warm_state(task, steps: int = 5):
    """A state a few steps into the solve, so the oracles see realistic input."""
    state = initial_state(np.zeros(task.dim))
    for _ in range(steps):
        state = STEPS[task.method](state, task.problem, task.gamma)
    return state


def microbenchmarks(tasks) -> list[dict]:
    """One record per (layer callable, cell) at the shapes of `tasks`.

    A cell is the first task of each (shape, method, set) label; callables
    that do not run on a task's problem are not timed for it.
    """
    cells = {}
    for task in tasks:
        cells.setdefault(task.label, task)
    out = []

    def record(name, task, fn, *args):
        out.append({"kind": "micro", "name": name, "task": task.label, "us": time_call(fn, *args)})

    seen_shapes = set()
    for task in cells.values():
        state = _warm_state(task)
        y, z, x = state.y, state.z, state.x
        w = 2.0 * y - x
        record("splitting.merit.us", task, MERITS[task.method], y, z, x, task.problem, task.gamma)
        record("splitting.step.us", task, STEPS[task.method], state, task.problem, task.gamma)
        first_of_shape = task.shape not in seen_shapes
        seen_shapes.add(task.shape)
        if task.cset is not None:
            if not first_of_shape:
                continue
            inst = task.data
            record("oracles.affine_project.micro_us", task, task.cset.project, w)
            record("oracles.sparse_box_project.us", task, inst.sparse_set().project, w)
            record("linalg.spd_factor.us", task, spd_factor, inst.A @ inst.A.T)
            record("linalg.spd_solve.us", task, task.cset.gram_factor.solve, inst.A @ w - inst.b)
            record("problems.evaluate_fval.us", task, evaluate_fval, z, inst)
            continue
        inst = task.data
        dset = inst.constraint
        if isinstance(dset, SparseBoxSet):
            record("oracles.sparse_box_project.us", task, dset.project, w)
        elif isinstance(dset, BoxSet):
            record("oracles.box_project.us", task, dset.project, w)
        prox = task.problem.f.prox
        record("oracles.shifted_quadratic_prox.us", task, prox, task.gamma, x)
        if first_of_shape:
            # The system ShiftedQuadraticProx factors: n x n on tall A,
            # m x m (Woodbury) on wide A.
            m, n = task.shape
            c = 1.0 + 5.0 * task.gamma * prox.lam_max
            gram = inst.A @ inst.A.T if m < n / 2 else inst.A.T @ inst.A
            system = task.gamma * gram + c * np.eye(gram.shape[0])
            factor = spd_factor(system)
            record("linalg.spd_factor.us", task, spd_factor, system)
            record("linalg.spd_solve.us", task, factor.solve, system @ np.ones(gram.shape[0]))
            record("linalg.spectral_norm_sq.us", task, spectral_norm_sq, inst.A, 1e-10)
    return out
