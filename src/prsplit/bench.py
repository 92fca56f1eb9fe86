"""Benchmark harness: solve batches of random feasibility instances and tabulate.

For every requested (m, n) shape the harness generates `trials` planted
instances one at a time, solves each with every requested method from the
origin through :func:`solve_trial` before drawing the next, and aggregates
per-shape statistics: mean iteration count, the extreme terminal quality
values, success / failure / undecided counts, and mean wall time. So one
instance is in memory at a time, and progress lines arrive once per shape,
after all of its trials. A trial whose build or solve raises counts as a
failure.
Per-trial seeds are derived from (base seed, m, n, trial) with a splitmix64
mix, so every row is reproducible in isolation and the whole table is a
pure function of its configuration (wall time aside).

Both engines run the step-size heuristic by default, from the (start,
floor) steps of :data:`METHOD_STEPS`, the one place those constants live,
as :data:`PRESETS` is of each preset's shapes and trials per shape; every
other setting, ``tol`` and ``max_iter`` among them, is :class:`SolverConfig`'s.
PR starts 5% below 1/5, where its shifted g-prox stops being well-posed,
and decays toward 1/12, its stationary cap for this problem. The DR
baseline starts large and decays toward its floor should the iterates ever
destabilize. A large starting step makes the DR smooth prox behave like a
near-projection onto the affine set, which favors solution quality over
speed; the DR constants are a calibrated working choice, not an output of
the step-size analysis, and both can be overridden.

The table's columns are defined once, in ``_COLUMNS``; :data:`CSV_HEADER`,
:func:`render_csv` and :func:`render_markdown` read it.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .problems import (
    FeasibilityInstance,
    build_feasibility_dr,
    build_feasibility_pr,
    check_shape,
    classify,
    evaluate_fval,
    gen_feasibility,
)
from .linalg import _check_count
from .oracles import _SHIFT_WEIGHT
from .splitting import SolverConfig, SolverReport, gamma_threshold, run

__all__ = [
    "BenchConfig",
    "BenchRow",
    "CSV_HEADER",
    "DESK_PAIRS",
    "FULL_PAIRS",
    "METHOD_STEPS",
    "PRESETS",
    "format_fval",
    "render_csv",
    "render_markdown",
    "run_bench",
    "solve_trial",
    "solver_config",
    "trial_seed",
]

DESK_PAIRS = tuple((m, n) for m in (50, 100, 150) for n in (500, 1000))
FULL_PAIRS = tuple((m, n) for m in (100, 200, 300, 400, 500) for n in (4000, 5000, 6000))

# Each preset's shapes and instances per shape. BenchConfig's defaults are
# the desk row; the CLI's --preset choices and --trials default read it here.
PRESETS = MappingProxyType({"desk": (DESK_PAIRS, 20), "full": (FULL_PAIRS, 50)})

# Default heuristic (gamma0, gamma1) of each method: the start step and the
# floor it decays toward. BenchConfig and both CLI subcommands read them here.
# PR's follow from the shift weight a (L = 1): 0.95 / a and the cap 1/12.
METHOD_STEPS = MappingProxyType({
    "pr": (0.95 / _SHIFT_WEIGHT, gamma_threshold(_SHIFT_WEIGHT, _SHIFT_WEIGHT + 1.0)),
    "dr": (50.0, 1.0 / 3.0),
})

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BenchConfig:
    """What to run: shapes, trials, seed, methods and each method's (gamma0, gamma1) steps, nothing more."""

    pairs: tuple[tuple[int, int], ...] = PRESETS["desk"][0]
    trials: int = PRESETS["desk"][1]
    base_seed: int = 0
    methods: tuple[str, ...] = tuple(METHOD_STEPS)
    steps: Mapping[str, tuple[float, float]] = field(default_factory=METHOD_STEPS.copy, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", MappingProxyType(dict(self.steps)))
        if not self.pairs:
            raise ValueError("need at least one (m, n) pair")
        for m, n in self.pairs:
            check_shape(m, n)  # every shape fails here, before the first solve
        if len(set(map(tuple, self.pairs))) != len(self.pairs):
            raise ValueError(f"pairs must not repeat, got {self.pairs}")
        _check_count(self.trials, "trials", 1)
        _check_count(self.base_seed, "base_seed")
        if not self.methods or not all(isinstance(m, str) and m in METHOD_STEPS for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {tuple(METHOD_STEPS)}, got {self.methods}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        for method in dict.fromkeys((*self.methods, *self.steps)):  # every entry, for a method run or not
            if method not in METHOD_STEPS:
                raise ValueError(f"steps keys must be methods in {tuple(METHOD_STEPS)}, got {method!r}")
            pair = self.steps.get(method)
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(f"steps must map method {method!r} to a (gamma0, gamma1) pair, got {pair!r}")
            solver_config(self, method)  # a bad step fails here, before any solve


@dataclass(frozen=True)
class BenchRow:
    """Aggregated results of one (shape, method) cell."""

    m: int
    n: int
    method: str
    mean_iterations: float
    fval_max: float
    fval_min: float
    successes: int
    failures: int
    undecided: int
    mean_seconds: float


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state ^ (state >> 31)


def trial_seed(base_seed: int, m: int, n: int, trial: int) -> int:
    """Stable per-trial seed mixed from (base_seed, m, n, trial).

    Each input is a Python or numpy integer, not a bool: base_seed, m and n
    any integer, as they are only hashed, and trial at least 0. Anything
    else raises ValueError naming it.
    """
    for name, word in (("base_seed", base_seed), ("m", m), ("n", n)):
        _check_count(word, name)
    _check_count(trial, "trial", 0)
    mixed = _splitmix64(operator.index(base_seed) & _MASK64)  # index(): a numpy integer & _MASK64 overflows
    for word in (m, n, trial):
        mixed = _splitmix64(mixed ^ (operator.index(word) & _MASK64))
    return mixed


def solver_config(cfg: BenchConfig, method: str) -> SolverConfig:
    """Solver settings for one method: its ``cfg.steps`` pair, and :class:`SolverConfig`'s defaults otherwise."""
    gamma0, gamma1 = cfg.steps[method]
    return SolverConfig(gamma0=gamma0, gamma1=gamma1, method=method)


def solve_trial(
    inst: FeasibilityInstance, config: SolverConfig, observer=None
) -> tuple[SolverReport, float, str, float]:
    """Solve one instance with ``config.method`` from the origin and classify it.

    Returns ``(report, fval, outcome, seconds)``: the :class:`SolverReport`,
    the quality ``dist(z, C)^2 / 2`` of its final ``z`` (``inf`` when the run
    took no step), the outcome (a diverged run is a ``"failure"`` whatever
    its ``z``, any other is :func:`classify` of ``fval``) and the wall time
    of the ``run`` call alone. `observer` is passed on to ``run``. A build or
    solve that raises propagates.
    """
    problem = (build_feasibility_pr if config.method == "pr" else build_feasibility_dr)(inst)
    start = time.perf_counter()
    report = run(problem, config, np.zeros(inst.n), observer=observer)
    seconds = time.perf_counter() - start
    z = report.state.z
    fval = np.inf if z is None else evaluate_fval(z, inst)
    outcome = "failure" if report.reason == "diverged" else classify(fval)
    return report, fval, outcome, seconds


# (iterations, fval, outcome, seconds) of a trial whose draw, build or solve raised.
_FAILED_TRIAL = (0, np.inf, "failure", 0.0)


def run_bench(cfg: BenchConfig, progress=None) -> list[BenchRow]:
    """Solve every (pair, trial, method) cell and aggregate per-row statistics.

    Each instance is generated once, solved by every method through
    :func:`solve_trial` and dropped before the next is drawn, so one instance
    is in memory at a time. A diverged run counts as a failure (its terminal
    quality value still enters the extremes). A method whose build or solve
    raises ``ValueError`` (a step that makes a shifted prox ill-posed raises
    :class:`ProxShiftError`, one of these) or ``np.linalg.LinAlgError`` also
    counts as a failure, with quality ``inf``, 0 iterations and 0 seconds,
    and so does every method of a trial whose draw raises one (a
    rank-deficient A raises :class:`RankDeficientError`); the table is
    finished. `progress`, if given, is called with one line of text per
    (pair, method) row, once all trials of the pair are done.
    """
    configs = {method: solver_config(cfg, method) for method in cfg.methods}
    rows: list[BenchRow] = []
    for m, n in cfg.pairs:
        results: dict[str, list] = {method: [] for method in cfg.methods}
        for trial in range(cfg.trials):
            try:
                inst = gen_feasibility(m, n, trial_seed(cfg.base_seed, m, n, trial))
            except (ValueError, np.linalg.LinAlgError):
                for method in cfg.methods:
                    results[method].append(_FAILED_TRIAL)
                continue
            for method, config in configs.items():
                try:
                    report, fval, outcome, seconds = solve_trial(inst, config)
                    results[method].append((report.iterations, fval, outcome, seconds))
                except (ValueError, np.linalg.LinAlgError):
                    results[method].append(_FAILED_TRIAL)
            del inst  # before the next draw, so two instances never coexist
        for method in cfg.methods:
            iterations, fvals, outcomes, seconds = zip(*results[method])
            row = BenchRow(
                m=m,
                n=n,
                method=method,
                mean_iterations=float(np.mean(iterations)),
                fval_max=float(np.max(fvals)),
                fval_min=float(np.min(fvals)),
                successes=outcomes.count("success"),
                failures=outcomes.count("failure"),
                undecided=outcomes.count("undecided"),
                mean_seconds=float(np.mean(seconds)),
            )
            rows.append(row)
            if progress is not None:
                progress(
                    f"m={m} n={n} {method}: iter={row.mean_iterations:.1f} "
                    f"succ={row.successes}/{cfg.trials} fail={row.failures} "
                    f"und={row.undecided} ({row.mean_seconds:.3f}s/trial)"
                )
    return rows


def format_fval(value: float) -> str:
    """One-significant-digit scientific notation, e.g. 0.03 -> '3e-02'."""
    return f"{value:.0e}"


# The bench table, one entry per column: (CSV heading, BenchRow field,
# formatter). Its headings are also markdown's, but `und` for `undecided`.
_COLUMNS = (
    ("m", "m", str),
    ("n", "n", str),
    ("method", "method", str),
    ("iter", "mean_iterations", "{:.1f}".format),
    ("fval_max", "fval_max", format_fval),
    ("fval_min", "fval_min", format_fval),
    ("succ", "successes", str),
    ("fail", "failures", str),
    ("undecided", "undecided", str),
    ("seconds", "mean_seconds", "{:.4f}".format),
)
CSV_HEADER = ",".join(heading for heading, *_ in _COLUMNS)


def _cells(row: BenchRow, columns=_COLUMNS) -> list[str]:
    return [fmt(getattr(row, field)) for _, field, fmt in columns]


def render_csv(rows: list[BenchRow]) -> str:
    """Fixed-column CSV; identical configs give identical bytes except `seconds`."""
    return "\n".join([CSV_HEADER] + [",".join(_cells(row)) for row in rows]) + "\n"


def render_markdown(rows: list[BenchRow]) -> str:
    """Markdown table with one row per shape and method-grouped column blocks."""
    stats = _COLUMNS[3:-1]  # iter through undecided: one block per method, no seconds
    headings = [heading.replace("undecided", "und") for heading, *_ in stats]
    methods = list(dict.fromkeys(row.method for row in rows))
    cells = {(row.m, row.n, row.method): row for row in rows}
    header = ["m", "n"] + [f"{method.upper()} {heading}" for method in methods for heading in headings]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for m, n in dict.fromkeys((row.m, row.n) for row in rows):
        fields = [str(m), str(n)]
        for method in methods:
            row = cells.get((m, n, method))
            fields += ["-"] * len(stats) if row is None else _cells(row, stats)
        lines.append("| " + " | ".join(fields) + " |")
    return "\n".join(lines) + "\n"
