"""Benchmark harness: solve batches of random feasibility instances and tabulate.

For every requested (m, n) shape the harness generates `trials` planted
instances, solves each with the requested methods from the origin, and
aggregates per-shape statistics: mean iteration count, the extreme terminal
quality values, success / failure / undecided counts, and mean wall time.
Per-trial seeds are derived from (base seed, m, n, trial) with a splitmix64
mix, so every row is reproducible in isolation and the whole table is a
pure function of its configuration (wall time aside).

Both engines run the step-size heuristic by default, from the (start,
floor) steps of :data:`METHOD_STEPS`, the one place those constants live.
PR starts 5% below 1/5, where its shifted g-prox stops being well-posed,
and decays toward 1/12, its stationary cap for this problem. The DR
baseline starts large and decays toward its floor should the iterates ever
destabilize. A large starting step makes the DR smooth prox behave like a
near-projection onto the affine set, which favors solution quality over
speed; the DR constants are a calibrated working choice, not an output of
the step-size analysis, and both can be overridden.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .problems import (
    build_feasibility_dr,
    build_feasibility_pr,
    check_shape,
    classify,
    evaluate_fval,
    gen_feasibility,
)
from .splitting import SolverConfig, run

__all__ = [
    "BenchConfig",
    "BenchRow",
    "CSV_HEADER",
    "DESK_PAIRS",
    "FULL_PAIRS",
    "METHOD_STEPS",
    "emit_table",
    "format_fval",
    "parse_csv",
    "render_csv",
    "render_markdown",
    "run_bench",
    "solver_config",
    "trial_seed",
]

DESK_PAIRS = tuple((m, n) for m in (50, 100, 150) for n in (500, 1000))
FULL_PAIRS = tuple((m, n) for m in (100, 200, 300, 400, 500) for n in (4000, 5000, 6000))

CSV_HEADER = "m,n,method,iter,fval_max,fval_min,succ,fail,undecided,seconds"

# Default heuristic (gamma0, gamma1) of each method: the start step and the
# floor it decays toward. BenchConfig and both CLI subcommands read them here.
METHOD_STEPS = {"pr": (0.95 / 5.0, 1.0 / 12.0), "dr": (50.0, 1.0 / 3.0)}

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BenchConfig:
    """What to run: shapes, trials, methods, solver settings."""

    pairs: tuple[tuple[int, int], ...] = DESK_PAIRS
    trials: int = 50
    base_seed: int = 0
    methods: tuple[str, ...] = ("pr", "dr")
    tol: float = 1e-8
    max_iter: int = 50_000
    pr_gamma0: float = METHOD_STEPS["pr"][0]
    pr_gamma1: float = METHOD_STEPS["pr"][1]
    dr_gamma0: float = METHOD_STEPS["dr"][0]
    dr_gamma1: float = METHOD_STEPS["dr"][1]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("need at least one (m, n) pair")
        for m, n in self.pairs:
            check_shape(m, n)  # every shape fails here, before the first solve
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.methods or any(m not in ("pr", "dr") for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of ('pr', 'dr'), got {self.methods}")
        for method in self.methods:
            solver_config(self, method)  # bad steps or tol fail here, before any solve


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
    """Stable per-trial seed mixed from (base_seed, m, n, trial)."""
    mixed = _splitmix64(base_seed & _MASK64)
    for word in (m, n, trial):
        mixed = _splitmix64(mixed ^ (word & _MASK64))
    return mixed


def solver_config(cfg: BenchConfig, method: str) -> SolverConfig:
    """Heuristic-enabled solver settings for one method."""
    if method == "pr":
        gamma0, gamma1 = cfg.pr_gamma0, cfg.pr_gamma1
    else:
        gamma0, gamma1 = cfg.dr_gamma0, cfg.dr_gamma1
    return SolverConfig(gamma0=gamma0, gamma1=gamma1, method=method, tol=cfg.tol, max_iter=cfg.max_iter)


def run_bench(cfg: BenchConfig, progress=None) -> list[BenchRow]:
    """Solve every (pair, method, trial) cell and aggregate per-row statistics.

    A diverged run counts as a failure (its terminal quality value still
    enters the extremes). `progress`, if given, is called with one line of
    text after each finished (pair, method) cell.
    """
    builders = {"pr": build_feasibility_pr, "dr": build_feasibility_dr}
    rows: list[BenchRow] = []
    for m, n in cfg.pairs:
        instances = [
            gen_feasibility(m, n, trial_seed(cfg.base_seed, m, n, trial))
            for trial in range(cfg.trials)
        ]
        for method in cfg.methods:
            solver_cfg = solver_config(cfg, method)
            iterations = []
            fvals = []
            outcomes = {"success": 0, "failure": 0, "undecided": 0}
            elapsed = []
            for inst in instances:
                problem = builders[method](inst)
                start = time.perf_counter()
                report = run(problem, solver_cfg, np.zeros(n))
                elapsed.append(time.perf_counter() - start)
                iterations.append(report.iterations)
                fval = evaluate_fval(report.state.z, inst) if report.state.z is not None else np.inf
                fvals.append(fval)
                outcome = "failure" if report.reason == "diverged" else classify(fval)
                outcomes[outcome] += 1
            row = BenchRow(
                m=m,
                n=n,
                method=method,
                mean_iterations=float(np.mean(iterations)),
                fval_max=float(np.max(fvals)),
                fval_min=float(np.min(fvals)),
                successes=outcomes["success"],
                failures=outcomes["failure"],
                undecided=outcomes["undecided"],
                mean_seconds=float(np.mean(elapsed)),
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


def render_csv(rows: list[BenchRow]) -> str:
    """Fixed-column CSV; identical configs give identical bytes except `seconds`."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.m},{row.n},{row.method},{row.mean_iterations:.1f},"
            f"{format_fval(row.fval_max)},{format_fval(row.fval_min)},"
            f"{row.successes},{row.failures},{row.undecided},{row.mean_seconds:.4f}"
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[BenchRow]:
    """Inverse of :func:`render_csv` up to the formatting precision."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        m, n, method, iters, fmax, fmin, succ, fail, und, seconds = line.split(",")
        rows.append(
            BenchRow(
                m=int(m),
                n=int(n),
                method=method,
                mean_iterations=float(iters),
                fval_max=float(fmax),
                fval_min=float(fmin),
                successes=int(succ),
                failures=int(fail),
                undecided=int(und),
                mean_seconds=float(seconds),
            )
        )
    return rows


def render_markdown(rows: list[BenchRow]) -> str:
    """Markdown table with one row per shape and method-grouped column blocks."""
    methods: list[str] = []
    for row in rows:
        if row.method not in methods:
            methods.append(row.method)
    shapes: list[tuple[int, int]] = []
    cells: dict[tuple[int, int, str], BenchRow] = {}
    for row in rows:
        if (row.m, row.n) not in shapes:
            shapes.append((row.m, row.n))
        cells[(row.m, row.n, row.method)] = row

    header = ["m", "n"]
    for method in methods:
        tag = method.upper()
        header += [f"{tag} iter", f"{tag} fval_max", f"{tag} fval_min", f"{tag} succ", f"{tag} fail", f"{tag} und"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for m, n in shapes:
        fields = [str(m), str(n)]
        for method in methods:
            row = cells.get((m, n, method))
            if row is None:
                fields += ["-"] * 6
            else:
                fields += [
                    f"{row.mean_iterations:.1f}",
                    format_fval(row.fval_max),
                    format_fval(row.fval_min),
                    str(row.successes),
                    str(row.failures),
                    str(row.undecided),
                ]
        lines.append("| " + " | ".join(fields) + " |")
    return "\n".join(lines) + "\n"


def emit_table(rows: list[BenchRow], fmt: str = "csv", path=None) -> str:
    """Render `rows` as 'csv' or 'markdown' and optionally write to `path`."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "markdown":
        text = render_markdown(rows)
    else:
        raise ValueError(f"format must be 'csv' or 'markdown', got {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    return text
