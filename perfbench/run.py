"""Benchmark of the prsplit library: time to a checked solution, per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload feas-desk --seed 9173 --seconds 30 --trace 0

One process, closed loop, one solve at a time. A run sets up the workload
three to nine times (the median is ``setup_s``), makes one untimed warm-up solve
of its first task, then repeats whole passes over its tasks, stopping at the
pass boundary nearest to ``--seconds``, so every run solves each task
equally often.
Outputs are checked after the measured phase, outside every timed window.

With ``--trace 1`` each task is solved plain and traced back to back, and
the layer microbenchmarks run at the end; the last line then carries
the per-layer metrics instead of the end-to-end ones.

The library is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits with status 2. Per-solve records
go to ``.perfbench/<workload>-s<seed>-t<trace>.jsonl`` in the checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 9173
# Set-ups per run: at least SETUP_MIN, more while they fit in SETUP_BUDGET_S
# seconds, at most SETUP_MAX. setup_s is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 1.5
OPERATION_FAILURES = ("invalid", "error")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpus() -> int:
    """CPUs this process may use (`nproc`)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def limit_blas_threads() -> int:
    """Cap BLAS threads at `cpus()`; call before numpy loads."""
    threads = cpus()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


class Runner:
    """Solves tasks, keeping each output until it is checked."""

    def __init__(self, workload: str):
        import numpy
        from prsplit import run

        self.workload = workload
        self.pending: list[tuple[dict, object, object]] = []
        self._zeros = numpy.zeros
        self._run = run

    def solve(self, task, problem, phase: str, pass_index: int, tracer=None) -> None:
        x0 = self._zeros(task.dim)
        if tracer is not None:
            tracer.reset()
        error = None
        start = time.perf_counter()
        try:
            report = self._run(problem, task.config, x0)
        except Exception as exc:  # a failed solve is recorded, never fatal
            report, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        rec = {
            "kind": "solve",
            "phase": phase,
            "pass": pass_index,
            "workload": self.workload,
            "task": task.label,
            "shape": list(task.shape),
            "method": task.method,
            "seed": task.seed,
            "setup_s": task.setup_s,
            "solve_s": elapsed,
            "iterations": 0 if report is None else report.iterations,
            "reason": "error" if report is None else report.reason,
            "error": error,
            "shrinks": [] if report is None else shrinks(report.gamma_trace),
        }
        if tracer is not None:
            rec["spans"] = tracer.snapshot()
        self.pending.append((rec, task, None if report is None else report.state.z))

    def checked_records(self) -> tuple[list[dict], int]:
        """Records with their verdicts, and the number of inconsistent outputs."""
        out, inconsistent = [], 0
        for rec, task, z in self.pending:
            if rec["error"] is not None:
                rec.update(outcome="error", fval=None, fval_check=None, library_class=None)
            else:
                verdict = task.check(z, rec["reason"])
                rec.update(outcome=verdict.outcome, fval=verdict.value, fval_check=verdict.check,
                           library_class=verdict.library_class)
                inconsistent += not verdict.consistent
            out.append(rec)
        self.pending = []
        return out, inconsistent


def shrinks(gamma_trace) -> list[list[float]]:
    """[t, gamma after] for each step-size shrink; t is the iteration whose
    check fired (gamma_trace[t] is the step of iteration t + 1)."""
    return [
        [t, float(gamma_trace[t])]
        for t in range(1, len(gamma_trace))
        if gamma_trace[t] < gamma_trace[t - 1]
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], int]:
    """Run one benchmark and return (records, inconsistent outputs)."""
    import workloads
    from layers import Tracer, microbenchmarks
    from metrics import peak_rss_mb

    records = []
    spent = 0.0
    for rep in range(SETUP_MAX):
        if rep >= SETUP_MIN and spent >= SETUP_BUDGET_S:
            break
        setup = None  # release the previous set-up before timing the next
        start = time.perf_counter()
        setup = workloads.setup(workload, seed)
        elapsed = time.perf_counter() - start
        spent += elapsed
        records.append(
            {"kind": "setup", "rep": rep, "seconds": elapsed, "gen_s": setup.gen_s, "build_s": setup.build_s}
        )
    tasks = setup.tasks
    runner = Runner(workload)
    runner.solve(tasks[0], tasks[0].problem, "warmup", 0)

    tracer = Tracer() if trace else None
    traced = [tracer.traced_problem(task.problem) for task in tasks] if trace else None
    phases = ("untraced", "traced") if trace else ("timed",)
    walls = dict.fromkeys(phases, 0.0)
    began = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, task in enumerate(tasks):
            # A traced run solves each task plain and traced back to back,
            # alternating which goes first, so both see the same machine.
            order = phases if (i + passes) % 2 == 0 else phases[::-1]
            for phase in order:
                start = time.perf_counter()
                if phase == "traced":
                    tracer.attach(task.cset)
                    runner.solve(task, traced[i], phase, passes, tracer)
                    Tracer.detach(task.cset)
                else:
                    runner.solve(task, task.problem, phase, passes)
                walls[phase] += time.perf_counter() - start
        passes += 1
        # Stop at the pass boundary nearest to the deadline.
        now = time.perf_counter()
        if now - began + (now - pass_start) / 2 >= seconds:
            break
    rss = peak_rss_mb()
    for phase in phases:
        records.append({"kind": "phase", "phase": phase, "wall_s": walls[phase], "peak_rss_mb": rss,
                        "passes": passes, "tasks": len(tasks)})
    solves, inconsistent = runner.checked_records()
    records.extend(solves)
    if trace:
        records.extend(microbenchmarks(tasks))
    return records, inconsistent


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    src = ROOT / "src"
    if not (src / "prsplit" / "__init__.py").is_file():
        print(f"error: no prsplit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import prsplit
    import workloads
    from metrics import END_TO_END, END_TO_END_INFO, PER_LAYER, end_to_end, machine, per_layer

    if not Path(prsplit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: prsplit resolved to {prsplit.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    info = machine(ROOT, args.seed, threads, cpus())
    records, inconsistent = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    records.insert(0, info)

    phase = "untraced" if args.trace else "timed"
    measured = [rec for rec in records if rec["kind"] == "solve" and rec["phase"] != "warmup"]
    failed = sum(rec["outcome"] in OPERATION_FAILURES for rec in measured)
    invalid = sum(rec["outcome"] == "invalid" for rec in records if rec["kind"] == "solve")
    e2e = end_to_end(records, phase)
    layer = per_layer(records) if args.trace else {}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    records_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.jsonl"
    with open(records_path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec) + "\n")

    print("machine " + json.dumps({k: v for k, v in info.items() if k != "kind"}))
    outcomes = dict(Counter(rec["outcome"] for rec in measured))
    print(f"workload {args.workload}: {len(measured)} solves {outcomes}, "
          f"{inconsistent} inconsistent, records in {records_path.relative_to(ROOT)}")
    units = {**END_TO_END, **END_TO_END_INFO, **PER_LAYER}
    for name, value in list(e2e.items()) + list(layer.items()):
        print(f"  {name:36s} {value:14.6g} {units[name]}")

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    result = {
        "correct": invalid == 0 and inconsistent == 0,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
