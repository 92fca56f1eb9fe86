"""Metrics computed from the per-solve records, plus the machine block.

Every reported number is a function of the records a run writes, so a
records file is enough to recompute (or audit) a result.

Record kinds:

- ``setup``: one set-up of the whole workload (seconds, of which gen_s in
  `gen_feasibility` and build_s in builds and forced factorizations);
- ``solve``: one `run` call (phase, pass, task, shape, method, seed,
  iterations, reason, fval, check value, outcome, gamma shrinks, set-up
  and solve seconds, and, when traced, its span totals);
- ``phase``: wall time of a measured phase and the peak RSS at its end;
- ``micro``: one layer microbenchmark at one task's shape.
"""

from __future__ import annotations

import platform
import resource
from pathlib import Path
from statistics import mean, median

from layers import ORACLE_SPANS, SPANS

# Gated end-to-end metrics, name -> unit, in print order. Each is never 0
# and its spread over seeds stays within its bound in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "iters.mean": "count",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not gated. On a shared 2-vCPU machine the speed
# of one and the same solve drifts by 15-20% between 30-second runs, so the
# solve-time metrics spread over seeds by up to the largest bound a gate
# may have; the solve times also mix fast and slow tasks (PR and DR, box
# and sparse cap), so their median and tail jump between clusters. The
# failure share is 0 on some workloads (it is gated as solved_frac), and
# the tail's percentile is a label.
END_TO_END_INFO = {
    "iter_us.p50": "us",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "solve_s.tail_pct": "%",
    "solves_per_s": "1/s",
    "warmup_s": "s",
    "fail_frac": "frac",
}

MICRO = (
    "oracles.affine_project.micro_us",
    "oracles.sparse_box_project.us",
    "oracles.box_project.us",
    "oracles.shifted_quadratic_prox.us",
    "splitting.merit.us",
    "splitting.step.us",
    "linalg.spd_factor.us",
    "linalg.spd_solve.us",
    "linalg.spectral_norm_sq.us",
    "problems.evaluate_fval.us",
)
PER_LAYER = {
    **{f"oracles.{name}.us": "us" for name in SPANS},
    **{f"oracles.{name}.share": "frac" for name in SPANS},
    "oracles.affine_project.per_iter": "count",
    "oracles.affine_project.gbps": "GB/s",
    "splitting.run.self_us_per_iter": "us",
    "splitting.gamma_shrinks": "count",
    "problems.gen_feasibility.s": "s",
    "problems.build.s": "s",
    "trace.overhead_frac": "frac",
    **{name: "us" for name in MICRO},
}

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; the median when there are too few values for that."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 2 * TAIL_BEYOND:
        return median(ordered), 50.0
    index = count - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * index / (count - 1)


def _solves(records, phase):
    return [rec for rec in records if rec["kind"] == "solve" and rec["phase"] == phase]


def _phase(records, phase):
    return next(rec for rec in records if rec["kind"] == "phase" and rec["phase"] == phase)


def iter_us_p50(solves) -> float:
    return median(1e6 * rec["solve_s"] / rec["iterations"] for rec in solves if rec["iterations"] > 0)


def end_to_end(records, phase: str = "timed") -> dict[str, float]:
    """End-to-end metrics of the solves in `phase`."""
    solves = _solves(records, phase)
    seconds = [rec["solve_s"] for rec in solves]
    tail_s, tail_pct = tail(seconds)
    ok = sum(rec["outcome"] == "success" for rec in solves)
    phase_rec = _phase(records, phase)
    return {
        "setup_s": median(rec["seconds"] for rec in records if rec["kind"] == "setup"),
        "warmup_s": _solves(records, "warmup")[0]["solve_s"],
        "solve_s.p50": median(seconds),
        "solve_s.tail": tail_s,
        "iter_us.p50": iter_us_p50(solves),
        "solves_per_s": len(solves) / phase_rec["wall_s"],
        "iters.mean": mean(rec["iterations"] for rec in solves),
        "solved_frac": ok / len(solves),
        "peak_rss_mb": phase_rec["peak_rss_mb"],
        "fail_frac": 1.0 - ok / len(solves),
        "solve_s.tail_pct": tail_pct,
    }


def per_layer(records) -> dict[str, float]:
    """Per-layer metrics of a traced run; a layer that never ran reads 0."""
    traced = _solves(records, "traced")
    total = {name: {"calls": 0, "s": 0.0, "bytes": 0} for name in SPANS}
    for rec in traced:
        for name, span in rec["spans"].items():
            for key in span:
                total[name][key] += span[key]
    run_s = sum(rec["solve_s"] for rec in traced)
    iterations = sum(rec["iterations"] for rec in traced)
    out = {}
    for name in SPANS:
        span = total[name]
        out[f"oracles.{name}.us"] = 1e6 * span["s"] / span["calls"] if span["calls"] else 0.0
        out[f"oracles.{name}.share"] = span["s"] / run_s
    affine = total["affine_project"]
    out["oracles.affine_project.per_iter"] = affine["calls"] / iterations
    out["oracles.affine_project.gbps"] = affine["bytes"] / affine["s"] / 1e9 if affine["s"] else 0.0
    oracle_s = sum(total[name]["s"] for name in ORACLE_SPANS)
    out["splitting.run.self_us_per_iter"] = 1e6 * (run_s - oracle_s) / iterations
    out["splitting.gamma_shrinks"] = mean(len(rec["shrinks"]) for rec in traced)
    setups = [rec for rec in records if rec["kind"] == "setup"]
    out["problems.gen_feasibility.s"] = median(rec["gen_s"] for rec in setups)
    out["problems.build.s"] = median(rec["build_s"] for rec in setups)
    out["trace.overhead_frac"] = iter_us_p50(traced) / iter_us_p50(_solves(records, "untraced")) - 1.0
    for name in MICRO:
        samples = [rec["us"] for rec in records if rec["kind"] == "micro" and rec["name"] == name]
        out[name] = mean(samples) if samples else 0.0
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> list[int]:
    """Thread counts that the loaded OpenBLAS libraries report (Linux only)."""
    import ctypes

    counts = []
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return counts
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                counts.append(int(getter()))
                break
    return counts


def machine(root: Path, seed: int, blas_threads: int, nproc: int) -> dict:
    """Where and with what a result was measured."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "kind": "machine",
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": blas_threads,
        "blas_threads_reported": _blas_threads(),
        "nproc": nproc,
        "platform": platform.platform(),
        "seed": seed,
    }
