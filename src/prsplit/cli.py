"""Command-line front end: `bench` for result tables, `solve` for single runs.

Examples
--------
Desk-scale benchmark of both methods, CSV to a file::

    prsplit bench --trials 20 --seed 42 --out results.csv

Explicit shapes and a markdown table on stdout::

    prsplit bench --pairs 100x1000,150x500 --trials 20 --methods pr,dr --format markdown

One instance with a per-iteration trace::

    prsplit solve --m 100 --n 1000 --seed 7 --method pr --trace trace.csv

Exit status is 0 on completion and 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import DESK_PAIRS, FULL_PAIRS, METHOD_STEPS, BenchConfig, emit_table, run_bench
from .problems import (
    build_feasibility_dr,
    build_feasibility_pr,
    classify,
    evaluate_fval,
    gen_feasibility,
    load_instance,
    save_instance,
)
from .splitting import HeuristicConfig, SolverConfig, run


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        try:
            m_text, n_text = chunk.lower().split("x")
            pairs.append((int(m_text), int(n_text)))
        except ValueError as exc:
            raise ValueError(f"bad pair {chunk!r}, expected MxN like 100x1000") from exc
    return tuple(pairs)


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(tok.strip().lower() for tok in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prsplit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a batch of random instances and tabulate")
    bench.add_argument("--pairs", type=_parse_pairs, default=None, help="comma list of MxN shapes")
    bench.add_argument(
        "--preset",
        choices=("desk", "full"),
        default="desk",
        help="shape preset when --pairs is not given (desk: m in 50..150, n in 500..1000; "
        "full: the m in 100..500, n in 4000..6000 grid)",
    )
    bench.add_argument("--trials", type=int, default=None, help="instances per shape (desk default 20, full 50)")
    bench.add_argument("--methods", type=_parse_methods, default=("pr", "dr"))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--tol", type=float, default=1e-8)
    bench.add_argument("--max-iter", type=int, default=50_000)
    for method, (gamma0, gamma1) in METHOD_STEPS.items():
        bench.add_argument(f"--{method}-gamma0", type=float, default=gamma0)
        bench.add_argument(f"--{method}-gamma1", type=float, default=gamma1)
    bench.add_argument("--out", default=None, help="output path (default stdout)")
    bench.add_argument("--format", choices=("csv", "markdown"), default="csv")
    bench.add_argument("--quiet", action="store_true", help="suppress per-cell progress on stderr")

    solve = sub.add_parser("solve", help="solve one feasibility instance")
    solve.add_argument("--m", type=int, default=100)
    solve.add_argument("--n", type=int, default=1000)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--instance", default=None, help="load a saved instance instead of generating")
    solve.add_argument("--save-instance", default=None, help="write the instance to this path")
    solve.add_argument("--method", choices=("pr", "dr"), default="pr")
    solve.add_argument("--tol", type=float, default=1e-8)
    solve.add_argument("--max-iter", type=int, default=50_000)
    solve.add_argument("--gamma0", type=float, default=None, help="heuristic start (method default if omitted)")
    solve.add_argument("--gamma1", type=float, default=None, help="heuristic floor (method default if omitted)")
    solve.add_argument("--fixed-gamma", type=float, default=None, help="disable the heuristic, use this step")
    solve.add_argument("--trace", default=None, help="write per-iteration CSV (t,gamma,merit,dz,fval) here")
    return parser


def _cmd_bench(args) -> int:
    pairs = args.pairs
    trials = args.trials
    if pairs is None:
        pairs = FULL_PAIRS if args.preset == "full" else DESK_PAIRS
    if trials is None:
        trials = 50 if args.preset == "full" else 20
    cfg = BenchConfig(
        pairs=pairs,
        trials=trials,
        base_seed=args.seed,
        methods=args.methods,
        tol=args.tol,
        max_iter=args.max_iter,
        pr_gamma0=args.pr_gamma0,
        pr_gamma1=args.pr_gamma1,
        dr_gamma0=args.dr_gamma0,
        dr_gamma1=args.dr_gamma1,
    )
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    rows = run_bench(cfg, progress=progress)
    text = emit_table(rows, fmt=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    if args.instance is not None:
        inst = load_instance(args.instance)
    else:
        inst = gen_feasibility(args.m, args.n, args.seed)
    if args.save_instance is not None:
        save_instance(inst, args.save_instance)

    problem = (build_feasibility_pr if args.method == "pr" else build_feasibility_dr)(inst)
    default0, default1 = METHOD_STEPS[args.method]
    gamma0 = default0 if args.gamma0 is None else args.gamma0
    gamma1 = default1 if args.gamma1 is None else args.gamma1
    if args.fixed_gamma is not None:
        cfg = SolverConfig(gamma0=args.fixed_gamma, method=args.method, tol=args.tol, max_iter=args.max_iter)
    else:
        cfg = SolverConfig(
            gamma0=gamma0,
            method=args.method,
            tol=args.tol,
            max_iter=args.max_iter,
            heuristic=HeuristicConfig(gamma1=gamma1),
        )

    fvals: list[float] = []
    observer = None
    if args.trace is not None:
        observer = lambda state, gamma: fvals.append(evaluate_fval(state.z, inst))

    report = run(problem, cfg, np.zeros(inst.n), observer=observer)

    if args.trace is not None:
        lines = ["t,gamma,merit,dz,fval"]
        for t in range(report.iterations):
            lines.append(
                f"{t + 1},{float(report.gamma_trace[t])!r},{float(report.merit_trace[t])!r},"
                f"{float(report.gap_trace[t])!r},{float(fvals[t])!r}"
            )
        with open(args.trace, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")

    fval = evaluate_fval(report.state.z, inst) if report.state.z is not None else float("inf")
    print(f"method      : {args.method}")
    print(f"shape       : m={inst.m} n={inst.n} r={inst.r} seed={inst.seed}")
    print(f"iterations  : {report.iterations} ({report.reason})")
    print(f"fval        : {fval:.6e} -> {classify(max(fval, 0.0))}")
    if report.residual is not None:
        print(f"residual    : practical {report.residual.practical:.3e}")
    if report.iterations:
        print(f"final gamma : {report.gamma_trace[-1]:.6g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_solve(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
