"""Command-line front end: `bench` for result tables, `solve` for single runs.

Examples
--------
The desk preset with both methods, CSV on stdout redirected to a file::

    prsplit bench --seed 42 > results.csv

Explicit shapes and trial count, a markdown table on stdout::

    prsplit bench --pairs 100x1000,150x500 --trials 10 --methods pr,dr --format markdown

One instance with a per-iteration trace::

    prsplit solve --m 100 --n 1000 --seed 7 --method pr --trace trace.csv

Both subcommands fill a method's (start, floor) steps by one rule: an
omitted start is the method's in :data:`~prsplit.bench.METHOD_STEPS`, and
an omitted floor is the method's or the start, whichever is lower. So
``--gamma0 0.05`` runs the fixed step 0.05; a floor above the start fails
only when given.

Exit status is 0 on completion and 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import METHOD_STEPS, PRESETS, BenchConfig, render_csv, render_markdown, run_bench, solve_trial
from .problems import evaluate_fval, gen_feasibility
from .splitting import SolverConfig


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


def _steps(method: str, gamma0: float | None, gamma1: float | None) -> tuple[float, float]:
    """The (start, floor) `method` runs at, filled by the rule of the module docstring."""
    default0, default1 = METHOD_STEPS[method]
    gamma0 = default0 if gamma0 is None else gamma0
    return gamma0, min(default1, gamma0) if gamma1 is None else gamma1


def _step_help(*methods: str) -> tuple[str, str]:
    """Help of a start and a floor flag for `methods`: their defaults and the floor rule."""
    starts, floors = (", ".join(f"{name} {METHOD_STEPS[name][i]:g}" for name in methods) for i in (0, 1))
    return (
        f"start step (default {starts})",
        f"floor the step may shrink to (default {floors}, or the start if lower); at the start, a fixed step",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prsplit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a batch of random instances and tabulate")
    bench.add_argument("--pairs", type=_parse_pairs, default=None, help="comma list of MxN shapes")
    sizes = "; ".join(f"{name}: {len(pairs)} shapes x {trials} trials" for name, (pairs, trials) in PRESETS.items())
    bench.add_argument("--preset", choices=tuple(PRESETS), default="desk", help=f"default shapes and trials ({sizes})")
    bench.add_argument("--trials", type=int, default=None, help="instances per shape (default: the preset's)")
    bench.add_argument("--methods", type=_parse_methods, default=BenchConfig.methods)
    bench.add_argument("--seed", type=int, default=BenchConfig.base_seed)
    for method in METHOD_STEPS:
        start_help, floor_help = _step_help(method)
        bench.add_argument(f"--{method}-gamma0", type=float, default=None, help=start_help)
        bench.add_argument(f"--{method}-gamma1", type=float, default=None, help=floor_help)
    bench.add_argument("--format", choices=("csv", "markdown"), default="csv")
    bench.add_argument("--quiet", action="store_true", help="suppress per-cell progress on stderr")

    solve = sub.add_parser("solve", help="solve one feasibility instance")
    solve.add_argument("--m", type=int, default=100, help="rows of the generated instance (default 100)")
    solve.add_argument("--n", type=int, default=1000, help="columns of the generated instance (default 1000)")
    solve.add_argument("--seed", type=int, default=0, help="seed of the generated instance (default 0)")
    solve.add_argument("--method", choices=tuple(METHOD_STEPS), default=SolverConfig.method)
    solve.add_argument("--tol", type=float, default=SolverConfig.tol)
    solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    start_help, floor_help = _step_help(*METHOD_STEPS)
    solve.add_argument("--gamma0", type=float, default=None, help=start_help)
    solve.add_argument("--gamma1", type=float, default=None, help=floor_help)
    solve.add_argument("--trace", default=None, help="write per-iteration CSV (t,gamma,merit,dz,fval) here")
    return parser


def _cmd_bench(args) -> int:
    pairs, trials = PRESETS[args.preset]
    flags = vars(args)
    cfg = BenchConfig(
        pairs=pairs if args.pairs is None else args.pairs,
        trials=trials if args.trials is None else args.trials,
        base_seed=args.seed,
        methods=args.methods,
        steps={name: _steps(name, flags[f"{name}_gamma0"], flags[f"{name}_gamma1"]) for name in METHOD_STEPS},
    )
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    rows = run_bench(cfg, progress=progress)
    sys.stdout.write(render_csv(rows) if args.format == "csv" else render_markdown(rows))
    return 0


def _cmd_solve(args) -> int:
    gamma0, gamma1 = _steps(args.method, args.gamma0, args.gamma1)
    cfg = SolverConfig(gamma0=gamma0, gamma1=gamma1, method=args.method, tol=args.tol, max_iter=args.max_iter)
    inst = gen_feasibility(args.m, args.n, args.seed)

    # Opened first: a bad path fails before the solve, and a raise removes the file.
    trace = None if args.trace is None else open(args.trace, "w", encoding="ascii")
    fvals: list[float] = []
    observer = None if trace is None else lambda state, gamma: fvals.append(evaluate_fval(state.z, inst))
    try:
        report, fval, outcome, _ = solve_trial(inst, cfg, observer)
    except BaseException:
        if trace is not None:
            trace.close()
            if os.path.isfile(args.trace):  # never a device such as /dev/null
                os.remove(args.trace)
        raise
    if trace is not None:
        with trace:
            trace.write("t,gamma,merit,dz,fval\n")
            for t, row in enumerate(zip(report.gamma_trace, report.merit_trace, report.gap_trace, fvals), 1):
                trace.write(",".join([str(t), *(repr(float(v)) for v in row)]) + "\n")

    print(f"method      : {args.method}")
    print(f"shape       : m={inst.m} n={inst.n} r={inst.r} seed={inst.seed}")
    print(f"iterations  : {report.iterations} ({report.reason})")
    print(f"fval        : {fval:.6e} -> {outcome}")
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
