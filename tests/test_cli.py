"""End-to-end tests of the command-line interface."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import prsplit
from prsplit import cli
from prsplit.bench import (
    DESK_PAIRS,
    FULL_PAIRS,
    METHOD_STEPS,
    PRESETS,
    BenchConfig,
    run_bench,
    solve_trial,
    solver_config,
    trial_seed,
)
from prsplit.cli import _build_parser, main
from prsplit.problems import evaluate_fval, gen_feasibility
from prsplit.splitting import SolverConfig

# The directory holding the imported package, for subprocesses to import the same copy.
PACKAGE_ROOT = str(Path(prsplit.__file__).resolve().parents[1])


def _table(text):
    """The rows of a `prsplit bench` CSV, each holding its cells but `seconds` as attributes named by the header."""
    rows = csv.DictReader(io.StringIO(text))
    return [SimpleNamespace(**{k: v for k, v in row.items() if k != "seconds"}) for row in rows]


def test_bench_writes_csv(capsys):
    code = main(["bench", "--pairs", "10x40", "--trials", "2", "--seed", "1", "--quiet"])
    assert code == 0
    rows = _table(capsys.readouterr().out)
    assert len(rows) == 2
    assert {row.method for row in rows} == {"pr", "dr"}


def test_bench_stdout_markdown(capsys):
    code = main(
        ["bench", "--pairs", "10x40", "--trials", "1", "--methods", "pr", "--quiet", "--format", "markdown"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("| m | n | PR iter")


def test_bench_rejects_malformed_pairs(capsys):
    # argparse surfaces converter errors as SystemExit with status 2
    with pytest.raises(SystemExit) as info:
        main(["bench", "--pairs", "10by40", "--quiet"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_bench_takes_no_solver_settings(flag, monkeypatch, capsys):
    # tol and max_iter are SolverConfig's defaults; only `prsplit solve` sets them.
    monkeypatch.setattr(cli, "run_bench", lambda *args, **kwargs: pytest.fail("run_bench was called"))
    with pytest.raises(SystemExit) as info:
        main(["bench", "--pairs", "10x40", flag, "5"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_bench_rejects_unknown_method(capsys):
    # Every name outside METHOD_STEPS, the empty one too, fails with the one message.
    for methods, parsed in (("newton", "('newton',)"), (",", "('', '')"), ("pr,", "('pr', '')")):
        assert main(["bench", "--pairs", "10x40", "--methods", methods, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: methods must be a nonempty subset of ('pr', 'dr'), got {parsed}\n"


def test_bench_rejects_a_repeated_method(capsys):
    assert main(["bench", "--pairs", "10x40", "--methods", "pr,pr", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: methods must not repeat, got ('pr', 'pr')\n"


def test_bench_rejects_a_repeated_shape(capsys):
    assert main(["bench", "--pairs", "50x500,50x500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pairs must not repeat, got ((50, 500), (50, 500))\n"


def test_bench_rejects_bad_shape_before_the_first_solve(capsys):
    code = main(["bench", "--pairs", "10x40,4x10", "--trials", "1"])
    # The bad shape comes second; no cell of the good one runs or prints first.
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m must be at least 5, got 4x10\n"


def test_bench_finishes_the_table_when_a_trial_raises(capsys):
    # Every PR trial raises ProxShiftError (5 * 0.3 >= 1); the table still
    # comes out, with the DR row and a PR row of failures.
    args = ["bench", "--pairs", "10x40", "--trials", "2", "--methods", "dr,pr", "--pr-gamma0", "0.3", "--quiet"]
    assert main(args) == 0
    dr, pr = _table(capsys.readouterr().out)
    assert dr.method == "dr" and int(dr.succ) + int(dr.fail) + int(dr.undecided) == 2
    assert (pr.method, pr.fail, pr.iter, pr.fval_max) == ("pr", "2", "0.0", "inf")


def test_solve_prints_summary(capsys):
    code = main(["solve", "--m", "10", "--n", "40", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations" in out
    assert "fval" in out


@pytest.mark.parametrize("method", ["pr", "dr"])
def test_solve_writes_a_trace(method, tmp_path, capsys):
    # Each row, bit for bit, from an independent solve of the same instance and its observed states.
    trace = tmp_path / "trace.csv"
    assert main(["solve", "--m", "10", "--n", "40", "--seed", "5", "--method", method, "--trace", str(trace)]) == 0
    inst = gen_feasibility(10, 40, 5)
    states = []
    report, _, _, _ = solve_trial(
        inst, SolverConfig(*METHOD_STEPS[method], method=method), lambda state, gamma: states.append(state)
    )
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,gamma,merit,dz,fval"
    assert len(lines) == report.iterations + 1 == len(states) + 1
    for t, (line, gamma, merit, state) in enumerate(zip(lines[1:], report.gamma_trace, report.merit_trace, states), 1):
        row = (gamma, merit, np.linalg.norm(state.z - state.y), evaluate_fval(state.z, inst))
        assert line == ",".join([str(t), *(repr(float(v)) for v in row)])


def test_solve_reproduces_a_bench_trial_from_its_seed(capsys):
    # A bench trial's instance is gen_feasibility(m, n, trial_seed(...)), so its seed is the whole instance.
    cfg = BenchConfig(pairs=((50, 500),), trials=1, base_seed=42, methods=("pr",))
    [row] = run_bench(cfg)
    seed = trial_seed(cfg.base_seed, 50, 500, 0)
    assert main(["solve", "--m", "50", "--n", "500", "--seed", str(seed), "--method", "pr"]) == 0
    out = capsys.readouterr().out
    assert f"seed={seed}\n" in out
    iterations = next(line for line in out.splitlines() if line.startswith("iterations"))
    assert int(iterations.split()[2]) == row.mean_iterations
    assert f"fval        : {row.fval_max:.6e} -> " in out


def test_solve_rejects_an_unwritable_trace_path_before_the_solve(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve_trial", lambda *args: pytest.fail("solve_trial was called"))
    trace = tmp_path / "missing" / "trace.csv"
    assert main(["solve", "--m", "10", "--n", "40", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(trace) in captured.err


def test_solve_that_raises_leaves_no_trace_file(tmp_path, capsys):
    # A PR start step of 0.3 makes the shifted g-prox ill-posed (5 * 0.3 >= 1).
    trace = tmp_path / "trace.csv"
    assert main(["solve", "--m", "10", "--n", "40", "--gamma0", "0.3", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: shift destroys prox well-posedness") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_solve_rejects_a_shape_gen_feasibility_refuses(capsys):
    assert main(["solve", "--m", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m must be at least 5, got 3x1000\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m", "4"], "m must be at least 5, got 4x1000"),
        (["--m", "0"], "m must be at least 5, got 0x1000"),
        (["--m", "100", "--n", "50"], "need n >= m, got 100x50"),
        (["--n", "-1"], "need n >= m, got 100x-1"),
        (["--seed", "-1"], "seed must be an integer of at least 0, got -1"),
        (["--m", "4", "--seed", "-1"], "m must be at least 5, got 4x1000"),
    ],
    ids=["m 4", "m 0", "n below m", "negative n", "negative seed", "shape before seed"],
)
def test_solve_refuses_an_instance_before_it_opens_the_trace(flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve_trial", lambda *args: pytest.fail("solve_trial was called"))
    assert main(["solve", *flags, "--trace", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--m", "10.5"), ("--n", "1e3"), ("--seed", "abc"), ("--seed", "2.5")],
    ids=["m 10.5", "n 1e3", "seed abc", "seed 2.5"],
)
def test_solve_parser_rejects_a_non_integer_instance_flag(flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", flag, value])
    assert info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"prsplit solve: error: argument {flag}: invalid int value: '{value}'"


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--m", "3"],
        ["solve", "--seed", "-1"],
        ["solve", "--m", "50", "--n", "40"],
        # A step flag is checked even for a method that --methods leaves out.
        ["bench", "--pairs", "10x40", "--trials", "1", "--methods", "pr", "--dr-gamma0", "-1"],
    ],
    ids=["m 3", "seed -1", "n 40", "bench dr-gamma0 -1"],
)
def test_refusal_exits_2_with_one_error_line_and_no_traceback(args):
    # The command as a user runs it: a fresh interpreter, its own exit status and stderr.
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    result = subprocess.run(
        [sys.executable, "-m", "prsplit.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_solve_defaults_to_a_100x1000_instance_at_seed_0():
    args = _build_parser().parse_args(["solve"])
    assert (args.m, args.n, args.seed) == (100, 1000, 0)


@pytest.mark.parametrize("method, trial", [("pr", 1), ("pr", 2), ("dr", 0), ("dr", 1), ("dr", 2)])
def test_solve_reproduces_each_trial_of_a_bench_cell(method, trial, capsys):
    # What the bench runs for one trial: the trial's seed, and the method's bench steps, which solve also defaults to.
    cfg = BenchConfig(base_seed=42)
    seed = trial_seed(cfg.base_seed, 50, 500, trial)
    report, fval, outcome, _ = solve_trial(gen_feasibility(50, 500, seed), solver_config(cfg, method))
    assert main(["solve", "--m", "50", "--n", "500", "--seed", str(seed), "--method", method]) == 0
    out = capsys.readouterr().out
    assert f"iterations  : {report.iterations} ({report.reason})\n" in out
    assert f"fval        : {fval:.6e} -> {outcome}\n" in out


@pytest.mark.parametrize("seed", [2**64 - 1, 2**70], ids=["2**64-1", "2**70"])
def test_solve_takes_a_seed_past_64_bits(seed, capsys):
    report, fval, _, _ = solve_trial(gen_feasibility(10, 40, seed), solver_config(BenchConfig(), "pr"))
    assert main(["solve", "--m", "10", "--n", "40", "--seed", str(seed), "--method", "pr"]) == 0
    out = capsys.readouterr().out
    assert f"seed={seed}\n" in out
    assert f"iterations  : {report.iterations} ({report.reason})\n" in out and f"fval        : {fval:.6e}" in out


def test_solve_fixed_gamma(capsys):
    # A floor at the start step leaves the heuristic nothing to shrink.
    code = main(["solve", "--m", "10", "--n", "40", "--seed", "2", "--gamma0", "0.08", "--gamma1", "0.08"])
    assert code == 0
    assert "final gamma : 0.08" in capsys.readouterr().out


def test_step_defaults_come_from_method_steps(capsys):
    bench = _build_parser().parse_args(["bench"])
    solve = _build_parser().parse_args(["solve"])
    cfg, solver = BenchConfig(), SolverConfig()
    # tol, max_iter and method are SolverConfig's, methods and seed BenchConfig's;
    # only solve takes --tol and --max-iter.
    assert (solve.tol, solve.max_iter, solve.method) == (solver.tol, solver.max_iter, solver.method)
    assert not hasattr(bench, "tol") and not hasattr(bench, "max_iter")
    assert bench.methods == cfg.methods == tuple(METHOD_STEPS)
    assert bench.seed == cfg.base_seed
    for method, (gamma0, gamma1) in METHOD_STEPS.items():
        # The step flags default to None, and cli._steps fills them from METHOD_STEPS.
        assert (getattr(bench, f"{method}_gamma0"), getattr(bench, f"{method}_gamma1")) == (None, None)
        assert cli._steps(method, None, None) == cfg.steps[method] == (gamma0, gamma1)
        assert cli._steps(method, None, gamma1 / 2) == (gamma0, gamma1 / 2)
        assert cli._steps(method, gamma0 / 2, None) == (gamma0 / 2, gamma1)
        # An omitted floor is never above the start: below the floor, the start step is fixed.
        assert cli._steps(method, gamma1 / 2, None) == (gamma1 / 2, gamma1 / 2)
        assert cli._steps(method, gamma1 / 2, gamma1) == (gamma1 / 2, gamma1)  # given, SolverConfig rejects it
        assert solver_config(cfg, method) == SolverConfig(gamma0=gamma0, gamma1=gamma1, method=method)
        # One iteration runs at the heuristic's start step.
        code = main(["solve", "--m", "10", "--n", "40", "--method", method, "--max-iter", "1"])
        assert code == 0
        assert f"final gamma : {gamma0:.6g}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, lines",
    [
        (
            "bench",
            [
                "--pr-gamma0 PR_GAMMA0 start step (default pr 0.19)",
                "--pr-gamma1 PR_GAMMA1 floor the step may shrink to (default pr 0.0833333, or the start if lower)",
                "--dr-gamma0 DR_GAMMA0 start step (default dr 50)",
                "--dr-gamma1 DR_GAMMA1 floor the step may shrink to (default dr 0.333333, or the start if lower)",
            ],
        ),
        (
            "solve",
            [
                "--gamma0 GAMMA0 start step (default pr 0.19, dr 50)",
                "--gamma1 GAMMA1 floor the step may shrink to (default pr 0.0833333, dr 0.333333, or the start if",
            ],
        ),
    ],
    ids=["bench", "solve"],
)
def test_step_flag_help_names_the_defaults_and_the_floor_rule(command, lines, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width
    for line in lines:
        assert line in text


@pytest.mark.parametrize("method, start", [("pr", "0.05"), ("dr", "0.2")])
def test_solve_start_below_the_method_floor_runs_that_fixed_step(method, start, capsys):
    # The omitted floor drops to the start, so the run is the one with the floor given as the start.
    args = ["solve", "--m", "10", "--n", "40", "--method", method, "--gamma0", start]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert main([*args, "--gamma1", start]) == 0
    assert capsys.readouterr().out == out
    assert f"final gamma : {start}\n" in out
    if method == "pr":
        assert "iterations  : 499 (converged)\n" in out


def test_bench_start_below_the_method_floor_runs_that_fixed_step(capsys):
    args = ["bench", "--pairs", "10x40", "--trials", "2", "--pr-gamma0", "0.05", "--quiet"]
    assert main(args) == 0
    rows = _table(capsys.readouterr().out)
    assert main([*args, "--pr-gamma1", "0.05"]) == 0
    assert [row.method for row in rows] == ["pr", "dr"]
    assert _table(capsys.readouterr().out) == rows


@pytest.mark.parametrize(
    "args, floor, start",
    [
        (["bench", "--pairs", "10x40", "--pr-gamma1", "0.3"], 0.3, 0.19),
        (["solve", "--m", "10", "--n", "40", "--gamma0", "0.05", "--gamma1", "0.08"], 0.08, 0.05),
    ],
    ids=["bench", "solve"],
)
def test_a_given_floor_above_the_start_is_rejected(args, floor, start, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_bench", lambda *args, **kwargs: pytest.fail("run_bench was called"))
    monkeypatch.setattr(cli, "solve_trial", lambda *args: pytest.fail("solve_trial was called"))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the floor gamma1 = {floor} must not exceed the start step gamma0 = {start}\n"


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_bench_without_trials_runs_the_preset_table_count(preset, monkeypatch, capsys):
    # 20 instances per desk shape and 50 per full-grid shape, in one table.
    assert PRESETS == {"desk": (DESK_PAIRS, 20), "full": (FULL_PAIRS, 50)}
    configs = []
    monkeypatch.setattr(cli, "run_bench", lambda cfg, progress=None: configs.append(cfg) or [])
    for args in (["--preset", preset], ["--preset", preset, "--pairs", "10x40"]):
        assert main(["bench", "--quiet", *args]) == 0
    pairs, trials = PRESETS[preset]
    assert [(cfg.pairs, cfg.trials) for cfg in configs] == [(pairs, trials), (((10, 40),), trials)]
    if preset == "desk":
        # `prsplit bench` with no option runs exactly the library's default config.
        assert main(["bench", "--quiet"]) == 0
        assert configs[-1] == BenchConfig()


def _bench_rows(threads, pairs, trials):
    """`prsplit bench` rows from a subprocess with every BLAS thread variable set to `threads`."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads)))
    args = ["bench", "--pairs", pairs, "--trials", str(trials), "--seed", "42", "--quiet"]
    result = subprocess.run(
        [sys.executable, "-m", "prsplit.cli", *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return _table(result.stdout)


def _assert_same_but_for_rounding(one, two):
    """Every column but `seconds` equal, or both fvals far below the success threshold.

    BLAS reductions can round differently with the thread count, so an fval
    far below the success threshold may differ in its printed digit.
    """
    assert len(one) == len(two)
    for a, b in zip(one, two):
        fields = ("m", "n", "method", "iter", "succ", "fail", "undecided")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        for fval_a, fval_b in ((a.fval_max, b.fval_max), (a.fval_min, b.fval_min)):
            assert fval_a == fval_b or max(float(fval_a), float(fval_b)) < 1e-12, (a, b)


def test_bench_table_is_the_same_at_one_and_two_blas_threads():
    one, two = (_bench_rows(threads, "50x500,100x500", 5) for threads in (1, 2))
    assert len(one) == 4
    _assert_same_but_for_rounding(one, two)


def test_bench_table_is_the_same_at_one_and_two_blas_threads_at_full_scale():
    # The full preset's n, at its smallest m: one trial takes a few seconds per thread count.
    one, two = (_bench_rows(threads, "100x4000", 1) for threads in (1, 2))
    assert [row.method for row in one] == ["pr", "dr"]
    _assert_same_but_for_rounding(one, two)
    # The DR baseline's behavior band on this underdetermined shape: it grinds for thousands of iterations.
    assert 1000 <= float(one[1].iter) <= 4000
