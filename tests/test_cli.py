"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from prsplit.bench import METHOD_STEPS, BenchConfig, parse_csv, solver_config
from prsplit.cli import _build_parser, main
from prsplit.problems import load_instance
from prsplit.splitting import SolverConfig


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(
        [
            "bench",
            "--pairs",
            "10x40",
            "--trials",
            "2",
            "--seed",
            "1",
            "--quiet",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
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


def test_bench_rejects_unknown_method(capsys):
    code = main(["bench", "--pairs", "10x40", "--methods", "newton", "--quiet"])
    assert code == 2


def test_bench_rejects_bad_shape_before_the_first_solve(capsys):
    code = main(["bench", "--pairs", "10x40,4x10", "--trials", "1"])
    # The bad shape comes second; no cell of the good one runs or prints first.
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m must be at least 5, got 4x10\n"


def test_solve_prints_summary(capsys):
    code = main(["solve", "--m", "10", "--n", "40", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations" in out
    assert "fval" in out


def test_solve_trace_and_instance_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    saved = tmp_path / "instance.txt"
    code = main(
        [
            "solve",
            "--m",
            "10",
            "--n",
            "40",
            "--seed",
            "5",
            "--trace",
            str(trace),
            "--save-instance",
            str(saved),
        ]
    )
    assert code == 0
    first_out = capsys.readouterr().out

    lines = trace.read_text().splitlines()
    assert lines[0] == "t,gamma,merit,dz,fval"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(np.isfinite(float(tok)) for tok in first[1:])

    inst = load_instance(saved)
    assert inst.m == 10 and inst.n == 40

    # Re-solving from the saved instance reproduces the run.
    code = main(["solve", "--instance", str(saved)])
    assert code == 0
    second_out = capsys.readouterr().out
    assert first_out.splitlines()[2:4] == second_out.splitlines()[2:4]  # iterations + fval lines


def test_solve_fixed_gamma(capsys):
    code = main(["solve", "--m", "10", "--n", "40", "--seed", "2", "--fixed-gamma", "0.08"])
    assert code == 0
    assert "final gamma : 0.08" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--gamma0", "--gamma1"])
def test_solve_rejects_fixed_gamma_with_heuristic_steps(flag, capsys):
    code = main(["solve", "--m", "10", "--n", "40", "--fixed-gamma", "0.08", flag, "0.3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--fixed-gamma" in captured.err and flag in captured.err
    assert captured.out == ""


def test_step_defaults_come_from_method_steps(capsys):
    bench = _build_parser().parse_args(["bench"])
    cfg = BenchConfig()
    for method, (gamma0, gamma1) in METHOD_STEPS.items():
        assert getattr(bench, f"{method}_gamma0") == getattr(cfg, f"{method}_gamma0") == gamma0
        assert getattr(bench, f"{method}_gamma1") == getattr(cfg, f"{method}_gamma1") == gamma1
        assert solver_config(cfg, method) == SolverConfig(gamma0=gamma0, gamma1=gamma1, method=method)
        # One iteration runs at the heuristic's start step.
        code = main(["solve", "--m", "10", "--n", "40", "--method", method, "--max-iter", "1"])
        assert code == 0
        assert f"final gamma : {gamma0:.6g}\n" in capsys.readouterr().out


def test_solve_rejects_missing_instance(capsys):
    code = main(["solve", "--instance", "/nonexistent/path.txt"])
    assert code == 2
