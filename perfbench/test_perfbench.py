"""Tests of the benchmark itself: run with `python -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import layers
import metrics
import run as bench_run
import workloads
from prsplit import BoxSet, LsInstance, SparseBoxSet, gen_feasibility, run
from prsplit.bench import BenchConfig, run_bench
from prsplit.oracles import ProxOracle
from prsplit.splitting import SplitProblem

SEED = 9173
BENCH_CLASS = {"success": "succ", "failure": "fail", "undecided": "und"}


def test_loop_matches_run_bench_on_desk():
    setup = workloads.setup("feas-desk", SEED, trials=1)
    runner = bench_run.Runner("feas-desk")
    for task in setup.tasks:
        runner.solve(task, task.problem, "timed", 0)
    records, inconsistent = runner.checked_records()
    assert inconsistent == 0
    cells = {}
    for rec in records:
        cell = cells.setdefault((*rec["shape"], rec["method"]), Counter())
        cell["iter"] += rec["iterations"]
        cell[BENCH_CLASS[rec["outcome"]]] += 1

    rows = run_bench(BenchConfig(trials=1, base_seed=SEED))
    assert len(rows) == len(cells)
    for row in rows:
        cell = cells[(row.m, row.n, row.method)]
        assert cell["iter"] == row.mean_iterations
        assert (cell["succ"], cell["fail"], cell["und"]) == (row.successes, row.failures, row.undecided)


def test_distance_check_classes_outputs():
    inst = gen_feasibility(20, 80, 5)
    check = workloads.DistanceCheck(inst)
    planted = check(inst.x_true, "converged")
    assert planted.outcome == "success" and planted.consistent
    assert check(np.zeros(inst.n), "max_iter").outcome == "failure"
    crowded = np.ones(inst.n)
    assert check(crowded, "converged").outcome == "invalid"
    broken = inst.x_true.copy()
    broken[0] = np.nan
    assert check(broken, "converged").outcome == "invalid"
    assert check(inst.x_true[:-1], "converged").outcome == "invalid"


def test_ls_check_needs_convergence_and_membership():
    A, b = workloads.ls_data(60, 40, 3)
    box = workloads.LsCheck(LsInstance(A, b, BoxSet(0.5)))
    inside = 1e-5 * (A.T @ b)  # a short step downhill from 0
    assert box(inside, "converged").outcome == "success"
    assert box(inside, "max_iter").outcome == "failure"
    assert box(np.full(40, 0.6), "converged").outcome == "invalid"
    sparse = workloads.LsCheck(LsInstance(A, b, SparseBoxSet(2)))
    assert sparse(inside, "converged").outcome == "invalid"


def test_raising_solve_is_recorded_not_fatal():
    task = workloads.setup("feas-desk", SEED, trials=1).tasks[0]

    def explode(gamma, w):
        raise FloatingPointError("boom")

    broken = SplitProblem(f=task.problem.f, g=ProxOracle(prox=explode, value=task.problem.g.value), dim=task.dim)
    runner = bench_run.Runner("feas-desk")
    runner.solve(task, broken, "timed", 0)
    runner.solve(task, task.problem, "timed", 0)
    records, _ = runner.checked_records()
    assert records[0]["outcome"] == "error" and "boom" in records[0]["error"]
    assert records[1]["outcome"] == "success"


def test_tracing_keeps_iterates_and_counts_projections():
    task = workloads.setup("feas-desk", SEED, trials=1).tasks[1]
    assert task.method == "pr"
    plain = run(task.problem, task.config, np.zeros(task.dim))
    tracer = layers.Tracer()
    tracer.attach(task.cset)
    try:
        traced = run(tracer.traced_problem(task.problem), task.config, np.zeros(task.dim))
    finally:
        layers.Tracer.detach(task.cset)
    assert traced.iterations == plain.iterations
    np.testing.assert_array_equal(traced.state.z, plain.state.z)
    spans = tracer.snapshot()
    # One projection in the f-prox and one in the merit's f(y) per
    # iteration, plus two in the final stationarity residual.
    assert spans["affine_project"]["calls"] == 2 * plain.iterations + 2
    assert spans["f_prox"]["calls"] == spans["g_prox"]["calls"] == plain.iterations
    m, n = task.shape
    assert spans["affine_project"]["bytes"] == 16 * m * n * spans["affine_project"]["calls"]
    assert "project" not in vars(task.cset)


def test_shrinks_reads_gamma_trace():
    assert bench_run.shrinks(np.array([0.19, 0.19, 0.095, 0.095, 0.0833])) == [[2, 0.095], [4, 0.0833]]
    assert bench_run.shrinks(np.array([0.5] * 4)) == []


def test_tail_has_ten_values_beyond_it():
    values = [float(v) for v in range(1, 31)]
    value, pct = metrics.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 19 / 29)
    assert metrics.tail(values[:20]) == (10.5, 50.0)


def test_metrics_recompute_from_records(capsys, monkeypatch):
    for var in bench_run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert bench_run.main(["--workload", "ls", "--seed", str(SEED), "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.PER_LAYER)

    path = bench_run.ROOT / ".perfbench" / f"ls-s{SEED}-t1.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["kind"] == "machine" and records[0]["seed"] == SEED
    recomputed = metrics.per_layer(records)
    for name, entry in result["metrics"].items():
        assert entry["value"] == recomputed[name]
    e2e = metrics.end_to_end(records, "untraced")
    assert set(metrics.END_TO_END) <= set(e2e)
    assert e2e["solved_frac"] == 1.0
    assert result["metrics"]["oracles.affine_project.per_iter"]["value"] == 0  # ls never projects onto C
    assert result["metrics"]["oracles.shifted_quadratic_prox.us"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(bench_run.HERE), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ls", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert all(metrics.END_TO_END[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
