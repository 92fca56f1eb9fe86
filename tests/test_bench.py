"""Tests for the benchmark harness and its table formats."""

import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prsplit import bench
from prsplit.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRow,
    format_fval,
    render_csv,
    render_markdown,
    run_bench,
    solve_trial,
    solver_config,
    trial_seed,
)
from prsplit.cli import main
from prsplit.oracles import RankDeficientError
from prsplit.problems import classify, gen_feasibility
from prsplit.splitting import SolverConfig


def small_config(**overrides):
    base = dict(pairs=((10, 40),), trials=2, base_seed=7)
    base.update(overrides)
    return BenchConfig(**base)


def strip_seconds(csv_text):
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


def test_trial_seed_deterministic_and_spread():
    assert trial_seed(1, 50, 500, 3) == trial_seed(1, 50, 500, 3)
    seeds = {trial_seed(1, m, n, t) for m in (50, 100) for n in (500, 1000) for t in range(5)}
    assert len(seeds) == 20
    assert trial_seed(1, 50, 500, 0) != trial_seed(2, 50, 500, 0)


def test_run_bench_accounting():
    rows = run_bench(small_config())
    assert len(rows) == 2  # one per method
    assert {row.method for row in rows} == {"pr", "dr"}
    for row in rows:
        assert row.successes + row.failures + row.undecided == 2
        assert row.fval_min <= row.fval_max
        assert row.mean_iterations > 0


def test_run_bench_deterministic_modulo_walltime():
    first = render_csv(run_bench(small_config()))
    second = render_csv(run_bench(small_config()))
    assert strip_seconds(first) == strip_seconds(second)


def test_run_bench_respects_method_selection():
    rows = run_bench(small_config(methods=("pr",)))
    assert [row.method for row in rows] == ["pr"]


def test_solver_config_maps_method_constants():
    # The steps are all BenchConfig sets: tol and max_iter are SolverConfig's defaults.
    cfg = small_config(steps={"pr": (0.15, 0.05), "dr": (40.0, 0.5)})
    for method, (gamma0, gamma1) in (("pr", (0.15, 0.05)), ("dr", (40.0, 0.5))):
        assert solver_config(cfg, method) == SolverConfig(gamma0=gamma0, gamma1=gamma1, method=method)
        assert solver_config(BenchConfig(), method) == SolverConfig(*bench.METHOD_STEPS[method], method=method)
    with pytest.raises(TypeError):
        small_config(tol=SolverConfig.tol)
    with pytest.raises(TypeError):
        small_config(max_iter=SolverConfig.max_iter)


def test_bench_config_keeps_a_read_only_copy_of_steps_covering_every_method():
    steps = {"pr": (0.15, 0.05)}
    cfg = small_config(methods=("pr",), steps=steps)
    steps["pr"] = (0.3, 0.05)
    assert dict(cfg.steps) == {"pr": (0.15, 0.05)}
    with pytest.raises(TypeError):
        cfg.steps["pr"] = (0.3, 0.05)
    assert small_config() == small_config(steps=dict(bench.METHOD_STEPS))
    assert hash(small_config()) == hash(small_config(steps=dict(bench.METHOD_STEPS)))
    with pytest.raises(ValueError, match=r"^steps must map method 'dr' to a \(gamma0, gamma1\) pair, got None$"):
        small_config(steps=steps)
    with pytest.raises(ValueError, match=r"^steps must map method 'pr' to a \(gamma0, gamma1\) pair, got 0\.19$"):
        small_config(methods=("pr",), steps={"pr": 0.19})


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(pairs=())
    with pytest.raises(ValueError):
        BenchConfig(pairs=((10, 40),), trials=0)
    for methods in ((), ("newton",), ("pr", ""), ("", ""), (["pr"],)):
        # A method outside METHOD_STEPS fails here, not as a missing steps entry or a repeat.
        message = f"methods must be a nonempty subset of ('pr', 'dr'), got {methods}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig(pairs=((10, 40),), methods=methods)
    with pytest.raises(ValueError, match="must not repeat"):
        BenchConfig(pairs=((10, 40),), methods=("pr", "pr"))
    with pytest.raises(ValueError, match=r"^pairs must not repeat, got \(\(10, 40\), \(10, 40\)\)$"):
        BenchConfig(pairs=((10, 40), (10, 40)))
    with pytest.raises(ValueError, match="gamma1"):
        BenchConfig(pairs=((10, 40),), steps={**bench.METHOD_STEPS, "dr": (50.0, float("nan"))})
    with pytest.raises(ValueError, match=r"^the floor gamma1 = 0\.3 must not exceed the start step gamma0 = 0\.19$"):
        BenchConfig(pairs=((10, 40),), steps={**bench.METHOD_STEPS, "pr": (0.19, 0.3)})
    with pytest.raises(ValueError, match="m must be at least 5"):
        BenchConfig(pairs=((10, 40), (4, 10)))
    with pytest.raises(ValueError, match="need n >= m"):
        BenchConfig(pairs=((10, 40), (12, 10)))


def test_bench_config_accepts_numpy_integer_counts():
    BenchConfig(pairs=((10, 40),), base_seed=-1)
    cfg = BenchConfig(pairs=((10, 40),), trials=np.int32(2), base_seed=np.int64(-7))
    rows = run_bench(cfg)
    assert [row.successes + row.failures + row.undecided for row in rows] == [2, 2]


def test_bench_config_rejects_a_non_integer_shape():
    with pytest.raises(ValueError, match=r"^m and n must be integers, got 10\.5x40$"):
        BenchConfig(pairs=((10, 40), (10.5, 40)))
    with pytest.raises(ValueError, match=r"^m and n must be integers, got Truex40$"):
        BenchConfig(pairs=((True, 40),))
    rows = run_bench(BenchConfig(pairs=((np.int64(10), np.int32(40)),), trials=1, methods=("pr",)))
    assert (rows[0].m, rows[0].n) == (10, 40)


def test_method_steps_follow_from_the_shift_weight():
    # 0.95 / 5 and the stationary cap 1/12 of the shifted feasibility f, exactly.
    assert bench.METHOD_STEPS["pr"] == (0.19, 1.0 / 12.0)


def test_format_fval_one_significant_digit():
    assert format_fval(0.03) == "3e-02"
    assert format_fval(3.4e-15) == "3e-15"
    assert format_fval(0.0) == "0e+00"


def sample_rows():
    return [
        BenchRow(100, 4000, "dr", 2073.0, 3e-2, 1e-16, 36, 14, 0, 1.25),
        BenchRow(100, 4000, "pr", 465.0, 6e-2, 4e-5, 0, 50, 0, 0.31),
    ]


SAMPLE_CSV = (
    "m,n,method,iter,fval_max,fval_min,succ,fail,undecided,seconds\n"
    "100,4000,dr,2073.0,3e-02,1e-16,36,14,0,1.2500\n"
    "100,4000,pr,465.0,6e-02,4e-05,0,50,0,0.3100\n"
)


def test_csv_layout():
    assert render_csv(sample_rows()) == SAMPLE_CSV
    assert SAMPLE_CSV.splitlines()[0] == CSV_HEADER


def test_markdown_groups_methods_side_by_side():
    assert render_markdown(sample_rows()) == (
        "| m | n | DR iter | DR fval_max | DR fval_min | DR succ | DR fail | DR und "
        "| PR iter | PR fval_max | PR fval_min | PR succ | PR fail | PR und |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| 100 | 4000 | 2073.0 | 3e-02 | 1e-16 | 36 | 14 | 0 | 465.0 | 6e-02 | 4e-05 | 0 | 50 | 0 |\n"
    )


def test_markdown_marks_a_missing_cell():
    dr, pr = sample_rows()
    lines = render_markdown([dr, pr, replace(dr, m=150)]).splitlines()
    assert lines[3] == "| 150 | 4000 | 2073.0 | 3e-02 | 1e-16 | 36 | 14 | 0 | - | - | - | - | - | - |"


def test_run_bench_counts_divergence_as_failure():
    # A fixed PR step of 0.19, above the 1/12 cap, on 30 x 100 instances: each
    # run stalls with its relative change at or above 1 for 100 steps in a
    # row, so the stall rule ends it "diverged" about 100 steps in (101.25 on
    # average here), long before max_iter, and the table counts each a failure.
    cfg = small_config(pairs=((30, 100),), trials=4, methods=("pr",), steps={"pr": (0.19, 0.19)})
    [row] = run_bench(cfg)
    assert (row.failures, row.successes, row.undecided) == (4, 0, 0)
    assert 101 <= row.mean_iterations < 110
    [(m, n)] = cfg.pairs
    for trial in range(cfg.trials):
        inst = gen_feasibility(m, n, trial_seed(cfg.base_seed, m, n, trial))
        report, fval, outcome, _ = solve_trial(inst, solver_config(cfg, "pr"))
        assert (report.reason, outcome) == ("diverged", "failure")
        assert row.fval_min <= fval <= row.fval_max


def test_run_bench_counts_a_raising_trial_as_failure():
    # A PR start step of 0.3 makes the shifted g-prox ill-posed (5 * 0.3 >= 1),
    # so every PR solve raises ProxShiftError at its first step; the DR row of
    # the same table is unaffected.
    dr_alone = run_bench(small_config(methods=("dr",)))
    steps = {**bench.METHOD_STEPS, "pr": (0.3, bench.METHOD_STEPS["pr"][1])}
    dr, pr = run_bench(small_config(methods=("dr", "pr"), steps=steps))
    assert strip_seconds(render_csv([dr])) == strip_seconds(render_csv(dr_alone))
    assert (pr.method, pr.failures, pr.successes, pr.undecided) == ("pr", 2, 0, 0)
    assert pr.mean_iterations == 0.0
    assert pr.fval_min == pr.fval_max == np.inf


def test_run_bench_rows_aggregate_solve_trial():
    cfg = small_config(trials=3)
    [(m, n)] = cfg.pairs
    instances = [gen_feasibility(m, n, trial_seed(cfg.base_seed, m, n, t)) for t in range(cfg.trials)]
    for row in run_bench(cfg):
        trials = [solve_trial(inst, solver_config(cfg, row.method)) for inst in instances]
        assert row.mean_iterations == np.mean([report.iterations for report, _, _, _ in trials])
        assert (row.fval_min, row.fval_max) == (min(t[1] for t in trials), max(t[1] for t in trials))
        outcomes = [t[2] for t in trials]
        counts = (outcomes.count("success"), outcomes.count("failure"), outcomes.count("undecided"))
        assert (row.successes, row.failures, row.undecided) == counts


def test_run_bench_reports_each_pair_after_all_its_trials(monkeypatch):
    events = []
    real_solve_trial = bench.solve_trial

    def logged(inst, config):
        events.append(("solve", inst.m, config.method))
        return real_solve_trial(inst, config)

    monkeypatch.setattr(bench, "solve_trial", logged)
    run_bench(small_config(pairs=((10, 40), (12, 40))), progress=lambda line: events.append(line[:12]))
    expected = []
    for m in (10, 12):
        expected += [("solve", m, method) for _trial in range(2) for method in ("pr", "dr")]
        expected += [f"m={m} n=40 pr", f"m={m} n=40 dr"]
    assert events == expected


def test_run_bench_counts_a_raising_build_as_failure(monkeypatch):
    # A build that raises (here the DR one, as a rank-deficient A would)
    # fails its trials alone; the PR row is unaffected.
    pr_alone = run_bench(small_config(methods=("pr",)))

    def broken(inst):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(bench, "build_feasibility_dr", broken)
    pr, dr = run_bench(small_config())
    assert strip_seconds(render_csv([pr])) == strip_seconds(render_csv(pr_alone))
    assert (dr.failures, dr.mean_iterations, dr.fval_min, dr.mean_seconds) == (2, 0.0, np.inf, 0.0)


def test_run_bench_counts_a_raising_draw_as_failure(monkeypatch):
    # A draw that raises (a rank-deficient A raises RankDeficientError) fails
    # every method of its trial; the table is finished, and the other trial
    # is solved as it is alone.
    cfg = small_config()
    [(m, n)] = cfg.pairs
    real_gen_feasibility = bench.gen_feasibility

    def rank_deficient_second_draw(m, n, seed):
        if seed == trial_seed(cfg.base_seed, m, n, 1):
            raise RankDeficientError(f"A ({m} x {n}) does not have full row rank")
        return real_gen_feasibility(m, n, seed)

    first_alone = run_bench(small_config(trials=1))
    monkeypatch.setattr(bench, "gen_feasibility", rank_deficient_second_draw)
    rows = run_bench(cfg)
    assert [row.method for row in rows] == list(cfg.methods)
    for row, alone in zip(rows, first_alone):
        assert (row.successes, row.undecided, row.failures) == (alone.successes, alone.undecided, alone.failures + 1)
        assert (row.mean_iterations, row.fval_min, row.fval_max) == (alone.mean_iterations / 2, alone.fval_min, np.inf)


def peak_traced_bytes(cfg):
    gc.collect()
    tracemalloc.start()
    try:
        run_bench(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_bench_holds_one_instance_at_a_time(monkeypatch):
    # Six trials peak less than half an instance's A above one trial: each
    # instance is dropped before the next is drawn. Holding the previous one
    # during the next draw, or all six, peaks most of an A or more above.
    # An untraced first call keeps one-off allocations out of the numbers.
    # Each run is capped at 20 steps, only to keep the test short.
    m, n = 50, 2000
    real_run = bench.run

    def capped(problem, config, x0, observer=None):
        return real_run(problem, replace(config, max_iter=20), x0, observer)

    monkeypatch.setattr(bench, "run", capped)

    def config(trials):
        return BenchConfig(pairs=((m, n),), trials=trials, methods=("pr",))

    run_bench(config(1))
    one, six = (peak_traced_bytes(config(trials)) for trials in (1, 6))
    assert six - one < m * n * 8 / 2


def diverge_at(monkeypatch, z):
    """Make bench.run stop after one step, reporting "diverged" at the point z."""
    real_run = bench.run

    def diverged(problem, config, x0, observer=None):
        report = real_run(problem, replace(config, max_iter=1), x0, observer)
        return replace(report, reason="diverged", state=replace(report.state, z=z))

    monkeypatch.setattr(bench, "run", diverged)


def test_solve_trial_counts_a_diverged_run_as_failure(monkeypatch):
    inst = gen_feasibility(10, 40, 3)
    diverge_at(monkeypatch, inst.x_true)
    report, fval, outcome, seconds = solve_trial(inst, solver_config(small_config(), "pr"))
    assert (report.reason, report.iterations) == ("diverged", 1)
    assert classify(fval) == "success"  # the planted point is feasible
    assert outcome == "failure"
    assert seconds >= 0.0


def test_cli_solve_prints_failure_for_a_diverged_run(monkeypatch, capsys):
    diverge_at(monkeypatch, gen_feasibility(10, 40, 3).x_true)
    assert main(["solve", "--m", "10", "--n", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "iterations  : 1 (diverged)\n" in out
    assert "-> failure\n" in out
