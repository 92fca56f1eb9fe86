"""Peaceman-Rachford splitting for nonconvex composite minimization.

A small solver library plus benchmark harness: PR and DR proximal splitting
engines with merit-function monitoring, the closed-form proxes for sparse
feasibility and constrained least squares, random instance generation, and
a CLI that reproduces the head-to-head iteration/quality comparison.
"""

from .bench import BenchConfig, BenchRow, run_bench, solve_trial, trial_seed
from .linalg import (
    NotPositiveDefiniteError,
    spd_factor,
    spectral_norm_sq,
)
from .oracles import (
    AffineSet,
    BoxSet,
    ProxOracle,
    ProxShiftError,
    RankDeficientError,
    SmoothOracle,
    SparseBoxSet,
    quadratic_oracle,
    shift_split,
)
from .problems import (
    FeasibilityInstance,
    LsInstance,
    build_constrained_ls,
    build_feasibility_dr,
    build_feasibility_pr,
    classify,
    distance_feasibility_problem,
    evaluate_fval,
    gen_feasibility,
    load_instance,
    save_instance,
)
from .splitting import (
    IterateState,
    SolverConfig,
    SolverReport,
    SplitProblem,
    StationarityResidual,
    dr_step,
    ergodic_gap_bound,
    fit_contraction,
    gamma_threshold,
    initial_state,
    merit_dr,
    merit_pr,
    pr_step,
    run,
    stationarity_residual,
)

__version__ = "0.1.0"
