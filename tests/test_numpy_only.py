"""The library runs on numpy alone: the benchmark in perfbench/ is the only importer of scipy."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
    sys.path.insert(0, sys.argv[1])

    import numpy as np
    from prsplit import (
        BoxSet, LsInstance, SolverConfig, build_constrained_ls,
        build_feasibility_dr, build_feasibility_pr, gen_feasibility, run,
    )
    from prsplit.linalg import rng_from_seed

    inst = gen_feasibility(10, 40, 3)
    for build, config in [
        (build_feasibility_pr, SolverConfig(method="pr", max_iter=300)),
        (build_feasibility_dr, SolverConfig(gamma0=50.0, gamma1=1.0 / 3.0, method="dr", max_iter=300)),
    ]:
        report = run(build(inst), config, np.zeros(40))
        assert report.iterations > 0 and np.all(np.isfinite(report.state.z))
    ls = LsInstance(A=rng_from_seed(5).standard_normal((30, 12)), b=np.ones(30), constraint=BoxSet(1.0))
    report = run(build_constrained_ls(ls), SolverConfig(max_iter=300), np.zeros(12))
    assert report.iterations > 0 and np.all(np.isfinite(report.state.z))
    loaded = sorted(name for name, mod in sys.modules.items()
                    if name.split(".")[0] == "scipy" and mod is not None)
    assert not loaded, loaded
    print("ok")
    """
)


def test_library_solves_without_scipy():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
