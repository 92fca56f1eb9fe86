"""Samples and references shared by several test modules; pytest collects no test from here."""

import numpy as np

from prsplit import oracles
from prsplit.linalg import rng_from_seed
from prsplit.oracles import BoxSet, ProxOracle, SparseBoxSet, quadratic_oracle
from prsplit.problems import LsInstance, build_constrained_ls
from prsplit.splitting import SplitProblem


def quadratic_sparse_problem(seed, dim=12, r=4):
    """Random strongly convex quadratic (eigenvalues in [1, 1.4], so 3 sigma > 2 L) plus a sparse-box indicator."""
    rng = rng_from_seed(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = rng.uniform(1.0, 1.4, size=dim)
    Q = (basis * eigenvalues) @ basis.T
    c = rng.standard_normal(dim)
    f = quadratic_oracle(Q, c)
    dset = SparseBoxSet(r=r)
    g = ProxOracle(prox=lambda gamma, w: dset.project(w), value=dset.indicator)
    return SplitProblem(f=f, g=g, dim=dim)


def ls_box_problem(seed):
    """Strongly convex least squares on 30 x 12 Gaussian data, constrained to the box of bound 0.3.

    The data is normalized by its spectral norm; that only changes units
    (the iterate sequence is identical under the induced step rescaling)
    and keeps the absolute residual tolerances of the termination contract
    meaningful.
    """
    rng = rng_from_seed(seed)
    A = rng.standard_normal((30, 12))
    b = rng.standard_normal(30)
    scale = np.linalg.norm(A, 2)
    return build_constrained_ls(LsInstance(A=A / scale, b=b / scale, constraint=BoxSet(0.3)))


def kkt_projection(A, b, w):
    """Oracle: nearest point on {x: Ax=b} via the full (n+m) KKT system."""
    m, n = A.shape
    system = np.block([[np.eye(n), A.T], [A, np.zeros((m, m))]])
    return np.linalg.solve(system, np.concatenate([w, b]))[:n]


def count_solver_calls(monkeypatch):
    """Record each np.linalg.eigh and Cholesky factorization (AffineSet's) from here on."""
    calls = []
    eigh = np.linalg.eigh
    factor = oracles._factor_in_place
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append("eigh") or eigh(M))
    monkeypatch.setattr(oracles, "_factor_in_place", lambda M: calls.append("spd_factor") or factor(M))
    return calls
