import ctypes
import glob
import itertools
import os
import sys
from pathlib import Path

# The pinned counts and digests depend on the OpenBLAS kernel and, from
# about 120 rows on, its thread count, and OpenBLAS reads both once, when
# numpy loads it.  Nehalem needs only SSE4.2, which every x86-64 machine
# has; the children the tests start inherit both settings.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin its OpenBLAS kernel")
os.environ["OPENBLAS_CORETYPE"] = "Nehalem"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

from trfd.core import FeasibleRegion, OuterFunction, PNorm, Problem
from trfd.oracle import InProcessOracle
from trfd.simplex import LinearProgram


def pytest_report_header(config):
    """The kernel and thread count numpy's bundled OpenBLAS reports, read
    with ctypes; "unknown" for a build without its C API."""
    core = threads = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            core = lib.scipy_openblas_get_corename64_().decode()
            threads = lib.scipy_openblas_get_num_threads64_()
    return f"OpenBLAS core: {core}, threads: {threads}"


def make_problem(fn, n, m, h, x0, region=None, name="test"):
    return Problem(
        n=n,
        m=m,
        oracle=InProcessOracle(fn, m),
        h=OuterFunction.from_value(h),
        region=region if region is not None else FeasibleRegion.unconstrained(n),
        x0=np.asarray(x0, dtype=float),
        name=name,
    )


def rosenbrock_residuals(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def random_box_lp(rng, max_total=12):
    """Feasible-by-construction LP and its interior point xbar: random
    box, rows satisfied at xbar with positive slack."""
    nv = int(rng.integers(2, 6))
    nr = int(rng.integers(1, max_total - nv + 1))
    lo = rng.uniform(-3.0, 0.0, nv)
    hi = lo + rng.uniform(0.5, 3.0, nv)
    xbar = rng.uniform(lo, hi)
    A = rng.uniform(-2.0, 2.0, (nr, nv))
    rhs = A @ xbar + rng.uniform(0.05, 2.0, nr)
    c = rng.uniform(-2.0, 2.0, nv)
    return LinearProgram(c=c, rows=A, rhs=rhs, lower=lo, upper=hi), xbar


def enumerate_lp_minimum(lp):
    """Exhaustive vertex enumeration over all nv-subsets of active
    constraints; independent of the simplex implementation."""
    nv = lp.c.size
    G, g = list(lp.rows), list(lp.rhs)
    for j in range(nv):
        e = np.zeros(nv)
        e[j] = 1.0
        if np.isfinite(lp.upper[j]):
            G.append(e.copy())
            g.append(lp.upper[j])
        if np.isfinite(lp.lower[j]):
            G.append(-e)
            g.append(-lp.lower[j])
    G = np.array(G)
    g = np.array(g)
    best = np.inf
    for idx in itertools.combinations(range(len(g)), nv):
        S = G[list(idx)]
        if abs(np.linalg.det(S)) < 1e-9:
            continue
        v = np.linalg.solve(S, g[list(idx)])
        if np.all(G @ v <= g + 1e-9):
            best = min(best, float(lp.c @ v))
    return best


def random_mixed_lp(rng, max_total=12):
    """Harder generator: free variables capped by explicit rows, and
    equalities through the interior point xbar as pairs of opposite rows.
    Returns the LP and xbar."""
    nv = int(rng.integers(2, 6))
    nr_coupling = int(rng.integers(1, max(2, max_total - nv)))
    lo = np.full(nv, -np.inf)
    hi = np.full(nv, np.inf)
    boxed = rng.random(nv) < 0.6
    lo[boxed] = rng.uniform(-3.0, 0.0, int(boxed.sum()))
    hi[boxed] = lo[boxed] + rng.uniform(0.5, 3.0, int(boxed.sum()))
    xbar = np.where(boxed, np.clip(rng.uniform(-1.0, 1.0, nv), lo, hi), rng.uniform(-1.0, 1.0, nv))

    rows, rhs = [], []
    # cap every free variable with two explicit rows so the feasible set
    # is bounded and vertex enumeration is exact
    for j in np.flatnonzero(~boxed):
        e = np.zeros(nv)
        e[j] = 1.0
        cap = abs(xbar[j]) + float(rng.uniform(0.5, 2.0))
        rows += [e, -e]
        rhs += [cap, cap]
    A = rng.uniform(-2.0, 2.0, (nr_coupling, nv))
    for i in range(nr_coupling):
        if rng.random() < 0.2:
            rows += [A[i], -A[i]]
            rhs += [float(A[i] @ xbar), float(-A[i] @ xbar)]
        else:
            rows.append(A[i])
            rhs.append(float(A[i] @ xbar + rng.uniform(0.05, 2.0)))
    c = rng.uniform(-2.0, 2.0, nv)
    return LinearProgram(c=c, rows=np.array(rows), rhs=np.array(rhs), lower=lo, upper=hi), xbar


def random_tr_instance(rng, h, p, n=2, m=2, constrained=False):
    """Random subproblem inputs.  With ``constrained`` the iterate is
    random and feasible for a random box (some sides infinite, some
    touching x) and up to two linear inequalities (some active at x)."""
    A = rng.uniform(-2.0, 2.0, (m, n))
    F_x = rng.uniform(-2.0, 2.0, m)
    r = float(rng.uniform(0.3, 0.8))
    region, x = FeasibleRegion.unconstrained(n), np.zeros(n)
    if constrained:
        x = rng.uniform(-1.0, 1.0, n)
        gap_lo = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 0.6, n))
        gap_hi = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 0.6, n))
        lower = np.where(rng.random(n) < 0.2, -np.inf, x - gap_lo)
        upper = np.where(rng.random(n) < 0.2, np.inf, x + gap_hi)
        ineq = []
        for _ in range(int(rng.integers(0, 3))):
            a = rng.uniform(-2.0, 2.0, n)
            margin = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.5))
            ineq.append((a, float(a @ x) + margin))
        region = FeasibleRegion(lower, upper, tuple(ineq))
    return OuterFunction.from_value(h), F_x, A, region, x, PNorm.from_value(p), r


@pytest.fixture(scope="session")
def demo_oracle_cmd():
    # the child imports trfd from this checkout, installed or not
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"), prepend=os.pathsep)
        yield f"{sys.executable} -m trfd.demo_oracle"
