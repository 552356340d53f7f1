"""The subproblem LP's block assembly, kept column arrays and captured LPs.

``reference_reformulate`` is the earlier assembly, kept verbatim apart
from names: identity products, a loop over coordinates and row-by-row
concatenation.  The block assembly must build the same LP bit for bit,
rows and columns in the same order.  The registry is unconstrained, so
its campaign never builds a box row or a linear row; the random
instances here do.
"""
import numpy as np
import pytest
from conftest import random_tr_instance
from references import highs_lp

from trfd import subproblem
from trfd.bench import TRFD_L1, TRFD_M, Campaign, run_campaign
from trfd.core import OuterFunction, PNorm, eval_h
from trfd.simplex import LinearProgram, solve_lp
from trfd.subproblem import TrustRegionLP, reformulate, solve_tr_subproblem
from trfd.testset import registry_by_name

ARRAYS = ("c", "rows", "rhs", "lower", "upper")


def reference_reformulate(h, F_x, A, region, x, p, r):
    F_x = np.asarray(F_x, dtype=float)
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    m, n = A.shape

    shift_lo = region.lower - x
    shift_hi = region.upper - x

    if p is PNorm.INF:
        nd = n
        d_cols = np.eye(n)
        d_lo = d_hi = np.zeros(n)
        extra_rows, extra_rhs = [], []
    else:
        nd = 2 * n
        d_cols = np.hstack([np.eye(n), -np.eye(n)])
        d_lo = np.zeros(2 * n)
        d_hi = np.full(2 * n, np.inf)
        extra_rows = [np.ones(2 * n)]
        extra_rhs = [0.0]
        for j in range(n):
            if np.isfinite(shift_hi[j]):
                extra_rows.append(d_cols[j])
                extra_rhs.append(shift_hi[j])
            if np.isfinite(shift_lo[j]):
                extra_rows.append(-d_cols[j])
                extra_rhs.append(-shift_lo[j])

    Ad = A @ d_cols

    if h is OuterFunction.L1:
        nt = m
        top = np.hstack([Ad, -np.eye(m)])
        bot = np.hstack([-Ad, -np.eye(m)])
        rows = [top, bot]
        rhs = [-F_x, F_x]
        t_lo = np.zeros(m)
        t_hi = np.full(m, np.inf)
        t_start = np.abs(F_x)
        c = np.concatenate([np.zeros(nd), np.ones(m)])
    else:
        nt = 1
        rows = [np.hstack([Ad, -np.ones((m, 1))])]
        rhs = [-F_x]
        t_lo = np.array([-np.inf])
        t_hi = np.array([np.inf])
        t_start = np.array([np.max(F_x)])
        c = np.concatenate([np.zeros(nd), np.ones(1)])

    for a_row, b_val in zip(extra_rows, extra_rhs):
        rows.append(np.concatenate([a_row, np.zeros(nt)])[None, :])
        rhs.append(np.array([b_val]))
    for a, b_val in region.linear_ineq:
        rows.append(np.concatenate([a @ d_cols, np.zeros(nt)])[None, :])
        rhs.append(np.array([b_val - float(a @ x)]))

    lp = LinearProgram(
        c=c,
        rows=np.vstack(rows),
        rhs=np.concatenate(rhs),
        lower=np.concatenate([d_lo, t_lo]),
        upper=np.concatenate([d_hi, t_hi]),
    )
    tr = TrustRegionLP(
        lp=lp, h=h, p=p, F_x=F_x, A=A, region=region, x=x,
        base_value=eval_h(h, F_x), start=np.concatenate([np.zeros(nd), t_start]),
    )
    tr.set_radius(r)
    return tr


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_block_assembly_matches_reference(h, p):
    rng = np.random.default_rng(61)
    boxed = linear = 0
    for k in range(80):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        inst = random_tr_instance(rng, h, p, n=n, m=m, constrained=k % 4 != 0)
        region = inst[3]
        boxed += bool(np.isfinite(region.lower).any() or np.isfinite(region.upper).any())
        linear += bool(region.linear_ineq)
        got, want = reformulate(*inst), reference_reformulate(*inst)
        for name in ARRAYS:
            assert np.array_equal(getattr(got.lp, name), getattr(want.lp, name)), name
        assert np.array_equal(got.start, want.start)
    assert boxed > 20 and linear > 20


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_set_radius_moves_the_arrays_solve_lp_reads(h, p):
    # solve_lp reads cost and bounds over all columns from lp.cost, lp.lo
    # and lp.hi; set_radius writes through the views c, lower and upper
    rng = np.random.default_rng(62)
    inst = random_tr_instance(rng, h, p, n=3, m=4)
    tr = reformulate(*inst[:-1], 1000.0)
    lp = tr.lp
    nv = lp.n_variables
    for view, kept in ((lp.c, lp.cost), (lp.lower, lp.lo), (lp.upper, lp.hi)):
        assert view.base is kept and view.size == nv
    tr.set_radius(0.25)
    if p == "inf":
        assert (lp.lo[:3] == -0.25).all() and (lp.hi[:3] == 0.25).all()
    fresh = reformulate(*inst[:-1], 0.25).lp
    for name in ("cost", "lo", "hi", "rhs"):
        assert np.array_equal(getattr(lp, name), getattr(fresh, name)), name
    # slacks cost nothing and lie in [0, inf)
    assert (lp.cost[nv:] == 0.0).all() and (lp.lo[nv:] == 0.0).all() and np.isposinf(lp.hi[nv:]).all()


def capture_lps(monkeypatch):
    """A list that gets ``(lp, start)`` for every LP ``trfd.subproblem``
    solves from now on, copies of its arrays taken before the solve."""
    captured = []
    solve = subproblem.solve_lp

    def capturing(lp, start):
        copies = {name: getattr(lp, name).copy() for name in ARRAYS}
        captured.append((LinearProgram(**copies), np.array(start, dtype=float)))
        return solve(lp, start)

    monkeypatch.setattr(subproblem, "solve_lp", capturing)
    return captured


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_dumped_delta_star_lp_reloads_bit_exact(h, p, monkeypatch):
    # a copy of the solved LP's arrays, solved afresh, gives the step
    rng = np.random.default_rng(63)
    captured = capture_lps(monkeypatch)
    for k in range(12):
        inst = random_tr_instance(rng, h, p, n=int(rng.integers(1, 5)), m=int(rng.integers(1, 6)),
                                  constrained=k % 2 == 0)
        tr = reformulate(*inst[:-1], 1000.0)
        sol = solve_tr_subproblem(tr)
        assert len(captured) == k + 1
        lp, start = captured[-1]
        got = solve_lp(lp, start)
        want = solve_lp(reformulate(*inst[:-1], 1000.0).lp, tr.start)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(tr.extract_d(got.x), sol.d_star)


def test_captured_campaign_lps_match_highs(monkeypatch):
    # differential replay: every LP a small campaign solves, re-solved
    # from a copy by the bundled simplex and by HiGHS
    captured = capture_lps(monkeypatch)
    # both configs on these cover all four (h, p) layouts
    names = ("rosenbrock", "bard", "brown_dennis", "cb2", "chebyshev_line_fit", "maxl_6")
    camp = Campaign(problems=[registry_by_name(name) for name in names],
                    solver_configs=[TRFD_L1, TRFD_M], simplex_gradients=10)
    run_campaign(camp)
    assert len(captured) > 100
    layouts = set()
    for k, (lp, start) in enumerate(captured):
        # minimax's t is free below; p = 1's first column is unbounded above
        layouts.add((bool(np.isneginf(lp.lower).any()), bool(np.isposinf(lp.upper[0]))))
        best = highs_lp(lp)
        assert solve_lp(lp, start).objective == pytest.approx(best, abs=1e-7 * (1.0 + abs(best))), k
    assert len(layouts) == 4
