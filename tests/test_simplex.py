import numpy as np
import pytest
from conftest import enumerate_lp_minimum, random_box_lp, random_mixed_lp

from trfd.core import FeasibleRegion, OuterFunction, PNorm
from trfd.simplex import OPT_TOL, REFACTOR_EVERY, LinearProgram, NumericalTrouble, _residual, solve_lp, to_mps
from trfd.subproblem import reformulate

try:  # independent reference solver; optional, not a runtime dependency
    from scipy.optimize import linprog
except ImportError:
    linprog = None


def test_min_of_two_lower_bounds():
    # x >= 1 and x >= -1 as <= rows, started at x = 3
    lp = LinearProgram(
        c=[1.0], rows=[[-1.0], [-1.0]], rhs=[-1.0, 1.0],
        lower=[-np.inf], upper=[np.inf],
    )
    res = solve_lp(lp, [3.0])
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_box_only():
    # the one row never binds, so the box alone decides
    lp = LinearProgram(
        c=[1.0, 1.0], rows=[[1.0, 1.0]], rhs=[5.0],
        lower=[0.0, 0.0], upper=[1.0, 1.0],
    )
    res = solve_lp(lp, [0.5, 0.5])
    assert res.objective == 0.0
    assert np.all(res.x == 0.0)


def test_equality_row():
    # x1 + x2 = 1 as a pair of opposite <= rows
    lp = LinearProgram(
        c=[1.0, 2.0], rows=[[1.0, 1.0], [-1.0, -1.0]], rhs=[1.0, -1.0],
        lower=[0.0, 0.0], upper=[np.inf, np.inf],
    )
    res = solve_lp(lp, [0.5, 0.5])
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-10)


def test_unbounded_raises():
    lp = LinearProgram(
        c=[-1.0], rows=[[-1.0]], rhs=[0.0],
        lower=[0.0], upper=[np.inf],
    )
    with pytest.raises(NumericalTrouble):
        solve_lp(lp, [1.0])


def test_infeasible_raises():
    # 1 <= x <= 3: the start must satisfy every row within OPT_TOL
    lp = LinearProgram(
        c=[1.0], rows=[[-1.0], [1.0]], rhs=[-1.0, 3.0],
        lower=[-np.inf], upper=[np.inf],
    )
    for start in ([5.0], [0.0], [3.0 + 2 * OPT_TOL], [np.nan]):
        with pytest.raises(NumericalTrouble, match="start violates a row"):
            solve_lp(lp, start)
    # a violation within OPT_TOL is accepted
    res = solve_lp(lp, [3.0 + 0.5 * OPT_TOL])
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)
    # a re-solve restarts from the kept basis, but checks its start too
    with pytest.raises(NumericalTrouble, match="start violates a row"):
        solve_lp(lp, [5.0])


def test_matches_vertex_enumeration_100_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lp, xbar = random_box_lp(rng)
        got = solve_lp(lp, xbar)
        want = enumerate_lp_minimum(lp)
        assert got.objective == pytest.approx(want, abs=1e-8)
        assert got.max_residual <= 1e-9


def test_matches_enumeration_mixed_free_and_equality():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(150):
        lp, xbar = random_mixed_lp(rng)
        want = enumerate_lp_minimum(lp)
        if not np.isfinite(want):
            continue  # degenerate random geometry; enumeration found no vertex
        got = solve_lp(lp, xbar)
        assert got.objective == pytest.approx(want, abs=1e-8)
        solved += 1
    assert solved >= 140


def test_vertex_and_midpoint_starts_match_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lp, xbar = random_box_lp(rng)
        want = enumerate_lp_minimum(lp)
        # a vertex and, mostly interior, the midpoint of two vertices
        vertex = solve_lp(lp, xbar).x
        flipped = LinearProgram(c=-lp.c, rows=lp.rows, rhs=lp.rhs, lower=lp.lower, upper=lp.upper)
        for start in (vertex, 0.5 * (vertex + solve_lp(flipped, xbar).x)):
            # a fresh instance, so the solve crashes from the start instead
            # of restarting from the basis an earlier solve left
            fresh = LinearProgram(c=lp.c, rows=lp.rows, rhs=lp.rhs, lower=lp.lower, upper=lp.upper)
            got = solve_lp(fresh, start)
            assert got.objective == pytest.approx(want, abs=1e-8)


def test_crash_makes_interior_start_basic_in_tight_row():
    # min t s.t. t >= 2, t >= -1, started at t = 2: t replaces the slack
    # of the tight first row, so the start is already optimal
    lp = LinearProgram(
        c=[1.0], rows=[[-1.0], [-1.0]], rhs=[-2.0, 1.0],
        lower=[-np.inf], upper=[np.inf],
    )
    res = solve_lp(lp, start=[2.0])
    assert res.iterations == 0
    assert res.x[0] == 2.0


def _residual_by_rows(lp, x):
    # row-by-row reference for the vectorised _residual
    worst = 0.0
    for a, rhs in zip(lp.rows, lp.rhs):
        worst = max(worst, float(a @ x) - rhs)
    worst = max(worst, float(np.max(lp.lower - x, initial=0.0)))
    return max(worst, float(np.max(x - lp.upper, initial=0.0)))


def test_residual_matches_row_loop():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lp, _ = random_mixed_lp(rng)
        # points inside and outside the feasible set
        x = rng.uniform(-4.0, 4.0, lp.n_variables)
        want = _residual_by_rows(lp, x)
        # matrix-vector and row-wise dot products may round differently
        assert _residual(lp, x) == pytest.approx(want, rel=1e-13, abs=1e-13)
    box_only = LinearProgram(c=[1.0], rows=np.zeros((0, 1)), rhs=[], lower=[0.0], upper=[1.0])
    assert _residual(box_only, np.array([1.5])) == 0.5


def test_beale_cycling_instance():
    # the classic degenerate instance on which naive largest-coefficient
    # pricing cycles; the safeguard must still reach -1/20
    lp = LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        rows=[
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        rhs=[0.0, 0.0, 1.0],
        lower=[0.0, 0.0, 0.0, 0.0],
        upper=[np.inf, np.inf, np.inf, np.inf],
    )
    res = solve_lp(lp, np.zeros(4))
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


def test_degenerate_stacked_constraints():
    # many redundant active rows at the optimum exercise the anti-cycling path
    lp = LinearProgram(
        c=[-1.0, -1.0],
        rows=[[1.0, 0.0]] * 6 + [[1.0, 1.0]],
        rhs=[1.0] * 6 + [1.5],
        lower=[0.0, 0.0],
        upper=[5.0, 5.0],
    )
    res = solve_lp(lp, np.zeros(2))
    assert res.objective == pytest.approx(-1.5, abs=1e-10)


def test_mps_dump_roundtrippable_text():
    lp = LinearProgram(
        c=[1.0, -2.0], rows=[[1.0, 1.0]], rhs=[3.0],
        lower=[0.0, -np.inf], upper=[np.inf, 4.0],
    )
    text = to_mps(lp, name="CASE")
    assert text.startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert " L  R0" in text


def test_large_lp_through_refactors_matches_highs():
    # the ladder's n = 40 L1 p = 1 layout (161 rows) takes more basis
    # changes than one refactor period, and every optimum passes the
    # fresh-solve exit check
    rng = np.random.default_rng(40)
    n, m = 40, 80
    tr = reformulate(
        OuterFunction.L1, rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, (m, n)),
        FeasibleRegion.unconstrained(n), np.zeros(n), PNorm.ONE, 0.5,
    )
    assert tr.lp.n_rows == 161
    res = solve_lp(tr.lp, start=tr.start)
    assert res.iterations > REFACTOR_EVERY
    assert res.max_residual <= 1e-6
    if linprog is not None:
        ref = linprog(
            tr.lp.c, A_ub=tr.lp.rows, b_ub=tr.lp.rhs,
            bounds=np.column_stack([tr.lp.lower, tr.lp.upper]), method="highs",
        )
        assert res.objective == pytest.approx(ref.fun, abs=1e-8 * (1.0 + abs(ref.fun)))
