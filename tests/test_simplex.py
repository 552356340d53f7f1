import numpy as np
import pytest
from conftest import enumerate_lp_minimum, random_box_lp, random_mixed_lp

from trfd.core import FeasibleRegion, OuterFunction, PNorm
from trfd.simplex import REFACTOR_EVERY, LinearProgram, NumericalTrouble, _residual, solve_lp, to_mps
from trfd.subproblem import reformulate

try:  # independent reference solver; optional, not a runtime dependency
    from scipy.optimize import linprog
except ImportError:
    linprog = None


def test_min_of_two_lower_bounds():
    lp = LinearProgram(
        c=[1.0], rows=[[1.0], [1.0]], sense=(">=", ">="), rhs=[1.0, -1.0],
        lower=[-np.inf], upper=[np.inf],
    )
    res = solve_lp(lp)
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_box_only():
    lp = LinearProgram(
        c=[1.0, 1.0], rows=np.zeros((0, 2)), sense=(), rhs=[],
        lower=[0.0, 0.0], upper=[1.0, 1.0],
    )
    res = solve_lp(lp)
    assert res.objective == 0.0
    assert np.all(res.x == 0.0)


def test_equality_row():
    lp = LinearProgram(
        c=[1.0, 2.0], rows=[[1.0, 1.0]], sense=("=",), rhs=[1.0],
        lower=[0.0, 0.0], upper=[np.inf, np.inf],
    )
    res = solve_lp(lp)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-10)


def test_unbounded_raises():
    lp = LinearProgram(
        c=[-1.0], rows=np.zeros((0, 1)), sense=(), rhs=[],
        lower=[0.0], upper=[np.inf],
    )
    with pytest.raises(NumericalTrouble):
        solve_lp(lp)


def test_infeasible_raises():
    lp = LinearProgram(
        c=[1.0], rows=[[1.0], [1.0]], sense=("<=", ">="), rhs=[0.0, 1.0],
        lower=[-10.0], upper=[10.0],
    )
    with pytest.raises(NumericalTrouble):
        solve_lp(lp)


def test_matches_vertex_enumeration_100_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lp = random_box_lp(rng)
        got = solve_lp(lp)
        want = enumerate_lp_minimum(lp)
        assert got.objective == pytest.approx(want, abs=1e-8)
        assert got.max_residual <= 1e-9


def test_matches_enumeration_mixed_free_and_equality():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(150):
        lp = random_mixed_lp(rng)
        want = enumerate_lp_minimum(lp)
        if not np.isfinite(want):
            continue  # degenerate random geometry; enumeration found no vertex
        got = solve_lp(lp)
        assert got.objective == pytest.approx(want, abs=1e-8)
        solved += 1
    assert solved >= 140


def test_feasible_start_skips_phase_one():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lp = random_box_lp(rng)
        want = enumerate_lp_minimum(lp)
        # a vertex and, mostly interior, the midpoint of two vertices
        vertex = solve_lp(lp).x
        flipped = LinearProgram(c=-lp.c, rows=lp.rows, sense=lp.sense, rhs=lp.rhs, lower=lp.lower, upper=lp.upper)
        for start in (vertex, 0.5 * (vertex + solve_lp(flipped).x)):
            got = solve_lp(lp, start=start)
            assert got.phase1_iterations == 0
            assert got.objective == pytest.approx(want, abs=1e-8)


def test_infeasible_start_falls_back_to_phase_one():
    # x >= 1 and x <= 3 from the start x = 5: the second row needs Phase I
    lp = LinearProgram(
        c=[1.0], rows=[[1.0], [1.0]], sense=(">=", "<="), rhs=[1.0, 3.0],
        lower=[-np.inf], upper=[np.inf],
    )
    res = solve_lp(lp, start=[5.0])
    assert res.phase1_iterations > 0
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)


def test_crash_makes_interior_start_basic_in_tight_row():
    # min t s.t. t >= 2, t >= -1, started at t = 2: t replaces the slack
    # of the tight first row, so the start is already optimal
    lp = LinearProgram(
        c=[1.0], rows=[[-1.0], [-1.0]], sense=("<=", "<="), rhs=[-2.0, 1.0],
        lower=[-np.inf], upper=[np.inf],
    )
    res = solve_lp(lp, start=[2.0])
    assert res.iterations == 0
    assert res.x[0] == 2.0


def _residual_by_rows(lp, x):
    # row-by-row reference for the vectorised _residual
    worst = 0.0
    for a, s, rhs in zip(lp.rows, lp.sense, lp.rhs):
        v = float(a @ x)
        if s == "<=":
            worst = max(worst, v - rhs)
        elif s == ">=":
            worst = max(worst, rhs - v)
        else:
            worst = max(worst, abs(v - rhs))
    worst = max(worst, float(np.max(lp.lower - x, initial=0.0)))
    return max(worst, float(np.max(x - lp.upper, initial=0.0)))


def test_residual_matches_row_loop():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lp = random_mixed_lp(rng)
        # points inside and outside the feasible set
        x = rng.uniform(-4.0, 4.0, lp.n_variables)
        want = _residual_by_rows(lp, x)
        # matrix-vector and row-wise dot products may round differently
        assert _residual(lp, x) == pytest.approx(want, rel=1e-13, abs=1e-13)
    box_only = LinearProgram(c=[1.0], rows=np.zeros((0, 1)), sense=(), rhs=[], lower=[0.0], upper=[1.0])
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
        sense=("<=", "<=", "<="),
        rhs=[0.0, 0.0, 1.0],
        lower=[0.0, 0.0, 0.0, 0.0],
        upper=[np.inf, np.inf, np.inf, np.inf],
    )
    res = solve_lp(lp)
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


def test_degenerate_stacked_constraints():
    # many redundant active rows at the optimum exercise the anti-cycling path
    lp = LinearProgram(
        c=[-1.0, -1.0],
        rows=[[1.0, 0.0]] * 6 + [[1.0, 1.0]],
        sense=("<=",) * 7,
        rhs=[1.0] * 6 + [1.5],
        lower=[0.0, 0.0],
        upper=[5.0, 5.0],
    )
    res = solve_lp(lp)
    assert res.objective == pytest.approx(-1.5, abs=1e-10)


def test_mps_dump_roundtrippable_text():
    lp = LinearProgram(
        c=[1.0, -2.0], rows=[[1.0, 1.0]], sense=("<=",), rhs=[3.0],
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
