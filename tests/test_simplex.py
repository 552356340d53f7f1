import warnings

import numpy as np
import pytest
from conftest import enumerate_lp_minimum, random_box_lp, random_mixed_lp, random_tr_instance

from trfd import simplex
from trfd.core import FeasibleRegion, OuterFunction, PNorm
from trfd.simplex import OPT_TOL, REFACTOR_EVERY, LinearProgram, NumericalTrouble, _residual, solve_lp
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


def test_restart_ending_above_the_start_falls_back_to_the_crash():
    # a Delta* LP (radius 1e3) of the ql problem with residuals x1e-8,
    # as a carried basis met it: the basis [t, slack 1, v2, u1] passes
    # the first pass, and its reduced costs of -2.8e-10 clear -OPT_TOL, so
    # the restart stops at once; yet at this radius they leave a decrease
    # of 2.8e-7, and that vertex lies 1.4e-7 above the d = 0 start
    linprog = pytest.importorskip("scipy.optimize").linprog
    lp = LinearProgram(
        c=[0.0, 0.0, 0.0, 0.0, 1.0],
        rows=[
            [2.4166666889868793e-08, 4.7916666190417345e-08, -2.4166666889868793e-08,
             -4.7916666190417345e-08, -1.0],
            [-3.758333342318565e-07, -5.208333320183556e-08, 3.758333342318565e-07,
             5.208333320183556e-08, -1.0],
            [-7.583333339056253e-08, -1.5208333348226688e-07, 7.583333339056253e-08,
             1.5208333348226688e-07, -1.0],
            [1.0, 1.0, 1.0, 1.0, 0.0],
        ],
        rhs=[-7.200086805110953e-08, 2.5091579858471757e-07, -7.200086806961321e-08, 1000.0],
        lower=[0.0, 0.0, 0.0, 0.0, -np.inf],
        upper=[np.inf] * 5,
    )
    start = np.array([0.0, 0.0, 0.0, 0.0, 7.200086806961321e-08])
    lp.basic = np.array([4, 6, 3, 0])
    lp.at_upper = np.zeros(9, dtype=bool)
    ref = linprog(lp.c, A_ub=lp.rows, b_ub=lp.rhs, bounds=np.column_stack([lp.lower, lp.upper]),
                  method="highs")
    res = solve_lp(lp, start)
    assert res.objective <= lp.c @ start
    assert res.objective == pytest.approx(ref.fun, abs=OPT_TOL * (1.0 + abs(ref.fun)))


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


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_singular_kept_basis_falls_back_to_the_crash(h, p):
    # a kept basis that names one slack column twice is exactly singular
    # (B has a zero row); the restart must find no feasible start in it,
    # warn of nothing, and crash from the start as a cold solve does
    rng = np.random.default_rng(71)
    for _ in range(10):
        inst = random_tr_instance(rng, h, p, n=int(rng.integers(1, 5)), m=int(rng.integers(2, 6)),
                                  constrained=True)
        cold_tr, tr = reformulate(*inst), reformulate(*inst)
        want = solve_lp(cold_tr.lp, cold_tr.start)
        lp = tr.lp
        nv, nr = lp.n_variables, lp.n_rows
        lp.basic = nv + np.concatenate([[0, 0], np.arange(2, nr)])
        lp.at_upper = np.zeros(nv + nr, dtype=bool)
        for reduced in (None, np.zeros(nv + nr)):
            lp.reduced = reduced
            kept = lp.basic.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = solve_lp(lp, tr.start)
            assert np.array_equal(got.x, want.x)
            assert (got.objective, got.iterations) == (want.objective, want.iterations)
            lp.basic = kept


def test_inverse_of_a_singular_basis_raises():
    # inside the floating-point error scope every solve_lp call runs in
    with warnings.catch_warnings(), np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        warnings.simplefilter("error")
        for B in (np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(4)[:, [0, 1, 1, 3]]):
            with pytest.raises(NumericalTrouble, match="singular basis"):
                simplex._inverse(B)


def test_lapack_gufuncs_equal_numpy_linalg_bit_for_bit():
    # the simplex calls the gufuncs behind np.linalg.solve and inv
    # directly; a basis matrix is a column gather, its transpose a view
    lapack = simplex._umath_linalg
    rng = np.random.default_rng(72)
    for n in range(1, 42):
        A = rng.uniform(-2.0, 2.0, (n, 2 * n))
        B = A[:, rng.permutation(2 * n)[:n]]
        b = rng.uniform(-2.0, 2.0, n)
        for M in (B, B.T):
            assert np.array_equal(lapack.solve1(M, b), np.linalg.solve(M, b))
            assert np.array_equal(lapack.inv(M), np.linalg.inv(M))
