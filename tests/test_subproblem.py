import numpy as np
import pytest
from conftest import random_tr_instance
from references import eta_bruteforce

from trfd import simplex
from trfd.core import FeasibleRegion, OuterFunction, PNorm, eval_h, norm
from trfd.simplex import NumericalTrouble, SimplexResult, _residual, solve_lp
from trfd.subproblem import _check_solution, _ray_length, reformulate, solve_tr_subproblem

try:  # independent reference solver; optional, not a runtime dependency
    from scipy.optimize import linprog
except ImportError:
    linprog = None

UNC2 = FeasibleRegion.unconstrained(2)


def test_reformulate_counts_minimax_inf():
    tr = reformulate(
        OuterFunction.MINIMAX, np.zeros(3), np.zeros((3, 2)), UNC2, np.zeros(2), PNorm.INF, 1.0
    )
    assert tr.lp.n_variables == 3  # d1, d2, t
    assert tr.lp.n_rows == 3
    assert np.isfinite(tr.lp.lower).sum() + np.isfinite(tr.lp.upper).sum() == 4


def test_reformulate_counts_l1_p1():
    tr = reformulate(
        OuterFunction.L1, np.zeros(2), np.zeros((2, 2)), UNC2, np.zeros(2), PNorm.ONE, 1.0
    )
    assert tr.lp.n_variables == 6  # u1, u2, v1, v2, t1, t2
    assert tr.lp.n_rows == 5


def test_reformulate_extra_inequality_row():
    region = FeasibleRegion(
        np.full(2, -np.inf), np.full(2, np.inf), ((np.array([1.0, 1.0]), 5.0),)
    )
    tr = reformulate(
        OuterFunction.L1, np.zeros(2), np.zeros((2, 2)), region, np.zeros(2), PNorm.ONE, 1.0
    )
    assert tr.lp.n_rows == 6


def test_p2_rejected():
    with pytest.raises(ValueError, match="p = 2"):
        PNorm.from_value("2")


def test_zero_matrix_gives_zero_eta():
    for h in OuterFunction:
        sol = solve_tr_subproblem(reformulate(
            h, np.array([1.0, -1.0]), np.zeros((2, 2)), UNC2, np.zeros(2), PNorm.ONE, 0.5
        ))
        assert sol.eta == 0.0
        assert sol.model_value == eval_h(h, [1.0, -1.0])


def test_minimax_single_row_closed_form():
    # model is linear: min over the inf-ball sits at d = -r * sign(g)
    g = np.array([[0.7, -1.3]])
    sol = solve_tr_subproblem(reformulate(
        OuterFunction.MINIMAX, np.array([2.0]), g, UNC2, np.zeros(2), PNorm.INF, 0.5
    ))
    assert sol.model_value == pytest.approx(2.0 - 0.5 * 2.0, rel=1e-12)
    assert sol.eta == pytest.approx(2.0, rel=1e-12)


def test_l1_identity_example_against_grid():
    A = np.eye(2)
    F = np.array([1.0, -1.0])
    sol = solve_tr_subproblem(reformulate(OuterFunction.L1, F, A, UNC2, np.zeros(2), PNorm.ONE, 0.5))
    eta_grid = eta_bruteforce(OuterFunction.L1, F, A, UNC2, np.zeros(2), PNorm.ONE, 0.5)
    model_grid = eval_h(OuterFunction.L1, F) - 0.5 * eta_grid
    assert abs(sol.model_value - model_grid) <= 2e-3 * (1 + np.linalg.norm(A, 2))


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_matches_grid_oracle_random(h, p):
    rng = np.random.default_rng(abs(hash((h, p))) % 2**32)
    for _ in range(25):
        h_, F_x, A, region, x, p_, r = random_tr_instance(rng, h, p)
        sol = solve_tr_subproblem(reformulate(h_, F_x, A, region, x, p_, r))
        eta_grid = eta_bruteforce(h_, F_x, A, region, x, p_, r)
        model_grid = eval_h(h_, F_x) - r * eta_grid
        tol = 2e-3 * (1 + np.linalg.norm(A, 2))
        assert abs(sol.model_value - model_grid) <= tol
        # the LP is exact, so it can only be at or below the grid minimum
        assert sol.model_value <= model_grid + 1e-9


def test_eta_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h, F_x, A, region, x, p, r = random_tr_instance(
            rng, "l1" if rng.random() < 0.5 else "minimax", "1" if rng.random() < 0.5 else "inf"
        )
        sol = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r))
        assert sol.eta >= 0.0
        assert norm(sol.d_star, p) <= r * (1 + 1e-9) + 1e-9


def test_radius_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(60):
        h, F_x, A, region, x, p, _ = random_tr_instance(
            rng, "l1" if rng.random() < 0.5 else "minimax", "1" if rng.random() < 0.5 else "inf"
        )
        r1 = float(rng.uniform(0.1, 1.0))
        r2 = r1 + float(rng.uniform(0.0, 2.0))
        eta1 = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r1)).eta
        eta2 = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r2)).eta
        assert eta1 >= eta2 - 1e-9


def test_scale_covariance():
    rng = np.random.default_rng(9)
    for _ in range(40):
        h, F_x, A, region, x, p, r = random_tr_instance(
            rng, "l1" if rng.random() < 0.5 else "minimax", "1" if rng.random() < 0.5 else "inf"
        )
        lam = float(rng.uniform(0.2, 5.0))
        base = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r))
        scaled = solve_tr_subproblem(reformulate(h, lam * F_x, lam * A, region, x, p, r))
        assert scaled.model_value == pytest.approx(lam * base.model_value, rel=1e-9, abs=1e-12)
        assert scaled.eta == pytest.approx(lam * base.eta, rel=1e-9, abs=1e-12)


def test_region_constrained_step_stays_feasible():
    region = FeasibleRegion([-0.2, -0.1], [0.1, 0.3])
    A = np.array([[1.0, 2.0], [-1.0, 1.0]])
    F = np.array([0.5, -0.4])
    for p in (PNorm.ONE, PNorm.INF):
        sol = solve_tr_subproblem(reformulate(OuterFunction.L1, F, A, region, np.zeros(2), p, 1.0))
        assert region.contains(sol.d_star, tol=1e-9)


def _highs_objective(lp):
    ref = linprog(
        lp.c, A_ub=lp.rows, b_ub=lp.rhs,
        bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
    )
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize(
    "h, p, seed", [("l1", "1", 31), ("l1", "inf", 32), ("minimax", "1", 33), ("minimax", "inf", 34)]
)
def test_crash_start_matches_cold_solve_and_highs(h, p, seed, monkeypatch):
    # the d = 0 start must give the same optimum as an independent
    # solver; so must a re-solve of the same model at another radius,
    # which restarts from the basis of its last solve
    used = []  # per warm solve: was the earlier basis usable?
    runs = []  # per pivot-loop run: did it start from a feasible basis?
    real_optimize = simplex._optimize

    def recording_optimize(*args):
        out = real_optimize(*args)
        runs.append(out is not None)
        return out

    monkeypatch.setattr(simplex, "_optimize", recording_optimize)
    rng = np.random.default_rng(seed)
    warm_pivots = []
    for k in range(80):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        inst = random_tr_instance(rng, h, p, n=n, m=m, constrained=k % 4 != 0)
        tr = reformulate(*inst)
        crashed = solve_lp(tr.lp, start=tr.start)
        scale = 1.0 + abs(tr.base_value)
        assert crashed.objective <= tr.base_value + 1e-12 * scale
        if linprog is not None:
            assert crashed.objective == pytest.approx(_highs_objective(tr.lp), abs=1e-7 * scale)

        # the same model re-solved warm: a U2 retry at r/2, and the step
        # LP at r after the Delta* LP
        r = inst[-1]
        star = reformulate(*inst[:-1], 1000.0)
        solve_lp(star.lp, start=star.start)
        for target, radius in ((tr, r / 2), (star, r)):
            target.set_radius(radius)
            fresh = reformulate(*inst[:-1], radius)
            for name in ("rows", "rhs", "lower", "upper"):
                assert np.array_equal(getattr(target.lp, name), getattr(fresh.lp, name))
            runs.clear()
            warm = solve_lp(target.lp, start=target.start)
            # a restart runs the loop once; a fallback runs it again from the crash
            assert runs in ([True], [False, True])
            used.append(runs[0])
            want = solve_lp(fresh.lp, start=fresh.start)
            assert warm.objective == pytest.approx(want.objective, abs=1e-9 * scale)
            if linprog is not None:
                assert warm.objective == pytest.approx(_highs_objective(fresh.lp), abs=1e-7 * scale)
            warm_pivots.append(warm.iterations)
    # some earlier bases stay optimal, and some no longer fit the bounds
    assert len(used) == len(warm_pivots) == 160
    assert any(u and its == 0 for u, its in zip(used, warm_pivots))
    assert not all(used)


def test_subproblem_start_satisfies_every_row():
    # solve_lp needs a start that satisfies every row; the d = 0 point of
    # every layout is one, exactly, boxes and linear constraints included
    rng = np.random.default_rng(35)
    for h in ("l1", "minimax"):
        for p in ("1", "inf"):
            for _ in range(25):
                n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
                inst = random_tr_instance(rng, h, p, n=n, m=m, constrained=True)
                tr = reformulate(*inst)
                assert _residual(tr.lp, tr.start) == 0.0
                solve_tr_subproblem(reformulate(*inst))


@pytest.mark.skipif(linprog is None, reason="needs scipy's HiGHS as the reference solver")
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("p", ["1", "inf"])
@pytest.mark.parametrize("h", ["l1", "minimax"])
def test_subproblem_solves_reach_the_highs_optimum(h, p, constrained):
    # theta = 1 holds only if every solve reaches the optimal model
    # decrease, which an independent solver's optimum checks
    rng = np.random.default_rng(21)
    for _ in range(40):
        inst = random_tr_instance(rng, h, p, constrained=constrained)
        tr = reformulate(*inst)
        best = _highs_objective(tr.lp)
        sol = solve_tr_subproblem(tr)
        tol = 1e-9 * (1 + abs(tr.base_value))
        assert best - tol <= sol.model_value <= best + tol


# a box with finite lower sides on its first and last coordinates alone
ONE_SIDED = FeasibleRegion(np.array([-1.0, -np.inf, 0.0]), np.full(3, np.inf))


@pytest.mark.parametrize("p", [PNorm.ONE, PNorm.INF])
def test_a_step_past_a_one_sided_box_is_refused(p):
    F, A, x = np.array([1.0]), np.array([[0.0, 0.0, 1.0]]), np.array([0.0, 0.0, 0.5])
    tr = reformulate(OuterFunction.L1, F, A, ONE_SIDED, x, p, 1.0)
    assert tr.region.bounded and tr.region.sides.tolist() == [False, True, False, False, False, True]

    def check(d):
        model_value = eval_h(tr.h, F + A @ d)
        result = SimplexResult(x=np.zeros(tr.lp.n_variables), objective=model_value, iterations=0,
                               max_residual=0.0)
        _check_solution(tr, d, model_value, result)

    # along an infinite side, and onto the finite one within the tolerance
    check(np.array([0.0, 0.9, 0.0]))
    check(np.array([0.0, 0.0, -0.5 - 5e-7]))
    with pytest.raises(NumericalTrouble, match="step left the feasible region"):
        check(np.array([0.0, 0.0, -0.6]))


def test_an_lp_objective_off_the_model_value_is_refused():
    # the allowance is 1e-7 (1 + |h(F)|), here with h(F) = 3
    F, A, x = np.array([1.0, -2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2)
    tr = reformulate(OuterFunction.L1, F, A, UNC2, x, PNorm.INF, 1.0)
    d = np.array([-0.5, 0.5])
    model_value = eval_h(tr.h, F + A @ d)
    scale = 1.0 + abs(tr.base_value)
    assert (tr.base_value, model_value) == (3.0, 2.0)

    def check(objective):
        result = SimplexResult(x=np.zeros(tr.lp.n_variables), objective=objective, iterations=0,
                               max_residual=0.0)
        _check_solution(tr, d, model_value, result)

    for off in (0.5e-7, -0.5e-7):
        check(model_value + off * scale)
    for off in (2e-7, -2e-7):
        with pytest.raises(NumericalTrouble, match="^LP objective inconsistent with model value$"):
            check(model_value + off * scale)


def test_ray_length_is_the_ratio_test_over_finite_sides_and_rows():
    F, A = np.zeros(1), np.zeros((1, 3))

    def ray(region, x, u):
        return _ray_length(reformulate(OuterFunction.L1, F, A, region, x, PNorm.INF, 1.0), u)

    x, u = np.array([0.0, 0.0, 0.5]), np.array([-0.5, -2.0, -1.0])
    # lower sides only: (-1 - 0) / -0.5 = 2 and (0 - 0.5) / -1 = 0.5
    assert ray(ONE_SIDED, x, u) == 0.5
    # rising, the ray meets no finite side
    assert ray(ONE_SIDED, x, -u) == np.inf
    rows = FeasibleRegion(np.full(3, -np.inf), np.full(3, np.inf),
                          ((np.array([1.0, 1.0, 0.0]), 2.0), (np.array([-1.0, 0.0, 0.0]), 5.0)))
    u = np.array([1.0, 0.5, 3.0])
    # the first row's slope is 1.5 and its slack 2; the second falls
    assert ray(rows, np.zeros(3), u) == 2.0 / 1.5
    assert ray(FeasibleRegion.unconstrained(3), np.zeros(3), u) == np.inf
