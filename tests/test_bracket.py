"""The eta bracket that lets a step solve stand in for the Delta* solve.

psi(r) = h(F) - min over the feasible r-ball of h(F + A d) is concave
and nondecreasing with psi(0) = 0, so psi(rho)/Delta* <= eta(Delta*)
<= psi(delta)/delta for delta <= rho <= Delta*.  The lower end reads
psi(rho) at the step or at a point further along its ray.  These tests
check that bracket against exact solves at both radii, check the ray
point's feasibility, and check that the solver takes a bracket only
where the exact eta would not have stopped the run or taken a U1 step.
"""
import numpy as np
import pytest
from conftest import random_tr_instance

from trfd.core import FeasibleRegion, OuterFunction, PNorm, Problem, eval_h, norm
from trfd.oracle import InProcessOracle
from trfd.simplex import NumericalTrouble
from trfd.solver import TrfdParams, solve
from trfd.subproblem import (
    BRACKET_RTOL, ETA_SNAP, SubproblemSolution, eta_bracket, reformulate, solve_tr_subproblem,
)
from trfd.testset import registry_by_name

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DELTA_STAR = 1000.0


def model_tol(tr) -> float:
    # the agreement _check_solution demands of the LP objective and the
    # recomputed model value
    return 1e-7 * (1.0 + abs(tr.base_value))


def ray_point(tr, step, rho) -> np.ndarray:
    """The point of the region whose decrease the bracket's lower end reads."""
    size = norm(step.d_star, tr.p)
    if rho == tr.radius:
        return tr.x + step.d_star * min(1.0, rho / size)
    return tr.x + rho * (step.d_star / size)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(
    h=st.sampled_from(["l1", "minimax"]),
    p=st.sampled_from(["1", "inf"]),
    region=st.sampled_from(["none", "box", "box+rows", "rows"]),
    n=st.integers(1, 4),
    m=st.integers(1, 5),
    instance_seed=st.integers(0, 2**32 - 1),
    log_delta=st.floats(-6.0, np.log10(DELTA_STAR) - 1e-3),
    scale=st.sampled_from([1e-10, 1e-8, 1e-6, 1.0]),
    stop_eta=st.sampled_from([0.0, 1e-13, 1e-6, 1e-3]),
)
def test_bracket_holds_against_exact_solves(h, p, region, n, m, instance_seed, log_delta, scale, stop_eta):
    # small scales put psi(delta)/Delta* near ETA_SNAP, where the ray
    # decides whether the bracket is taken
    rng = np.random.default_rng(instance_seed)
    h, F_x, A, box_region, x, p, _ = random_tr_instance(rng, h, p, n=n, m=m, constrained=region != "none")
    F_x, A = scale * F_x, scale * A
    floor = max(ETA_SNAP, stop_eta)
    if region == "box":
        box_region = FeasibleRegion(box_region.lower, box_region.upper, ())
    elif region == "rows":
        # rows alone, their boundaries through x, so the ray may end at x
        free = FeasibleRegion.unconstrained(n)
        rows = tuple((a, float(a @ x)) for a in rng.uniform(-2.0, 2.0, (int(rng.integers(1, 3)), n)))
        box_region = FeasibleRegion(free.lower, free.upper, rows)
    delta = 10.0**log_delta

    tr = reformulate(h, F_x, A, box_region, x, p, delta)
    step = solve_tr_subproblem(tr)
    exact = solve_tr_subproblem(reformulate(h, F_x, A, box_region, x, p, DELTA_STAR)).eta
    psi = tr.base_value - step.model_value
    tol = model_tol(tr)
    assert psi / DELTA_STAR <= exact + tol / DELTA_STAR
    assert exact <= psi / delta + tol / delta

    bracket = eta_bracket(tr, step, DELTA_STAR, floor)
    if bracket is not None:
        lower, upper, rho = bracket
        assert 2.0 * floor < lower <= upper
        assert lower <= exact + tol / DELTA_STAR
        assert exact <= upper + tol / delta
        # what the solver skips would neither have snapped nor stopped
        assert exact > floor
        # the lower end is the decrease at a feasible point of the rho-ball
        assert delta <= rho <= DELTA_STAR
        point = ray_point(tr, step, rho)
        assert norm(point - x, p) <= rho * (1.0 + 1e-12)
        assert box_region.contains(point, tol=1e-12 * (1.0 + rho))
        assert lower * DELTA_STAR == pytest.approx(tr.base_value - eval_h(h, F_x + A @ (point - x)), rel=1e-9)
        # psi's concavity, which the audit checks
        assert lower * DELTA_STAR <= upper * (1.0 + BRACKET_RTOL) * rho


@pytest.mark.parametrize("region, rho", [
    ("none", DELTA_STAR), ("box", 0.5), ("rows", 0.25), ("row through x", None),
])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_the_ray_reads_psi_up_to_where_it_leaves_the_region(region, rho, p):
    # h(F + A d) = d, so psi(r) = r until the region stops the ray, and
    # psi(delta)/Delta* = 1e-16 alone clears no floor
    free = FeasibleRegion.unconstrained(1)
    regions = {
        "none": free,
        "box": FeasibleRegion(np.array([-np.inf]), np.array([0.5]), ()),
        "rows": FeasibleRegion(free.lower, free.upper, ((np.array([4.0]), 1.0),)),
        "row through x": FeasibleRegion(free.lower, free.upper, ((np.array([4.0]), 0.0),)),
    }
    delta = 1e-13
    tr = reformulate(OuterFunction.MINIMAX, np.zeros(1), np.array([[-1.0]]), regions[region],
                     np.zeros(1), PNorm.from_value(p), delta)
    step = solve_tr_subproblem(tr)
    bracket = eta_bracket(tr, step, DELTA_STAR, ETA_SNAP)
    if rho is None:
        # the step is 0, so there is no ray to read
        assert bracket is None
    else:
        # at this radius the p = 1 step overshoots the ball by rounding
        # of the LP's absolute tolerance, which the upper end keeps
        assert bracket == (rho / DELTA_STAR, pytest.approx(1.0, rel=1e-4), rho)


def scaled(bp, scale) -> Problem:
    return Problem(
        n=bp.n, m=bp.m, h=bp.family, region=FeasibleRegion.unconstrained(bp.n),
        oracle=InProcessOracle(lambda x: scale * bp.residuals(x), bp.m),
        x0=np.asarray(bp.x0, dtype=float), name=bp.name,
    )


@pytest.mark.parametrize("name", ["cb2", "madsen", "maxq_8", "mifflin1"])
@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_solver_skips_the_delta_star_solve_only_above_the_floor(name, scale, monkeypatch):
    # every bracket the solver takes is checked against the exact Delta*
    # solve it skipped; x1e8 residuals test the rounding allowance
    import trfd.subproblem

    problem = scaled(registry_by_name(name), scale)
    params = TrfdParams.defaults(problem, "1")
    floor = max(ETA_SNAP, params.stop_eta, params.epsilon / 2.0)
    checked_brackets = []

    def checked(tr, sol, r_ref, eta_floor):
        assert eta_floor == floor
        bracket = eta_bracket(tr, sol, r_ref, eta_floor)
        if bracket is not None:
            try:
                exact = solve_tr_subproblem(reformulate(tr.h, tr.F_x, tr.A, tr.region, tr.x, tr.p, r_ref))
            except NumericalTrouble:
                # at x1e8 the Delta* LP itself may fail, which the skip avoids
                return bracket
            assert exact.eta > floor
            assert bracket[0] <= exact.eta + model_tol(tr) / r_ref
            checked_brackets.append(bracket[2] > tr.radius)
        return bracket

    monkeypatch.setattr(trfd.subproblem, "eta_bracket", checked)
    solve(problem, params)
    assert len(checked_brackets) >= 10
    # unscaled, some lower ends are read on the step's ray
    assert scale != 1.0 or any(checked_brackets)


def test_a_decrease_of_rounding_size_never_clears_the_threshold():
    # h(F + A d) is flat in d (the column of A sums to 0 and F >> |A d|),
    # so psi is 0 at every radius; at residuals near 1e8 the step below,
    # one optimum among many, still reads a decrease of about 1.2e-7
    F = np.array([173448357.1788729, 171114287.798975, 193205968.66133782, 111493263.3280905, 172901511.70763096])
    A = np.array([[3.0], [3.0], [1.0], [3.0], [-10.0]])
    d = np.array([0.8636400902455758])
    h, region, x = OuterFunction.L1, FeasibleRegion.unconstrained(1), np.zeros(1)
    tr = reformulate(h, F, A, region, x, PNorm.INF, 1.0)
    model_value = eval_h(h, F + A @ d)
    assert tr.base_value - model_value > 1e-7
    step = SubproblemSolution(d_star=d, model_value=model_value, eta=tr.base_value - model_value,
                              step_norm=norm(d, PNorm.INF))
    assert eta_bracket(tr, step, DELTA_STAR, ETA_SNAP) is None
    assert solve_tr_subproblem(reformulate(h, F, A, region, x, PNorm.INF, DELTA_STAR)).eta == 0.0


def test_a_ray_point_against_concavity_is_never_taken():
    # F = 10, A = -1: psi(rho) = rho up to rho = 10, then 20 - rho.  The LP
    # at delta = 1 decreases the model by 1, but this solution states a
    # model value of 9.9, a decrease of 0.1.  That alone is under twice
    # the floor at Delta* (0.1/1000 < 2e-4), so the bracket reads the ray:
    # rho = 4 and rho = 16 clear the floor (4/1000 > 2e-4) and lie under
    # the upper end (4/1000 < 0.1), but psi(rho)/rho = 1 or 0.25 exceeds
    # psi(delta)/delta = 0.1, which no concave psi allows; rho = 64 and
    # Delta* itself read no decrease
    h, region, x = OuterFunction.L1, FeasibleRegion.unconstrained(1), np.zeros(1)
    F, A = np.array([10.0]), np.array([[-1.0]])
    tr = reformulate(h, F, A, region, x, PNorm.INF, 1.0)
    step = solve_tr_subproblem(tr)
    assert (step.d_star.tolist(), step.model_value) == ([1.0], 9.0)
    floor = 1e-4
    assert eta_bracket(tr, step, DELTA_STAR, floor) == (1.0 / DELTA_STAR, 1.0, 1.0)
    understated = SubproblemSolution(d_star=step.d_star, model_value=9.9, eta=0.1, step_norm=1.0)
    for rho in (4.0, 16.0):
        psi = tr.base_value - eval_h(h, F + A @ (rho * step.d_star))
        assert psi / DELTA_STAR > 2.0 * floor and psi / DELTA_STAR < 0.1 < psi / rho
    assert eta_bracket(tr, understated, DELTA_STAR, floor) is None
