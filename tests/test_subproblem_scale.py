"""The subproblem solve against HiGHS on an LP of its own, in model units,
at residual scales, coordinate shifts and radii far from 1.

``highs_subproblem`` builds the LP from the model (h, F, A, region, x,
p, r) apart from ``reformulate``, so these tests check the reformulation
as well as the simplex.  trfd's model value may not lie above HiGHS's
by more than rounding, and its step must stay in the region.
"""
import numpy as np
import pytest
from references import highs_subproblem

from trfd.core import FeasibleRegion, OuterFunction, PNorm, eval_h
from trfd.simplex import NumericalTrouble
from trfd.subproblem import reformulate, solve_tr_subproblem

pytest.importorskip("hypothesis")
from hypothesis import assume, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def scaled_instance(instance_seed, h, p, region, n, m, scale, shift, radius):
    """(h, F, A, region, x, p, r): F and A of size ``scale``, x of size
    ``shift``, and a region that is none, a box around x whose sides lie
    within 2r of it, or one row through x or within r of it."""
    rng = np.random.default_rng(instance_seed)
    F = scale * rng.uniform(-2.0, 2.0, m)
    A = scale * rng.uniform(-2.0, 2.0, (m, n))
    x = shift * rng.uniform(-1.0, 1.0, n)
    feasible = FeasibleRegion.unconstrained(n)
    if region == "box":
        feasible = FeasibleRegion(x - radius * rng.uniform(0.0, 2.0, n), x + radius * rng.uniform(0.0, 2.0, n))
    elif region != "none":
        a = rng.uniform(-2.0, 2.0, n)
        margin = 0.0 if region == "row through x" else radius * float(rng.uniform(0.0, 1.0)) * float(np.abs(a).max())
        feasible = FeasibleRegion(feasible.lower, feasible.upper, ((a, float(a @ x) + margin),))
    return OuterFunction.from_value(h), F, A, feasible, x, PNorm.from_value(p), radius


def check_against_highs(*instance) -> bool:
    """Solve one instance; False when HiGHS itself fails on it."""
    h, F, A, region, x, p, r = instance
    sol = solve_tr_subproblem(reformulate(h, F, A, region, x, p, r))
    try:
        best = highs_subproblem(h, F, A, region, x, p, r)
    except ValueError:  # HiGHS failed
        return False
    assert sol.model_value <= best + 1e-9 * (1.0 + abs(eval_h(h, F)))
    assert region.contains(x + sol.d_star)
    return True


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(
    instance_seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from(["l1", "minimax"]),
    p=st.sampled_from(["1", "inf"]),
    region=st.sampled_from(["none", "box", "row through x", "row near x"]),
    n=st.integers(1, 4),
    m=st.integers(1, 5),
    log_scale=st.floats(-8.0, 4.0),
    log_shift=st.floats(0.0, 4.0),
    log_radius=st.floats(-13.0, 3.0),
)
def test_the_model_minimum_matches_highs_at_every_scale(instance_seed, h, p, region, n, m, log_scale, log_shift,
                                                        log_radius):
    instance = scaled_instance(instance_seed, h, p, region, n, m, 10.0**log_scale, 10.0**log_shift, 10.0**log_radius)
    assume(check_against_highs(*instance))


@pytest.mark.xfail(strict=True, raises=NumericalTrouble,
                   reason="residuals x1e8 break the LP's absolute tolerances; ROADMAP item 3")
def test_the_model_minimum_matches_highs_at_residual_scale_1e8():
    rng = np.random.default_rng(20261020)
    for _ in range(150):
        check_against_highs(*scaled_instance(
            int(rng.integers(2**32)), str(rng.choice(["l1", "minimax"])), str(rng.choice(["1", "inf"])),
            str(rng.choice(["none", "box", "row through x", "row near x"])), int(rng.integers(1, 5)),
            int(rng.integers(1, 6)), 1e8, 10.0 ** rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(-13.0, 3.0),
        ))


def tiny_slope(h, p):
    """Found at residual scale 1e-7: min over |d| <= 100 of |1e-7 - 5e-10 d|,
    or of 1e-7 - 5e-10 d, is 5e-8 at d = 100."""
    h, p = OuterFunction.from_value(h), PNorm.from_value(p)
    return h, np.array([1e-7]), np.array([[-5e-10]]), FeasibleRegion.unconstrained(1), np.zeros(1), p, 100.0


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_the_reference_reaches_the_minimum_on_tiny_entries(h, p):
    """HiGHS drops a matrix entry under 1e-9, such as this slope, unless
    ``highs_subproblem`` first divides F and A by their largest entry.
    The scaling cannot fix an entry of A under about 1e-9 times the
    largest entry of F and A: HiGHS still drops it."""
    assert highs_subproblem(*tiny_slope(h, p)) == pytest.approx(5e-8, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the simplex's absolute optimality tolerance reads a slope under 1e-9 as no descent; "
                          "ROADMAP item 3")
@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_a_slope_under_the_optimality_tolerance_still_decreases_the_model(h, p):
    # the LP stops at d = 0
    sol = solve_tr_subproblem(reformulate(*tiny_slope(h, p)))
    assert sol.model_value <= 5e-8 + 1e-9 * (1.0 + 1e-7)
