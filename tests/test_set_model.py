"""``TrustRegionLP.set_model`` against a fresh assembly.

A run keeps one subproblem LP and writes each new model into it in
place.  Moved to a new model and radius, that LP must hold every array a
fresh ``reformulate`` of the same inputs builds, bit for bit, box rows
and linear rows included: no registry problem has either, so no campaign
checks them.  The LP keeps which box sides are finite and skips the
box when none is, so the box bounds (p = inf) and side rows (p = 1) are
also checked against the plain expressions over every coordinate, on
boxes with finite sides on one side only too.
"""
import numpy as np
import pytest
from conftest import random_tr_instance

from trfd.core import FeasibleRegion, OuterFunction, PNorm
from trfd.subproblem import reformulate, solve_tr_subproblem

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(
    h=st.sampled_from(["l1", "minimax"]),
    p=st.sampled_from(["1", "inf"]),
    region=st.sampled_from(["none", "box", "box+rows", "lower", "upper"]),
    n=st.integers(1, 5),
    m=st.integers(1, 6),
    instance_seed=st.integers(0, 2**32 - 1),
    log_r2=st.floats(-13.0, 3.0),
)
def test_set_model_matches_reformulate(h, p, region, n, m, instance_seed, log_r2):
    rng = np.random.default_rng(instance_seed)
    h, F1, A1, reg, x1, p, r1 = random_tr_instance(rng, h, p, n=n, m=m, constrained=region != "none")
    if region == "box":
        reg = FeasibleRegion(reg.lower, reg.upper, ())
    elif region in ("lower", "upper"):
        free = np.full(n, np.inf)
        reg = FeasibleRegion(reg.lower, free, ()) if region == "lower" else FeasibleRegion(-free, reg.upper, ())
    F2, A2 = rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, (m, n))
    x2 = np.clip(x1 + rng.uniform(-0.5, 0.5, n), reg.lower, reg.upper)
    r2 = 10.0**log_r2

    tr = reformulate(h, F1, A1, reg, x1, p, r1)
    solve_tr_subproblem(tr)  # the LP keeps a basis, and the arrays are set_model's alone
    tr.set_model(F2, A2, x2)
    tr.set_radius(r2)
    fresh = reformulate(h, F2, A2, reg, x2, p, r2)
    for name in ("augmented", "rhs", "lo", "hi", "cost"):
        assert bits(getattr(tr.lp, name)) == bits(getattr(fresh.lp, name)), name
    assert bits(tr.start) == bits(fresh.start)
    assert bits(tr.base_value) == bits(fresh.base_value)
    if p is PNorm.INF:
        assert bits(tr.lp.lower[:n]) == bits(np.maximum(-r2, reg.lower - x2))
        assert bits(tr.lp.upper[:n]) == bits(np.minimum(r2, reg.upper - x2))
    else:
        box = np.array([reg.upper - x2, x2 - reg.lower]).T.ravel()
        g = np.concatenate([box[np.isfinite(box)], [b - float(a @ x2) for a, b in reg.linear_ineq]])
        k = m * (2 if h is OuterFunction.L1 else 1)
        assert bits(tr.lp.rhs[k:]) == bits(np.concatenate([[r2], g]))
    # the rows, costs and bounds solve_lp reads are still views of those
    lp = tr.lp
    assert lp.rows.base is lp.augmented and lp.c.base is lp.cost
    assert lp.lower.base is lp.lo and lp.upper.base is lp.hi
    assert lp.reduced is None and lp.basic is not None
