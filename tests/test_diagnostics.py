import math

import numpy as np
import pytest
from conftest import make_problem

from trfd.core import FeasibleRegion, NormConstants, OuterFunction, PNorm
from trfd.diagnostics import (
    AnalyticProblem,
    AuditFailure,
    DimensionTooLarge,
    audit_trace,
    check_psi_eta_gap,
    delta_min,
    eta_bruteforce,
    psi,
)
from trfd.jacobian import build_jacobian
from trfd.oracle import EvalBudget
from trfd.solver import TrfdParams, solve
from trfd.subproblem import UnsupportedNorm, reformulate, solve_tr_subproblem
from trfd.testset import registry_by_name


def quadratic_scalar_ap(b):
    # F(x) = [ 0.5 ||x||^2 + b.x + 3 ],  grad = x + b
    b = np.asarray(b, dtype=float)
    n = b.size

    def fn(x):
        return np.array([0.5 * float(x @ x) + float(b @ x) + 3.0])

    def jac(x):
        return (np.asarray(x, dtype=float) + b)[None, :]

    prob = make_problem(fn, n, 1, "minimax", np.zeros(n), name="scalar_quad")
    return AnalyticProblem(
        problem=prob, jacobian=jac, lipschitz_jacobian=1.0,
        box=(np.full(n, -1e6), np.full(n, 1e6)), f_star=None,
    )


def test_psi_p2_closed_form_matches_gradient_norm():
    rng = np.random.default_rng(0)
    ap = quadratic_scalar_ap([0.3, -1.1, 0.7])
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        for r in (0.5, 1.0, 2.0):
            want = float(np.linalg.norm(x + np.array([0.3, -1.1, 0.7])))
            assert psi(ap, x, PNorm.TWO, r) == pytest.approx(want, rel=1e-10)


def test_psi_zero_at_stationary_point():
    ap = quadratic_scalar_ap([0.0, 0.0])
    assert psi(ap, np.zeros(2), PNorm.TWO, 1.0) == 0.0
    # L1 composite with an exact residual root: the model minimum over
    # any ball is 0 at d = 0
    B = np.array([[2.0, 1.0], [0.0, 1.0]])

    def fn(x):
        return B @ x

    prob = make_problem(fn, 2, 2, "l1", (0.0, 0.0), name="affine_root")
    ap2 = AnalyticProblem(
        problem=prob, jacobian=lambda x: B, lipschitz_jacobian=0.0,
        box=(np.full(2, -10.0), np.full(2, 10.0)),
    )
    assert psi(ap2, np.zeros(2), PNorm.ONE, 1.0) == 0.0


def test_psi_p2_requires_scalar_minimax():
    bp = registry_by_name("rosenbrock")
    ap = bp.analytic()
    with pytest.raises(UnsupportedNorm):
        psi(ap, np.zeros(2), PNorm.TWO, 1.0)


def test_psi_affine_l1_matches_grid():
    B = np.array([[1.2, -0.4], [0.3, 0.9]])
    c = np.array([0.5, -0.7])

    def fn(x):
        return B @ x + c

    prob = make_problem(fn, 2, 2, "l1", (0.0, 0.0), name="affine")
    ap = AnalyticProblem(
        problem=prob, jacobian=lambda x: B, lipschitz_jacobian=0.0,
        box=(np.full(2, -10.0), np.full(2, 10.0)),
    )
    x = np.array([0.3, -0.2])
    got = psi(ap, x, PNorm.ONE, 1.0)
    eta_grid = eta_bruteforce(OuterFunction.L1, fn(x), B, prob.region, x, PNorm.ONE, 1.0)
    assert abs(got - eta_grid) <= 2e-3 * (1 + np.linalg.norm(B, 2))


def test_eta_bruteforce_guards():
    with pytest.raises(DimensionTooLarge):
        eta_bruteforce(
            OuterFunction.L1, np.zeros(2), np.zeros((2, 4)),
            FeasibleRegion.unconstrained(4), np.zeros(4), PNorm.ONE, 1.0,
        )
    val = eta_bruteforce(
        OuterFunction.L1, np.array([1.0, -2.0]), np.zeros((2, 2)),
        FeasibleRegion.unconstrained(2), np.zeros(2), PNorm.ONE, 1.0,
    )
    assert val == 0.0


def test_eta_bruteforce_small_radius_limit():
    # for a single smooth component over the inf-ball the first-order
    # limit of eta is the 1-norm of the model gradient
    g = np.array([[0.8, -0.5]])
    val = eta_bruteforce(
        OuterFunction.MINIMAX, np.array([3.0]), g,
        FeasibleRegion.unconstrained(2), np.zeros(2), PNorm.INF, 0.01, resolution=1e-4,
    )
    assert val == pytest.approx(1.3, rel=1e-3)


def test_check_psi_eta_gap_rosenbrock():
    bp = registry_by_name("rosenbrock")
    rng = np.random.default_rng(4)
    ap = bp.analytic()
    for tau in (1e-2, 1e-4):
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            assert check_psi_eta_gap(ap, x, PNorm.ONE, 1.0, tau)


def test_check_psi_eta_gap_affine_is_tight():
    B = np.array([[1.0, 2.0], [3.0, -1.0]])

    def fn(x):
        return B @ x

    prob = make_problem(fn, 2, 2, "l1", (0.0, 0.0))
    ap = AnalyticProblem(
        problem=prob, jacobian=lambda x: B, lipschitz_jacobian=1e-9,
        box=(np.full(2, -10.0), np.full(2, 10.0)),
    )
    # the gap is rounding-level for affine maps, so even a near-zero
    # Lipschitz certificate passes
    assert check_psi_eta_gap(ap, np.array([0.5, 0.5]), PNorm.ONE, 1.0, 0.25)


def _params_for_delta_min(epsilon, alpha, theta, sigma, lip, consts, n=1):
    tau0 = epsilon / (lip * sigma * consts.cp2_m * consts.c2p_n * math.sqrt(n))
    d0 = max(1.0, tau0 * math.sqrt(n))
    return TrfdParams(
        epsilon=epsilon, alpha=alpha, theta=theta, sigma=sigma, lipschitz_h=lip,
        consts=consts, p=PNorm.ONE, budget=EvalBudget(simplex_gradients=1, n=n),
        delta0=d0, delta_star=max(d0, 1.0), stop_delta=0.0, stop_eta=0.0,
    )


def test_delta_min_values():
    ones = NormConstants(c2p_n=1.0, cp2_m=1.0)
    p = _params_for_delta_min(1.0, 0.5, 1.0, 1.0, 1.0, ones)
    assert delta_min(p, ones, 1.0) == pytest.approx(0.125, rel=1e-15)

    sigma = 1e9
    p2 = _params_for_delta_min(1e-15, 0.15, 1.0, sigma, 1.0, ones)
    want = 0.85 * 1e-15 / (4.0 * sigma)
    assert delta_min(p2, ones, 1.0) == pytest.approx(want, rel=1e-12)

    # doubling max(sigma, L_J) halves the floor
    a = delta_min(p, ones, 4.0)
    b = delta_min(p, ones, 8.0)
    assert a == pytest.approx(2.0 * b, rel=1e-15)


def test_audit_clean_run_and_injected_faults():
    bp = registry_by_name("rosenbrock")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    report = audit_trace(rec, analytic=bp.analytic())
    assert report.ok
    assert report.delta_min_applicable
    text = report.summary()
    assert text.startswith("audit: ok")
    assert "radius floor" in text

    rec.iterations[3].delta *= 1.0000001
    with pytest.raises(AuditFailure, match="iteration 3"):
        audit_trace(rec)


def test_audit_catches_wrong_class():
    from trfd.solver import IterationClass

    bp = registry_by_name("cb2")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert audit_trace(rec).ok
    victim = next(s for s in rec.iterations if s.cls is IterationClass.U2)
    victim.cls = IterationClass.U3
    with pytest.raises(AuditFailure):
        audit_trace(rec)


def test_audit_catches_best_f_corruption():
    bp = registry_by_name("rosenbrock")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    rec.best_f[7] = rec.best_f[6] + 1.0
    with pytest.raises(AuditFailure, match="best-f"):
        audit_trace(rec)


def test_audit_affine_trace_all_success():
    prob = make_problem(lambda x: x - np.array([1.0, 2.0]), 2, 2, "l1", (-1.0, 0.5))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    from trfd.solver import IterationClass

    assert audit_trace(rec).ok
    assert {s.cls for s in rec.iterations} <= {IterationClass.SUCCESS, IterationClass.U1}


def test_eta_radius_monotonicity_on_trace():
    # recorded eta at the reference radius never exceeds eta recomputed
    # at the iteration's own (smaller) radius; the model matrix is
    # rebuilt deterministically from the recorded x and tau
    bp = registry_by_name("cb2")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    scratch = bp.make_problem()
    for s in rec.iterations[::5]:
        if s.delta >= rec.params.delta_star or s.tau < 1e-10:
            continue
        F_x = scratch.oracle.eval_F(s.x)
        A = build_jacobian(scratch.oracle.eval_F, s.x, F_x, s.tau)
        sol = solve_tr_subproblem(reformulate(
            prob.h, F_x, A, prob.region, s.x, rec.params.p, s.delta
        ))
        assert sol.eta >= s.eta - 1e-9
