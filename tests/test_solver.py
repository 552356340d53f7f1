import math
from collections import Counter

import numpy as np
import pytest
from conftest import make_problem, rosenbrock_residuals

from trfd.core import MACHINE_EPS, PNorm
from trfd.diagnostics import audit_trace
from trfd.solver import (
    IterationClass,
    Termination,
    TrfdParams,
    compute_rho,
    load_trace,
    record_to_doc,
    save_trace,
    solve,
)

# integer-valued affine maps keep forward differences exact in floating
# point, so the model coincides with the function bit for bit


def affine_l1_problem(x0=(-1.0, 0.5)):
    xstar = np.array([1.0, 2.0])
    return make_problem(lambda x: x - xstar, 2, 2, "l1", x0, name="affine_l1")


def affine_minimax_bounded():
    B = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    return make_problem(lambda x: B @ x, 2, 3, "minimax", (3.0, 2.0), name="affine_mm")


def affine_minimax_unbounded():
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    c = np.array([0.0, -1.0])
    return make_problem(lambda x: B @ x + c, 2, 2, "minimax", (1.0, 1.0), name="affine_unbounded")


def test_compute_rho_examples():
    assert compute_rho(10.0, 8.0, 8.0) == 1.0
    assert compute_rho(10.0, 10.0, 9.0) == 0.0
    assert compute_rho(10.0, 11.0, 9.0) == -1.0
    assert compute_rho(10.0, 9.0, 10.0) is None  # zero denominator
    assert compute_rho(10.0, 9.0, 10.5) is None  # model increase


def test_defaults_tau0_is_sqrt_eps():
    prob = affine_l1_problem()
    params = TrfdParams.defaults(prob, PNorm.ONE)
    assert params.tau0 == pytest.approx(math.sqrt(MACHINE_EPS), rel=1e-12)
    assert params.delta0 == 1.0
    assert params.delta_star == 1000.0
    assert params.alpha == 0.15
    assert params.epsilon == 1e-15
    assert params.theta == 1.0
    assert params.stop_delta == 1e-13
    assert params.stop_eta == 1e-13
    assert params.tau0 * math.sqrt(2) <= params.delta0


def test_params_validation():
    prob = affine_l1_problem()
    good = TrfdParams.defaults(prob, PNorm.ONE)
    for field, bad in (("alpha", 1.5), ("theta", 0.0), ("epsilon", -1.0)):
        kwargs = dict(
            epsilon=good.epsilon, alpha=good.alpha, theta=good.theta, sigma=good.sigma,
            lipschitz_h=good.lipschitz_h, consts=good.consts, p=good.p, budget=good.budget,
            delta0=good.delta0, delta_star=good.delta_star,
            stop_delta=good.stop_delta, stop_eta=good.stop_eta,
        )
        kwargs[field] = bad
        with pytest.raises(ValueError):
            TrfdParams(**kwargs)
    # p = 2 has no LP subproblem: rejected before any evaluation is spent
    with pytest.raises(ValueError):
        TrfdParams.defaults(prob, PNorm.TWO)
    assert prob.oracle.eval_count == 0


def test_affine_l1_converges_exactly():
    prob = affine_l1_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination is Termination.ETA_FLOOR
    assert rec.final_f <= 1e-10
    assert all(s.cls is IterationClass.SUCCESS for s in rec.iterations)
    for s in rec.iterations:
        assert s.rho == pytest.approx(1.0, abs=1e-12)
    fs = [s.f for s in rec.iterations] + [rec.final_f]
    assert all(b < a for a, b in zip(fs, fs[1:]))
    # every accepted step points toward the minimizer and shrinks the
    # distance to it (f is exactly that distance here)
    xstar = np.array([1.0, 2.0])
    xs = [s.x for s in rec.iterations] + [rec.final_x]
    for x_now, x_next in zip(xs, xs[1:]):
        d = x_next - x_now
        assert float(d @ (xstar - x_now)) > 0.0
        assert np.abs(x_next - xstar).sum() < np.abs(x_now - xstar).sum()


def test_affine_minimax_unbounded_runs_to_budget():
    prob = affine_minimax_unbounded()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination is Termination.BUDGET_EXHAUSTED
    assert rec.total_evals <= 100 * 3
    classes = {s.cls for s in rec.iterations}
    assert classes == {IterationClass.SUCCESS}
    for s in rec.iterations:
        assert s.rho == pytest.approx(1.0, abs=1e-12)
    # radius doubles until it caps at the reference radius
    deltas = [s.delta for s in rec.iterations]
    assert max(deltas) == 1000.0
    assert deltas[:3] == [1.0, 2.0, 4.0]


def test_affine_minimax_bounded_floor_termination():
    prob = affine_minimax_bounded()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.INF))
    assert rec.termination in (Termination.ETA_FLOOR, Termination.DELTA_FLOOR)
    assert rec.final_f <= 1e-10
    for s in rec.iterations:
        if s.cls is not IterationClass.U1 and s.rho is not None:
            assert s.rho == pytest.approx(1.0, abs=1e-12)


def test_rosenbrock_l1_defaults_converges():
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0), name="rosenbrock")
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.final_f <= 1e-5
    assert rec.total_evals <= 100 * 3
    assert rec.final_x == pytest.approx([1.0, 1.0], abs=1e-4)


def test_coupling_invariant_and_updates():
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    sq = math.sqrt(2)
    for s in rec.iterations:
        assert s.tau * sq <= s.delta
    for prev, cur in zip(rec.iterations, rec.iterations[1:]):
        if prev.cls in (IterationClass.U1, IterationClass.U3):
            assert cur.tau == prev.tau / 2.0
        else:
            assert cur.tau == prev.tau
        if prev.cls is IterationClass.SUCCESS:
            assert cur.delta == min(2.0 * prev.delta, 1000.0)
        elif prev.cls is IterationClass.U1:
            assert cur.delta == prev.delta
        else:
            assert cur.delta == prev.delta / 2.0


def test_monotone_f_and_moves_only_on_success():
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    for prev, cur in zip(rec.iterations, rec.iterations[1:]):
        assert cur.f <= prev.f
        if prev.cls is not IterationClass.SUCCESS:
            assert np.array_equal(cur.x, prev.x)
            assert cur.f == prev.f


def test_u2_economy_and_eta_inheritance():
    # cb2 under the auto-norm config walks long U2 chains near its
    # nonsmooth minimizer
    from trfd.testset import registry_by_name

    bp = registry_by_name("cb2")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    classes = Counter(s.cls for s in rec.iterations)
    assert classes[IterationClass.U2] > 0
    assert classes[IterationClass.U3] > 0
    for prev, cur in zip(rec.iterations, rec.iterations[1:]):
        if prev.cls is IterationClass.U2:
            assert cur.entered_at == "step3"
            assert cur.evals_iter == 1
            assert cur.eta == prev.eta
        else:
            assert cur.entered_at == "step1"


@pytest.mark.parametrize(
    "name, p, lps",
    [("rosenbrock", "1", 39), ("powell_singular", "inf", 28), ("cb2", "1", 174), ("cb2", "inf", 171)],
)
def test_one_lp_assembly_per_model(name, p, lps, monkeypatch):
    # each Jacobian gets one LP, which the Delta* solve, the step solve
    # and every U2 retry re-solve at their radii; the solve count is the
    # one of the design that assembled an LP per solve
    import trfd.solver
    import trfd.subproblem
    from trfd.testset import registry_by_name

    calls = Counter()

    def counting(owner, attr):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    counting(trfd.solver, "build_jacobian")
    counting(trfd.subproblem, "reformulate")
    counting(trfd.subproblem, "solve_lp")
    prob = registry_by_name(name).make_problem()
    solve(prob, TrfdParams.defaults(prob, PNorm.from_value(p)))
    assert calls["reformulate"] == calls["build_jacobian"]
    assert calls["solve_lp"] == lps


def test_per_class_costs():
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    n = 2
    for s in rec.iterations:
        if s.cls is IterationClass.U1:
            assert s.evals_iter == n
        elif s.entered_at == "step1":
            assert s.evals_iter == n + 1
        else:
            assert s.evals_iter == 1
    assert rec.total_evals == 1 + sum(s.evals_iter for s in rec.iterations) + rec.termination_evals
    assert rec.total_evals == prob.oracle.eval_count
    assert len(rec.best_f) == rec.total_evals


def test_u1_iterations_with_large_epsilon():
    # epsilon = 1 makes the criticality test unreachable on a flat-ish
    # problem, so every iteration halves tau at cost n
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    params = TrfdParams.defaults(prob, PNorm.ONE, epsilon=1.0, stop_eta=0.0, simplex_gradients=10)
    rec = solve(prob, params)
    u1s = [s for s in rec.iterations if s.cls is IterationClass.U1]
    assert u1s
    for s in u1s:
        assert s.evals_iter == 2
        assert s.rho is None
    for prev, cur in zip(rec.iterations, rec.iterations[1:]):
        if prev.cls is IterationClass.U1:
            assert cur.tau == prev.tau / 2.0 and cur.delta == prev.delta


def test_budget_exhaustion_never_overruns():
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    for sg in (1, 2, 3, 7):
        fresh = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
        rec = solve(fresh, TrfdParams.defaults(fresh, PNorm.ONE, simplex_gradients=sg))
        assert rec.total_evals <= sg * 3
        assert fresh.oracle.eval_count == rec.total_evals


@pytest.mark.parametrize("fail_at", range(1, 2 * 2 + 4))
def test_oracle_failure_records_termination(fail_at):
    # failure points 1..2n+3 cover the start point, a model build, a
    # trial point and the next model build
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] >= fail_at:
            return np.array([np.nan, np.nan])
        return rosenbrock_residuals(x)

    prob = make_problem(flaky, 2, 2, "l1", (-1.2, 1.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination is Termination.ORACLE_ERROR
    assert len(rec.best_f) == fail_at - 1
    # the failed call is counted by the oracle but not by the ledger
    assert rec.total_evals == prob.oracle.eval_count - 1
    assert audit_trace(rec).ok


def test_tau_underflow_is_numerical_trouble():
    # huge coordinates make x + tau e_j unrepresentable immediately
    prob = make_problem(lambda x: x, 2, 2, "l1", (1e12, 1e12))
    params = TrfdParams.defaults(prob, PNorm.ONE, epsilon=1e-30)
    rec = solve(prob, params)
    assert rec.termination is Termination.NUMERICAL_TROUBLE


def test_trace_roundtrip_bitexact(tmp_path):
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0), name="rosenbrock")
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    path = tmp_path / "trace.json"
    save_trace(rec, path)
    rec2 = load_trace(path)
    assert record_to_doc(rec2) == record_to_doc(rec)
    path2 = tmp_path / "trace2.json"
    save_trace(rec2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_failure_on_first_evaluation_still_serializes(tmp_path):
    prob = make_problem(lambda x: np.array([np.nan, np.nan]), 2, 2, "l1", (0.0, 0.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination is Termination.ORACLE_ERROR
    assert rec.total_evals == 0
    path = tmp_path / "dead.json"
    save_trace(rec, path)
    back = load_trace(path)
    assert back.termination is Termination.ORACLE_ERROR
    assert back.final_f == math.inf


def test_budget_dimension_mismatch():
    prob = affine_l1_problem()
    params = TrfdParams.defaults(prob, PNorm.ONE)
    other = make_problem(lambda x: x, 3, 3, "l1", (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        solve(other, params)


def test_tau0_formula_with_custom_sigma():
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    base = TrfdParams.defaults(prob, PNorm.ONE)
    sigma = 3.7
    eps = 1e-3
    lip = base.lipschitz_h
    c = base.consts
    params = TrfdParams(
        epsilon=eps, alpha=0.15, theta=1.0, sigma=sigma, lipschitz_h=lip,
        consts=c, p=PNorm.ONE, budget=base.budget,
        delta0=1.0, delta_star=1000.0, stop_delta=1e-13, stop_eta=1e-13,
    )
    want = eps / (lip * sigma * c.cp2_m * c.c2p_n * math.sqrt(2))
    assert params.tau0 == want


def test_sequential_solves_share_one_oracle():
    # the solver counts its own evaluations, so back-to-back runs on one
    # problem object keep exact accounting
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    rec1 = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, simplex_gradients=5))
    count_after_first = prob.oracle.eval_count
    rec2 = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, simplex_gradients=5))
    assert rec1.total_evals == count_after_first
    assert rec2.total_evals == prob.oracle.eval_count - count_after_first
    assert rec1.best_f == rec2.best_f
