"""End-to-end checks that cut across modules: constrained solves, the
wire protocol driving a full run, cross-configuration audits, and
independent re-verification of the optimized grid-oracle path.
"""
import math

import numpy as np
import pytest
from conftest import make_problem, rosenbrock_residuals
from references import eta_bruteforce

from trfd.bench import Campaign, SolverConfig, run_campaign
from trfd.core import FeasibleRegion, OuterFunction, PNorm, eval_h
from trfd.diagnostics import audit_trace
from trfd.solver import TrfdParams, Termination, record_to_doc, solve
from trfd.testset import problem_to_config, registry, registry_by_name


def test_box_constrained_rosenbrock():
    # the cap x2 <= 0.5 moves the minimizer to the boundary: residual 1
    # vanishes at x1 = sqrt(0.5), leaving f* = 1 - sqrt(0.5)
    region = FeasibleRegion([-2.0, -2.0], [2.0, 0.5])
    prob = make_problem(
        rosenbrock_residuals, 2, 2, "l1", (-1.2, 0.3), region=region, name="rosen_box"
    )
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination in (Termination.ETA_FLOOR, Termination.DELTA_FLOOR)
    assert rec.final_f == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-6)
    for s in rec.iterations:
        assert region.contains(s.x, tol=1e-8)
    assert region.contains(rec.final_x, tol=1e-8)
    audit_trace(rec)


def test_linear_inequality_constrained_rosenbrock():
    # with x1 + x2 <= 0 the optimum sits at the origin with the
    # constraint active and f* = 1
    region = FeasibleRegion(
        np.full(2, -np.inf), np.full(2, np.inf), ((np.array([1.0, 1.0]), 0.0),)
    )
    prob = make_problem(
        rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0), region=region, name="rosen_halfplane"
    )
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.final_f == pytest.approx(1.0, abs=1e-6)
    assert float(rec.final_x.sum()) <= 1e-6
    for s in rec.iterations:
        assert region.contains(s.x, tol=1e-8)
    audit_trace(rec)


def test_constrained_minimax_inf_norm():
    region = FeasibleRegion([-0.5, -0.5], [0.5, 0.5])
    bp = registry_by_name("dem")
    prob = make_problem(bp.residuals, 2, 3, "minimax", (0.2, 0.2), region=region)
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.INF))
    # inside the box the best the max can do is at x = (0, -0.5)
    want = eval_h(OuterFunction.MINIMAX, bp.residuals(np.array([0.0, -0.5])))
    assert rec.final_f == pytest.approx(want, abs=1e-6)
    assert region.contains(rec.final_x, tol=1e-8)
    audit_trace(rec)


def test_external_oracle_trace_matches_in_process(demo_oracle_cmd, tmp_path):
    # the wire protocol round-trips floats bit-exactly and the child runs
    # the very maps the registry does, so a subprocess oracle must
    # reproduce the in-process trace byte for byte; expfit_minimax's exp
    # is math's on both sides
    from trfd.config import problem_from_config

    for name, p in (("rosenbrock", PNorm.ONE), ("expfit_minimax", PNorm.INF)):
        bp = registry_by_name(name)
        local = bp.make_problem()
        rec_local = solve(local, TrfdParams.defaults(local, p, simplex_gradients=30))
        config = problem_to_config(bp)
        config["oracle"] = {"command": f"{demo_oracle_cmd} --problem {name}"}
        remote = problem_from_config(config)
        try:
            rec_remote = solve(remote, TrfdParams.defaults(remote, p, simplex_gradients=30))
        finally:
            remote.oracle.close()
        assert record_to_doc(rec_remote) == record_to_doc(rec_local), name


def test_cross_config_audits_whole_registry():
    # run every problem under both fixed norms and replay every trace;
    # class derivation, update rules, and cost accounting must hold on
    # configurations the campaign defaults never exercise
    campaign = Campaign(
        problems=registry(),
        solver_configs=[SolverConfig(name="P1", p="1"), SolverConfig(name="PINF", p="inf")],
        simplex_gradients=40,
    )
    result = run_campaign(campaign)
    assert len(result.records) == 2 * len(registry())
    troubles = []
    for (pname, cname), rec in result.records.items():
        audit_trace(rec)
        if rec.termination in (Termination.ORACLE_ERROR, Termination.NUMERICAL_TROUBLE):
            troubles.append((pname, cname))
        bp = registry_by_name(pname)
        assert rec.best_f[-1] >= bp.f_ref - 1e-8, (pname, cname)
    assert not troubles


def test_grid_oracle_fast_path_matches_plain_mesh():
    # independent meshgrid evaluation of the same lattice, including the
    # region filter, must agree with the swept implementation exactly
    rng = np.random.default_rng(77)
    for trial in range(20):
        m = int(rng.integers(1, 4))
        A = rng.uniform(-2, 2, (m, 2))
        F_x = rng.uniform(-2, 2, m)
        x = rng.uniform(-0.2, 0.2, 2)
        r = float(rng.uniform(0.2, 0.6))
        h = OuterFunction.L1 if trial % 2 else OuterFunction.MINIMAX
        p = PNorm.ONE if trial % 3 else PNorm.INF
        if trial % 4 == 0:
            region = FeasibleRegion([-0.3, -0.4], [0.5, 0.3])
        else:
            region = FeasibleRegion.unconstrained(2)

        got = eta_bruteforce(h, F_x, A, region, x, p, r, resolution=1e-2)

        steps = int(round(2 * r / 1e-2))
        axis = np.linspace(-r, r, steps + 1)
        g0, g1 = np.meshgrid(axis, axis, indexing="ij")
        D = np.column_stack([g0.ravel(), g1.ravel()])
        if p is PNorm.ONE:
            D = D[np.abs(D).sum(axis=1) <= r * (1 + 1e-12)]
            D = np.vstack([D, r * np.eye(2), -r * np.eye(2)])
        else:
            corners = np.array([[-r, -r], [-r, r], [r, -r], [r, r]])
            D = np.vstack([D, corners])
        keep = np.all((x + D >= region.lower - 1e-12) & (x + D <= region.upper + 1e-12), axis=1)
        D = D[keep]
        Z = F_x[None, :] + D @ A.T
        vals = np.abs(Z).sum(axis=1) if h is OuterFunction.L1 else Z.max(axis=1)
        want = (eval_h(h, F_x) - float(vals.min())) / r
        assert got == pytest.approx(want, abs=1e-12)


def test_grid_oracle_generic_dimensions():
    # n = 1 and n = 3 take the same swept path as n = 2
    g = np.array([[2.0]])
    val = eta_bruteforce(
        OuterFunction.MINIMAX, np.array([1.0]), g,
        FeasibleRegion.unconstrained(1), np.zeros(1), PNorm.ONE, 0.5, resolution=1e-3,
    )
    assert val == pytest.approx(2.0, rel=1e-9)

    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (2, 3))
    F_x = rng.uniform(-1, 1, 2)
    region = FeasibleRegion.unconstrained(3)
    from trfd.subproblem import reformulate, solve_tr_subproblem

    sol = solve_tr_subproblem(reformulate(
        OuterFunction.L1, F_x, A, region, np.zeros(3), PNorm.INF, 0.4
    ))
    eta_grid = eta_bruteforce(
        OuterFunction.L1, F_x, A, region, np.zeros(3), PNorm.INF, 0.4, resolution=5e-3
    )
    model_grid = eval_h(OuterFunction.L1, F_x) - 0.4 * eta_grid
    assert abs(sol.model_value - model_grid) <= 2 * 5e-3 * (1 + np.linalg.norm(A, 2))


def test_mixed_family_campaign_profiles(tmp_path):
    # both solver configs on both families in one campaign, with
    # profiles emitted per tolerance
    from trfd.bench import data_profile, emit_profile_csv

    names = ["rosenbrock", "beale", "cb2", "lq"]
    campaign = Campaign(
        problems=[registry_by_name(n) for n in names],
        solver_configs=[SolverConfig(name="P1", p="1"), SolverConfig(name="AUTO", p="auto")],
        simplex_gradients=60,
    )
    result = run_campaign(campaign, out_dir=str(tmp_path))
    for tol in (1e-1, 1e-3, 1e-5, 1e-7):
        prof = data_profile(result.records, tol, budget=60)
        emit_profile_csv(prof, tmp_path / f"profile_{tol:.0e}.csv")
        for solver in prof:
            curve = prof[solver]
            assert len(curve) == 61
            assert all(b >= a for a, b in zip(curve, curve[1:]))
    # the stricter tolerance curve can never dominate the looser one
    loose = data_profile(result.records, 1e-1, budget=60)
    tight = data_profile(result.records, 1e-7, budget=60)
    for solver in loose:
        for a, b in zip(tight[solver], loose[solver]):
            assert b >= a
