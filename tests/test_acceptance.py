"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its headline numbers (run with -s to watch).

The campaigns follow the standard benchmarking protocol: a budget of
100 simplex gradients per run, stopping floors of 1e-13 on the radius
and the criticality measure, the 1-norm configuration on the
least-absolute-deviation family and the auto-norm configuration on the
minimax family.
"""
import math
import time
from collections import Counter

import numpy as np
import pytest
from conftest import enumerate_lp_minimum, make_problem, random_box_lp, random_tr_instance
from references import check_psi_eta_gap, eta_bruteforce, highs_subproblem, psi_euclidean

from trfd.bench import Campaign, TRFD_L1, TRFD_M, data_profile, emit_profile_csv, run_campaign
from trfd.core import OuterFunction, PNorm, eval_h
from trfd.diagnostics import audit_trace
from trfd.jacobian import build_jacobian
from trfd.simplex import solve_lp
from trfd.solver import IterationClass, Termination, TrfdParams, solve
from trfd.subproblem import reformulate, solve_tr_subproblem
from trfd.testset import BenchmarkProblem, registry, registry_by_name, registry_family


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    t0 = time.time()
    res_l1 = run_campaign(
        Campaign(problems=registry_family("l1"), solver_configs=[TRFD_L1]),
        out_dir=str(out / "l1"),
    )
    res_mm = run_campaign(
        Campaign(problems=registry_family("minimax"), solver_configs=[TRFD_M]),
        out_dir=str(out / "minimax"),
    )
    elapsed = time.time() - t0
    return {"l1": res_l1, "minimax": res_mm, "elapsed": elapsed, "out": out}


@pytest.fixture(scope="module")
def affine_runs():
    runs = {}
    xstar = np.array([1.0, 2.0])
    prob = make_problem(lambda x: x - xstar, 2, 2, "l1", (-1.0, 0.5), name="affine_l1")
    runs["affine_l1"] = (prob, solve(prob, TrfdParams.defaults(prob, PNorm.ONE)))
    B = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    prob2 = make_problem(lambda x: B @ x, 2, 3, "minimax", (3.0, 2.0), name="affine_mm")
    runs["affine_mm"] = (prob2, solve(prob2, TrfdParams.defaults(prob2, PNorm.INF)))
    return runs


def _box_samples(rng, bp, count):
    """``count`` points drawn uniformly from ``bp``'s certificate box, cut to [-2, 2]^n."""
    lo, hi = bp.jacobian_box
    return [rng.uniform(max(lo, -2.0), min(hi, 2.0), bp.n) for _ in range(count)]


def test_criterion_1_invariant_suite(campaigns):
    t0 = time.time()
    rng = np.random.default_rng(101)

    # eta >= 0 on 200 randomized small instances
    negative = 0
    etas = []
    for _ in range(200):
        h, F_x, A, region, x, p, r = random_tr_instance(
            rng, "l1" if rng.random() < 0.5 else "minimax", "1" if rng.random() < 0.5 else "inf"
        )
        sol = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r))
        etas.append(sol.eta)
        if sol.eta < 0:
            negative += 1

    # |psi - eta| bound on every certified problem
    gap_checks = 0
    for bp in registry():
        if bp.jacobian is None:
            continue
        for x in _box_samples(rng, bp, 5):
            for tau in (1e-2, 1e-4):
                assert check_psi_eta_gap(bp, x, PNorm.ONE, 1.0, tau), (bp.name, tau)
                gap_checks += 1

    # radius monotonicity of eta
    for _ in range(100):
        h, F_x, A, region, x, p, _ = random_tr_instance(
            rng, "l1" if rng.random() < 0.5 else "minimax", "1" if rng.random() < 0.5 else "inf"
        )
        r1 = float(rng.uniform(0.1, 1.0))
        r2 = r1 + float(rng.uniform(0.0, 2.0))
        e1 = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r1)).eta
        e2 = solve_tr_subproblem(reformulate(h, F_x, A, region, x, p, r2)).eta
        assert e1 >= e2 - 1e-9

    # coupling invariant and recorded etas on every benchmark trace
    snaps = 0
    for res in (campaigns["l1"], campaigns["minimax"]):
        for rec in res.records.values():
            sq = math.sqrt(rec.n)
            for s in rec.iterations:
                assert s.tau * sq <= s.delta
                assert s.eta >= 0.0
                snaps += 1

    elapsed = time.time() - t0
    _report(
        1,
        negative == 0 and elapsed < 120,
        f"eta>=0 on 200 instances, {gap_checks} psi/eta gap checks, "
        f"radius monotonicity x100, coupling on {snaps} trace rows ({elapsed:.1f}s < 120s)",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)

    worst_model = 0.0
    for h in ("l1", "minimax"):
        for p in ("1", "inf"):
            for _ in range(100):
                h_, F_x, A, region, x, p_, r = random_tr_instance(rng, h, p)
                sol = solve_tr_subproblem(reformulate(h_, F_x, A, region, x, p_, r))
                eta_grid = eta_bruteforce(h_, F_x, A, region, x, p_, r)
                model_grid = eval_h(h_, F_x) - r * eta_grid
                tol = 2e-3 * (1 + np.linalg.norm(A, 2))
                gap = abs(sol.model_value - model_grid)
                worst_model = max(worst_model, gap / tol)
                assert gap <= tol

    worst_lp = 0.0
    for _ in range(100):
        lp, xbar = random_box_lp(rng)
        got = solve_lp(lp, xbar).objective
        want = enumerate_lp_minimum(lp)
        worst_lp = max(worst_lp, abs(got - want))
        assert abs(got - want) <= 1e-8

    elapsed = time.time() - t0
    _report(
        2,
        elapsed < 60,
        f"400 grid comparisons (worst gap {worst_model:.3f} of tolerance), "
        f"100 LPs vs enumeration (worst {worst_lp:.2e} <= 1e-8) ({elapsed:.1f}s < 60s)",
    )


def test_criterion_3_fd_jacobian_error_bound():
    rng = np.random.default_rng(303)
    certified = [bp for bp in registry() if bp.jacobian is not None]
    assert certified
    checks = 0
    for bp in certified:
        for x in _box_samples(rng, bp, 20):
            for tau in (1e-2, 1e-4, 1e-6):
                scratch = bp.make_problem()
                F_x = scratch.oracle.eval_F(x)
                A = build_jacobian(scratch.oracle.eval_F, x, F_x, tau)
                err = float(np.linalg.norm(A - bp.jacobian(x), 2))
                bound = bp.lipschitz_jacobian * math.sqrt(bp.n) / 2.0 * tau
                assert err <= bound * (1 + 1e-6), (bp.name, tau, err, bound)
                checks += 1

    # first-order consistency on the nonlinear certified problems
    slopes = []
    taus = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    for bp in certified:
        for x in _box_samples(rng, bp, 3):
            errs = []
            for tau in taus:
                scratch = bp.make_problem()
                F_x = scratch.oracle.eval_F(x)
                A = build_jacobian(scratch.oracle.eval_F, x, F_x, tau)
                errs.append(float(np.linalg.norm(A - bp.jacobian(x), 2)))
            if min(errs) <= 0:
                continue
            slopes.append(float(np.polyfit(np.log(taus), np.log(errs), 1)[0]))
    assert slopes
    ok = all(0.8 <= s <= 1.2 for s in slopes)
    _report(
        3,
        ok,
        f"{checks} bound checks on {len(certified)} certified problems; "
        f"log-log slopes in [{min(slopes):.3f}, {max(slopes):.3f}]",
    )


def test_criterion_4_euclidean_closed_form():
    rng = np.random.default_rng(404)

    def scalar_ap(fn, jac, n):
        return BenchmarkProblem("scalar", OuterFunction.MINIMAX, n, 1, fn, (0.0,) * n, None, "",
                                jacobian=jac, lipschitz_jacobian=1.0, jacobian_box=(-1e6, 1e6))

    b = np.array([0.4, -0.9, 1.3])
    quad = scalar_ap(
        lambda x: np.array([0.5 * float(x @ x) + float(b @ x) + 2.0]),
        lambda x: (np.asarray(x) + b)[None, :],
        3,
    )
    expo = scalar_ap(
        lambda x: np.array([math.exp(x[0]) + x[0] * x[1] + x[1] ** 2]),
        lambda x: np.array([[math.exp(x[0]) + x[1], x[0] + 2.0 * x[1]]]),
        2,
    )

    worst = 0.0
    for bp, n in ((quad, 3), (expo, 2)):
        for _ in range(20):
            x = rng.uniform(-2, 2, n)
            want = float(np.linalg.norm(bp.jacobian(x)[0]))
            for r in (0.5, 1.0, 2.0):
                got = psi_euclidean(bp, x, r)
                rel = abs(got - want) / want
                worst = max(worst, rel)
                assert rel <= 1e-10
    _report(4, True, f"psi_2 matches the gradient norm; worst relative error {worst:.2e} <= 1e-10")


def test_criterion_5_desk_scale_convergence(campaigns):
    results = {}
    for family, config in (("l1", "TRFD-L1"), ("minimax", "TRFD-M")):
        res = campaigns[family]
        prof = data_profile(res.records, 1e-3)
        results[family] = prof[config][-1]
        csv_path = campaigns["out"] / family / "profile_tol1e-03.csv"
        emit_profile_csv(prof, csv_path)

    floors_ok = True
    for family in ("l1", "minimax"):
        for (pname, _), rec in campaigns[family].records.items():
            bp = registry_by_name(pname)
            if rec.best_f[-1] < bp.f_ref - 1e-8:
                floors_ok = False

    elapsed = campaigns["elapsed"]
    ok = results["l1"] >= 0.8 and results["minimax"] >= 0.7 and floors_ok and elapsed < 300
    _report(
        5,
        ok,
        f"solved at tol 1e-3: l1 {results['l1']:.2f} >= 0.80, "
        f"minimax {results['minimax']:.2f} >= 0.70; floors respected: {floors_ok}; "
        f"campaign {elapsed:.1f}s < 300s",
    )


def test_criterion_6_affine_exactness(affine_runs):
    worst = 0.0
    for name, (_, rec) in affine_runs.items():
        assert rec.termination in (Termination.ETA_FLOOR, Termination.DELTA_FLOOR), name
        for s in rec.iterations:
            if s.cls is IterationClass.U1:
                continue
            assert s.rho is not None, (name, s.k)
            worst = max(worst, abs(s.rho - 1.0))
        assert worst <= 1e-12, name
    _report(6, True, f"affine runs end at a stopping floor with |rho - 1| <= {worst:.2e} <= 1e-12")


def test_criterion_7_budget_accounting(campaigns, affine_runs):
    records = list(affine_runs.values())
    for res in (campaigns["l1"], campaigns["minimax"]):
        records.extend((None, rec) for rec in res.records.values())

    checked = 0
    for _, rec in records:
        n = rec.n
        for s in rec.iterations:
            if s.cls is IterationClass.U1:
                assert s.evals_iter == n, (rec.problem_name, s.k)
            elif s.entered_at == "step3":
                assert s.evals_iter == 1, (rec.problem_name, s.k)
            else:
                assert s.evals_iter == n + 1, (rec.problem_name, s.k)
        assert rec.total_evals == 1 + sum(s.evals_iter for s in rec.iterations) + rec.termination_evals
        assert rec.total_evals <= 100 * (n + 1)
        checked += 1
    _report(7, True, f"per-class costs and totals exact on {checked} traces, all within 100(n+1)")


def test_criterion_8_radius_floor_audit(campaigns):
    engaged = 0
    audited = 0
    for family in ("l1", "minimax"):
        for (pname, _), rec in campaigns[family].records.items():
            bp = registry_by_name(pname)
            if bp.analytic() is None:
                continue
            audited += 1
            if audit_trace(rec, analytic=bp.analytic()):
                engaged += 1
    _report(
        8,
        audited > 0 and engaged > 0,
        f"{audited} certified traces audited, radius floor applicable and respected on {engaged}",
    )


# the acceptance campaigns' exact counters: runs, evaluations,
# iterations, iterations per class and runs per termination, under the
# OpenBLAS kernel conftest.py pins.  A change that means to move a run's
# path updates them and says so.
PINNED_COUNTERS = {
    "l1": (15, 1904, 517, {"success": 248, "u1": 0, "u2": 230, "u3": 39},
           {"eta_floor": 12, "delta_floor": 2, "budget_exhausted": 1}),
    "minimax": (13, 1677, 726, {"success": 276, "u1": 0, "u2": 422, "u3": 28},
                {"eta_floor": 11, "delta_floor": 1, "budget_exhausted": 1}),
}


@pytest.mark.parametrize("family", list(PINNED_COUNTERS))
def test_the_campaigns_keep_their_exact_counters(campaigns, family):
    records = list(campaigns[family].records.values())
    classes = Counter(s.cls.value for rec in records for s in rec.iterations)
    assert (
        len(records),
        sum(rec.total_evals for rec in records),
        sum(len(rec.iterations) for rec in records),
        {cls.value: classes[cls.value] for cls in IterationClass},
        dict(Counter(rec.termination.value for rec in records)),
    ) == PINNED_COUNTERS[family]


def test_every_recorded_eta_agrees_with_an_independent_solve(campaigns):
    # the registry campaign's 56 runs: the fixture's two and the other
    # config on each family.  Every step-1 snapshot's eta at Delta*, exact
    # or a bracket read off the step, is checked against HiGHS on the
    # model rebuilt at the snapshot's x and tau (the oracle and the
    # Jacobian build are deterministic), in units of (1 + |h(F)|)/Delta*
    runs = [rec for family in ("l1", "minimax") for rec in campaigns[family].records.values()]
    for family, config in (("l1", TRFD_M), ("minimax", TRFD_L1)):
        runs += run_campaign(Campaign(problems=registry_family(family), solver_configs=[config])).records.values()
    exact = bracketed = 0
    violations = []
    for rec in runs:
        prob = registry_by_name(rec.problem_name).make_problem()
        r = rec.params.delta_star
        for s in rec.iterations:
            if s.entered_at != "step1":
                continue
            F = prob.oracle.eval_F(s.x)
            A = build_jacobian(prob.oracle.eval_F, s.x, F, s.tau)
            base = eval_h(rec.h, F)
            eta = (base - highs_subproblem(rec.h, F, A, prob.region, s.x, rec.params.p, r)) / r
            tol = 1e-9 * (1.0 + abs(base)) / r
            if s.eta_upper is None:
                exact += 1
                ok = abs(s.eta - eta) <= tol
            else:
                bracketed += 1
                ok = s.eta - tol <= eta <= s.eta_upper + tol
            if not ok:
                violations.append((rec.problem_name, rec.params.p.value, s.k, s.eta, s.eta_upper, eta))
    assert violations == []
    assert len(runs) == 56 and exact > 0 and bracketed > 0


def test_criterion_9_determinism(campaigns, tmp_path):
    out2 = tmp_path / "rerun"
    run_campaign(
        Campaign(problems=registry_family("l1"), solver_configs=[TRFD_L1]),
        out_dir=str(out2 / "l1"),
    )
    run_campaign(
        Campaign(problems=registry_family("minimax"), solver_configs=[TRFD_M]),
        out_dir=str(out2 / "minimax"),
    )
    for family in ("l1", "minimax"):
        prof = data_profile(
            {
                key: rec
                for key, rec in _load_dir(out2 / family).items()
            },
            1e-3,
        )
        emit_profile_csv(prof, out2 / family / "profile_tol1e-03.csv")

    compared = 0
    for family in ("l1", "minimax"):
        first = campaigns["out"] / family
        second = out2 / family
        names1 = sorted(p.name for p in first.iterdir())
        names2 = sorted(p.name for p in second.iterdir())
        assert names1 == names2
        for name in names1:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
            compared += 1
    _report(9, True, f"two executions produced {compared} bit-identical files")


def _load_dir(path):
    from trfd.bench import trace_files
    from trfd.solver import load_trace

    return {key: load_trace(p) for key, p in trace_files(path)}
