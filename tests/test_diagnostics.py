import json
import math
import re

import numpy as np
import pytest
from conftest import make_problem
from references import check_psi_eta_gap, eta_bruteforce, psi_euclidean

from trfd.core import FeasibleRegion, OuterFunction, PNorm
from trfd.diagnostics import AuditFailure, audit_trace, delta_min, psi
from trfd.jacobian import build_jacobian
from trfd.oracle import EvalBudget
from trfd.solver import TrfdParams, record_from_doc, record_to_doc, solve
from trfd.subproblem import ETA_SNAP, reformulate, solve_tr_subproblem
from trfd.testset import BenchmarkProblem, registry_by_name


def quadratic_scalar_ap(b):
    # F(x) = [ 0.5 ||x||^2 + b.x + 3 ],  grad = x + b
    b = np.asarray(b, dtype=float)
    n = b.size

    def fn(x):
        return np.array([0.5 * float(x @ x) + float(b @ x) + 3.0])

    def jac(x):
        return (np.asarray(x, dtype=float) + b)[None, :]

    return BenchmarkProblem("scalar_quad", OuterFunction.MINIMAX, n, 1, fn, (0.0,) * n, None, "",
                            jacobian=jac, lipschitz_jacobian=1.0, jacobian_box=(-1e6, 1e6))


def affine_l1_ap(B, c=0.0, lipschitz_jacobian=0.0):
    # F(x) = B x + c under h = l1, certified on [-10, 10]^2
    return BenchmarkProblem("affine", OuterFunction.L1, 2, 2, lambda x: B @ x + c, (0.0, 0.0), None, "",
                            jacobian=lambda x: B, lipschitz_jacobian=lipschitz_jacobian, jacobian_box=(-10.0, 10.0))


def test_psi_p2_closed_form_matches_gradient_norm():
    rng = np.random.default_rng(0)
    bp = quadratic_scalar_ap([0.3, -1.1, 0.7])
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        for r in (0.5, 1.0, 2.0):
            want = float(np.linalg.norm(x + np.array([0.3, -1.1, 0.7])))
            assert psi_euclidean(bp, x, r) == pytest.approx(want, rel=1e-10)


def test_psi_zero_at_stationary_point():
    bp = quadratic_scalar_ap([0.0, 0.0])
    assert psi_euclidean(bp, np.zeros(2), 1.0) == 0.0
    # L1 composite with an exact residual root: the model minimum over
    # any ball is 0 at d = 0
    bp2 = affine_l1_ap(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert psi(bp2, np.zeros(2), PNorm.ONE, 1.0) == 0.0


def test_psi_p2_requires_scalar_minimax():
    bp = registry_by_name("rosenbrock")
    with pytest.raises(ValueError, match="p=2 stationarity needs"):
        psi_euclidean(bp, np.zeros(2), 1.0)


def test_psi_affine_l1_matches_grid():
    B = np.array([[1.2, -0.4], [0.3, 0.9]])
    c = np.array([0.5, -0.7])
    bp = affine_l1_ap(B, c)
    x = np.array([0.3, -0.2])
    got = psi(bp, x, PNorm.ONE, 1.0)
    eta_grid = eta_bruteforce(OuterFunction.L1, B @ x + c, B, FeasibleRegion.unconstrained(2), x, PNorm.ONE, 1.0)
    assert abs(got - eta_grid) <= 2e-3 * (1 + np.linalg.norm(B, 2))


def test_eta_bruteforce_guards():
    with pytest.raises(ValueError, match="n <= 3"):
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
    for tau in (1e-2, 1e-4):
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            assert check_psi_eta_gap(bp, x, PNorm.ONE, 1.0, tau)


def test_check_psi_eta_gap_affine_is_tight():
    bp = affine_l1_ap(np.array([[1.0, 2.0], [3.0, -1.0]]), lipschitz_jacobian=1e-9)
    # the gap is rounding-level for affine maps, so even a near-zero
    # Lipschitz certificate passes
    assert check_psi_eta_gap(bp, np.array([0.5, 0.5]), PNorm.ONE, 1.0, 0.25)


def _params_for_delta_min(epsilon, alpha, sigma, lip, n=1):
    tau0 = epsilon / (lip * sigma * math.sqrt(n))  # c2p_n = cp2_m = 1
    d0 = max(1.0, tau0 * math.sqrt(n))
    return TrfdParams(
        epsilon=epsilon, alpha=alpha, sigma=sigma, lipschitz_h=lip,
        c2p_n=1.0, cp2_m=1.0, p=PNorm.ONE, budget=EvalBudget(simplex_gradients=1, n=n),
        delta0=d0, delta_star=max(d0, 1.0), stop_delta=0.0, stop_eta=0.0,
    )


def test_delta_min_values():
    p = _params_for_delta_min(1.0, 0.5, 1.0, 1.0)
    assert delta_min(p, 1.0) == pytest.approx(0.125, rel=1e-15)

    sigma = 1e9
    p2 = _params_for_delta_min(1e-15, 0.15, sigma, 1.0)
    want = 0.85 * 1e-15 / (4.0 * sigma)
    assert delta_min(p2, 1.0) == pytest.approx(want, rel=1e-12)

    # doubling max(sigma, L_J) halves the floor
    a = delta_min(p, 4.0)
    b = delta_min(p, 8.0)
    assert a == pytest.approx(2.0 * b, rel=1e-15)


def test_audit_clean_run_and_injected_faults():
    bp = registry_by_name("rosenbrock")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert audit_trace(rec, analytic=bp.analytic()) is True

    rec.iterations[3].delta *= 1.0000001
    with pytest.raises(AuditFailure, match="iteration 3"):
        audit_trace(rec)


def test_audit_catches_wrong_class():
    from trfd.solver import IterationClass

    bp = registry_by_name("cb2")
    prob = bp.make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    audit_trace(rec)
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


def _every(doc, key, edit):
    for it in doc["iterations"]:
        it[key] = edit(it[key])


# a hand edit of a trace document -> (what it raises, a text of its message)
TRACE_EDITS = {
    "k_shifted": (lambda doc: _every(doc, "k", lambda k: k + 5), AuditFailure, "iteration index 5, expected 0"),
    "tau_halved": (lambda doc: _every(doc, "tau", lambda tau: tau / 2), AuditFailure, "not (tau0, delta0)"),
    "delta_doubled": (lambda doc: _every(doc, "delta", lambda delta: delta * 2), AuditFailure, "not (tau0, delta0)"),
    "total_evals": (lambda doc: doc.update(total_evals=1), ValueError, '"total_evals" is 1, but the trace gives '),
    "tau0": (lambda doc: doc["params"].update(tau0=doc["params"]["tau0"] * 2), ValueError, '"tau0" is '),
    "max_evals": (lambda doc: doc["params"].update(max_evals=doc["params"]["max_evals"] + 1), ValueError,
                  '"max_evals" is 301, but the trace gives 300'),
    "theta": (lambda doc: doc["params"].update(theta=0.5), ValueError, '"theta" is 0.5, but the trace gives 1.0'),
    "evals_total_zero": (lambda doc: _every(doc, "evals_total", lambda _: 0), AuditFailure,
                         "evals_total 0, the ledger gives "),
    "rho_degenerate_true": (lambda doc: _every(doc, "rho_degenerate", lambda _: True), AuditFailure,
                            "rho_degenerate True with class "),
    "first_at_step3": (lambda doc: _first_at_step3(doc), AuditFailure,
                       "iteration 0: the first iteration did not enter at step 1"),
    "entered_at_bogus": (lambda doc: _at(doc, 0, entered_at="bogus"), ValueError,
                         '"entered_at" must be "step1" or "step3", not \'bogus\''),
    # one edit per later check, on rosenbrock's 25 iterations: U2s at
    # 1, 2, 4, 6, 7, ..., 21, each re-entered at step 3; 23 and 24 are
    # successes entered at step 1, 24 the last, and its bracket nobody's
    "tau_over_delta": (lambda doc: _at(doc, 24, tau=1.0), AuditFailure,
                       "iteration 24: tau*sqrt(n) = 1.414214e+00 exceeds delta = 1.000000e+00"),
    "tau_not_replayed": (lambda doc: _at(doc, 24, tau=doc["params"]["tau0"] / 2), AuditFailure,
                         "iteration 24: tau 7.450580596923828e-09 != replayed 1.4901161193847656e-08"),
    "step1_after_u2": (lambda doc: _at(doc, 5, entered_at="step1"), AuditFailure,
                       "iteration 5: iteration after U2 did not re-enter at step 3"),
    "step3_after_success": (lambda doc: _at(doc, 1, entered_at="step3"), AuditFailure,
                            "iteration 1: iteration after non-U2 did not enter at step 1"),
    "eta_not_inherited": (lambda doc: _at(doc, 2, eta=2 * doc["iterations"][2]["eta"]), AuditFailure,
                          "iteration 2: inherited eta, eta_upper or eta_radius changed across a U2 re-entry"),
    "bracket_under_eta": (lambda doc: _at(doc, 24, eta_upper=doc["iterations"][24]["eta"] / 2), AuditFailure,
                          "iteration 24: bracket needs delta < Delta* and eta <= eta_upper: "),
    "f_increased": (lambda doc: _at(doc, 24, f=1.0), AuditFailure,
                    "iteration 24: objective increased: "),
    "moved_on_u2": (lambda doc: _at(doc, 2, x=[v + 1e-3 for v in doc["iterations"][2]["x"]]), AuditFailure,
                    "iteration 2: iterate moved on a non-success iteration"),
    "evals_iter": (lambda doc: _at(doc, 24, evals_iter=2), AuditFailure,
                   "iteration 24: evaluation cost 2, expected 3"),
    "termination_evals": (lambda doc: doc.update(termination_evals=3), AuditFailure,
                          "evaluation ledger off: start + iters + trailing = 55, trace has 54"),
    # 54 evaluations against a budget of 17 simplex gradients, 51
    "budget": (lambda doc: doc["params"].update(simplex_gradients=17, max_evals=51), AuditFailure,
               "budget exceeded"),
    # 26 more trailing evaluations than 3 for each of 25 iterations and
    # the partial one, plus the start, allow
    "trailing_evals": (lambda doc: _trail(doc, 26), AuditFailure, "per-iteration evaluation bound violated"),
    # tau0 = epsilon / (... c2p_n ...) is unchanged, and the floor, which
    # divides by c2p_n squared, rises above every radius
    "c2p_n": (lambda doc: doc["params"].update(c2p_n=2.0**-60, epsilon=doc["params"]["epsilon"] * 2.0**-60),
              AuditFailure, "iteration 0: delta 1.000000e+00 fell under the floor "),
    # the run's end: it stops at eta_floor after iteration 24's success,
    # at step 1 after the n = 2 evaluations of the next model
    "final_f_lowered": (lambda doc: doc.update(final_f=doc["final_f"] - 1.0), AuditFailure,
                        "iteration 24: final_f -0.9999999999999989 outside [best f, the success's f) = "),
    "final_x_moved": (lambda doc: doc.update(final_x=[v + 1.0 for v in doc["final_x"]]), AuditFailure,
                      "iteration 24: final_x lies 2.0103018455821626 from the success's x, beyond its radius 1.0"),
    "delta_floor_above_stop_delta": (lambda doc: doc.update(termination="delta_floor"), AuditFailure,
                                     "delta_floor, yet no radius update reached stop_delta = 1e-13"),
    "eta_floor_after_3": (lambda doc: _trail(doc, 1), AuditFailure,
                          "eta_floor at step1 after 3 trailing evaluations, not at step1 after n = 2"),
    "budget_left": (lambda doc: doc.update(termination="budget_exhausted"), AuditFailure,
                    "budget_exhausted, yet the next 1 evaluations fit: 54 + 1 <= max_evals = 300"),
    "budget_after_3": (lambda doc: (_trail(doc, 1), doc.update(termination="budget_exhausted")), AuditFailure,
                       "budget_exhausted at step1 after 3 trailing evaluations"),
}


def _at(doc, k, **values):
    doc["iterations"][k].update(values)


def _first_at_step3(doc):
    # iteration 0 entered at step 3, its ledger shifted to match: its
    # model's two evaluations leave best_f
    _at(doc, 0, entered_at="step3", evals_iter=1)
    _every(doc, "evals_total", lambda total: total - 2)
    del doc["best_f"][1:3]
    doc.update(total_evals=len(doc["best_f"]))


def _trail(doc, count):
    # evaluations after the last iteration, each no better than the best
    doc["best_f"] += doc["best_f"][-1:] * count
    doc.update(termination_evals=doc["termination_evals"] + count, total_evals=len(doc["best_f"]))


@pytest.fixture(scope="module")
def rosenbrock_trace():
    prob = registry_by_name("rosenbrock").make_problem()
    doc = json.dumps(record_to_doc(solve(prob, TrfdParams.defaults(prob, PNorm.ONE))))
    audit_trace(record_from_doc(json.loads(doc)))
    return doc


@pytest.mark.parametrize("edit", list(TRACE_EDITS))
def test_audit_refuses_a_trace_whose_start_or_ledger_was_edited(rosenbrock_trace, edit):
    change, error, message = TRACE_EDITS[edit]
    doc = json.loads(rosenbrock_trace)
    change(doc)
    with pytest.raises(error, match=re.escape(message)):
        audit_trace(record_from_doc(doc), analytic=registry_by_name("rosenbrock").analytic())


def test_audit_checks_the_end_of_a_run_without_iterations():
    # started at its root, the run stops at eta_floor after the first
    # model's n = 2 evaluations, before any snapshot
    prob = make_problem(lambda x: x - np.array([1.0, 2.0]), 2, 2, "l1", (1.0, 2.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert (rec.iterations, rec.termination_evals, rec.final_f) == ([], 2, 0.0)
    audit_trace(rec)
    rec.final_f = 1.0
    with pytest.raises(AuditFailure, match=r"^final_f 1\.0 is not the start's f 0\.0$"):
        audit_trace(rec)


def test_audit_affine_trace_all_success():
    prob = make_problem(lambda x: x - np.array([1.0, 2.0]), 2, 2, "l1", (-1.0, 0.5))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    from trfd.solver import IterationClass

    audit_trace(rec)
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


def _edited_trace(rec, edit):
    """``rec`` written as a trace document, edited, and read back."""
    from trfd.solver import record_from_doc, record_to_doc

    doc = json.loads(json.dumps(record_to_doc(rec)))
    edit(doc)
    return record_from_doc(doc)


def _bracketed_step(doc) -> dict:
    # a step-1 snapshot bracketed at rho = delta that no U2 re-entry
    # inherits from
    return next(it for it in doc["iterations"]
                if it["eta_radius"] == it["delta"] and it["entered_at"] == "step1" and it["class"] != "u2")


def test_audit_accepts_brackets_and_rejects_one_on_a_u1_iteration():
    prob = make_problem(lambda x: x - np.array([1.0, 2.0]), 2, 2, "l1", (-1.0, 0.5))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, epsilon=1.0, stop_eta=0.0, simplex_gradients=10))
    audit_trace(rec)

    def bracket_a_u1(doc):
        it = next(it for it in doc["iterations"] if it["class"] == "u1")
        it["eta_upper"], it["eta_radius"] = 2.0 * it["eta"] + 1.0, it["delta"]

    with pytest.raises(AuditFailure, match=r"^iteration \d+: a U1 iteration took eta from a bracket$"):
        audit_trace(_edited_trace(rec, bracket_a_u1))


@pytest.mark.parametrize("fault, message", [
    ("low", r"bracketed eta .* does not clear"),
    ("disagree", r"bracket breaks concavity: eta\*Delta\* = .* > eta_upper\*\(1 \+ rtol\)\*rho = "),
])
def test_audit_rejects_a_bracket_under_the_threshold_or_with_ends_that_disagree(fault, message):
    prob = registry_by_name("cb2").make_problem()
    params = TrfdParams.defaults(prob, PNorm.ONE)
    rec = solve(prob, params)
    audit_trace(rec)
    floor = max(ETA_SNAP, params.stop_eta, params.epsilon / 2.0)

    def edit(doc):
        it = _bracketed_step(doc)
        if fault == "low":
            # still above epsilon/2, so the class stays as recorded
            it["eta"] = 1.5 * floor
        else:
            # a lower end twice psi(delta)/Delta*, still under eta_upper:
            # at rho = delta the ends disagree, which breaks concavity
            it["eta"] = 2.0 * it["eta_upper"] * it["delta"] / params.delta_star
            assert it["eta"] <= it["eta_upper"]

    with pytest.raises(AuditFailure, match=rf"^iteration \d+: {message}") as info:
        audit_trace(_edited_trace(rec, edit))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("fault, message", [
    ("rho_above", r"eta_radius .* outside \[delta, Delta\*\]"),
    ("rho_below", r"eta_radius .* outside \[delta, Delta\*\]"),
    ("concavity", r"bracket breaks concavity: eta\*Delta\* = .* > eta_upper\*\(1 \+ rtol\)\*rho = "),
    ("radius_alone", r"eta_upper None and eta_radius .* must be set together"),
])
def test_audit_rejects_a_ray_bracket_outside_its_radii_or_against_concavity(fault, message):
    # cb2's brackets read on the step's ray all sit on U2 iterations, so
    # each edit is copied to the retries that inherit the bracket
    prob = registry_by_name("cb2").make_problem()
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    audit_trace(rec)
    delta_star = rec.params.delta_star

    def edit(doc):
        its = doc["iterations"]
        i, it = next((i, it) for i, it in enumerate(its)
                     if it["eta_radius"] not in (None, it["delta"]) and it["entered_at"] == "step1")
        if fault == "rho_above":
            it["eta_radius"] = 2.0 * delta_star
        elif fault == "rho_below":
            it["eta_radius"] = it["delta"] / 2.0
        elif fault == "concavity":
            # inside [delta, Delta*], with eta*Delta*/rho twice eta_upper
            it["eta_radius"] = it["eta"] * delta_star / (2.0 * it["eta_upper"])
            assert it["delta"] <= it["eta_radius"] <= delta_star
        else:
            it["eta_upper"] = None
        for retry in its[i + 1:]:
            if retry["entered_at"] != "step3":
                break
            retry["eta_upper"], retry["eta_radius"] = it["eta_upper"], it["eta_radius"]

    with pytest.raises(AuditFailure, match=rf"^iteration \d+: {message}") as info:
        audit_trace(_edited_trace(rec, edit))
    assert "\n" not in str(info.value)
