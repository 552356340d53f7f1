import dataclasses
import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest
from conftest import make_problem, rosenbrock_residuals

import trfd
from trfd import jsontext
from trfd.bench import TRFD_L1, Campaign, run_campaign
from trfd.core import MACHINE_EPS, FeasibleRegion, OuterFunction, PNorm
from trfd.diagnostics import audit_trace
from trfd.solver import (
    SNAPSHOT_ROW,
    IterationClass,
    IterationSnapshot,
    Termination,
    TrfdParams,
    compute_rho,
    load_trace,
    record_from_doc,
    record_to_doc,
    save_trace,
    solve,
)
from trfd.subproblem import eta_bracket
from trfd.testset import BenchmarkProblem, registry_by_name

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
    assert params.stop_delta == 1e-13
    assert params.stop_eta == 1e-13
    assert params.tau0 * math.sqrt(2) <= params.delta0


def test_params_validation():
    prob = affine_l1_problem()
    good = TrfdParams.defaults(prob, PNorm.ONE)
    # a non-finite field fails too, NaN included: NaN <= 0 is false
    for field, bad in (("alpha", 1.5), ("epsilon", -1.0), ("epsilon", math.nan),
                       ("alpha", math.nan), ("delta_star", math.inf), ("stop_eta", math.inf),
                       ("stop_delta", -math.inf), ("lipschitz_h", math.nan),
                       # -1 once reached build_jacobian as a negative step, and 0 divided tau0 by zero
                       ("lipschitz_h", -1), ("lipschitz_h", 0)):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(good, **{field: bad})
    for name, bad in (("c2p_n", 0.0), ("cp2_m", -1.0)):
        with pytest.raises(ValueError, match=f"^{name} must be positive, not "):
            dataclasses.replace(good, **{name: bad})
    # p = 2 has no LP subproblem: rejected before any evaluation is spent
    with pytest.raises(ValueError, match="p = 2"):
        TrfdParams.defaults(prob, "2")
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
    # some retries inherit a bracket, not an exact eta
    assert any(s.cls is IterationClass.U2 and s.eta_upper is not None for s in rec.iterations)
    for prev, cur in zip(rec.iterations, rec.iterations[1:]):
        if prev.cls is IterationClass.U2:
            assert cur.entered_at == "step3"
            assert cur.evals_iter == 1
            assert cur.eta == prev.eta
            assert cur.eta_upper == prev.eta_upper
            assert cur.eta_radius == prev.eta_radius
        else:
            assert cur.entered_at == "step1"


@pytest.mark.parametrize(
    "name, p, lps",
    [("rosenbrock", "1", 27), ("powell_singular", "inf", 18), ("cb2", "1", 139), ("cb2", "inf", 129)],
)
def test_one_lp_assembly_per_model(name, p, lps, monkeypatch):
    # one LP serves every model of a run: reformulate assembles it with
    # the first model, and every later Jacobian's is written into it in
    # place; the step solve, the Delta* solve when the step's eta bracket
    # does not decide the iteration, and every U2 retry solve it at their
    # radii
    import trfd.solver
    import trfd.subproblem
    from trfd.testset import registry_by_name

    calls = Counter()
    # after each Delta* solve, the next solve must find the step's basis
    # back in the LP: [basic, at_upper, whether the Delta* solve ran]
    pending = []
    restored = 0

    def bracket_or_none(tr, sol, r_ref, floor):
        bracket = eta_bracket(tr, sol, r_ref, floor)
        if bracket is None:
            pending.append([tr.lp.basic.copy(), tr.lp.at_upper.copy(), False])
        return bracket

    def checked_solve_lp(lp, start):
        nonlocal restored
        if pending and pending[0][2]:
            basic, at_upper, _ = pending.pop()
            assert np.array_equal(lp.basic, basic) and np.array_equal(lp.at_upper, at_upper)
            restored += 1
        elif pending:
            pending[0][2] = True
        return real_solve_lp(lp, start)

    real_solve_lp = trfd.subproblem.solve_lp
    monkeypatch.setattr(trfd.subproblem, "solve_lp", checked_solve_lp)
    monkeypatch.setattr(trfd.subproblem, "eta_bracket", bracket_or_none)

    def counting(owner, attr):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    counting(trfd.solver, "build_jacobian")
    counting(trfd.subproblem, "reformulate")
    counting(trfd.subproblem.TrustRegionLP, "set_model")
    counting(trfd.subproblem, "solve_lp")
    prob = registry_by_name(name).make_problem()
    solve(prob, TrfdParams.defaults(prob, PNorm.from_value(p)))
    assert calls["reformulate"] == 1
    # reformulate writes the first model through set_model too
    assert calls["set_model"] - calls["reformulate"] == calls["build_jacobian"] - 1
    assert calls["solve_lp"] == lps
    # each Delta* solve left the step's basis to the solve after it; only
    # one that ends the run has no solve after it
    assert restored == {"cb2": 20 if p == "1" else 11}.get(name, 0) and len(pending) <= 1


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
    audit_trace(rec)


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
    # a v2 trace, from before eta_radius, is refused with one line
    doc = json.loads(path.read_text())
    doc["schema"] = "trfd-trace-v2"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^unknown trace schema: 'trfd-trace-v2'$"):
        load_trace(path)


# a trace puts each field on a line and each iteration on one line
SHORT_TRACE = """\
{"schema": "trfd-trace-v3",
 "problem": {"name": "short", "n": 1, "m": 1, "h": "l1"},
 "params": {"epsilon": 0.25, "alpha": 0.15, "theta": 1.0, "sigma": 1.0, \
"lipschitz_h": 1.0, "c2p_n": 1.0, "cp2_m": 1.0, "p": "1", "simplex_gradients": 2, "max_evals": 4, \
"tau0": 0.25, "delta0": 1.0, "delta_star": 1000.0, "stop_delta": 1e-13, "stop_eta": 1e-13},
 "iterations": [
  {"k": 0, "class": "success", "entered_at": "step1", "tau": 0.25, "delta": 1.0, "eta": 0.0005, \
"eta_upper": 0.75, "eta_radius": 1.0, "rho": 1.0, "rho_degenerate": false, "f": 2.0, "x": [-1.5], \
"evals_iter": 2, "evals_total": 2},
  {"k": 1, "class": "u3", "entered_at": "step1", "tau": 0.25, "delta": 2.0, "eta": 0.25, \
"eta_upper": null, "eta_radius": null, "rho": null, "rho_degenerate": true, "f": 0.5, "x": [0.1], \
"evals_iter": 2, "evals_total": 4}
 ],
 "best_f": [2.0, 2.0, 0.5, 0.5],
 "termination": "budget_exhausted",
 "termination_evals": 0,
 "final_x": [0.1],
 "final_f": 0.5,
 "total_evals": 4}
"""


def test_trace_layout_is_one_field_and_one_iteration_a_line(tmp_path):
    path = tmp_path / "short.json"
    save_trace(record_from_doc(json.loads(SHORT_TRACE)), path)
    assert path.read_text() == SHORT_TRACE


def test_the_row_table_names_every_snapshot_field_in_order():
    assert [name for name, _, _ in SNAPSHOT_ROW] == [f.name for f in dataclasses.fields(IterationSnapshot)]


def test_a_row_round_trips_each_nullable_field_null_and_set():
    # distinct values, so a table that swapped two keys would not read back
    for null in ("eta_upper", "eta_radius", "rho", None):
        doc = json.loads(SHORT_TRACE)
        row = doc["iterations"][0]
        row.update(eta_upper=0.75, eta_radius=0.5, rho=0.25)
        if null:
            row[null] = None
        record = record_from_doc(doc)
        snapshot = record.iterations[0]
        assert [snapshot.eta_upper, snapshot.eta_radius, snapshot.rho] == [row["eta_upper"], row["eta_radius"], row["rho"]]
        assert record_to_doc(record) == doc


def test_a_trace_in_the_indented_layout_loads_and_audits(tmp_path):
    # traces were once written indented; the layout is whitespace only
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0), name="rosenbrock")
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    path = tmp_path / "indented.json"
    path.write_text(jsontext.dumps(record_to_doc(rec), indent=1))
    back = load_trace(path)
    assert record_to_doc(back) == record_to_doc(rec)
    audit_trace(back)


def test_a_refused_trace_raises_and_leaves_no_file(tmp_path):
    # an inf in best_f is a value JSON cannot say; the save must not
    # leave an empty trace behind
    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, 2))
    rec.best_f[-1] = math.inf
    path = tmp_path / "refused.json"
    with pytest.raises(ValueError):
        save_trace(rec, path)
    assert not path.exists()


def test_an_overflowing_h_is_a_failed_evaluation(tmp_path):
    # finite residuals whose L1 sum overflows give no usable value: the
    # run ends oracle_error, as for a non-finite F, keeping every earlier
    # evaluation, and its trace saves and audits
    calls = []

    def residuals(x):
        calls.append(x.copy())
        return np.array([1e308, 1e308]) if len(calls) == 4 else x - 1.0

    prob = make_problem(residuals, 2, 2, "l1", (0.0, 0.0))
    with np.errstate(over="ignore"):
        rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    # the start, its two probes, then the first trial, which overflows
    assert len(calls) == 4 and rec.iterations == []
    assert rec.termination is Termination.ORACLE_ERROR
    assert rec.best_f == np.minimum.accumulate([np.abs(c - 1.0).sum() for c in calls[:3]]).tolist()
    assert rec.termination_evals == 2 and rec.final_f == 2.0
    path = tmp_path / "overflow.json"
    save_trace(rec, path)
    back = load_trace(path)
    assert record_to_doc(back) == record_to_doc(rec)
    audit_trace(back)

    # overflowing from the start, the run has no evaluation at all
    prob = make_problem(lambda x: np.array([1e308, 1e308]), 2, 2, "l1", (0.0, 0.0))
    with np.errstate(over="ignore"):
        rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination is Termination.ORACLE_ERROR and rec.best_f == []
    save_trace(rec, path)
    audit_trace(load_trace(path))


def test_failure_on_first_evaluation_still_serializes(tmp_path):
    def nan_residuals(x):
        return np.array([np.nan, np.nan])

    prob = make_problem(nan_residuals, 2, 2, "l1", (0.0, 0.0))
    rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    assert rec.termination is Termination.ORACLE_ERROR
    assert rec.total_evals == 0
    path = tmp_path / "dead.json"
    save_trace(rec, path)
    assert '"final_f": null' in path.read_text()
    back = load_trace(path)
    assert back.termination is Termination.ORACLE_ERROR
    assert back.final_f == math.inf
    # through a campaign, the summary says "absent" with explicit nulls
    dead = BenchmarkProblem(name="dead", family=OuterFunction.L1, n=2, m=2, residuals=nan_residuals,
                            x0=(0.0, 0.0), f_ref=0.0, f_ref_note="")
    out = tmp_path / "campaign"
    run_campaign(Campaign(problems=[dead], solver_configs=[TRFD_L1]), out_dir=str(out))
    (run,) = json.loads((out / "summary.json").read_text())["runs"]
    assert run["termination"] == "oracle_error"
    assert run["final_f"] is None and run["best_f"] is None


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
    params = dataclasses.replace(base, epsilon=eps, sigma=sigma, delta0=1.0)
    want = eps / (lip * sigma * base.cp2_m * base.c2p_n * math.sqrt(2))
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


def _trace_numpy_wrappers(run):
    """Run ``run()`` under ``sys.setprofile``.  Return the calls into
    numpy's ``fromnumeric`` wrappers (``np.sum``, ``np.max``, ``np.any``,
    ...) whose caller is a trfd module, as (module, line, function), and
    the names of the trfd functions that ran.  ``problems`` is exempt: its
    residual functions are oracle code, not the solver."""
    package = os.path.dirname(trfd.__file__) + os.sep
    exempt = os.path.join(package, "problems.py")
    wrapper_calls, functions = [], set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code, caller = frame.f_code, frame.f_back
        if code.co_filename.startswith(package):
            functions.add(code.co_name)
        elif (
            os.path.basename(code.co_filename) == "fromnumeric.py"
            and caller is not None
            and caller.f_code.co_filename.startswith(package)
            and caller.f_code.co_filename != exempt
        ):
            where = (os.path.basename(caller.f_code.co_filename), caller.f_lineno, caller.f_code.co_name)
            wrapper_calls.append(where)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return wrapper_calls, functions


def boxed_rosenbrock():
    # the box and the row cut (1, 1) off, so steps run into both
    region = FeasibleRegion([-2.0, -1.0], [0.9, 2.0], ((np.array([1.0, 1.0]), 1.7),))
    return make_problem(rosenbrock_residuals, 2, 2, "l1", (-1.2, 1.0), region=region, name="boxed")


def test_solve_path_calls_ndarray_methods_not_fromnumeric_wrappers():
    # np.sum(x) and friends reach the same ufunc reduction as x.sum()
    # after a Python dispatch layer of their own; on thousands of tiny
    # arrays per campaign that layer is measurable, so the solve path
    # calls the ndarray methods
    runs = [
        (registry_by_name(name).make_problem(), p)
        for name in ("rosenbrock", "cb2")
        for p in (PNorm.ONE, PNorm.INF)
    ]
    runs += [(boxed_rosenbrock(), PNorm.ONE), (boxed_rosenbrock(), PNorm.INF)]
    assert {prob.h for prob, _ in runs} == set(OuterFunction)

    def run():
        for prob, p in runs:
            solve(prob, TrfdParams.defaults(prob, p, 20))

    wrapper_calls, functions = _trace_numpy_wrappers(run)
    assert wrapper_calls == [], sorted(set(wrapper_calls))
    # the profile saw the solver, including the ray walk and the checks
    # of each step against the box and the rows
    assert {"solve", "eval_h", "norm", "set_model", "eta_bracket", "_ray_length", "_check_solution"} <= functions
