"""Trace audits: what ``trfd audit`` runs.

The solve loop uses nothing here.  The point is independence: traces
are replayed against the update rules, and on problems with an analytic
Jacobian the radius floor is checked against the true stationarity
measure, so that a bug in the fast path cannot hide behind itself.
"""
from __future__ import annotations

import math

import numpy as np

from .core import MACHINE_EPS, FeasibleRegion, PNorm, norm
from .solver import IterationClass, RunRecord, Termination, TrfdParams
from .subproblem import BRACKET_RTOL, ETA_SNAP, FEAS_TOL, reformulate, solve_tr_subproblem
from .testset import BenchmarkProblem


class AuditFailure(Exception):
    """A recorded trace violates an invariant; the message names the
    first offending iteration."""


def psi(bp: BenchmarkProblem, x, p: PNorm, r: float) -> float:
    """Stationarity measure of the registry record ``bp`` from its closed-form
    Jacobian, p in {1, inf}: the exact model minimum over R^n by the LP machinery."""
    x = np.asarray(x, dtype=float)
    region = FeasibleRegion.unconstrained(bp.n)
    return solve_tr_subproblem(reformulate(bp.family, bp.residuals(x), bp.jacobian(x), region, x, p, r)).eta


def delta_min(params: TrfdParams, L_J: float) -> float:
    """Theoretical floor on the trust-region radius while the iterate is
    epsilon-nonstationary:

        (1 - alpha) * theta * epsilon
        -----------------------------------------------
        4 * L_h * max(sigma, L_J) * c_p2 * c_2p^2

    with theta = 1, as every subproblem LP is solved exactly.
    """
    return ((1 - params.alpha) * params.epsilon) / (
        4.0 * params.lipschitz_h * max(params.sigma, L_J) * params.cp2_m * params.c2p_n**2
    )


def _fail(k, message):
    raise AuditFailure(f"iteration {k}: {message}")


def audit_trace(record: RunRecord, analytic: BenchmarkProblem | None = None) -> bool:
    """Replay a trace against every recorded-state invariant.

    Raises AuditFailure naming the first violated invariant and the
    iteration index.  When ``analytic``, a registry record with a
    closed-form Jacobian, is given and the true stationarity measure stays
    above epsilon along the trace (every iterate in its ``jacobian_box``),
    the radius floor is enforced too.  Last come the run's end: its final
    point and its termination (``_audit_end``).  Returns whether the
    radius-floor check ran.
    """
    p = record.params
    n = record.n
    sqrt_n = math.sqrt(n)
    eps_half = p.epsilon / 2.0
    snaps = record.iterations

    # the run starts at k = 0 with (tau0, delta0) and a fresh model, and
    # counts each iteration once
    if snaps and (snaps[0].tau, snaps[0].delta) != (p.tau0, p.delta0):
        _fail(snaps[0].k, f"starts at (tau, delta) = ({snaps[0].tau!r}, {snaps[0].delta!r}), "
                         f"not (tau0, delta0) = ({p.tau0!r}, {p.delta0!r})")
    if snaps and snaps[0].entered_at != "step1":
        _fail(snaps[0].k, "the first iteration did not enter at step 1")
    for k, s in enumerate(snaps):
        if s.k != k:
            _fail(s.k, f"iteration index {s.k}, expected {k}")
        if s.tau * sqrt_n > s.delta:
            _fail(s.k, f"tau*sqrt(n) = {s.tau * sqrt_n:.6e} exceeds delta = {s.delta:.6e}")
        if s.rho_degenerate != (s.cls is not IterationClass.U1 and s.rho is None):
            _fail(s.k, f"rho_degenerate {s.rho_degenerate} with class {s.cls.value} and rho {s.rho!r}")

    for s in snaps:
        cls = _classify(s, eps_half, p.alpha, sqrt_n)
        if cls is not s.cls:
            _fail(s.k, f"recorded class {s.cls.value}, derived {cls.value}")

    for prev, cur in zip(snaps, snaps[1:]):
        tau_want, delta_want = _updated(prev, p.delta_star)
        if cur.tau != tau_want:
            _fail(cur.k, f"tau {cur.tau!r} != replayed {tau_want!r}")
        if cur.delta != delta_want:
            _fail(cur.k, f"delta {cur.delta!r} != replayed {delta_want!r}")
        if prev.cls is IterationClass.U2 and cur.entered_at != "step3":
            _fail(cur.k, "iteration after U2 did not re-enter at step 3")
        if prev.cls is not IterationClass.U2 and cur.entered_at != "step1":
            _fail(cur.k, "iteration after non-U2 did not enter at step 1")
        if prev.cls is IterationClass.U2 and (
            (cur.eta, cur.eta_upper, cur.eta_radius) != (prev.eta, prev.eta_upper, prev.eta_radius)
        ):
            _fail(cur.k, "inherited eta, eta_upper or eta_radius changed across a U2 re-entry")

    # a bracket [eta, eta_upper] on eta(Delta*) stands in for the Delta*
    # LP only when its lower end rules out U1 and eta_floor with margin.
    # Its lower end is psi(rho)/Delta* and its upper end psi(delta)/delta,
    # and psi's concavity bounds psi(rho) by rho psi(delta)/delta
    skip_floor = 2.0 * max(ETA_SNAP, p.stop_eta, eps_half)
    for s in snaps:
        if (s.eta_upper is None) != (s.eta_radius is None):
            _fail(s.k, f"eta_upper {s.eta_upper!r} and eta_radius {s.eta_radius!r} must be set together")
        if s.eta_upper is None or s.entered_at != "step1":
            continue
        if s.cls is IterationClass.U1:
            _fail(s.k, "a U1 iteration took eta from a bracket")
        if not s.eta > skip_floor:
            _fail(s.k, f"bracketed eta {s.eta!r} does not clear {skip_floor!r}")
        if not (s.delta < p.delta_star and s.eta <= s.eta_upper):
            _fail(s.k, f"bracket needs delta < Delta* and eta <= eta_upper: {s.delta!r}, {s.eta!r}, {s.eta_upper!r}")
        rho = s.eta_radius
        if not (s.delta <= rho <= p.delta_star):
            _fail(s.k, f"eta_radius {rho!r} outside [delta, Delta*] = [{s.delta!r}, {p.delta_star!r}]")
        psi_rho, bound = s.eta * p.delta_star, s.eta_upper * (1.0 + BRACKET_RTOL) * rho
        if psi_rho > bound:
            _fail(s.k, f"bracket breaks concavity: eta*Delta* = {psi_rho!r} > eta_upper*(1 + rtol)*rho = {bound!r}")

    for prev, cur in zip(snaps, snaps[1:]):
        if cur.f > prev.f:
            _fail(cur.k, f"objective increased: {prev.f!r} -> {cur.f!r}")
        if prev.cls is not IterationClass.SUCCESS and (
            cur.f != prev.f or np.any(cur.x != prev.x)
        ):
            _fail(cur.k, "iterate moved on a non-success iteration")

    bf = record.best_f
    if any(b > a for a, b in zip(bf, bf[1:])):
        raise AuditFailure("best-f trajectory increases")

    # the start evaluation is in the ledger unless it failed
    total = min(1, record.total_evals)
    for s in snaps:
        want = _expected_cost(s, n)
        if s.evals_iter != want:
            _fail(s.k, f"evaluation cost {s.evals_iter}, expected {want}")
        total += s.evals_iter
        if s.evals_total != total:
            _fail(s.k, f"evals_total {s.evals_total}, the ledger gives {total}")
    total += record.termination_evals
    if total != record.total_evals:
        raise AuditFailure(f"evaluation ledger off: start + iters + trailing = {total}, trace has {record.total_evals}")
    if record.total_evals > p.budget.max_evals:
        raise AuditFailure("budget exceeded")
    partial = 1 if record.termination_evals else 0
    if record.total_evals > (n + 1) * (len(snaps) + partial) + 1:
        raise AuditFailure("per-iteration evaluation bound violated")

    floor_checked = _audit_radius_floor(record, analytic)
    _audit_end(record)
    return floor_checked


def _audit_radius_floor(record: RunRecord, analytic: BenchmarkProblem | None) -> bool:
    p, snaps = record.params, record.iterations
    if analytic is None or not snaps:
        return False
    lo, hi = analytic.jacobian_box
    if all(lo - 1e-12 <= s.x.min() and s.x.max() <= hi + 1e-12 for s in snaps):
        psis = [psi(analytic, s.x, p.p, p.delta_star) for s in snaps]
        if min(psis) > p.epsilon:
            floor = delta_min(p, analytic.lipschitz_jacobian)
            for s in snaps:
                if s.delta < floor:
                    _fail(s.k, f"delta {s.delta:.6e} fell under the floor {floor:.6e}")
            return True
    return False


def _audit_end(record: RunRecord) -> None:
    """The run's end against its last snapshot: where it stopped, and
    why.  The solve loop stops itself at three places: after a snapshot
    whose update brought the radius to ``stop_delta``, at step 1 after
    the n evaluations of a model whose eta reached ``stop_eta``, and
    before an evaluation group that would pass the budget.  An oracle or
    numerical failure can stop it anywhere."""
    p, n, snaps = record.params, record.n, record.iterations
    last = snaps[-1] if snaps else None
    term, trailing = record.termination, record.termination_evals

    # the iterate moves only on a success, to a trial point with lower f,
    # and no evaluated f lies under the best
    if last is None:
        start_f = record.best_f[0] if record.best_f else math.inf
        if record.final_f != start_f:
            raise AuditFailure(f"final_f {record.final_f!r} is not the start's f {start_f!r}")
    elif last.cls is IterationClass.SUCCESS:
        if not record.best_f[-1] <= record.final_f < last.f:
            _fail(last.k, f"final_f {record.final_f!r} outside [best f, the success's f) = "
                          f"[{record.best_f[-1]!r}, {last.f!r})")
        # the trial point is x + d, and the subproblem lets ||d||_p pass
        # delta by FEAS_TOL * 1e3 at most; the two roundings of x + d - x
        # add at most a few ulps of each coordinate
        moved = norm(record.final_x - last.x, p.p)
        reach = last.delta + FEAS_TOL * 1e3
        reach += 4.0 * MACHINE_EPS * norm(np.abs(last.x) + np.abs(record.final_x), p.p)
        if moved > reach:
            _fail(last.k, f"final_x lies {moved!r} from the success's x, beyond its radius {last.delta!r}")
    elif record.final_f != last.f or np.any(record.final_x != last.x):
        _fail(last.k, "final_x or final_f is not the iterate of the last iteration")

    # the run stops at the first non-U1 iteration whose radius update
    # reaches stop_delta, and only there
    floored = [s.k for s in snaps
               if s.cls is not IterationClass.U1 and _updated(s, p.delta_star)[1] <= p.stop_delta]
    if floored and floored[0] != last.k:
        _fail(floored[0], f"the radius reached stop_delta = {p.stop_delta!r}, yet the run went on")
    if floored and term is not Termination.DELTA_FLOOR:
        _fail(last.k, f"the radius reached stop_delta = {p.stop_delta!r}, yet the run ended {term.value}")
    if term is Termination.DELTA_FLOOR and not floored:
        raise AuditFailure(f"delta_floor, yet no radius update reached stop_delta = {p.stop_delta!r}")
    if term is Termination.DELTA_FLOOR and trailing:
        raise AuditFailure(f"delta_floor after {trailing} trailing evaluations, not 0")

    # the next iteration enters where the last snapshot sends it, and its
    # groups are a model's n evaluations (step 1 only), then the trial
    entry = "step3" if last is not None and last.cls is IterationClass.U2 else "step1"
    if term is Termination.ETA_FLOOR and (entry, trailing) != ("step1", n):
        raise AuditFailure(f"eta_floor at {entry} after {trailing} trailing evaluations, "
                           f"not at step1 after n = {n}")
    if term is Termination.BUDGET_EXHAUSTED:
        if trailing == 0:
            group = n if entry == "step1" else 1
        elif (entry, trailing) == ("step1", n):
            group = 1
        else:
            raise AuditFailure(f"budget_exhausted at {entry} after {trailing} trailing evaluations")
        if record.total_evals + group <= p.budget.max_evals:
            raise AuditFailure(f"budget_exhausted, yet the next {group} evaluations fit: "
                               f"{record.total_evals} + {group} <= max_evals = {p.budget.max_evals}")


def _classify(s, eps_half, alpha, sqrt_n) -> IterationClass:
    if s.entered_at == "step1" and s.eta < eps_half:
        return IterationClass.U1
    if s.rho is not None and s.rho >= alpha:
        return IterationClass.SUCCESS
    if s.tau * sqrt_n <= s.delta / 2.0:
        return IterationClass.U2
    return IterationClass.U3


def _updated(s, delta_star):
    if s.cls is IterationClass.U1:
        return s.tau / 2.0, s.delta
    if s.cls is IterationClass.SUCCESS:
        return s.tau, min(2.0 * s.delta, delta_star)
    if s.cls is IterationClass.U2:
        return s.tau, s.delta / 2.0
    return s.tau / 2.0, s.delta / 2.0


def _expected_cost(s, n) -> int:
    if s.cls is IterationClass.U1:
        return n
    return (n + 1) if s.entered_at == "step1" else 1
