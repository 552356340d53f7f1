"""Reference computations for tests and trace audits.

Nothing here is used by the solve loop itself.  The point of this
module is independence: the stationarity measure is recomputed from an
analytic Jacobian, model minima are recovered by brute-force grids, and
recorded traces are replayed against the update rules, so that a bug in
the fast path cannot hide behind itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FeasibleRegion, OuterFunction, PNorm, eval_h, norm_constants
from .jacobian import build_jacobian
from .solver import IterationClass, RunRecord, TrfdParams
from .subproblem import BRACKET_RTOL, ETA_SNAP, UnsupportedNorm, reformulate, solve_tr_subproblem

GRID_POINT_CAP = 50_000_000


class DimensionTooLarge(Exception):
    """Grid oracles are restricted to n <= 3."""


class AuditFailure(Exception):
    """A recorded trace violates an invariant; the message names the
    first offending iteration."""


@dataclass
class AnalyticProblem:
    """A benchmark instance with a closed-form Jacobian certificate.

    ``lipschitz_jacobian`` bounds the Jacobian's Lipschitz constant on
    ``box`` (per-coordinate low/high arrays); the bound is derived by
    bounding second derivatives analytically and is only trusted inside
    that box.
    """

    problem: object
    jacobian: object  # callable x -> (m, n) array
    lipschitz_jacobian: float
    box: tuple

    def in_box(self, x) -> bool:
        lo, hi = self.box
        return bool(np.all(x >= np.asarray(lo) - 1e-12) and np.all(x <= np.asarray(hi) + 1e-12))


def psi(ap: AnalyticProblem, x, p: PNorm, r: float) -> float:
    """Stationarity measure using the analytic Jacobian.

    For p in {1, inf} this is the exact constrained model minimum via
    the LP machinery.  For p = 2 only the single-residual minimax case
    over an unconstrained region is supported; there the model minimum
    over the Euclidean ball has the closed form F(x) - r * ||grad||_2,
    and the measure is evaluated from it without algebraic
    simplification so rounding behaves like any other route.
    """
    prob = ap.problem
    x = np.asarray(x, dtype=float)
    J = np.asarray(ap.jacobian(x), dtype=float)
    F_x = prob.oracle.eval_F(x)
    if p is PNorm.TWO:
        if prob.m != 1 or prob.h is not OuterFunction.MINIMAX or not prob.region.is_unconstrained:
            raise UnsupportedNorm("p=2 stationarity needs m=1, minimax h, unconstrained region")
        base = eval_h(prob.h, F_x)
        model_min = base - r * float(np.linalg.norm(J[0]))
        return (base - model_min) / r
    return solve_tr_subproblem(reformulate(prob.h, F_x, J, prob.region, x, p, r)).eta


def eta_bruteforce(
    h: OuterFunction,
    F_x,
    A,
    region: FeasibleRegion,
    x,
    p: PNorm,
    r: float,
    resolution: float = 1e-3,
) -> float:
    """Grid minimum of the model over the feasible p-ball, in eta form.

    The lattice is uniform with the stated resolution and always
    includes the p-ball's boundary vertices, so the oracle cannot miss
    a vertex optimum by discretization alone.
    """
    F_x = np.asarray(F_x, dtype=float)
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    m, n = A.shape
    if n > 3:
        raise DimensionTooLarge(f"grid oracle supports n <= 3, got n={n}")
    if p not in (PNorm.ONE, PNorm.INF):
        raise UnsupportedNorm("grid oracle supports p in {1, inf}")

    steps = int(round(2 * r / resolution))
    if (steps + 1) ** n > GRID_POINT_CAP:
        raise DimensionTooLarge("resolution too fine for this radius")
    axis = np.linspace(-r, r, steps + 1)

    if n == 2:
        # the hot path: sweep the first coordinate and vectorize over the
        # second instead of materializing the full mesh
        best = np.inf
        feasible_cols = _feasible_axis_mask(axis, region, x, 1)
        mask0 = _feasible_axis_mask(axis, region, x, 0)
        extra = [row for row in region.linear_ineq]
        for i, d0 in enumerate(axis):
            if not mask0[i]:
                continue
            if p is PNorm.ONE:
                half = r * (1 + 1e-12) - abs(d0)
                if half < 0:
                    continue
                sel = np.abs(axis) <= half
                sel &= feasible_cols
            else:
                sel = feasible_cols.copy()
            for a, b in extra:
                sel &= a[0] * (x[0] + d0) + a[1] * (x[1] + axis) <= b + 1e-12
            if not sel.any():
                continue
            d1 = axis[sel]
            z = np.multiply.outer(A[:, 1], d1)
            z += (F_x + A[:, 0] * d0)[:, None]
            if h is OuterFunction.L1:
                np.abs(z, out=z)
                cand = z.sum(axis=0).min()
            else:
                cand = z.max(axis=0).min()
            best = min(best, float(cand))
        if not np.isfinite(best):
            raise ValueError("no feasible grid points")
    else:
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        D = np.stack([g.ravel() for g in mesh], axis=1)
        if p is PNorm.ONE:
            inside = np.abs(D).sum(axis=1) <= r * (1 + 1e-12)
        else:
            inside = np.abs(D).max(axis=1) <= r * (1 + 1e-12)
        D = D[inside]
        lo = region.lower - x
        hi = region.upper - x
        keep = np.all((D >= lo - 1e-12) & (D <= hi + 1e-12), axis=1)
        for a, b in region.linear_ineq:
            keep &= D @ a <= (b - float(a @ x)) + 1e-12
        D = D[keep]
        if D.shape[0] == 0:
            raise ValueError("no feasible grid points")
        Z = F_x[None, :] + D @ A.T
        vals = np.abs(Z).sum(axis=1) if h is OuterFunction.L1 else Z.max(axis=1)
        best = float(vals.min())

    # boundary vertices of the p-ball, so a vertex optimum cannot be
    # missed by discretization
    if p is PNorm.ONE:
        verts = np.vstack([r * np.eye(n), -r * np.eye(n)])
    else:
        verts = np.stack(np.meshgrid(*([[-r, r]] * n), indexing="ij"), axis=-1).reshape(-1, n)
    for v in verts:
        if not region.contains(x + v, tol=1e-12):
            continue
        best = min(best, eval_h(h, F_x + A @ v))

    return (eval_h(h, F_x) - best) / r


def _feasible_axis_mask(axis, region, x, coord) -> np.ndarray:
    lo = region.lower[coord] - x[coord]
    hi = region.upper[coord] - x[coord]
    return (axis >= lo - 1e-12) & (axis <= hi + 1e-12)


def check_psi_eta_gap(ap: AnalyticProblem, x, p: PNorm, r: float, tau: float) -> bool:
    """Gap between the true and finite-difference measures against its bound.

    Builds the model at stepsize tau on a throwaway evaluation path (the
    analytic problem's oracle counter is test scratch space) and checks

        |psi - eta| <= (L_h * L_J * c_p2 * c_2p * sqrt(n) / 2) * tau

    with a 1 + 1e-6 rounding allowance.
    """
    prob = ap.problem
    x = np.asarray(x, dtype=float)
    F_x = prob.oracle.eval_F(x)
    A = build_jacobian(prob.oracle.eval_F, x, F_x, tau)
    eta = solve_tr_subproblem(reformulate(prob.h, F_x, A, prob.region, x, p, r)).eta
    psi_val = psi(ap, x, p, r)
    consts = norm_constants(p, prob.n, prob.m)
    lip = prob.h.lipschitz(p, prob.m)
    bound = lip * ap.lipschitz_jacobian * consts.cp2_m * consts.c2p_n * math.sqrt(prob.n) / 2 * tau
    return abs(psi_val - eta) <= bound * (1 + 1e-6)


def delta_min(params: TrfdParams, consts, L_J: float) -> float:
    """Theoretical floor on the trust-region radius while the iterate is
    epsilon-nonstationary:

        (1 - alpha) * theta * epsilon
        -----------------------------------------------
        4 * L_h * max(sigma, L_J) * c_p2 * c_2p^2
    """
    return ((1 - params.alpha) * params.theta * params.epsilon) / (
        4.0 * params.lipschitz_h * max(params.sigma, L_J) * consts.cp2_m * consts.c2p_n**2
    )


@dataclass
class AuditReport:
    ok: bool
    iterations: int
    checks: list
    delta_min_applicable: bool = False
    delta_min_value: float | None = None

    def summary(self) -> str:
        lines = [f"audit: {'ok' if self.ok else 'FAILED'} ({self.iterations} iterations)"]
        lines += [f"  [x] {name}" for name in self.checks]
        if self.delta_min_applicable:
            lines.append(f"  [x] radius floor {self.delta_min_value:.6e} respected")
        return "\n".join(lines)


def audit_trace(record: RunRecord, analytic: AnalyticProblem | None = None) -> AuditReport:
    """Replay a trace against every recorded-state invariant.

    Raises AuditFailure naming the first violated invariant and the
    iteration index.  When an analytic certificate is supplied and the
    true stationarity measure stays above epsilon along the whole trace
    (with every iterate inside the certificate box), the radius floor is
    enforced as well.
    """
    p = record.params
    n = record.n
    sqrt_n = math.sqrt(n)
    eps_half = p.epsilon / 2.0
    snaps = record.iterations
    checks = []

    def fail(k, message):
        raise AuditFailure(f"iteration {k}: {message}")

    for s in snaps:
        if s.tau * sqrt_n > s.delta:
            fail(s.k, f"tau*sqrt(n) = {s.tau * sqrt_n:.6e} exceeds delta = {s.delta:.6e}")
    checks.append("stepsize/radius coupling tau*sqrt(n) <= delta")

    for s in snaps:
        cls = _classify(s, eps_half, p.alpha, sqrt_n)
        if cls is not s.cls:
            fail(s.k, f"recorded class {s.cls.value}, derived {cls.value}")
    checks.append("iteration classes re-derived from (eta, rho, tau, delta)")

    for prev, cur in zip(snaps, snaps[1:]):
        if cur.k != prev.k + 1:
            fail(cur.k, "iteration index gap")
        tau_want, delta_want = _updated(prev, p.delta_star)
        if cur.tau != tau_want:
            fail(cur.k, f"tau {cur.tau!r} != replayed {tau_want!r}")
        if cur.delta != delta_want:
            fail(cur.k, f"delta {cur.delta!r} != replayed {delta_want!r}")
        if prev.cls is IterationClass.U2 and cur.entered_at != "step3":
            fail(cur.k, "iteration after U2 did not re-enter at step 3")
        if prev.cls is not IterationClass.U2 and cur.entered_at != "step1":
            fail(cur.k, "iteration after non-U2 did not enter at step 1")
        if prev.cls is IterationClass.U2 and (
            (cur.eta, cur.eta_upper, cur.eta_radius) != (prev.eta, prev.eta_upper, prev.eta_radius)
        ):
            fail(cur.k, "inherited eta, eta_upper or eta_radius changed across a U2 re-entry")
    checks.append("tau/delta update rules replay bitwise")

    # a bracket [eta, eta_upper] on eta(Delta*) stands in for the Delta*
    # LP only when its lower end rules out U1 and eta_floor with margin.
    # Its lower end is psi(rho)/Delta* and its upper end psi(delta)/delta:
    # at rho = delta both describe the same psi(delta); further out, psi's
    # concavity bounds psi(rho) by rho psi(delta)/delta
    skip_floor = 2.0 * max(ETA_SNAP, p.stop_eta, eps_half)
    for s in snaps:
        if (s.eta_upper is None) != (s.eta_radius is None):
            fail(s.k, f"eta_upper {s.eta_upper!r} and eta_radius {s.eta_radius!r} must be set together")
        if s.eta_upper is None or s.entered_at != "step1":
            continue
        if s.cls is IterationClass.U1:
            fail(s.k, "a U1 iteration took eta from a bracket")
        if not s.eta > skip_floor:
            fail(s.k, f"bracketed eta {s.eta!r} does not clear {skip_floor!r}")
        if not (s.delta < p.delta_star and s.eta <= s.eta_upper):
            fail(s.k, f"bracket needs delta < Delta* and eta <= eta_upper: {s.delta!r}, {s.eta!r}, {s.eta_upper!r}")
        rho = s.eta_radius
        if rho == s.delta:
            psi_lower, psi_upper = s.eta * p.delta_star, s.eta_upper * s.delta
            if abs(psi_upper - psi_lower) > BRACKET_RTOL * psi_upper:
                fail(s.k, f"bracket ends disagree: eta*Delta* = {psi_lower!r}, eta_upper*delta = {psi_upper!r}")
            continue
        if not (s.delta <= rho <= p.delta_star):
            fail(s.k, f"eta_radius {rho!r} outside [delta, Delta*] = [{s.delta!r}, {p.delta_star!r}]")
        psi_rho, bound = s.eta * p.delta_star, s.eta_upper * (1.0 + BRACKET_RTOL) * rho
        if psi_rho > bound:
            fail(s.k, f"bracket breaks concavity: eta*Delta* = {psi_rho!r} > eta_upper*(1 + rtol)*rho = {bound!r}")
    checks.append("eta brackets clear the U1/eta_floor threshold and obey psi's concavity")

    for prev, cur in zip(snaps, snaps[1:]):
        if cur.f > prev.f:
            fail(cur.k, f"objective increased: {prev.f!r} -> {cur.f!r}")
        if prev.cls is not IterationClass.SUCCESS and (
            cur.f != prev.f or np.any(cur.x != prev.x)
        ):
            fail(cur.k, "iterate moved on a non-success iteration")
    checks.append("objective monotone; iterate moves only on success")

    bf = record.best_f
    if len(bf) != record.total_evals:
        raise AuditFailure("best-f trajectory length != total evaluations")
    if any(b > a for a, b in zip(bf, bf[1:])):
        raise AuditFailure("best-f trajectory increases")
    checks.append("best-f trajectory complete and nonincreasing")

    for s in snaps:
        want = _expected_cost(s, n)
        if s.evals_iter != want:
            fail(s.k, f"evaluation cost {s.evals_iter}, expected {want}")
    # the start evaluation is in the ledger unless it failed
    start = min(1, record.total_evals)
    total = start + sum(s.evals_iter for s in snaps) + record.termination_evals
    if total != record.total_evals:
        raise AuditFailure(
            f"evaluation ledger off: start {start} + iters + trailing = {total}, trace has {record.total_evals}"
        )
    if record.total_evals > p.budget.max_evals:
        raise AuditFailure("budget exceeded")
    partial = 1 if record.termination_evals else 0
    if record.total_evals > (n + 1) * (len(snaps) + partial) + 1:
        raise AuditFailure("per-iteration evaluation bound violated")
    checks.append("per-class evaluation costs and budget")

    report = AuditReport(ok=True, iterations=len(snaps), checks=checks)

    if analytic is not None and snaps and all(analytic.in_box(s.x) for s in snaps):
        psis = [psi(analytic, s.x, p.p, p.delta_star) for s in snaps]
        if min(psis) > p.epsilon:
            floor = delta_min(p, p.consts, analytic.lipschitz_jacobian)
            for s in snaps:
                if s.delta < floor:
                    fail(s.k, f"delta {s.delta:.6e} fell under the floor {floor:.6e}")
            report.delta_min_applicable = True
            report.delta_min_value = floor
    return report


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
