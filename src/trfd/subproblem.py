"""Trust-region subproblem via linear programming.

Each iteration minimizes the linearized composite model

    h(F(x) + A d)   subject to   ||d||_p <= r,  x + d feasible,

for h in {L1, minimax} and p in {1, inf}.  Both cases reduce exactly to
a linear program:

  * h = L1:      auxiliary t in R^m,  min sum(t)  s.t.  -t <= F + A d <= t
  * h = minimax: scalar t,            min t       s.t.  F + A d <= t 1
  * p = inf:     -r <= d <= r as variable bounds
  * p = 1:       d = u - v with u, v >= 0 and sum(u + v) <= r
  * region:      bound rows lower - x <= d <= upper - x and a.d <= b - a.x

Every row is a <= row, and d = 0 is always feasible, so the LP optimum
exists and never exceeds h(F(x)).  That point, with t = |F(x)| (L1) or
t = max F(x) (minimax), is the feasible start the simplex requires; it
crashes its first basis from it.  The normalized model decrease

    eta = (h(F(x)) - model optimum) / r

is the approximate stationarity measure that drives the outer method.

The LP's rows and columns depend on h, F(x), A, the region, x and p, and
the radius moves only bounds (p = inf) or one right-hand side (p = 1).
So ``reformulate`` assembles the LP of one model once, ``set_radius``
moves it to another radius, and ``solve_tr_subproblem`` on it again
restarts the simplex from the basis its last solve left, falling back
to the d = 0 crash when that basis is no longer feasible.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .core import FeasibleRegion, OuterFunction, PNorm, eval_h, norm
from .simplex import LinearProgram, NumericalTrouble, SimplexResult, solve_lp, to_mps

# eta within this of zero is snapped to zero to keep the criticality
# test free of sign noise
ETA_SNAP = 1e-12
FEAS_TOL = 1e-9

# if set, every LP solved here is dumped in MPS form into the directory;
# file names carry the process id, so pool workers never collide
DUMP_ENV = "TRFD_LP_DUMP"
_dump_counter = 0


class UnsupportedNorm(Exception):
    """p = 2 subproblems have no linear reformulation and are rejected."""


@dataclass
class TrustRegionLP:
    """The subproblem LP of one model plus the layout needed to read it
    back; ``set_radius`` moves it to another radius."""

    lp: LinearProgram
    h: OuterFunction
    p: PNorm
    F_x: np.ndarray
    A: np.ndarray
    region: FeasibleRegion
    x: np.ndarray
    base_value: float
    # the LP point of d = 0, feasible by construction
    start: np.ndarray
    radius: float = field(init=False)

    def set_radius(self, r: float) -> None:
        """Move the trust region to radius r; the LP keeps its last basis."""
        if r <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(r)
        if self.p is PNorm.INF:
            # the trust region and the box are the d columns' bounds
            self.lp.lower[: self.x.size] = np.maximum(-r, self.region.lower - self.x)
            self.lp.upper[: self.x.size] = np.minimum(r, self.region.upper - self.x)
        else:
            # sum(u + v) <= r is the first row after the model rows
            self.lp.rhs[self.F_x.size * (2 if self.h is OuterFunction.L1 else 1)] = r

    def extract_d(self, x_lp: np.ndarray) -> np.ndarray:
        n = self.x.size
        if self.p is PNorm.INF:
            return x_lp[:n]
        return x_lp[:n] - x_lp[n : 2 * n]


@dataclass
class SubproblemSolution:
    d_star: np.ndarray
    model_value: float
    eta: float


def reformulate(
    h: OuterFunction,
    F_x: np.ndarray,
    A: np.ndarray,
    region: FeasibleRegion,
    x: np.ndarray,
    p: PNorm,
    r: float,
) -> TrustRegionLP:
    if p is PNorm.TWO:
        raise UnsupportedNorm("p=2 subproblems are not linear programs")
    F_x = np.asarray(F_x, dtype=float)
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    m, n = A.shape
    if F_x.shape != (m,) or x.shape != (n,):
        raise ValueError("dimension mismatch")

    shift_lo = region.lower - x
    shift_hi = region.upper - x

    if p is PNorm.INF:
        nd = n
        d_cols = np.eye(n)
        d_lo = d_hi = np.zeros(n)  # set by set_radius
        extra_rows, extra_rhs = [], []
    else:
        nd = 2 * n
        d_cols = np.hstack([np.eye(n), -np.eye(n)])
        d_lo = np.zeros(2 * n)
        d_hi = np.full(2 * n, np.inf)
        extra_rows = [np.ones(2 * n)]
        extra_rhs = [0.0]  # r, set by set_radius
        # finite box bounds become rows in the split formulation
        for j in range(n):
            if np.isfinite(shift_hi[j]):
                extra_rows.append(d_cols[j])
                extra_rhs.append(shift_hi[j])
            if np.isfinite(shift_lo[j]):
                extra_rows.append(-d_cols[j])
                extra_rhs.append(-shift_lo[j])

    Ad = A @ d_cols

    if h is OuterFunction.L1:
        nt = m
        # A d - t <= -F  and  -A d - t <= F
        top = np.hstack([Ad, -np.eye(m)])
        bot = np.hstack([-Ad, -np.eye(m)])
        rows = [top, bot]
        rhs = [-F_x, F_x]
        t_lo = np.zeros(m)
        t_hi = np.full(m, np.inf)
        t_start = np.abs(F_x)
        c = np.concatenate([np.zeros(nd), np.ones(m)])
    else:
        nt = 1
        rows = [np.hstack([Ad, -np.ones((m, 1))])]
        rhs = [-F_x]
        t_lo = np.array([-np.inf])
        t_hi = np.array([np.inf])
        t_start = np.array([np.max(F_x)])
        c = np.concatenate([np.zeros(nd), np.ones(1)])

    for a_row, b_val in zip(extra_rows, extra_rhs):
        rows.append(np.concatenate([a_row, np.zeros(nt)])[None, :])
        rhs.append(np.array([b_val]))
    for a, b_val in region.linear_ineq:
        rows.append(np.concatenate([a @ d_cols, np.zeros(nt)])[None, :])
        rhs.append(np.array([b_val - float(a @ x)]))

    lp = LinearProgram(
        c=c,
        rows=np.vstack(rows),
        rhs=np.concatenate(rhs),
        lower=np.concatenate([d_lo, t_lo]),
        upper=np.concatenate([d_hi, t_hi]),
    )
    tr = TrustRegionLP(
        lp=lp,
        h=h,
        p=p,
        F_x=F_x,
        A=A,
        region=region,
        x=x,
        base_value=eval_h(h, F_x),
        start=np.concatenate([np.zeros(nd), t_start]),
    )
    tr.set_radius(r)
    return tr


def solve_tr_subproblem(tr: TrustRegionLP) -> SubproblemSolution:
    """Solve the subproblem at ``tr``'s radius.  A re-solve of the same
    ``tr`` restarts from the basis its LP kept from the last solve."""
    _maybe_dump(tr)
    result = solve_lp(tr.lp, start=tr.start)
    d = tr.extract_d(result.x)
    model_value = eval_h(tr.h, tr.F_x + tr.A @ d)

    _check_solution(tr, d, model_value, result)

    # the true optimum never exceeds the value at d = 0, so any negative
    # eta that survives the model-vs-base guard is rounding; snapping it
    # to zero keeps the criticality test free of sign noise
    eta = (tr.base_value - model_value) / tr.radius
    if eta <= ETA_SNAP:
        eta = 0.0
    return SubproblemSolution(d_star=d, model_value=model_value, eta=eta)


def _check_solution(tr, d, model_value, result: SimplexResult) -> None:
    # abort threshold is 1e-6 absolute on constraint residuals; the LP
    # works in absolute arithmetic, so at tiny radii the step may
    # overshoot the ball by rounding-level amounts without being wrong
    abort = FEAS_TOL * 1e3
    r = tr.radius
    if norm(d, tr.p) - r > abort:
        raise NumericalTrouble("step left the trust region")
    xt = tr.x + d
    if np.any(xt < tr.region.lower - abort) or np.any(xt > tr.region.upper + abort):
        raise NumericalTrouble("step left the feasible box")
    for a, b in tr.region.linear_ineq:
        if float(a @ xt) > b + abort:
            raise NumericalTrouble("step violated a linear constraint")
    # the LP objective and the recomputed model must agree
    scale = 1.0 + abs(tr.base_value)
    if abs(result.objective - model_value) > 1e-7 * scale:
        raise NumericalTrouble("LP objective inconsistent with model value")
    # exact solve: the model never increases over d = 0
    if model_value > tr.base_value + FEAS_TOL * scale:
        raise NumericalTrouble("model value exceeds the base value")


def _maybe_dump(tr: TrustRegionLP) -> None:
    global _dump_counter
    directory = os.environ.get(DUMP_ENV)
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"tr_lp_{os.getpid()}_{_dump_counter:06d}.mps")
    _dump_counter += 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_mps(tr.lp, name=f"TRLP{_dump_counter - 1}"))
