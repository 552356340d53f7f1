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

The LP's shape depends on h, the region, p and the dimensions alone.
The model (F(x), A and x) fills its model rows and the right-hand sides
of the region's rows, and the radius moves only bounds (p = inf) or one
right-hand side (p = 1).  So one LP serves a whole run: ``reformulate``
assembles it for the first model, ``set_model`` writes each later model
into it in place, and ``set_radius`` moves it to another radius.  The
LP keeps the basis of its last solve through both, so each solve
restarts the simplex from the basis the solve before left, even the
previous model's, falling back to the d = 0 crash when that basis is no
longer feasible.  Which sides of the region's box are finite is the
region's own ``sides``, which no model or radius changes: ``set_model``'s
p = 1 side rows, ``set_radius``'s p = inf bounds, the step's region check
and the ray walk all skip the box when it has no finite side.

The model decrease psi(r) = r * eta(r) is concave and nondecreasing in
r with psi(0) = 0, so one solve at a radius r brackets eta at any larger
radius R:  psi(rho)/R <= eta(R) <= psi(r)/r for every rho in [r, R].
``eta_bracket`` reads psi(rho) at the step (rho = r) or further along
its ray, and returns the bracket when its lower end alone decides the
outer method's tests, so the LP at R need not be solved.  ``eta_at``
returns that bracket, or else solves the LP at R and gives it back the
step's simplex state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MACHINE_EPS, FeasibleRegion, OuterFunction, PNorm, eval_h, norm
from .simplex import LinearProgram, NumericalTrouble, SimplexResult, solve_lp

# eta within this of zero is snapped to zero to keep the criticality
# test free of sign noise
ETA_SNAP = 1e-12
FEAS_TOL = 1e-9
# the two ends of an eta bracket read psi at the step and at the step
# pulled into the ball; a bracket whose ends disagree by more than this
# is not returned
BRACKET_RTOL = 1e-6


@dataclass
class TrustRegionLP:
    """The subproblem LP plus the layout needed to read it back;
    ``set_model`` writes another model into it and ``set_radius`` moves
    it to another radius."""

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

    def set_model(self, F_x, A, x) -> None:
        """Write the model h(F_x + A d) at x into the LP in place, then
        call ``set_radius``; the LP keeps its last basis, not its reduced
        costs."""
        F_x = np.asarray(F_x, dtype=float)
        A = np.asarray(A, dtype=float)
        x = np.asarray(x, dtype=float)
        if A.shape != self.A.shape or F_x.shape != self.F_x.shape or x.shape != self.x.shape:
            raise ValueError("dimension mismatch")
        m, n = A.shape
        rows, rhs = self.lp.rows, self.lp.rhs
        # the model rows over z, with d = z (p = inf) or d = u - v
        # (p = 1, z = (u, v)): A d - t <= -F, and for L1 also -A d - t <= F
        rows[:m, :n] = A
        nz = n
        if self.p is PNorm.ONE:
            rows[:m, n : 2 * n] = -A
            nz = 2 * n
        rhs[:m] = -F_x
        if self.h is OuterFunction.L1:
            rows[m : 2 * m, :nz] = -rows[:m, :nz]
            rhs[m : 2 * m] = F_x
            self.start[nz:] = np.abs(F_x)
            k = 2 * m
        else:
            self.start[nz:] = np.maximum.reduce(F_x)
            k = m
        # then, for p = 1, the radius row and each finite box side, and
        # the region's linear rows
        g = [b - float(a @ x) for a, b in self.region.linear_ineq]
        if self.p is PNorm.ONE:
            if self.region.bounded:
                box = np.array([self.region.upper - x, x - self.region.lower]).T.ravel()
                g = np.concatenate([box[self.region.sides], g])
            k += 1
        rhs[k:] = g
        self.F_x, self.A, self.x = F_x, A, x
        self.base_value = eval_h(self.h, F_x)
        self.lp.reduced = None

    def set_radius(self, r: float) -> None:
        """Move the trust region to radius r; the LP keeps its last basis."""
        if r <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(r)
        if self.p is PNorm.INF:
            # the trust region and the box are the d columns' bounds
            lower, upper = -r, r
            if self.region.bounded:
                lower = np.maximum(lower, self.region.lower - self.x)
                upper = np.minimum(upper, self.region.upper - self.x)
            self.lp.lower[: self.x.size] = lower
            self.lp.upper[: self.x.size] = upper
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
    F_x = np.asarray(F_x, dtype=float)
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    m, n = A.shape
    if F_x.shape != (m,) or x.shape != (n,):
        raise ValueError("dimension mismatch")

    # d = E z with E = I (p = inf) or [I, -I] (p = 1, z = (u, v)).  The
    # model block over [z | t] and the region's right-hand sides are left
    # to set_model; here are the t columns and the rows on z alone: for
    # p = 1 the radius row sum(u + v) <= r and each finite box side as a
    # row (upper, then lower, per coordinate), for p = inf the box is in
    # z's bounds; then the region's rows.
    G = np.array([a for a, _ in region.linear_ineq]).reshape(-1, n)
    if p is PNorm.INF:
        z_lo = z_hi = np.zeros(n)  # set by set_radius
        z_rows = G
    else:
        z_lo, z_hi = np.zeros(2 * n), np.full(2 * n, np.inf)
        sides = (np.eye(n)[:, None, :] * [[1.0], [-1.0]]).reshape(2 * n, n)[region.sides]
        GE = np.concatenate([sides, G])
        z_rows = np.concatenate([np.ones((1, 2 * n)), np.concatenate([GE, -GE], axis=1)])
    nz = z_lo.size
    if h is OuterFunction.L1:
        minus_t = -np.eye(m)
        t_cols = np.concatenate([minus_t, minus_t])
        t_lo, t_hi = np.zeros(m), np.full(m, np.inf)
    else:
        t_cols = np.full((m, 1), -1.0)
        t_lo, t_hi = np.array([-np.inf]), np.array([np.inf])
    nt = t_lo.size
    model = np.concatenate([np.zeros((t_cols.shape[0], nz)), t_cols], axis=1)

    lp = LinearProgram(
        c=np.concatenate([np.zeros(nz), np.ones(nt)]),
        rows=np.concatenate([model, np.concatenate([z_rows, np.zeros((len(z_rows), nt))], axis=1)]),
        rhs=np.zeros(len(model) + len(z_rows)),
        lower=np.concatenate([z_lo, t_lo]),
        upper=np.concatenate([z_hi, t_hi]),
    )
    tr = TrustRegionLP(
        lp=lp, h=h, p=p, F_x=F_x, A=A, region=region, x=x, base_value=0.0, start=np.zeros(nz + nt),
    )
    tr.set_model(F_x, A, x)
    tr.set_radius(r)
    return tr


def solve_tr_subproblem(tr: TrustRegionLP) -> SubproblemSolution:
    """Solve the subproblem at ``tr``'s radius.  A re-solve of the same
    ``tr`` restarts from the basis its LP kept from the last solve."""
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


def eta_bracket(tr: TrustRegionLP, sol: SubproblemSolution, r_ref: float, floor: float):
    """Bounds ``(lower, upper, rho)`` on eta at a radius ``r_ref`` above
    ``tr``'s radius delta, from ``sol``, the solve at delta; None unless
    the lower end, less rounding, exceeds ``2 * floor``.

    psi(r) = h(F) - min over the feasible r-ball of h(F + A d) is concave
    and nondecreasing with psi(0) = 0 (Yuan 1985, Math. Prog. 31;
    Cartis, Gould and Toint 2011, SIAM J. Optim. 21, Lemma 2.1), so
    psi(rho)/r_ref <= eta(r_ref) <= psi(delta)/delta for any rho in
    [delta, r_ref].  The upper end reads psi(delta) from the LP.  The
    lower end reads the decrease at a feasible point of a rho-ball,
    which psi(rho) is at least.  It tries the step pulled into the ball
    first (rho = delta): ``_check_solution`` lets the step overshoot it
    slightly, and the region is convex and holds x, so the pulled-in
    step is feasible.  Its decrease must agree with the LP's within
    BRACKET_RTOL, as two readings of psi(delta).  Otherwise it reads
    the model along the step's ray, at rho times the step's unit
    direction for rho = 4^k delta and rho = r_ref, capped where the ray
    leaves the region, and takes the largest decrease that clears the
    threshold.  There the upper end adds the rounding allowance of its
    reading.  A ray point whose lower end exceeds the upper end, or that
    breaks psi(rho)/rho <= psi(delta)/delta, the concavity the audit
    checks, is never taken.
    """
    r = tr.radius
    F, A, base = tr.F_x, tr.A, tr.base_value
    d = sol.d_star
    size = norm(d, tr.p)
    # a step inside the ball reads psi(delta) as the LP read it
    psi_upper = psi_lower = base - sol.model_value
    if size > r:
        d = d * (r / size)
        psi_lower = base - eval_h(tr.h, F + A @ d)
        psi_upper = max(psi_lower, psi_upper)
    # h(F) and h(F + A d) are sums or maxima of m entries, each entry F_i
    # plus n products, so each is off by at most (m + n + 1) u times
    # sum(|F| + |A||d|), u the machine epsilon (Higham 2002, sec. 3.1);
    # twice that covers the difference, and twice again leaves slack.  The
    # allowance grows with the residuals and with the step while the
    # threshold stays absolute, so at residuals x1e8 a decrease that is
    # rounding noise of that size never clears it.
    m, n = A.shape
    unit = 4 * (m + n + 1) * MACHINE_EPS
    spread_F, col_A = float(np.add.reduce(np.abs(F))), np.add.reduce(np.abs(A), axis=0)
    allowance = unit * (spread_F + float(col_A @ np.abs(d)))
    if (psi_lower - allowance) / r_ref > 2.0 * floor and psi_lower >= (1.0 - BRACKET_RTOL) * psi_upper:
        return psi_lower / r_ref, psi_upper / r, r
    if size == 0.0:
        return None
    # psi(delta) read this small may be rounding itself, down to 0 where
    # the ray proves a decrease, so on the ray the upper end adds the
    # reading's allowance
    upper = (psi_upper + allowance) / r
    u = sol.d_star / size
    grid = r * 4.0 ** np.arange(1.0, np.ceil(np.log(r_ref / r) / np.log(4.0)))
    rho = np.minimum(np.concatenate([grid[grid < r_ref], [r_ref]]), _ray_length(tr, u))
    # rho is nondecreasing: keep the first of each run of equal radii past r
    keep = rho > r
    keep[1:] &= rho[1:] != rho[:-1]
    rho = rho[keep]
    Z = F + rho[:, None] * (A @ u)
    if tr.h is OuterFunction.L1:
        psi = base - np.add.reduce(np.abs(Z), axis=1)
    else:
        psi = base - np.maximum.reduce(Z, axis=1)
    lower = psi / r_ref
    certified = (psi - unit * (spread_F + rho * float(col_A @ np.abs(u)))) / r_ref > 2.0 * floor
    certified &= (lower <= upper) & (lower * r_ref <= upper * (1.0 + BRACKET_RTOL) * rho)
    if not np.logical_or.reduce(certified):
        return None
    k = int(np.where(certified, psi, -np.inf).argmax())
    return float(lower[k]), upper, float(rho[k])


def eta_at(tr: TrustRegionLP, sol: SubproblemSolution, r_ref: float, floor: float):
    """``(eta, eta_upper, eta_radius)`` at ``r_ref``: ``eta_bracket``'s
    bracket from ``sol``, the solve at ``tr``'s radius, or else the exact
    eta and two Nones.  The exact solve leaves ``tr`` at ``r_ref`` with
    the step's basis and reduced costs, exact for the same model, so the
    next solve at a step radius restarts from them."""
    bracket = eta_bracket(tr, sol, r_ref, floor)
    if bracket is not None:
        return bracket
    lp = tr.lp
    kept = lp.basic, lp.at_upper, lp.reduced
    tr.set_radius(r_ref)
    eta = solve_tr_subproblem(tr).eta
    lp.basic, lp.at_upper, lp.reduced = kept
    return eta, None, None


def _ray_length(tr: TrustRegionLP, u: np.ndarray) -> float:
    """The largest t with x + t u in ``tr``'s region, by a ratio test over
    the finite box sides and the linear rows; inf when the ray stays in
    it, as it does in a region with no finite side and no row."""
    region, x = tr.region, tr.x
    t = math.inf
    if region.bounded:
        up, down = u > 0, u < 0
        t = min(
            ((region.upper[up] - x[up]) / u[up]).min(initial=np.inf),
            ((region.lower[down] - x[down]) / u[down]).min(initial=np.inf),
        )
    for a, b in region.linear_ineq:
        slope = float(a @ u)
        if slope > 0:
            t = min(t, (b - float(a @ x)) / slope)
    return float(t)


def _check_solution(tr, d, model_value, result: SimplexResult) -> None:
    # abort threshold is 1e-6 absolute on constraint residuals; the LP
    # works in absolute arithmetic, so at tiny radii the step may
    # overshoot the ball by rounding-level amounts without being wrong
    abort = FEAS_TOL * 1e3
    r = tr.radius
    if norm(d, tr.p) - r > abort:
        raise NumericalTrouble("step left the trust region")
    if not tr.region.contains(tr.x + d, abort):
        raise NumericalTrouble("step left the feasible region")
    # the LP objective and the recomputed model must agree
    scale = 1.0 + abs(tr.base_value)
    if abs(result.objective - model_value) > 1e-7 * scale:
        raise NumericalTrouble("LP objective inconsistent with model value")
    # exact solve: the model never increases over d = 0
    if model_value > tr.base_value + FEAS_TOL * scale:
        raise NumericalTrouble("model value exceeds the base value")
