"""Dense bounded-variable primal simplex for the LPs trfd builds.

Solves  min c.x  subject to  rows a.x <= b  and box bounds
l <= x <= u (either side may be infinite), from a caller's feasible
starting point.  Each row gets a slack variable s >= 0 with a.x + s = b.

An instance holds its LP over all columns, structurals then slacks, as
arrays built once: the matrix [rows | I], and the cost and bounds of
every column (``cost``, ``lo``, ``hi``; a slack costs 0 and lies in
[0, inf)).  ``rows``, ``c``, ``lower`` and ``upper`` are views of their
first columns or entries, so rows and bounds written through them are
the ones every solve reads, and a solve builds no matrix, cost or bound
array of its own.

Every solve enters the pivot loop one way.  Its first pass solves the
basis matrix once with LAPACK for the basics and checks them against
their bounds, within OPT_TOL.  A basis that passes and shows no
improving reduced cost (given, or found by a second LAPACK solve) is
optimal at once, and nothing is inverted; otherwise its inverse is
formed and the loop pivots from it.

An instance also keeps the final basis of its last solve and the reduced
costs that solve's LAPACK confirmation proved for it, and a later solve
restarts from that basis.  Bounds and right-hand sides may change
between solves; so may the rows, when ``reduced`` is then cleared.  The
reduced costs depend on neither bounds nor right-hand sides, so they
stay exact while the rows do not change.  The nonbasics go to the bounds
the basis names, and the first pass's check is the whole test of the
kept basis.  A restart that ends above the start's objective by more
than OPT_TOL, relatively, stopped at a false optimum, since no optimum
lies above a feasible point; it falls back to the crash.

When the check fails, and on a first solve, the first basis is crashed
from the start.  Nonbasic variables start at that point clamped into
their bounds, and every row starts with its slack basic.  A structural
variable the start puts strictly inside its bounds at a nonzero value
then takes the place of the slack of one tight row (implied slack
exactly zero) in which it has a nonzero coefficient.  The start must
satisfy every row within OPT_TOL, so this first basis is feasible and
passes the first pass's check (NumericalTrouble if it ever does not);
a start that does not, or that is NaN, raises NumericalTrouble, on a
restart too.  A crash never ends above the start's objective, since
each pivot lowers it or leaves it.

The subproblems this package generates are small (at most a few hundred
variables) and dense.  Once the loop has inverted a basis, it keeps
the inverse current with a product-form (rank-one) update at each basis
change, inverting afresh every REFACTOR_EVERY changes within a solve.
When the updated inverse shows no improving reduced cost, the basic
values and duals are recomputed by LAPACK solves with the basis matrix
itself and the reduced costs checked again; if one still improves, the
loop goes on from a fresh inverse.  The pricing reads two masks of the
nonbasics, those that may rise and those that may fall from their
value; each solve builds them once and keeps them current at each bound
flip and basis change, and a fixed column, at its bound, is in neither.
Everything is deterministic:
Dantzig pricing with first-index tie-breaking, switching to Bland's
rule once the degenerate-pivot count passes 5 * (rows + columns).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# reduced-cost / feasibility target
OPT_TOL = 1e-9
# a basis-changing pivot with step below this counts as degenerate
DEGEN_TOL = 1e-12
# smallest acceptable pivot element magnitude
PIVOT_TOL = 1e-11
# basis changes between fresh inversions of B
REFACTOR_EVERY = 32


class NumericalTrouble(Exception):
    """The simplex cycled past its safeguard or lost feasibility."""


@dataclass
class LinearProgram:
    """min c.x  s.t.  rows[i].x <= rhs[i],  lower <= x <= upper."""

    c: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    # [rows | I], one slack column per row, and the costs and bounds of
    # all its columns; rows, c, lower and upper are views of their first
    # columns or entries
    augmented: np.ndarray = field(init=False, repr=False)
    cost: np.ndarray = field(init=False, repr=False)
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)
    # the last solve's final basis, where the next solve restarts: the
    # column basic in each row, and per column whether nonbasic at upper
    basic: np.ndarray | None = field(default=None, init=False, repr=False)
    at_upper: np.ndarray | None = field(default=None, init=False, repr=False)
    # the reduced costs of ``basic`` over all columns, as a LAPACK solve
    # proved them; None once the rows have changed since
    reduced: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        nv = c.size
        rows = np.asarray(self.rows, dtype=float).reshape(-1, nv)
        self.rhs = np.asarray(self.rhs, dtype=float)
        nr = self.rhs.size
        if rows.shape[0] != nr:
            raise ValueError("row/rhs length mismatch")
        if lower.size != nv or upper.size != nv:
            raise ValueError("bound length mismatch")
        self.augmented = np.concatenate([rows, np.eye(nr)], axis=1)
        self.cost = np.concatenate([c, np.zeros(nr)])
        self.lo = np.concatenate([lower, np.zeros(nr)])
        self.hi = np.concatenate([upper, np.full(nr, np.inf)])
        self.rows = self.augmented[:, :nv]
        self.c, self.lower, self.upper = self.cost[:nv], self.lo[:nv], self.hi[:nv]

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int
    max_residual: float


def solve_lp(lp: LinearProgram, start) -> SimplexResult:
    """Solve to proven optimality; raises NumericalTrouble on breakdown.

    ``start`` is a point that satisfies every row.  A first solve crashes
    from it; a later solve of ``lp`` restarts from the basis the last one
    left, or crashes when that basis is infeasible or the restart ends
    above the start's objective.
    """
    nv, nr = lp.n_variables, lp.n_rows
    x0 = np.minimum(np.maximum(np.asarray(start, dtype=float), lp.lower), lp.upper)
    resid = lp.rhs - lp.rows @ x0
    if not np.logical_and.reduce(resid >= -OPT_TOL):  # a NaN start fails too
        raise NumericalTrouble("start violates a row")

    found = None
    if lp.basic is not None:
        # restart: nonbasics go to the bound ``at_upper`` names, or where
        # that bound is infinite to the point of their bounds nearest 0
        value = np.where(lp.at_upper, lp.hi, lp.lo)
        infinite = ~np.isfinite(value)
        if np.logical_or.reduce(infinite):
            value[infinite] = np.minimum(np.maximum(0.0, lp.lo), lp.hi)[infinite]
        basic = lp.basic.copy()
        found = _optimize(lp, basic, value, lp.reduced)
        if found is not None:
            at_start = float(lp.c @ x0)
            if float(lp.c @ value[:nv]) > at_start + OPT_TOL * (1.0 + abs(at_start)):
                found = None
    if found is None:
        # crash: nonbasics start at the clamped start and slacks at zero;
        # every row starts with its slack basic, and a structural
        # strictly inside its bounds at a nonzero value then becomes
        # basic in the first tight slack row where its coefficient
        # is nonzero.  That row must be zero in every column crashed
        # before, so the crashed block of B is triangular with a nonzero
        # diagonal and B stays nonsingular; a structural with no such row
        # stays nonbasic.
        value = np.concatenate([x0, np.zeros(nr)])
        basic = nv + np.arange(nr)
        open_rows = resid == 0.0
        crash = ((x0 != 0.0) & (lp.lower < x0) & (x0 < lp.upper)).nonzero()[0]
        cols = lp.rows[:, crash].T
        for j, usable, zero in zip(crash, np.abs(cols) > PIVOT_TOL, cols == 0.0):
            tight = open_rows & usable
            i = tight.argmax()
            if tight[i]:
                basic[i] = j
                open_rows &= zero
        found = _optimize(lp, basic, value, None)
        if found is None:
            raise NumericalTrouble("crashed basis infeasible")
    iters, reduced = found

    x = value[:nv].copy()
    max_residual = _residual(lp, x)
    if not max_residual <= 1e-6:  # NaN fails too
        raise NumericalTrouble(f"solution residual {max_residual:.3e}")
    lp.basic = basic
    lp.at_upper = value == lp.hi
    lp.at_upper[basic] = False
    lp.reduced = reduced
    return SimplexResult(
        x=x,
        objective=float(lp.c @ x),
        iterations=iters,
        max_residual=max_residual,
    )


def _residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of any row or bound at x (0 when feasible)."""
    gaps = np.concatenate([lp.rows @ x - lp.rhs, lp.lower - x, x - lp.upper])
    return float(np.maximum.reduce(gaps, initial=0.0))


def _optimize(lp: LinearProgram, basis, value, reduced):
    """Run the pivot loop on ``lp`` in place from ``basis``; returns the
    pivot count and the reduced costs the final LAPACK confirmation
    proved, or None when the first pass finds the basis matrix singular
    or puts a basic more than OPT_TOL outside its bounds (NaN too): that
    basis is no feasible start.

    The first pass solves the basis matrix with LAPACK for the basics and
    takes ``reduced`` as the basis's reduced costs (a restart passes the
    ones ``lp`` kept), or solves for them when it is None.  When none
    improves it returns at once; otherwise it inverts the basis matrix
    for the pivot loop.

    On return ``value`` holds the optimal vertex, basics included.
    """
    A, b, lo, hi, cost = lp.augmented, lp.rhs, lp.lo, lp.hi, lp.cost
    nr, ncol = A.shape
    # the basics' entries of ``value`` stay 0 until the end, so A @ value
    # holds the nonbasics' part of the rows alone
    value[basis] = 0.0
    # cost and bounds of the basics, kept current at each basis change
    cost_b = cost[basis]
    lo_b = lo[basis]
    hi_b = hi[basis]
    # the nonbasics that may rise or fall from their value, kept current
    # at each bound flip and basis change; a fixed column sits at its
    # bound, so neither holds for it
    can_up = value < hi
    can_dn = value > lo
    can_up[basis] = False
    can_dn[basis] = False

    def improving(z):
        return (z < -OPT_TOL) & can_up | (z > OPT_TOL) & can_dn

    B = A[:, basis]
    try:
        xb = np.linalg.solve(B, b - A @ value)
        if not np.logical_and.reduce((lo_b - OPT_TOL <= xb) & (xb <= hi_b + OPT_TOL)):
            return None
        z = reduced
        if z is None:
            z = cost - np.linalg.solve(B.T, cost_b) @ A
    except np.linalg.LinAlgError:
        return None
    if not np.logical_or.reduce(improving(z)):
        value[basis] = xb
        return 0, z
    B_inv = _inverse(B)

    bland = False
    degenerate = 0
    updates = 0
    bland_after = 5 * (nr + ncol)
    max_iters = 2000 + 200 * (nr + ncol)
    # the ratio test's buffer: a row whose pivot entry is too small keeps inf
    ratios = np.empty(nr)

    for it in range(max_iters):
        if updates == REFACTOR_EVERY:
            B_inv = _inverse(A[:, basis])
            updates = 0
        rhs = b - A @ value
        xb = B_inv @ rhs
        y = cost_b @ B_inv

        z = cost - y @ A
        entering = improving(z)
        if not np.logical_or.reduce(entering):
            # confirm optimality with a fresh LAPACK solve of B; if a
            # reduced cost still improves, go on from a fresh inverse
            B = A[:, basis]
            try:
                xb = np.linalg.solve(B, rhs)
                y = np.linalg.solve(B.T, cost_b)
            except np.linalg.LinAlgError as exc:
                raise NumericalTrouble("singular basis") from exc
            z = cost - y @ A
            entering = improving(z)
            if not np.logical_or.reduce(entering):
                value[basis] = xb
                return it, z
            B_inv = _inverse(B)
            updates = 0

        if bland:
            e = int(entering.argmax())
        else:
            e = int(np.where(entering, np.abs(z), -1.0).argmax())
        direction = 1.0 if z[e] < 0 else -1.0

        w = B_inv @ A[:, e]
        # the basics that fall as the entering variable moves
        falling = w > 0 if direction > 0 else w < 0

        # ratio test over the basics, plus the entering variable's own
        # opposite bound
        sigma_own = (hi[e] - value[e]) if direction > 0 else (value[e] - lo[e])
        size = np.abs(w)
        gap = np.maximum(np.where(falling, xb - lo_b, hi_b - xb), 0.0)
        ratios.fill(np.inf)
        np.divide(gap, size, out=ratios, where=size > PIVOT_TOL)

        sigma_rows = np.minimum.reduce(ratios) if nr else np.inf
        sigma = min(sigma_own, sigma_rows)
        if not math.isfinite(sigma):
            raise NumericalTrouble("unbounded direction")

        if sigma_own <= sigma_rows:
            # bound flip, no basis change
            value[e] = hi[e] if direction > 0 else lo[e]
            can_up[e] = value[e] < hi[e]
            can_dn[e] = value[e] > lo[e]
            continue

        tied = ratios <= sigma + 1e-12 * max(1.0, sigma)
        if bland:
            leave = int(np.where(tied, basis, ncol).argmin())
        else:
            leave = int(np.where(tied, size, -1.0).argmax())
        if abs(w[leave]) <= PIVOT_TOL:
            raise NumericalTrouble("pivot element too small")

        leave_col = int(basis[leave])
        value[leave_col] = lo_b[leave] if falling[leave] else hi_b[leave]
        can_up[leave_col] = value[leave_col] < hi[leave_col]
        can_dn[leave_col] = value[leave_col] > lo[leave_col]
        basis[leave] = e
        value[e] = 0.0
        can_up[e] = can_dn[e] = False
        cost_b[leave] = cost[e]
        lo_b[leave] = lo[e]
        hi_b[leave] = hi[e]
        # product-form update: the new inverse is E B_inv, with E the
        # identity but for column ``leave``, which is -w / w[leave] off the
        # diagonal and 1 / w[leave] on it
        pivot_row = B_inv[leave] / w[leave]
        B_inv -= np.multiply.outer(w, pivot_row)
        B_inv[leave] = pivot_row
        updates += 1

        if sigma <= DEGEN_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True

    raise NumericalTrouble("pivot limit exceeded (cycling safeguard)")


def _inverse(B: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise NumericalTrouble("singular basis") from exc

