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
loop goes on from a fresh inverse.

The pricing reads two signed direction arrays over all columns: ``rise``
is -1 where a nonbasic may rise from its value and 0 elsewhere, ``fall``
is 1 where it may fall and 0 elsewhere, so a basic column, and a fixed
one at its bound, is 0 in both.  Each solve builds them once and keeps
them current at each bound flip and basis change.  The gain of column j,
max(z_j rise_j, z_j fall_j), is |z_j| where z_j improves and at most
OPT_TOL elsewhere, so one argmax over it gives Dantzig's column, the
first index on a tie.  A reduced cost that is not finite gives a NaN
gain (unless its column may move both ways), which argmax takes first:
the first pass then finds no feasible start, the updated inverse goes to
the LAPACK confirmation, and a confirmation that still prices one raises
NumericalTrouble.

LAPACK is called through numpy's own gufuncs, ``solve1`` and ``inv`` of
``numpy.linalg._umath_linalg``: the loops numpy's ``linalg.solve`` and
``linalg.inv`` run on float64, without those functions' Python
wrappers.  A singular basis matrix shows as a result that is not finite
(the gufuncs fill it with NaN), not as an exception: the first pass
takes it as no feasible start, and the confirmation and every inversion
raise NumericalTrouble.  One floating-point error scope covers each
solve, so no LAPACK call or pivot warns.  Everything is deterministic:
Dantzig pricing with first-index tie-breaking, switching to Bland's
rule (the first column whose gain exceeds OPT_TOL enters, and the
lowest-numbered basic among the tied ratios leaves) once a pivot loop's
degenerate basis changes exceed BLAND_AFTER * (rows + columns).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .core import every

# reduced-cost / feasibility target
OPT_TOL = 1e-9
# a basis-changing pivot with step below this counts as degenerate
DEGEN_TOL = 1e-12
# smallest acceptable pivot element magnitude
PIVOT_TOL = 1e-11
# basis changes between fresh inversions of B
REFACTOR_EVERY = 32
# Bland's rule takes over once the degenerate pivots of one pivot loop
# exceed this many per row and column
BLAND_AFTER = 5


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


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def solve_lp(lp: LinearProgram, start) -> SimplexResult:
    """Solve to proven optimality; raises NumericalTrouble on breakdown.

    ``start`` is a point that satisfies every row.  A first solve crashes
    from it; a later solve of ``lp`` restarts from the basis the last one
    left, or crashes when that basis is infeasible or the restart ends
    above the start's objective.
    """
    nv, nr = lp.c.size, lp.rhs.size
    x0 = np.minimum(np.maximum(start, lp.lower), lp.upper)
    resid = lp.rhs - lp.rows @ x0
    # argmin takes a NaN first, so a NaN start fails too
    if nr and not resid[resid.argmin()] >= -OPT_TOL:
        raise NumericalTrouble("start violates a row")

    found = objective = None
    if lp.basic is not None:
        # restart: nonbasics go to the bound ``at_upper`` names, or where
        # that bound is infinite to the point of their bounds nearest 0
        value = np.where(lp.at_upper, lp.hi, lp.lo)
        finite = np.isfinite(value)
        if not every(finite):
            value = np.where(finite, value, np.minimum(np.maximum(0.0, lp.lo), lp.hi))
        basic = lp.basic.copy()
        found = _optimize(lp, basic, value, lp.reduced)
        if found is not None:
            at_start = float(lp.c @ x0)
            objective = float(lp.c @ value[:nv])
            if objective > at_start + OPT_TOL * (1.0 + abs(at_start)):
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
        objective = None
        found = _optimize(lp, basic, value, None)
        if found is None:
            raise NumericalTrouble("crashed basis infeasible")
    iters, reduced = found

    x = value[:nv].copy()
    if objective is None:
        objective = float(lp.c @ x)
    max_residual = _residual(lp, x)
    if not max_residual <= 1e-6:  # NaN fails too
        raise NumericalTrouble(f"solution residual {max_residual:.3e}")
    lp.basic = basic
    lp.at_upper = value == lp.hi
    lp.at_upper[basic] = False
    lp.reduced = reduced
    return SimplexResult(x=x, objective=objective, iterations=iters)


def _residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of any row or bound at x (0 when feasible)."""
    gaps = np.concatenate([lp.rows @ x - lp.rhs, lp.lower - x, x - lp.upper])
    # max keeps a NaN first argument
    return max(float(gaps[gaps.argmax()]), 0.0)


def _optimize(lp: LinearProgram, basis, value, reduced):
    """Run the pivot loop on ``lp`` in place from ``basis``; returns the
    pivot count and the reduced costs the final LAPACK confirmation
    proved, or None when the first pass finds the basis matrix singular,
    puts a basic more than OPT_TOL outside its bounds (NaN too), or
    prices a reduced cost that is not finite: that basis is no feasible
    start.

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
    # the pricing's signed directions (see the module docstring), kept
    # current at each bound flip and basis change
    rise = np.where(value < hi, -1.0, 0.0)
    fall = np.where(value > lo, 1.0, 0.0)
    rise[basis] = 0.0
    fall[basis] = 0.0
    bland = False

    def price(z):
        """The entering column by Dantzig's rule, or Bland's once
        ``bland`` is set; -1 when no gain exceeds OPT_TOL, and None when
        a gain is NaN."""
        gain = np.maximum(z * rise, z * fall)
        e = int(gain.argmax())
        best = gain[e]
        if best > OPT_TOL:
            return int((gain > OPT_TOL).argmax()) if bland else e
        return -1 if best == best else None

    B = A[:, basis]
    rhs = b - A @ value
    # a singular B gives NaN, which the bounds test rejects
    xb = _umath_linalg.solve1(B, rhs)
    if not every((lo_b - OPT_TOL <= xb) & (xb <= hi_b + OPT_TOL)):
        return None
    z = reduced
    if z is None:
        y = _umath_linalg.solve1(B.T, cost_b)
        if not _finite(y):
            return None
        z = cost - y @ A
    e = price(z)
    if e is None:
        return None
    if e < 0:
        value[basis] = xb
        return 0, z
    B_inv = _inverse(B)

    degenerate = 0
    updates = 0
    bland_after = BLAND_AFTER * (nr + ncol)
    max_iters = 2000 + 200 * (nr + ncol)
    # the ratio test's buffer: a row whose pivot entry is too small keeps inf
    ratios = np.empty(nr)

    for it in range(max_iters):
        if updates == REFACTOR_EVERY:
            B_inv = _inverse(A[:, basis])
            updates = 0
        if it:  # the first pass's right-hand side serves the first
            rhs = b - A @ value
        xb = B_inv @ rhs
        y = cost_b @ B_inv

        z = cost - y @ A
        e = price(z)
        if e is None or e < 0:
            # confirm optimality with a fresh LAPACK solve of B; if a
            # reduced cost still improves, go on from a fresh inverse
            B = A[:, basis]
            xb = _umath_linalg.solve1(B, rhs)
            y = _umath_linalg.solve1(B.T, cost_b)
            if not (_finite(xb) and _finite(y)):
                raise NumericalTrouble("singular basis")
            z = cost - y @ A
            e = price(z)
            if e is None:
                raise NumericalTrouble("reduced cost not finite")
            if e < 0:
                value[basis] = xb
                return it, z
            B_inv = _inverse(B)
            updates = 0

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

        # argmin takes a NaN first, as the minimum would
        sigma_rows = ratios[ratios.argmin()] if nr else np.inf
        sigma = min(sigma_own, sigma_rows)
        if not math.isfinite(sigma):
            raise NumericalTrouble("unbounded direction")

        if sigma_own <= sigma_rows:
            # bound flip, no basis change
            value[e] = bound = hi[e] if direction > 0 else lo[e]
            rise[e] = -1.0 if bound < hi[e] else 0.0
            fall[e] = 1.0 if bound > lo[e] else 0.0
            continue

        tied = ratios <= sigma + 1e-12 * max(1.0, sigma)
        if bland:
            leave = int(np.where(tied, basis, ncol).argmin())
        else:
            leave = int(np.where(tied, size, -1.0).argmax())
        if abs(w[leave]) <= PIVOT_TOL:
            raise NumericalTrouble("pivot element too small")

        leave_col = int(basis[leave])
        value[leave_col] = bound = lo_b[leave] if falling[leave] else hi_b[leave]
        rise[leave_col] = -1.0 if bound < hi[leave_col] else 0.0
        fall[leave_col] = 1.0 if bound > lo[leave_col] else 0.0
        basis[leave] = e
        value[e] = rise[e] = fall[e] = 0.0
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
    B_inv = _umath_linalg.inv(B)
    if not _finite(B_inv):
        raise NumericalTrouble("singular basis")
    return B_inv


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a LAPACK result is finite; a singular
    matrix gives NaN."""
    return every(np.isfinite(a).ravel())

