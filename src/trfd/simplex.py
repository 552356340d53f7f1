"""Dense bounded-variable primal simplex for the LPs trfd builds.

Solves  min c.x  subject to  rows a.x <= b  and box bounds
l <= x <= u (either side may be infinite), from a caller's feasible
starting point.  Each row gets a slack variable s >= 0 with a.x + s = b.

An instance keeps the final basis of its last solve, and a later solve
restarts from it; between solves only bounds and right-hand sides may
change.  The nonbasics go to the bounds the basis names and the basics
are solved for once.  If that basis is nonsingular and primal feasible
within OPT_TOL, the pivot loop starts from it; its reduced costs do not
depend on bounds or right-hand sides, so a basis that was optimal before
and is still feasible is optimal at once.

Otherwise, and on a first solve, the first basis is crashed from the
start.  Nonbasic variables start at that point clamped into their
bounds, and every row starts with its slack basic.  A structural
variable the start puts strictly inside its bounds at a nonzero value
then takes the place of the slack of one tight row (implied slack
exactly zero) in which it has a nonzero coefficient.  The start must
satisfy every row within OPT_TOL, so this first basis is feasible; a
start that does not, or that is NaN, raises NumericalTrouble, on a
restart too.

The subproblems this package generates are small (at most a few hundred
variables) and dense.  The pivot loop inverts the basis matrix once and
then keeps the inverse current with a product-form (rank-one) update at
each basis change, inverting afresh every REFACTOR_EVERY changes.  When
the updated inverse shows no improving reduced cost, the basic values
and duals are recomputed by LAPACK solves with the basis matrix itself
and the reduced costs checked again; if one still improves, the loop
goes on from a fresh inverse.  Everything is deterministic: Dantzig
pricing with first-index tie-breaking, switching to Bland's rule once
the degenerate-pivot count passes 5 * (rows + columns).
"""
from __future__ import annotations

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
    # [rows | I], one slack column per row
    augmented: np.ndarray = field(init=False, repr=False)
    # the last solve's final basis, where the next solve restarts: the
    # column basic in each row, and per column whether nonbasic at upper
    basic: np.ndarray | None = field(default=None, init=False, repr=False)
    at_upper: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        nv = self.c.size
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, nv)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.rows.shape[0] != self.rhs.size:
            raise ValueError("row/rhs length mismatch")
        if self.lower.size != nv or self.upper.size != nv:
            raise ValueError("bound length mismatch")
        self.augmented = np.hstack([self.rows, np.eye(self.rhs.size)])

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
    left, or crashes when that basis is singular or infeasible.
    """
    nv = lp.n_variables
    nr = lp.n_rows
    ncol = nv + nr
    A = lp.augmented
    b = lp.rhs
    lo = np.concatenate([lp.lower, np.zeros(nr)])
    hi = np.concatenate([lp.upper, np.full(nr, np.inf)])

    # nonbasic start values: the start clamped into the bounds, and
    # slacks at zero
    value = np.zeros(ncol)
    value[:nv] = np.clip(np.asarray(start, dtype=float), lp.lower, lp.upper)
    x0 = value[:nv]
    resid = b - lp.rows @ x0
    if not np.all(resid >= -OPT_TOL):  # a NaN start fails too
        raise NumericalTrouble("start violates a row")

    warm = None if lp.basic is None else _warm_start(A, b, lo, hi, lp.basic, lp.at_upper)
    if warm is not None:
        basic, value = warm
    else:
        # crash: every row starts with its slack basic, and a structural
        # strictly inside its bounds at a nonzero value then becomes
        # basic in the first tight slack row where its coefficient
        # is nonzero.  That row must be zero in every column crashed
        # before, so the crashed block of B is triangular with a nonzero
        # diagonal and B stays nonsingular; a structural with no such row
        # stays nonbasic.
        basic = nv + np.arange(nr)
        open_rows = resid == 0.0
        for j in np.flatnonzero((x0 != 0.0) & (lp.lower < x0) & (x0 < lp.upper)):
            col = lp.rows[:, j]
            rows = np.flatnonzero(open_rows & (np.abs(col) > PIVOT_TOL))
            if rows.size:
                basic[rows[0]] = j
                open_rows &= col == 0.0

    cost = np.zeros(ncol)
    cost[:nv] = lp.c
    iters = _optimize(A, b, lo, hi, cost, basic, value)

    x = value[:nv].copy()
    max_residual = _residual(lp, x)
    if not max_residual <= 1e-6:  # NaN fails too
        raise NumericalTrouble(f"solution residual {max_residual:.3e}")
    lp.basic = basic
    lp.at_upper = value == hi
    lp.at_upper[basic] = False
    return SimplexResult(
        x=x,
        objective=float(lp.c @ x),
        iterations=iters,
        max_residual=max_residual,
    )


def _warm_start(A, b, lo, hi, basic, at_upper):
    """(basic columns, nonbasic values) that restart from an earlier
    basis, or None when its basis matrix is singular or its basics leave
    their bounds by more than OPT_TOL.

    Nonbasics go to the bound ``at_upper`` names; where that bound is
    infinite they go to the point of their bounds nearest 0, as in a
    cold start.
    """
    value = np.where(at_upper, hi, lo)
    infinite = ~np.isfinite(value)
    value[infinite] = np.clip(0.0, lo, hi)[infinite]
    basic = basic.copy()
    value[basic] = 0.0
    try:
        xb = np.linalg.solve(A[:, basic], b - A @ value)
    except np.linalg.LinAlgError:
        return None
    if not np.all((lo[basic] - OPT_TOL <= xb) & (xb <= hi[basic] + OPT_TOL)):  # NaN fails too
        return None
    return basic, value


def _residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of any row or bound at x (0 when feasible)."""
    gap = lp.rows @ x - lp.rhs
    return float(max(gap.max(initial=0.0), (lp.lower - x).max(initial=0.0), (x - lp.upper).max(initial=0.0)))


def _optimize(A, b, lo, hi, cost, basis, value) -> int:
    """Run the pivot loop in place; returns the pivot count.

    On return ``value`` holds the optimal vertex, basics included.
    """
    nr, ncol = A.shape
    is_basic = np.zeros(ncol, dtype=bool)
    is_basic[basis] = True
    fixed = lo == hi

    bland = False
    degenerate = 0
    bland_after = 5 * (nr + ncol)
    max_iters = 2000 + 200 * (nr + ncol)
    B_inv = _inverse(A[:, basis])
    updates = 0

    for it in range(max_iters):
        if updates == REFACTOR_EVERY:
            B_inv = _inverse(A[:, basis])
            updates = 0
        v_masked = value.copy()
        v_masked[basis] = 0.0
        rhs = b - A @ v_masked
        xb = B_inv @ rhs
        y = cost[basis] @ B_inv

        z = cost - y @ A
        can_up = ~is_basic & ~fixed & (value < hi)
        can_dn = ~is_basic & ~fixed & (value > lo)
        improving = (can_up & (z < -OPT_TOL)) | (can_dn & (z > OPT_TOL))
        if not improving.any():
            # confirm optimality with a fresh LAPACK solve of B; if a
            # reduced cost still improves, go on from a fresh inverse
            B = A[:, basis]
            try:
                xb = np.linalg.solve(B, rhs)
                y = np.linalg.solve(B.T, cost[basis])
            except np.linalg.LinAlgError as exc:
                raise NumericalTrouble("singular basis") from exc
            z = cost - y @ A
            improving = (can_up & (z < -OPT_TOL)) | (can_dn & (z > OPT_TOL))
            if not improving.any():
                value[basis] = xb
                return it
            B_inv = _inverse(B)
            updates = 0

        if bland:
            e = int(np.flatnonzero(improving)[0])
        else:
            scores = np.where(improving, np.abs(z), -1.0)
            e = int(np.argmax(scores))
        direction = 1.0 if z[e] < 0 else -1.0

        w = B_inv @ A[:, e]
        dw = direction * w

        # ratio test over the basics, plus the entering variable's own
        # opposite bound
        sigma_own = (hi[e] - value[e]) if direction > 0 else (value[e] - lo[e])
        lo_b = lo[basis]
        hi_b = hi[basis]
        ratios = np.full(nr, np.inf)
        dec = dw > PIVOT_TOL
        ratios[dec] = np.maximum(xb[dec] - lo_b[dec], 0.0) / dw[dec]
        inc = dw < -PIVOT_TOL
        ratios[inc] = np.maximum(hi_b[inc] - xb[inc], 0.0) / (-dw[inc])

        sigma_rows = float(np.min(ratios)) if nr else np.inf
        sigma = min(sigma_own, sigma_rows)
        if not np.isfinite(sigma):
            raise NumericalTrouble("unbounded direction")

        if sigma_own <= sigma_rows:
            # bound flip, no basis change
            value[e] = hi[e] if direction > 0 else lo[e]
            continue

        window = sigma + 1e-12 * max(1.0, sigma)
        candidates = np.flatnonzero(ratios <= window)
        if bland:
            leave = int(candidates[np.argmin(basis[candidates])])
        else:
            leave = int(candidates[np.argmax(np.abs(dw[candidates]))])
        if abs(w[leave]) <= PIVOT_TOL:
            raise NumericalTrouble("pivot element too small")

        leave_col = int(basis[leave])
        value[leave_col] = lo_b[leave] if dw[leave] > 0 else hi_b[leave]
        is_basic[leave_col] = False
        basis[leave] = e
        is_basic[e] = True
        # product-form update: the new inverse is E B_inv, with E the
        # identity but for column ``leave``, which is -w / w[leave] off the
        # diagonal and 1 / w[leave] on it
        pivot_row = B_inv[leave] / w[leave]
        B_inv -= np.outer(w, pivot_row)
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


def to_mps(lp: LinearProgram, name: str = "TRLP") -> str:
    """Render the instance in fixed-column MPS text for offline inspection."""
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    for i in range(lp.n_rows):
        lines.append(f" L  R{i}")
    lines.append("COLUMNS")
    for j in range(lp.n_variables):
        entries = [("COST", lp.c[j])] if lp.c[j] != 0.0 else []
        entries += [(f"R{i}", lp.rows[i, j]) for i in range(lp.n_rows) if lp.rows[i, j] != 0.0]
        for k in range(0, len(entries), 2):
            pair = entries[k : k + 2]
            body = "".join(f"  {rname:<10}{val:>15.8g}" for rname, val in pair)
            lines.append(f"    X{j:<9}{body}")
    lines.append("RHS")
    for i in range(lp.n_rows):
        if lp.rhs[i] != 0.0:
            lines.append(f"    RHS       R{i:<9} {lp.rhs[i]:>14.8g}")
    lines.append("BOUNDS")
    for j in range(lp.n_variables):
        l, u = lp.lower[j], lp.upper[j]
        if np.isneginf(l) and np.isposinf(u):
            lines.append(f" FR BND       X{j}")
            continue
        if np.isneginf(l):
            lines.append(f" MI BND       X{j}")
        elif l != 0.0:
            lines.append(f" LO BND       X{j:<9} {l:>14.8g}")
        if np.isposinf(u):
            lines.append(f" PL BND       X{j}")
        else:
            lines.append(f" UP BND       X{j:<9} {u:>14.8g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
