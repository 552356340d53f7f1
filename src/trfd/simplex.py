"""Dense bounded-variable primal simplex.

Solves  min c.x  subject to  rows of the form a.x {<=, >=, =} b  and
box bounds l <= x <= u (either side may be infinite).  Inequalities are
converted to equalities with slack variables.

The first basis comes from one of two places.  A caller that re-solves
an LP with the same rows and columns but other bounds or right-hand
sides may pass the ``Basis`` of the earlier result: its nonbasics go to
the bounds it names and the basics are solved for once.  If that basis
is nonsingular and primal feasible within OPT_TOL, Phase II starts from
it; its reduced costs do not depend on bounds or right-hand sides, so a
basis that was optimal before and is still feasible is optimal at once.

Otherwise the first basis is crashed from a starting point the caller
may supply (the origin otherwise).  Nonbasic variables start at that
point clamped into their bounds, and every row whose implied slack is
feasible keeps its slack basic.  A structural variable the start puts
strictly inside its bounds at a nonzero value then takes the place of
the slack of one tight row (implied slack exactly zero) in which it has
a nonzero coefficient.  A feasible start therefore yields a feasible
first basis and Phase II runs at once.  Only rows the start leaves
infeasible get artificial variables, and then a Phase-I pass restores
feasibility before Phase II optimizes the true objective.

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

from dataclasses import dataclass

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
    """min c.x  s.t.  rows[i].x (sense[i]) rhs[i],  lower <= x <= upper."""

    c: np.ndarray
    rows: np.ndarray
    sense: tuple
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        nv = self.c.size
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, nv)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.sense = tuple(self.sense)
        if self.rows.shape[0] != self.rhs.size or len(self.sense) != self.rhs.size:
            raise ValueError("row/sense/rhs length mismatch")
        if self.lower.size != nv or self.upper.size != nv:
            raise ValueError("bound length mismatch")
        for s in self.sense:
            if s not in ("<=", ">=", "="):
                raise ValueError(f"bad sense {s!r}")

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class Basis:
    """A final simplex basis, to warm-start a later solve of an LP with the
    same rows and columns but other bounds or right-hand sides.

    Columns are numbered structurals first, then one slack per row.
    """

    # the column basic in each row
    basic: np.ndarray
    # one flag per column: nonbasic at its upper bound
    at_upper: np.ndarray


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int
    max_residual: float
    # pivots spent in Phase I (0 when the start was feasible)
    phase1_iterations: int = 0
    # the final basis; None while an artificial column is still basic
    basis: Basis | None = None


def solve_lp(lp: LinearProgram, start=None, basis: Basis | None = None) -> SimplexResult:
    """Solve to proven optimality; raises NumericalTrouble on breakdown.

    ``basis`` is an optional earlier result's basis to restart from; when
    it is singular or infeasible for this LP, the first basis is crashed
    from ``start`` instead.  ``start`` is an optional point to crash from;
    a feasible one skips Phase I.
    """
    nv = lp.n_variables
    nr = lp.n_rows

    if nr == 0:
        # box-only problem: each coordinate minimizes independently
        x = np.where(lp.c > 0, lp.lower, np.where(lp.c < 0, lp.upper, np.clip(0.0, lp.lower, lp.upper)))
        if not np.all(np.isfinite(x)):
            raise NumericalTrouble("unbounded direction")
        return SimplexResult(x=x, objective=float(lp.c @ x), iterations=0, max_residual=_residual(lp, x))

    # canonical form: A x + s = b with >= rows negated, = rows given a
    # slack fixed at zero
    A = lp.rows.copy()
    b = lp.rhs.astype(float).copy()
    ge = np.array([s == ">=" for s in lp.sense])
    A[ge] *= -1.0
    b[ge] *= -1.0

    slack_lo = np.zeros(nr)
    slack_hi = np.full(nr, np.inf)
    eq = np.array([s == "=" for s in lp.sense])
    slack_hi[eq] = 0.0

    ncol = nv + nr
    full_A = np.hstack([A, np.eye(nr)])
    lo = np.concatenate([lp.lower, slack_lo])
    hi = np.concatenate([lp.upper, slack_hi])

    phase1_iters = 0
    warm = None if basis is None else _warm_start(full_A, b, lo, hi, basis)
    if warm is not None:
        basic, value = warm
    else:
        # nonbasic start values: clamp the start (default 0) into the
        # bounds; free variables sit there until they enter the basis
        value = np.clip(0.0, lo, hi)
        if start is not None:
            value[:nv] = np.clip(np.asarray(start, dtype=float), lp.lower, lp.upper)
        value[np.isnan(value)] = 0.0

        # slack basis where the implied slack value is feasible, artificial
        # columns elsewhere, in row order and signed like the residual (a
        # NaN residual gets a -1 artificial)
        resid = b - A @ value[:nv]
        art_rows = np.flatnonzero(~((slack_lo - OPT_TOL <= resid) & (resid <= slack_hi + OPT_TOL)))
        n_art = art_rows.size
        basic = nv + np.arange(nr)
        basic[art_rows] = ncol + np.arange(n_art)

        # crash: a structural strictly inside its bounds at a nonzero value
        # becomes basic in the first tight slack row where its coefficient
        # is nonzero.  That row must be zero in every column crashed
        # before, so the crashed block of B is triangular with a nonzero
        # diagonal and B stays nonsingular; a structural with no such row
        # stays nonbasic.
        x0 = value[:nv]
        open_rows = (resid == 0.0) & (basic == nv + np.arange(nr))
        for j in np.flatnonzero((x0 != 0.0) & (lp.lower < x0) & (x0 < lp.upper)):
            col = A[:, j]
            rows = np.flatnonzero(open_rows & (np.abs(col) > PIVOT_TOL))
            if rows.size:
                basic[rows[0]] = j
                open_rows &= col == 0.0

        if n_art:
            art = np.zeros((nr, n_art))
            art[art_rows, np.arange(n_art)] = np.where(resid[art_rows] > 0, 1.0, -1.0)
            full_A = np.hstack([full_A, art])
            lo = np.concatenate([lo, np.zeros(n_art)])
            hi = np.concatenate([hi, np.full(n_art, np.inf)])
            value = np.concatenate([value, np.zeros(n_art)])
            phase1_cost = np.zeros(full_A.shape[1])
            phase1_cost[ncol:] = 1.0
            phase1_iters = _optimize(full_A, b, lo, hi, phase1_cost, basic, value)
            infeas = float(phase1_cost @ value)
            if infeas > 1e-7 * max(1.0, float(np.max(np.abs(b), initial=1.0))):
                raise NumericalTrouble(f"phase I ended infeasible ({infeas:.3e})")
            # artificials are pinned at zero for phase II
            hi[ncol:] = 0.0

    cost = np.zeros(full_A.shape[1])
    cost[:nv] = lp.c
    iters = phase1_iters + _optimize(full_A, b, lo, hi, cost, basic, value)

    x = value[:nv].copy()
    max_residual = _residual(lp, x)
    if not max_residual <= 1e-6:  # NaN fails too
        raise NumericalTrouble(f"solution residual {max_residual:.3e}")
    final = None
    if np.all(basic < ncol):
        at_upper = value[:ncol] == hi[:ncol]
        at_upper[basic] = False
        final = Basis(basic=basic, at_upper=at_upper)
    return SimplexResult(
        x=x,
        objective=float(lp.c @ x),
        iterations=iters,
        max_residual=max_residual,
        phase1_iterations=phase1_iters,
        basis=final,
    )


def _warm_start(A, b, lo, hi, basis: Basis):
    """(basic columns, nonbasic values) that restart from ``basis``, or
    None when its basis matrix is singular or its basics leave their
    bounds by more than OPT_TOL.

    Nonbasics go to the bound the basis names; where that bound is
    infinite they go to the point of their bounds nearest 0, as in a
    cold start.
    """
    nr, ncol = A.shape
    if basis.basic.shape != (nr,) or basis.at_upper.shape != (ncol,):
        raise ValueError("basis does not fit this LP")
    value = np.where(basis.at_upper, hi, lo)
    infinite = ~np.isfinite(value)
    value[infinite] = np.clip(0.0, lo, hi)[infinite]
    basic = basis.basic.copy()
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
    sense = np.asarray(lp.sense)
    gap = lp.rows @ x - lp.rhs
    viol = np.where(sense == "<=", gap, np.where(sense == ">=", -gap, np.abs(gap)))
    return float(max(viol.max(initial=0.0), (lp.lower - x).max(initial=0.0), (x - lp.upper).max(initial=0.0)))


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
    tags = {"<=": "L", ">=": "G", "=": "E"}
    for i, s in enumerate(lp.sense):
        lines.append(f" {tags[s]}  R{i}")
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
