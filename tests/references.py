"""References that only tests use: the model minimum by a brute-force
grid and by HiGHS on an LP of its own, an LP's optimum by HiGHS, the
Euclidean stationarity measure by its closed form, and the gap between
the true and finite-difference measures against its bound.  This is the
one module that imports scipy, and only when a test calls HiGHS."""
import itertools
import math

import numpy as np
import pytest

from trfd.core import FeasibleRegion, OuterFunction, PNorm, eval_h, norm_constants
from trfd.diagnostics import psi
from trfd.jacobian import build_jacobian
from trfd.subproblem import reformulate, solve_tr_subproblem


def eta_bruteforce(h, F_x, A, region, x, p, r, resolution=1e-3) -> float:
    """Grid minimum of the model over the feasible p-ball, in eta form.

    The lattice is uniform with the stated resolution and always
    includes the p-ball's boundary vertices, so the oracle cannot miss
    a vertex optimum by discretization alone.  It sweeps every
    coordinate but the last and vectorizes over the last, so n <= 3.
    """
    F_x = np.asarray(F_x, dtype=float)
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    n = A.shape[1]
    if n > 3:
        raise ValueError(f"grid oracle supports n <= 3, got n={n}")

    steps = int(round(2 * r / resolution))
    axis = np.linspace(-r, r, steps + 1)
    abs_axis = np.abs(axis)
    lo = region.lower - x
    hi = region.upper - x
    inside_box = (axis[:, None] >= lo - 1e-12) & (axis[:, None] <= hi + 1e-12)
    feasible_last = inside_box[:, -1]
    # the swept points, each with the p-ball's half-width left for the
    # last coordinate and the model's value with the last coordinate at 0
    heads = list(itertools.product(*(axis[inside_box[:, j]] for j in range(n - 1))))
    heads = np.array(heads, dtype=float).reshape(len(heads), n - 1)
    halves = r * (1 + 1e-12) - np.abs(heads).sum(axis=1)
    bases = F_x + heads @ A[:, :-1].T
    # each row's value at the swept points and its terms in the last coordinate
    rows = [((x[:-1] + heads) @ a[:-1], a[-1] * (x[-1] + axis), b) for a, b in region.linear_ineq]

    best = np.inf
    for i, (half, base) in enumerate(zip(halves, bases)):
        if p is PNorm.ONE:
            if half < 0:
                continue
            sel = abs_axis <= half
            sel &= feasible_last
        else:
            sel = feasible_last.copy()
        for head_terms, last, b in rows:
            sel &= head_terms[i] + last <= b + 1e-12
        if not sel.any():
            continue
        z = np.multiply.outer(A[:, -1], axis[sel])
        z += base[:, None]
        if h is OuterFunction.L1:
            np.abs(z, out=z)
            cand = z.sum(axis=0).min()
        else:
            cand = z.max(axis=0).min()
        best = min(best, float(cand))
    if not np.isfinite(best):
        raise ValueError("no feasible grid points")

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


def highs_subproblem(h, F, A, region, x, p, r) -> float:
    """min h(F + A d) over ||d||_p <= r with x + d in ``region``, by
    scipy's HiGHS dual simplex on an LP built apart from trfd's.

    The variables are d (free), for p = 1 the bounds w with |d_j| <= w_j
    and sum(w) <= r, and t: t_i >= +-(F + A d)_i for L1, t >= F + A d for
    minimax.  The box bounds d, and each row reads a.(x + d) <= b.  The
    model is evaluated at HiGHS's d rather than read from its objective.

    HiGHS drops a matrix entry under 1e-9 in size, so F and A are divided
    by their largest entry first.  h is positively homogeneous, so the
    minimizing d is the same, and h(F + A d) is evaluated in the original
    units.  An entry of A under about 1e-9 times that largest entry is
    still dropped.
    """
    F, A, x = (np.asarray(v, dtype=float) for v in (F, A, x))
    m, n = A.shape
    s = max(np.abs(F).max(), np.abs(A).max()) or 1.0
    lo, hi = region.lower - x, region.upper - x
    if p is PNorm.INF:
        lo, hi = np.maximum(lo, -r), np.minimum(hi, r)
    nw = n if p is PNorm.ONE else 0
    nt = m if h is OuterFunction.L1 else 1
    minus_t = -np.eye(m) if h is OuterFunction.L1 else -np.ones((m, 1))
    rows = [np.hstack([A / s, np.zeros((m, nw)), minus_t])]
    rhs = [-F / s]
    if h is OuterFunction.L1:
        rows.append(np.hstack([-A / s, np.zeros((m, nw)), minus_t]))
        rhs.append(F / s)
    if p is PNorm.ONE:
        eye = np.eye(n)
        rows += [np.hstack([eye, -eye, np.zeros((n, nt))]), np.hstack([-eye, -eye, np.zeros((n, nt))]),
                 np.hstack([np.zeros((1, n)), np.ones((1, n)), np.zeros((1, nt))])]
        rhs += [np.zeros(2 * n), [r]]
    for a, b in region.linear_ineq:
        rows.append(np.hstack([a, np.zeros(nw + nt)])[None, :])
        rhs.append([b - float(a @ x)])
    bounds = [*zip(lo, hi), *[(0, None)] * nw, *[(None, None)] * nt]
    d = _highs(np.r_[np.zeros(n + nw), np.ones(nt)], np.vstack(rows), np.concatenate(rhs), bounds).x[:n]
    return eval_h(h, F + A @ d)


def highs_lp(lp) -> float:
    """The optimum of the ``LinearProgram`` ``lp`` by HiGHS, for checks on the simplex alone."""
    return _highs(lp.c, lp.rows, lp.rhs, np.column_stack([lp.lower, lp.upper])).fun


def lp_model_value(tr, x_lp) -> float:
    """h(F + A d) at the point ``x_lp`` of ``tr``'s LP: the units every subproblem check reads."""
    return eval_h(tr.h, tr.F_x + tr.A @ tr.extract_d(x_lp))


def _highs(c, rows, rhs, bounds):
    """scipy's HiGHS dual simplex on min c.z over rows.z <= rhs within
    ``bounds``; a ValueError if it fails, a skip of the calling test without
    scipy.  At the default feasibility tolerance (1e-7) HiGHS misses the
    optimum of some campaign models, so both tolerances are 1e-10."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(c, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise ValueError(f"HiGHS failed: {res.message}")
    return res


def psi_euclidean(bp, x, r: float) -> float:
    """The stationarity measure at p = 2 of a registry record ``bp`` with
    one smooth minimax component, over its unconstrained region.

    There the model minimum over the Euclidean ball has the closed form
    F(x) - r * ||grad||_2, and the measure is evaluated from it without
    algebraic simplification so rounding behaves like any other route.
    """
    if bp.m != 1 or bp.family is not OuterFunction.MINIMAX:
        raise ValueError("p=2 stationarity needs m=1 and minimax h")
    x = np.asarray(x, dtype=float)
    base = eval_h(bp.family, bp.residuals(x))
    model_min = base - r * float(np.linalg.norm(bp.jacobian(x)[0]))
    return (base - model_min) / r


def check_psi_eta_gap(bp, x, p: PNorm, r: float, tau: float) -> bool:
    """Gap between the true and finite-difference measures of a registry
    record ``bp`` against its bound.

    Builds the model at stepsize tau from the record's residual map, which
    no oracle counts, and checks

        |psi - eta| <= (L_h * L_J * c_p2 * c_2p * sqrt(n) / 2) * tau

    with a 1 + 1e-6 rounding allowance.
    """
    x = np.asarray(x, dtype=float)
    F_x = bp.residuals(x)
    A = build_jacobian(bp.residuals, x, F_x, tau)
    region = FeasibleRegion.unconstrained(bp.n)
    eta = solve_tr_subproblem(reformulate(bp.family, F_x, A, region, x, p, r)).eta
    psi_val = psi(bp, x, p, r)
    c2p_n, cp2_m = norm_constants(p, bp.n, bp.m)
    lip = bp.family.lipschitz(p, bp.m)
    bound = lip * bp.lipschitz_jacobian * cp2_m * c2p_n * math.sqrt(bp.n) / 2 * tau
    return abs(psi_val - eta) <= bound * (1 + 1e-6)
