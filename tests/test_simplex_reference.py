"""The simplex's vectorised pivot loop and restarts from a kept basis
against the loop they replaced, and restarts across models.

``reference_solve_lp`` is the earlier solver, kept verbatim apart from
names: every restart checks its basis with a LAPACK solve and inverts it
afresh, and the pivot loop masks, indexes and clips element by element.
The arithmetic of a pivot is the same in both, so on the same LP the two
must agree bit for bit: the vertex, the objective, the pivot count and
the final basis.  Both read the degenerate-pivot allowance before Bland's
rule, ``simplex.BLAND_AFTER``, at each solve, so a test that lowers it
runs both on Bland's rule; ``bland_entries`` counts the reference's
switches to it.  A basis carried to a new model has no such reference;
its optima are checked against cold solves and HiGHS instead.
"""
import numpy as np
import pytest
from conftest import enumerate_lp_minimum, random_box_lp, random_mixed_lp, random_tr_instance
from references import highs_subproblem, lp_model_value

from trfd import simplex
from trfd.simplex import (
    DEGEN_TOL,
    OPT_TOL,
    PIVOT_TOL,
    REFACTOR_EVERY,
    LinearProgram,
    NumericalTrouble,
    _residual,
    solve_lp,
)
from trfd.subproblem import reformulate


bland_entries = []


def reference_solve_lp(lp, start):
    nv = lp.n_variables
    nr = lp.n_rows
    ncol = nv + nr
    A = lp.augmented
    b = lp.rhs
    lo = np.concatenate([lp.lower, np.zeros(nr)])
    hi = np.concatenate([lp.upper, np.full(nr, np.inf)])

    value = np.zeros(ncol)
    value[:nv] = np.clip(np.asarray(start, dtype=float), lp.lower, lp.upper)
    x0 = value[:nv]
    resid = b - lp.rows @ x0
    if not np.all(resid >= -OPT_TOL):
        raise NumericalTrouble("start violates a row")

    warm = None if lp.basic is None else _reference_warm_start(A, b, lo, hi, lp.basic, lp.at_upper)
    if warm is not None:
        basic, value = warm
    else:
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
    iters = _reference_optimize(A, b, lo, hi, cost, basic, value)

    x = value[:nv].copy()
    max_residual = _residual(lp, x)
    if not max_residual <= 1e-6:
        raise NumericalTrouble(f"solution residual {max_residual:.3e}")
    lp.basic = basic
    lp.at_upper = value == hi
    lp.at_upper[basic] = False
    return simplex.SimplexResult(x=x, objective=float(lp.c @ x), iterations=iters, max_residual=max_residual)


def _reference_warm_start(A, b, lo, hi, basic, at_upper):
    value = np.where(at_upper, hi, lo)
    infinite = ~np.isfinite(value)
    value[infinite] = np.clip(0.0, lo, hi)[infinite]
    basic = basic.copy()
    value[basic] = 0.0
    try:
        xb = np.linalg.solve(A[:, basic], b - A @ value)
    except np.linalg.LinAlgError:
        return None
    if not np.all((lo[basic] - OPT_TOL <= xb) & (xb <= hi[basic] + OPT_TOL)):
        return None
    return basic, value


def _reference_optimize(A, b, lo, hi, cost, basis, value):
    nr, ncol = A.shape
    is_basic = np.zeros(ncol, dtype=bool)
    is_basic[basis] = True
    fixed = lo == hi

    bland = False
    degenerate = 0
    bland_after = simplex.BLAND_AFTER * (nr + ncol)
    max_iters = 2000 + 200 * (nr + ncol)
    B_inv = np.linalg.inv(A[:, basis])
    updates = 0

    for it in range(max_iters):
        if updates == REFACTOR_EVERY:
            B_inv = np.linalg.inv(A[:, basis])
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
            B = A[:, basis]
            xb = np.linalg.solve(B, rhs)
            y = np.linalg.solve(B.T, cost[basis])
            z = cost - y @ A
            improving = (can_up & (z < -OPT_TOL)) | (can_dn & (z > OPT_TOL))
            if not improving.any():
                value[basis] = xb
                return it
            B_inv = np.linalg.inv(B)
            updates = 0

        if bland:
            e = int(np.flatnonzero(improving)[0])
        else:
            scores = np.where(improving, np.abs(z), -1.0)
            e = int(np.argmax(scores))
        direction = 1.0 if z[e] < 0 else -1.0

        w = B_inv @ A[:, e]
        dw = direction * w

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
        pivot_row = B_inv[leave] / w[leave]
        B_inv -= np.outer(w, pivot_row)
        B_inv[leave] = pivot_row
        updates += 1

        if sigma <= DEGEN_TOL:
            degenerate += 1
            if degenerate > bland_after and not bland:
                bland = True
                bland_entries.append(it)

    raise NumericalTrouble("pivot limit exceeded (cycling safeguard)")


def _twin(lp):
    return LinearProgram(c=lp.c.copy(), rows=lp.rows.copy(), rhs=lp.rhs.copy(),
                         lower=lp.lower.copy(), upper=lp.upper.copy())


def _assert_bit_equal(lp, ref_lp, start):
    got = solve_lp(lp, start)
    want = reference_solve_lp(ref_lp, start)
    assert np.array_equal(got.x, want.x)
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    assert np.array_equal(lp.basic, ref_lp.basic)
    assert np.array_equal(lp.at_upper, ref_lp.at_upper)
    return got


@pytest.mark.parametrize("generator, seed", [(random_box_lp, 51), (random_mixed_lp, 52)])
def test_random_lps_and_restarts_match_reference(generator, seed):
    # each LP is solved, then re-solved twice with each finite bound and
    # right-hand side pulled a random part of the way towards the start,
    # which stays feasible
    rng = np.random.default_rng(seed)
    for _ in range(100):
        lp, xbar = generator(rng)
        ref_lp = _twin(lp)
        _assert_bit_equal(lp, ref_lp, xbar)
        for _ in range(2):
            f_lo, f_hi = rng.uniform(0.0, 1.0, (2, lp.n_variables))
            f_rhs = rng.uniform(0.0, 1.0, lp.n_rows)
            for target in (lp, ref_lp):
                for bound, f in ((target.lower, f_lo), (target.upper, f_hi)):
                    bound[:] = np.where(np.isfinite(bound), xbar + f * (bound - xbar), bound)
                at_start = target.rows @ xbar
                target.rhs[:] = at_start + f_rhs * (target.rhs - at_start)
            _assert_bit_equal(lp, ref_lp, xbar)


def test_fixed_columns_match_reference_and_enumeration():
    # a column with lower == upper sits at its bound and never prices;
    # the reference masks such columns out, the solver has no mask for
    # them.  Each LP pins a few columns at xbar, then is re-solved twice
    # with the other bounds moved as above and one more column pinned,
    # so a kept basis may hold a column that is now fixed
    rng = np.random.default_rng(54)
    for _ in range(100):
        lp, xbar = random_box_lp(rng)
        nv = lp.n_variables
        pinned = rng.random(nv) < 0.3
        pinned[rng.integers(nv)] = True
        ref_lp = _twin(lp)
        for target in (lp, ref_lp):
            target.lower[pinned] = target.upper[pinned] = xbar[pinned]
        got = _assert_bit_equal(lp, ref_lp, xbar)
        assert got.objective == pytest.approx(enumerate_lp_minimum(lp), rel=1e-9, abs=1e-9)
        for _ in range(2):
            f_lo, f_hi = rng.uniform(0.0, 1.0, (2, nv))
            f_rhs = rng.uniform(0.0, 1.0, lp.n_rows)
            j = rng.integers(nv)
            for target in (lp, ref_lp):
                target.lower[:] = xbar + f_lo * (target.lower - xbar)
                target.upper[:] = xbar + f_hi * (target.upper - xbar)
                target.lower[j] = target.upper[j] = xbar[j]
                at_start = target.rows @ xbar
                target.rhs[:] = at_start + f_rhs * (target.rhs - at_start)
            got = _assert_bit_equal(lp, ref_lp, xbar)
            assert got.objective == pytest.approx(enumerate_lp_minimum(lp), rel=1e-9, abs=1e-9)


def _radius_chains_match_reference(h, p):
    # as in the solver: the LP at r, a U2 retry at r / 2, then the Delta*
    # LP and its step LPs at r and r / 2
    rng = np.random.default_rng(53)
    for k in range(60):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        inst = random_tr_instance(rng, h, p, n=n, m=m, constrained=k % 3 != 0)
        r = inst[-1]
        for radii in ((r, r / 2), (1000.0, r, r / 2)):
            tr, ref = reformulate(*inst[:-1], radii[0]), reformulate(*inst[:-1], radii[0])
            for radius in radii:
                tr.set_radius(radius)
                ref.set_radius(radius)
                _assert_bit_equal(tr.lp, ref.lp, tr.start)


@pytest.mark.parametrize("h", ["l1", "minimax"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_subproblem_radius_chain_matches_reference(h, p):
    _radius_chains_match_reference(h, p)


def test_blands_rule_matches_reference(monkeypatch):
    # no LP above pivots degenerately long enough to reach Bland's rule at
    # the solvers' allowance; at 0, the first degenerate basis change of a
    # pivot loop switches both solvers to it
    monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
    for h in ("l1", "minimax"):
        for p in ("1", "inf"):
            bland_entries.clear()
            _radius_chains_match_reference(h, p)
            assert bland_entries, (h, p)
    bland_entries.clear()
    rng = np.random.default_rng(52)
    for _ in range(100):
        lp, xbar = random_mixed_lp(rng)
        _assert_bit_equal(lp, _twin(lp), xbar)
    assert bland_entries


def test_zero_pivot_restart_inverts_nothing(monkeypatch):
    calls = []
    real_inverse = simplex._inverse

    def counting_inverse(B):
        calls.append(B.shape)
        return real_inverse(B)

    monkeypatch.setattr(simplex, "_inverse", counting_inverse)
    rng = np.random.default_rng(54)
    inst = random_tr_instance(rng, "l1", "1", n=3, m=4)
    tr = reformulate(*inst)
    solve_lp(tr.lp, tr.start)
    assert len(calls) == 1  # the crashed basis
    # the same radius again: the kept basis is optimal at once
    again = solve_lp(tr.lp, tr.start)
    assert again.iterations == 0
    assert len(calls) == 1


def test_carried_bases_across_models_match_cold_solves_and_highs(monkeypatch):
    # as in a run: one LP, a new model written in place after every few
    # radii, each solve restarting from the basis the solve before left;
    # every optimum's model value must match a cold solve's, and HiGHS's
    runs = []  # per pivot-loop run: (restart?, found a feasible basis?)
    real_optimize = simplex._optimize

    def recording_optimize(lp, basis, value, reduced):
        # a restart is a solve's first run on an LP that kept a basis;
        # solve_lp stores the new basis only after its last run
        restart = lp.basic is not None and not runs
        out = real_optimize(lp, basis, value, reduced)
        runs.append((restart, out is not None))
        return out

    monkeypatch.setattr(simplex, "_optimize", recording_optimize)
    rng = np.random.default_rng(55)
    n, m = 6, 12
    h, F_x, A, region, x, p, _ = random_tr_instance(rng, "l1", "1", n=n, m=m)
    tr = reformulate(h, F_x, A, region, x, p, 1000.0)
    carried = []  # (pivots, fell back) of each first solve of a new model
    for k in range(8):
        if k:
            x = x + rng.uniform(-0.01, 0.01, n)
            F_x = F_x + rng.uniform(-0.01, 0.01, m)
            A = A + rng.uniform(-0.01, 0.01, (m, n))
            tr.set_model(F_x, A, x)
        for i, radius in enumerate(((1000.0, 0.4, 0.2), (0.4, 1000.0, 0.2), (0.1, 0.05), (0.2,))[k % 4]):
            tr.set_radius(radius)
            lp = tr.lp
            runs.clear()
            got = solve_lp(lp, tr.start)
            assert runs[0][0] == bool(k or i) and runs[-1][1]
            if k and not i:
                carried.append((got.iterations, len(runs) > 1))
            value = lp_model_value(tr, got.x)
            cold = lp_model_value(tr, solve_lp(_twin(lp), tr.start).x)
            scale = 1.0 + abs(cold)
            assert abs(value - cold) <= 1e-9 * scale
            assert abs(value - highs_subproblem(h, F_x, A, region, x, p, radius)) <= 1e-9 * scale
    assert any(pivots == 0 and not fell_back for pivots, fell_back in carried)
    assert any(fell_back for _, fell_back in carried)
