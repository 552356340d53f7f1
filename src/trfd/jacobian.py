"""Forward finite-difference Jacobian.

Column j of the model is (F(x + tau e_j) - F(x)) / tau with one uniform
stepsize tau for every coordinate: the outer method's coupled tau/radius
updates assume the literal uniform step, so no per-coordinate rescaling
is applied.  Building a model costs exactly n calls of the supplied
``eval_F``; F(x) itself is supplied by the caller and never re-queried.
"""
from __future__ import annotations

import numpy as np


class DegenerateStep(Exception):
    """tau is below the representable resolution at x: x + tau e_j == x."""


def build_jacobian(eval_F, x, F_x, tau: float) -> np.ndarray:
    """The (m, n) matrix of forward-difference columns at stepsize tau,
    evaluated in coordinate order through the callable ``eval_F``."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=float)
    F_x = np.asarray(F_x, dtype=float)
    n = x.size
    m = F_x.size

    # validate every coordinate before spending any evaluation, so a
    # degenerate stepsize costs nothing
    stuck = x + tau == x
    j = stuck.argmax()
    if stuck[j]:
        raise DegenerateStep(f"x[{j}] + tau is not representable (tau={tau:g})")

    A = np.empty((m, n))
    for j in range(n):
        xj = x.copy()
        xj[j] += tau
        A[:, j] = (eval_F(xj) - F_x) / tau
    return A
