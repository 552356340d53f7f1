"""Problem model for composite nonsmooth minimization.

The solver minimizes f(x) = h(F(x)) over a polyhedral feasible region,
where F: R^n -> R^m is a black-box residual map and h is one of two
piecewise-linear convex outer functions: the sum of absolute values
(least-absolute-deviation fitting) or the maximum of components
(minimax).  Restricting h to these two shapes is what lets every
trust-region subproblem be rewritten as a linear program.

This module also provides the p-norm utilities and the tight
norm-equivalence constants c_{2,p}(n) and c_{p,2}(m) that the stepsize
and radius rules depend on:

    ||x||_2 <= c_{2,p}(n) ||x||_p   on R^n
    ||z||_p <= c_{p,2}(m) ||z||_2   on R^m

p is 1 or inf, the two norms whose subproblems are linear programs.  The
``from_value`` methods take the members and the exact strings "1",
"inf", "l1" and "minimax", and refuse any other value with a ValueError.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# float64 machine precision, 2**-52
MACHINE_EPS = float(np.finfo(np.float64).eps)


class PNorm(enum.Enum):
    """Which p-norm defines the trust region: p in {1, inf}."""

    ONE = "1"
    INF = "inf"

    @classmethod
    def from_value(cls, value) -> "PNorm":
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f'p = {value} is not "1" or "inf", the norms with a linear subproblem') from None


def norm(v, p: PNorm) -> float:
    """The p-norm of a vector, p in {1, inf}."""
    v = np.asarray(v, dtype=float)
    if p is PNorm.ONE:
        return float(np.add.reduce(np.abs(v)))
    return float(np.maximum.reduce(np.abs(v))) if v.size else 0.0


def norm_constants(p: PNorm, n: int, m: int) -> tuple[float, float]:
    """``(c2p_n, cp2_m)``: the tight c_{2,p}(n) and c_{p,2}(m) above."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be at least 1")
    if p is PNorm.ONE:
        return 1.0, math.sqrt(m)
    return math.sqrt(n), 1.0


class OuterFunction(enum.Enum):
    """The known convex outer function h applied to the residual vector.

    L1 is the sum of absolute values; MINIMAX is the maximum component.
    Both are positively homogeneous, which the subproblem layer relies
    on.
    """

    L1 = "l1"
    MINIMAX = "minimax"

    def lipschitz(self, p: PNorm, m: int) -> float:
        """Lipschitz constant of h with respect to the p-norm on R^m."""
        return 1.0 if self is OuterFunction.MINIMAX or p is PNorm.ONE else float(m)

    @classmethod
    def from_value(cls, value) -> "OuterFunction":
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f'h = {value} is not "l1" or "minimax"') from None


def eval_h(h: OuterFunction, z) -> float:
    z = np.asarray(z, dtype=float)
    if h is OuterFunction.L1:
        return float(np.add.reduce(np.abs(z)))
    return float(np.maximum.reduce(z))


@dataclass(frozen=True)
class FeasibleRegion:
    """Polyhedron {x : lower <= x <= upper, a_i . x <= b_i}.

    Bounds may be infinite but not NaN, and every row entry must be
    finite; an empty constraint list with infinite bounds represents the
    unconstrained region.  ``sides`` says which sides of the box are
    finite, upper then lower per coordinate (the order of the p = 1
    subproblem's side rows), and ``bounded`` whether any
    is; every check of a point against the box skips it when none is.
    """

    lower: np.ndarray
    upper: np.ndarray
    linear_ineq: tuple = ()
    sides: np.ndarray = field(init=False, repr=False)
    bounded: bool = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("a bound is NaN")
        if (lower > upper).any():
            raise ValueError("lower bound exceeds upper bound")
        rows = []
        for a, b in self.linear_ineq:
            a = np.asarray(a, dtype=float)
            if a.shape != lower.shape:
                raise ValueError("inequality row has wrong length")
            b = float(b)
            if not (np.isfinite(a).all() and math.isfinite(b)):
                raise ValueError("inequality row has a non-finite entry")
            rows.append((a, b))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "linear_ineq", tuple(rows))
        object.__setattr__(self, "sides", np.isfinite(np.array([upper, lower]).T.ravel()))
        object.__setattr__(self, "bounded", bool(self.sides.any()))

    @classmethod
    def unconstrained(cls, n: int) -> "FeasibleRegion":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))

    @property
    def n(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.bounded and (
            np.logical_or.reduce(x < self.lower - tol) or np.logical_or.reduce(x > self.upper + tol)
        ):
            return False
        return all(float(a @ x) <= b + tol for a, b in self.linear_ineq)


@dataclass(frozen=True)
class Problem:
    """A composite instance: dimensions, oracle handle, h, region, start."""

    n: int
    m: int
    oracle: object
    h: OuterFunction
    region: FeasibleRegion
    x0: np.ndarray
    name: str = ""

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError("start point has wrong length")
        if not np.isfinite(x0).all():
            raise ValueError("start point is not finite")
        if self.region.n != self.n:
            raise ValueError("region dimension mismatch")
        if not self.region.contains(x0):
            raise ValueError("start point is infeasible")
        if getattr(self.oracle, "m", self.m) != self.m:
            raise ValueError("oracle output dimension mismatch")
        object.__setattr__(self, "x0", x0)
