"""Benchmark problem registry.

Smooth residual vectors in the More-Garbow-Hillstrom tradition for the
least-absolute-deviation family, and classic finite minimax problems
for the minimax family, each with its standard literature start point.
Dimensions are desk scale (n up to 8, m up to 20) and every run is
unconstrained.

Reference optima (``f_ref``) are certified by scripts/certify_f_ref.py,
a multi-start derivative-free polish that is completely independent of
the trust-region solver; each value below carries the certification
output it was frozen from.  Problems whose optimum is exactly zero are
certified by direct evaluation at a known root of the residual vector.

A subset of problems carries closed-form Jacobians together with a
Lipschitz bound valid on a stated box; the bound is obtained by
bounding second derivatives analytically (derivations in comments) and
feeds the error-bound and radius-floor audits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import FeasibleRegion, OuterFunction, Problem
from .oracle import InProcessOracle

# ---------------------------------------------------------------------------
# residual vectors, least-absolute-deviation family


def linear_full_rank(x, m):
    x = np.asarray(x, dtype=float)
    t = 2.0 * x.sum() / m + 1.0
    out = np.full(m, -t)
    out[: x.size] += x
    return out


def linear_rank_one(x, m):
    x = np.asarray(x, dtype=float)
    s = float(np.arange(1, x.size + 1) @ x)
    return np.arange(1, m + 1) * s - 1.0


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def powell_singular(x):
    return np.array(
        [
            x[0] + 10.0 * x[1],
            math.sqrt(5.0) * (x[2] - x[3]),
            (x[1] - 2.0 * x[2]) ** 2,
            math.sqrt(10.0) * (x[0] - x[3]) ** 2,
        ]
    )


def powell_singular_jac(x):
    s5, s10 = math.sqrt(5.0), math.sqrt(10.0)
    return np.array(
        [
            [1.0, 10.0, 0.0, 0.0],
            [0.0, 0.0, s5, -s5],
            [0.0, 2.0 * (x[1] - 2.0 * x[2]), -4.0 * (x[1] - 2.0 * x[2]), 0.0],
            [2.0 * s10 * (x[0] - x[3]), 0.0, 0.0, -2.0 * s10 * (x[0] - x[3])],
        ]
    )


def freudenstein_roth(x):
    return np.array(
        [
            -13.0 + x[0] + ((5.0 - x[1]) * x[1] - 2.0) * x[1],
            -29.0 + x[0] + ((1.0 + x[1]) * x[1] - 14.0) * x[1],
        ]
    )


def freudenstein_roth_jac(x):
    return np.array(
        [
            [1.0, 10.0 * x[1] - 3.0 * x[1] ** 2 - 2.0],
            [1.0, 2.0 * x[1] + 3.0 * x[1] ** 2 - 14.0],
        ]
    )


BARD_Y = np.array(
    [0.14, 0.18, 0.22, 0.25, 0.29, 0.32, 0.35, 0.39, 0.37, 0.58, 0.73, 0.96, 1.34, 2.10, 4.39]
)


def bard(x):
    i = np.arange(1, 16, dtype=float)
    u = i
    v = 16.0 - i
    w = np.minimum(u, v)
    return BARD_Y - (x[0] + u / (v * x[1] + w * x[2]))


BEALE_Y = np.array([1.5, 2.25, 2.625])


def beale(x):
    i = np.arange(1, 4, dtype=float)
    return BEALE_Y - x[0] * (1.0 - x[1] ** i)


def beale_jac(x):
    i = np.arange(1, 4, dtype=float)
    return np.column_stack([x[1] ** i - 1.0, x[0] * i * x[1] ** (i - 1.0)])


def helical_valley(x):
    # theta is smooth away from the x1 = 0 plane; the standard start
    # sits on the branch-cut ray, as in the original test set
    if x[0] > 0:
        theta = math.atan(x[1] / x[0]) / (2.0 * math.pi)
    elif x[0] < 0:
        theta = math.atan(x[1] / x[0]) / (2.0 * math.pi) + 0.5
    else:
        theta = 0.25 if x[1] >= 0 else -0.25
    return np.array(
        [
            10.0 * (x[2] - 10.0 * theta),
            10.0 * (math.hypot(x[0], x[1]) - 1.0),
            x[2],
        ]
    )


GAUSSIAN_Y = np.array(
    [0.0009, 0.0044, 0.0175, 0.0540, 0.1295, 0.2420, 0.3521, 0.3989,
     0.3521, 0.2420, 0.1295, 0.0540, 0.0175, 0.0044, 0.0009]
)


def gaussian(x):
    t = (8.0 - np.arange(1, 16, dtype=float)) / 2.0
    return x[0] * np.exp(-x[1] * (t - x[2]) ** 2 / 2.0) - GAUSSIAN_Y


def box_3d(x, m):
    t = 0.1 * np.arange(1, m + 1, dtype=float)
    return np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * (np.exp(-t) - np.exp(-10.0 * t))


def wood(x):
    s90, s10 = math.sqrt(90.0), math.sqrt(10.0)
    return np.array(
        [
            10.0 * (x[1] - x[0] ** 2),
            1.0 - x[0],
            s90 * (x[3] - x[2] ** 2),
            1.0 - x[2],
            s10 * (x[1] + x[3] - 2.0),
            (x[1] - x[3]) / s10,
        ]
    )


def brown_dennis(x, m):
    t = np.arange(1, m + 1, dtype=float) / 5.0
    a = x[0] + t * x[1] - np.exp(t)
    b = x[2] + x[3] * np.sin(t) - np.cos(t)
    return a**2 + b**2


KOWALIK_V = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.167, 0.125, 0.1, 0.0833, 0.0714, 0.0625])
KOWALIK_Y = np.array(
    [0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)


def kowalik_osborne(x):
    num = KOWALIK_V * (KOWALIK_V + x[1])
    den = KOWALIK_V * (KOWALIK_V + x[2]) + x[3]
    return KOWALIK_Y - x[0] * num / den


def brown_almost_linear(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = x + x.sum() - (n + 1.0)
    out[-1] = float(np.prod(x)) - 1.0
    return out


def bdqrtic(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    k = n - 4
    out = np.empty(2 * k)
    for i in range(k):
        out[i] = -4.0 * x[i] + 3.0
        out[k + i] = (
            x[i] ** 2
            + 2.0 * x[i + 1] ** 2
            + 3.0 * x[i + 2] ** 2
            + 4.0 * x[i + 3] ** 2
            + 5.0 * x[n - 1] ** 2
        )
    return out


# ---------------------------------------------------------------------------
# minimax family


def cb2(x):
    return np.array(
        [
            x[0] ** 2 + x[1] ** 4,
            (2.0 - x[0]) ** 2 + (2.0 - x[1]) ** 2,
            2.0 * math.exp(x[1] - x[0]),
        ]
    )


def cb2_jac(x):
    e = 2.0 * math.exp(x[1] - x[0])
    return np.array(
        [
            [2.0 * x[0], 4.0 * x[1] ** 3],
            [-2.0 * (2.0 - x[0]), -2.0 * (2.0 - x[1])],
            [-e, e],
        ]
    )


def cb3(x):
    return np.array(
        [
            x[0] ** 4 + x[1] ** 2,
            (2.0 - x[0]) ** 2 + (2.0 - x[1]) ** 2,
            2.0 * math.exp(x[1] - x[0]),
        ]
    )


def dem(x):
    return np.array(
        [
            5.0 * x[0] + x[1],
            -5.0 * x[0] + x[1],
            x[0] ** 2 + x[1] ** 2 + 4.0 * x[1],
        ]
    )


def dem_jac(x):
    return np.array([[5.0, 1.0], [-5.0, 1.0], [2.0 * x[0], 2.0 * x[1] + 4.0]])


def ql(x):
    q = x[0] ** 2 + x[1] ** 2
    return np.array(
        [
            q,
            q + 10.0 * (-4.0 * x[0] - x[1] + 4.0),
            q + 10.0 * (-x[0] - 2.0 * x[1] + 6.0),
        ]
    )


def ql_jac(x):
    return np.array(
        [
            [2.0 * x[0], 2.0 * x[1]],
            [2.0 * x[0] - 40.0, 2.0 * x[1] - 10.0],
            [2.0 * x[0] - 10.0, 2.0 * x[1] - 20.0],
        ]
    )


def lq(x):
    return np.array(
        [
            -x[0] - x[1],
            -x[0] - x[1] + x[0] ** 2 + x[1] ** 2 - 1.0,
        ]
    )


def lq_jac(x):
    return np.array([[-1.0, -1.0], [2.0 * x[0] - 1.0, 2.0 * x[1] - 1.0]])


def mifflin1(x):
    return np.array(
        [
            -x[0],
            -x[0] + 20.0 * (x[0] ** 2 + x[1] ** 2 - 1.0),
        ]
    )


def wolfe(x):
    # polyhedral sharp minimum with the 9/16 gradient geometry of the
    # classical subgradient zigzag example; minimum 0 at the origin
    return np.array([9.0 * x[0] + 16.0 * x[1], 9.0 * x[0] - 16.0 * x[1], -x[0]])


def rosen_suzuki(x):
    f0 = (
        x[0] ** 2 + x[1] ** 2 + 2.0 * x[2] ** 2 + x[3] ** 2
        - 5.0 * x[0] - 5.0 * x[1] - 21.0 * x[2] + 7.0 * x[3]
    )
    c1 = 8.0 - x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2 - x[0] + x[1] - x[2] + x[3]
    c2 = 10.0 - x[0] ** 2 - 2.0 * x[1] ** 2 - x[2] ** 2 - 2.0 * x[3] ** 2 + x[0] + x[3]
    c3 = 5.0 - 2.0 * x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - 2.0 * x[0] + x[1] + x[3]
    return np.array([f0, f0 - 10.0 * c1, f0 - 10.0 * c2, f0 - 10.0 * c3])


def rosen_suzuki_jac(x):
    g0 = np.array([2.0 * x[0] - 5.0, 2.0 * x[1] - 5.0, 4.0 * x[2] - 21.0, 2.0 * x[3] + 7.0])
    gc1 = np.array([-2.0 * x[0] - 1.0, -2.0 * x[1] + 1.0, -2.0 * x[2] - 1.0, -2.0 * x[3] + 1.0])
    gc2 = np.array([-2.0 * x[0] + 1.0, -4.0 * x[1], -2.0 * x[2], -4.0 * x[3] + 1.0])
    gc3 = np.array([-4.0 * x[0] - 2.0, -2.0 * x[1] + 1.0, -2.0 * x[2], 1.0])
    return np.vstack([g0, g0 - 10.0 * gc1, g0 - 10.0 * gc2, g0 - 10.0 * gc3])


def maxq(x):
    return np.asarray(x, dtype=float) ** 2


def maxq_jac(x):
    return 2.0 * np.diag(np.asarray(x, dtype=float))


def maxl(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, -x])


def madsen(x):
    return np.array(
        [
            x[0] ** 2 + x[1] ** 2 + x[0] * x[1],
            math.sin(x[0]),
            math.cos(x[1]),
        ]
    )


CHEB_T = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
CHEB_Y = 1.0 / (1.0 + CHEB_T)


def chebyshev_line_fit(x):
    r = x[0] + x[1] * CHEB_T - CHEB_Y
    return np.concatenate([r, -r])


EXPFIT_T = np.array([0.0, 0.5, 1.0])
EXPFIT_Y = np.array([1.1, 1.6, 2.8])


def expfit_minimax(x):
    r = x[0] * np.exp(x[1] * EXPFIT_T) - EXPFIT_Y
    return np.concatenate([r, -r])


def _maxq_start(n):
    half = n // 2
    return tuple(float(i) for i in range(1, half + 1)) + tuple(
        float(-i) for i in range(half + 1, n + 1)
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    family: OuterFunction
    n: int
    m: int
    residuals: object
    x0: tuple
    f_ref: float
    f_ref_note: str
    jacobian: object = None
    lipschitz_jacobian: float = None
    jacobian_box: tuple = None

    def make_problem(self) -> Problem:
        return Problem(
            n=self.n,
            m=self.m,
            oracle=InProcessOracle(self.residuals, self.m),
            h=self.family,
            region=FeasibleRegion.unconstrained(self.n),
            x0=np.asarray(self.x0, dtype=float),
            name=self.name,
        )

    def analytic(self):
        if self.jacobian is None:
            return None
        from .diagnostics import AnalyticProblem

        lo, hi = self.jacobian_box
        return AnalyticProblem(
            problem=self.make_problem(),
            jacobian=self.jacobian,
            lipschitz_jacobian=self.lipschitz_jacobian,
            box=(np.full(self.n, lo, dtype=float), np.full(self.n, hi, dtype=float)),
            f_star=self.f_ref,
        )


def _l1(name, fn, n, m, x0, f_ref, note, **kw):
    return BenchmarkProblem(name, OuterFunction.L1, n, m, fn, tuple(x0), f_ref, note, **kw)


def _mm(name, fn, n, m, x0, f_ref, note, **kw):
    return BenchmarkProblem(name, OuterFunction.MINIMAX, n, m, fn, tuple(x0), f_ref, note, **kw)


_REGISTRY = [
    # --- least-absolute-deviation family -----------------------------------
    # L_J derivations: rosenbrock J varies only through -20*x1, so
    # ||J(x)-J(y)||_2 = 20|x1-y1|; powell_singular rows 3/4 have constant
    # Hessians of norm 10 and 4*sqrt(10), giving sqrt(10^2+160) < 16.2;
    # freudenstein_roth second derivatives 10-6*x2 and 2+6*x2 are below
    # 100/92 for |x2| <= 15; beale Hessian norms are bounded by 1, 18 and
    # 182.25 for |x| <= 4.5, giving sqrt-sum < 184.
    _l1("linear_full_rank", partial(linear_full_rank, m=10), 5, 10, (1.0,) * 5,
        5.0, "analytic: sum|x_i - t| >= |sum(x) - 5t| = 5; certify_f_ref.py: 5.0000000000000"),
    _l1("linear_rank_one", partial(linear_rank_one, m=10), 5, 10, (1.0,) * 5,
        27.0 / 7.0, "weighted median gives 27/7; certify_f_ref.py: 3.8571428571429"),
    _l1("rosenbrock", rosenbrock, 2, 2, (-1.2, 1.0),
        0.0, "residuals vanish at (1, 1); certify_f_ref.py: 0.0000000000000",
        jacobian=rosenbrock_jac, lipschitz_jacobian=20.0, jacobian_box=(-5.0, 5.0)),
    _l1("powell_singular", powell_singular, 4, 4, (3.0, -1.0, 0.0, 1.0),
        0.0, "residuals vanish at the origin; certify_f_ref.py: 0.0000000000000",
        jacobian=powell_singular_jac, lipschitz_jacobian=16.2, jacobian_box=(-10.0, 10.0)),
    _l1("freudenstein_roth", freudenstein_roth, 2, 2, (0.5, -2.0),
        0.0, "residuals vanish at (5, 4); certify_f_ref.py: 0.0000000000000",
        jacobian=freudenstein_roth_jac, lipschitz_jacobian=136.0, jacobian_box=(-15.0, 15.0)),
    _l1("bard", bard, 3, 15, (1.0, 1.0, 1.0),
        0.1243383157276, "certify_f_ref.py: 0.1243383157276 at (0.1009, 1.5252, 1.9721)"),
    _l1("beale", beale, 2, 3, (1.0, 1.0),
        0.0, "residuals vanish at (3, 0.5); certify_f_ref.py: 0.0000000000000",
        jacobian=beale_jac, lipschitz_jacobian=184.0, jacobian_box=(-4.5, 4.5)),
    _l1("helical_valley", helical_valley, 3, 3, (-1.0, 0.0, 0.0),
        0.0, "residuals vanish at (1, 0, 0); certify_f_ref.py: 0.0000000000000"),
    _l1("gaussian", gaussian, 3, 15, (0.4, 1.0, 0.0),
        0.0003381651607, "certify_f_ref.py: 0.0003381651607 at (0.39898, 0.99996, 0)"),
    _l1("box_3d", partial(box_3d, m=10), 3, 10, (0.0, 10.0, 20.0),
        0.0, "residuals vanish at (1, 10, 1); certify_f_ref.py: 0.0000000000000"),
    _l1("wood", wood, 4, 6, (-3.0, -1.0, -3.0, -1.0),
        0.0, "residuals vanish at (1, 1, 1, 1); certify_f_ref.py: 0.0000000000000"),
    _l1("brown_dennis", partial(brown_dennis, m=20), 4, 20, (25.0, 5.0, -5.0, -1.0),
        903.2343317964182, "certify_f_ref.py: 903.2343317964182 at (-10.224, 11.908, -0.458, 0.580)"),
    _l1("kowalik_osborne", kowalik_osborne, 4, 11, (0.25, 0.39, 0.415, 0.39),
        0.0387679733591, "certify_f_ref.py: 0.0387679733591 at (0.1934, 0.1938, 0.1089, 0.1397)"),
    _l1("brown_almost_linear", brown_almost_linear, 5, 5, (0.5,) * 5,
        0.0, "residuals vanish at (1, 1, 1, 1, 1); certify_f_ref.py: 0.0000000000000"),
    _l1("bdqrtic_8", bdqrtic, 8, 8, (1.0,) * 8,
        7.1625, "certify_f_ref.py: 7.1625000000000 at (0.75, 2/3, 1/3, 0.2, 0, 0, 0, 0)"),
    # --- minimax family -----------------------------------------------------
    # L_J derivations: cb2 Hessian norms on |x| <= 2 are 48, 2 and
    # 4*e^4 < 218.4, sqrt-sum < 224; dem/lq/maxq have constant Hessians of
    # norm 2; ql rows share the Hessian 2*I, sqrt(3)*2 < 3.47; rosen_suzuki
    # diagonal Hessians have norms 4/24/42/42, sqrt-sum < 65.  For the
    # constant-Hessian problems the forward-difference error sits exactly
    # at the bound, so those certificates carry a few percent of padding
    # to keep evaluation rounding under it (still valid upper bounds).
    _mm("cb2", cb2, 2, 3, (1.0, -0.1),
        1.9522244938707, "certify_f_ref.py: 1.9522244938707 at (1.13904, 0.89956)",
        jacobian=cb2_jac, lipschitz_jacobian=224.0, jacobian_box=(-2.0, 2.0)),
    _mm("cb3", cb3, 2, 3, (2.0, 2.0),
        2.0, "pieces all equal 2 at (1, 1); certify_f_ref.py: 2.0000000000000"),
    _mm("dem", dem, 2, 3, (1.0, 1.0),
        -3.0, "pieces all equal -3 at (0, -3); certify_f_ref.py: -3.0000000000000",
        jacobian=dem_jac, lipschitz_jacobian=2.1, jacobian_box=(-100.0, 100.0)),
    _mm("ql", ql, 2, 3, (-1.0, 5.0),
        7.2, "pieces 1 and 3 equal 7.2 at (1.2, 2.4); certify_f_ref.py: 7.2000000000000",
        jacobian=ql_jac, lipschitz_jacobian=3.6, jacobian_box=(-100.0, 100.0)),
    _mm("lq", lq, 2, 2, (-0.5, -0.5),
        -math.sqrt(2.0), "pieces meet at (1/sqrt2, 1/sqrt2); certify_f_ref.py: -1.4142135623731",
        jacobian=lq_jac, lipschitz_jacobian=2.1, jacobian_box=(-100.0, 100.0)),
    _mm("mifflin1", mifflin1, 2, 2, (0.8, 0.6),
        -1.0, "pieces equal -1 at (1, 0); certify_f_ref.py: -1.0000000000000"),
    _mm("wolfe", wolfe, 2, 3, (3.0, 2.0),
        0.0, "pieces meet at the origin; certify_f_ref.py: 0.0000000000000"),
    _mm("rosen_suzuki", rosen_suzuki, 4, 4, (0.0, 0.0, 0.0, 0.0),
        -44.0, "pieces 1, 2, 4 equal -44 at (0, 1, 2, -1); certify_f_ref.py: -43.9999999999963",
        jacobian=rosen_suzuki_jac, lipschitz_jacobian=65.0, jacobian_box=(-50.0, 50.0)),
    _mm("maxq_8", maxq, 8, 8, _maxq_start(8),
        0.0, "pieces vanish at the origin; certify_f_ref.py: 0.0000000000000",
        jacobian=maxq_jac, lipschitz_jacobian=2.0, jacobian_box=(-100.0, 100.0)),
    _mm("maxl_6", maxl, 6, 12, _maxq_start(6),
        0.0, "pieces vanish at the origin; certify_f_ref.py: 0.0000000000031"),
    _mm("madsen", madsen, 2, 3, (3.0, 1.0),
        0.6164324355608, "certify_f_ref.py: 0.6164324355608 at (-0.45330, 0.90659)"),
    _mm("chebyshev_line_fit", chebyshev_line_fit, 2, 10, (0.0, 0.0),
        1.0 / 24.0, "discrete equioscillation at nodes {0, .5, 1} gives 1/24; certify_f_ref.py: 0.0416666666667"),
    _mm("expfit_minimax", expfit_minimax, 2, 6, (0.5, 0.5),
        0.0732394366197, "certify_f_ref.py: 0.0732394366197 at (1.02676, 0.97671)"),
]


def registry() -> list:
    """All benchmark problems, least-absolute-deviation family first."""
    return list(_REGISTRY)


def registry_by_name(name: str) -> BenchmarkProblem:
    for bp in _REGISTRY:
        if bp.name == name:
            return bp
    raise KeyError(f"no benchmark problem named {name!r}")


def registry_family(family) -> list:
    family = OuterFunction.from_value(family)
    return [bp for bp in _REGISTRY if bp.family is family]


def problem_to_config(bp: BenchmarkProblem) -> dict:
    """Export one registry entry in the problem config schema, bound to
    the registry oracle so an external process can mirror it."""
    return {
        "name": bp.name,
        "n": bp.n,
        "m": bp.m,
        "h": bp.family.value,
        "x0": [float(v) for v in bp.x0],
        "oracle": {"registry": bp.name},
    }
