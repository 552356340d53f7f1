"""Benchmark problems: residual maps, Jacobians and the registry table.

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

Each map takes a sequence of n floats and returns a list of m floats,
and each Jacobian a list of m rows.  The module imports ``math`` and
``functools`` alone, so that an oracle child (``trfd.demo_oracle``)
serves residuals without loading numpy or the solver; ``trfd.testset``
builds its ``BenchmarkProblem`` records, whose maps take and return
arrays, from REGISTRY.

Each rounding is chosen, since pinned traces depend on the bits: the
maps were first written in numpy, where a vector squared is ``v * v``
(numpy's ``square``) and a scalar squared a ``pow``, and each square
below keeps its form; sums run left to right through ``_sum``, as
numpy's do below 8 terms, because ``sum()`` is compensated from Python
3.12 on.
"""
from __future__ import annotations

import math
from functools import partial


def _sum(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


# ---------------------------------------------------------------------------
# residual vectors, least-absolute-deviation family


def linear_full_rank(x, m):
    t = 2.0 * _sum(x) / m + 1.0
    return [v - t for v in x] + [-t] * (m - len(x))


def linear_rank_one(x, m):
    s = _sum(i * v for i, v in enumerate(x, 1))
    return [i * s - 1.0 for i in range(1, m + 1)]


def rosenbrock(x):
    return [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]


def rosenbrock_jac(x):
    return [[-20.0 * x[0], 10.0], [-1.0, 0.0]]


def powell_singular(x):
    return [
        x[0] + 10.0 * x[1],
        math.sqrt(5.0) * (x[2] - x[3]),
        (x[1] - 2.0 * x[2]) ** 2,
        math.sqrt(10.0) * (x[0] - x[3]) ** 2,
    ]


def powell_singular_jac(x):
    s5, s10 = math.sqrt(5.0), math.sqrt(10.0)
    return [
        [1.0, 10.0, 0.0, 0.0],
        [0.0, 0.0, s5, -s5],
        [0.0, 2.0 * (x[1] - 2.0 * x[2]), -4.0 * (x[1] - 2.0 * x[2]), 0.0],
        [2.0 * s10 * (x[0] - x[3]), 0.0, 0.0, -2.0 * s10 * (x[0] - x[3])],
    ]


def freudenstein_roth(x):
    return [
        -13.0 + x[0] + ((5.0 - x[1]) * x[1] - 2.0) * x[1],
        -29.0 + x[0] + ((1.0 + x[1]) * x[1] - 14.0) * x[1],
    ]


def freudenstein_roth_jac(x):
    return [
        [1.0, 10.0 * x[1] - 3.0 * x[1] ** 2 - 2.0],
        [1.0, 2.0 * x[1] + 3.0 * x[1] ** 2 - 14.0],
    ]


BARD_Y = (0.14, 0.18, 0.22, 0.25, 0.29, 0.32, 0.35, 0.39, 0.37, 0.58, 0.73, 0.96, 1.34, 2.10, 4.39)


def bard(x):
    return [y - (x[0] + u / ((16.0 - u) * x[1] + min(u, 16.0 - u) * x[2]))
            for u, y in zip(map(float, range(1, 16)), BARD_Y)]


BEALE_Y = (1.5, 2.25, 2.625)


def beale(x):
    return [y - x[0] * (1.0 - x[1] ** i) for i, y in zip((1.0, 2.0, 3.0), BEALE_Y)]


def beale_jac(x):
    return [[x[1] ** i - 1.0, x[0] * i * x[1] ** (i - 1.0)] for i in (1.0, 2.0, 3.0)]


def helical_valley(x):
    # theta is smooth away from the x1 = 0 plane; the standard start
    # sits on the branch-cut ray, as in the original test set
    if x[0] > 0:
        theta = math.atan(x[1] / x[0]) / (2.0 * math.pi)
    elif x[0] < 0:
        theta = math.atan(x[1] / x[0]) / (2.0 * math.pi) + 0.5
    else:
        theta = 0.25 if x[1] >= 0 else -0.25
    return [10.0 * (x[2] - 10.0 * theta), 10.0 * (math.hypot(x[0], x[1]) - 1.0), x[2]]


GAUSSIAN_Y = (0.0009, 0.0044, 0.0175, 0.0540, 0.1295, 0.2420, 0.3521, 0.3989,
              0.3521, 0.2420, 0.1295, 0.0540, 0.0175, 0.0044, 0.0009)


def gaussian(x):
    return [x[0] * math.exp(-x[1] * ((t - x[2]) * (t - x[2])) / 2.0) - y
            for t, y in zip(((8.0 - i) / 2.0 for i in range(1, 16)), GAUSSIAN_Y)]


def box_3d(x, m):
    return [math.exp(-t * x[0]) - math.exp(-t * x[1]) - x[2] * (math.exp(-t) - math.exp(-10.0 * t))
            for t in (0.1 * i for i in range(1, m + 1))]


def wood(x):
    s90, s10 = math.sqrt(90.0), math.sqrt(10.0)
    return [
        10.0 * (x[1] - x[0] ** 2),
        1.0 - x[0],
        s90 * (x[3] - x[2] ** 2),
        1.0 - x[2],
        s10 * (x[1] + x[3] - 2.0),
        (x[1] - x[3]) / s10,
    ]


def brown_dennis(x, m):
    out = []
    for t in (i / 5.0 for i in range(1, m + 1)):
        a = x[0] + t * x[1] - math.exp(t)
        b = x[2] + x[3] * math.sin(t) - math.cos(t)
        out.append(a * a + b * b)
    return out


KOWALIK_V = (4.0, 2.0, 1.0, 0.5, 0.25, 0.167, 0.125, 0.1, 0.0833, 0.0714, 0.0625)
KOWALIK_Y = (0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246)


def kowalik_osborne(x):
    return [y - x[0] * (v * (v + x[1])) / (v * (v + x[2]) + x[3]) for v, y in zip(KOWALIK_V, KOWALIK_Y)]


def brown_almost_linear(x):
    s, n = _sum(x), len(x)
    return [v + s - (n + 1.0) for v in x[:-1]] + [math.prod(x) - 1.0]


def bdqrtic(x):
    n, k = len(x), len(x) - 4
    return [-4.0 * v + 3.0 for v in x[:k]] + [
        x[i] ** 2 + 2.0 * x[i + 1] ** 2 + 3.0 * x[i + 2] ** 2 + 4.0 * x[i + 3] ** 2 + 5.0 * x[n - 1] ** 2
        for i in range(k)
    ]


# ---------------------------------------------------------------------------
# minimax family


def cb2(x):
    return [x[0] ** 2 + x[1] ** 4, (2.0 - x[0]) ** 2 + (2.0 - x[1]) ** 2, 2.0 * math.exp(x[1] - x[0])]


def cb2_jac(x):
    e = 2.0 * math.exp(x[1] - x[0])
    return [[2.0 * x[0], 4.0 * x[1] ** 3], [-2.0 * (2.0 - x[0]), -2.0 * (2.0 - x[1])], [-e, e]]


def cb3(x):
    return [x[0] ** 4 + x[1] ** 2, (2.0 - x[0]) ** 2 + (2.0 - x[1]) ** 2, 2.0 * math.exp(x[1] - x[0])]


def dem(x):
    return [5.0 * x[0] + x[1], -5.0 * x[0] + x[1], x[0] ** 2 + x[1] ** 2 + 4.0 * x[1]]


def dem_jac(x):
    return [[5.0, 1.0], [-5.0, 1.0], [2.0 * x[0], 2.0 * x[1] + 4.0]]


def ql(x):
    q = x[0] ** 2 + x[1] ** 2
    return [q, q + 10.0 * (-4.0 * x[0] - x[1] + 4.0), q + 10.0 * (-x[0] - 2.0 * x[1] + 6.0)]


def ql_jac(x):
    return [[2.0 * x[0], 2.0 * x[1]], [2.0 * x[0] - 40.0, 2.0 * x[1] - 10.0], [2.0 * x[0] - 10.0, 2.0 * x[1] - 20.0]]


def lq(x):
    return [-x[0] - x[1], -x[0] - x[1] + x[0] ** 2 + x[1] ** 2 - 1.0]


def lq_jac(x):
    return [[-1.0, -1.0], [2.0 * x[0] - 1.0, 2.0 * x[1] - 1.0]]


def mifflin1(x):
    return [-x[0], -x[0] + 20.0 * (x[0] ** 2 + x[1] ** 2 - 1.0)]


def wolfe(x):
    # polyhedral sharp minimum with the 9/16 gradient geometry of the
    # classical subgradient zigzag example; minimum 0 at the origin
    return [9.0 * x[0] + 16.0 * x[1], 9.0 * x[0] - 16.0 * x[1], -x[0]]


def rosen_suzuki(x):
    f0 = (
        x[0] ** 2 + x[1] ** 2 + 2.0 * x[2] ** 2 + x[3] ** 2
        - 5.0 * x[0] - 5.0 * x[1] - 21.0 * x[2] + 7.0 * x[3]
    )
    c1 = 8.0 - x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2 - x[0] + x[1] - x[2] + x[3]
    c2 = 10.0 - x[0] ** 2 - 2.0 * x[1] ** 2 - x[2] ** 2 - 2.0 * x[3] ** 2 + x[0] + x[3]
    c3 = 5.0 - 2.0 * x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - 2.0 * x[0] + x[1] + x[3]
    return [f0, f0 - 10.0 * c1, f0 - 10.0 * c2, f0 - 10.0 * c3]


def rosen_suzuki_jac(x):
    g0 = [2.0 * x[0] - 5.0, 2.0 * x[1] - 5.0, 4.0 * x[2] - 21.0, 2.0 * x[3] + 7.0]
    gc1 = [-2.0 * x[0] - 1.0, -2.0 * x[1] + 1.0, -2.0 * x[2] - 1.0, -2.0 * x[3] + 1.0]
    gc2 = [-2.0 * x[0] + 1.0, -4.0 * x[1], -2.0 * x[2], -4.0 * x[3] + 1.0]
    gc3 = [-4.0 * x[0] - 2.0, -2.0 * x[1] + 1.0, -2.0 * x[2], 1.0]
    return [g0] + [[a - 10.0 * b for a, b in zip(g0, gc)] for gc in (gc1, gc2, gc3)]


def maxq(x):
    return [v * v for v in x]


def maxq_jac(x):
    return [[2.0 * v if i == j else 0.0 for j in range(len(x))] for i, v in enumerate(x)]


def maxl(x):
    return [*x, *(-v for v in x)]


def madsen(x):
    return [x[0] ** 2 + x[1] ** 2 + x[0] * x[1], math.sin(x[0]), math.cos(x[1])]


CHEB_T = (0.0, 0.25, 0.5, 0.75, 1.0)
CHEB_Y = tuple(1.0 / (1.0 + t) for t in CHEB_T)


def chebyshev_line_fit(x):
    r = [x[0] + x[1] * t - y for t, y in zip(CHEB_T, CHEB_Y)]
    return r + [-v for v in r]


EXPFIT_T = (0.0, 0.5, 1.0)
EXPFIT_Y = (1.1, 1.6, 2.8)


def expfit_minimax(x):
    r = [x[0] * math.exp(x[1] * t) - y for t, y in zip(EXPFIT_T, EXPFIT_Y)]
    return r + [-v for v in r]


def _maxq_start(n):
    half = n // 2
    return tuple(float(i) for i in range(1, half + 1)) + tuple(
        float(-i) for i in range(half + 1, n + 1)
    )


# ---------------------------------------------------------------------------
# registry: one row per problem, least-absolute-deviation family first,
#   (name, h, n, m, residuals, x0, f_ref, f_ref_note)
# and, for a problem with a closed-form Jacobian, three more columns
#   (jacobian, lipschitz_jacobian, jacobian_box)
# where the Lipschitz bound holds on the box [lo, hi]^n.

REGISTRY = (
    # --- least-absolute-deviation family -----------------------------------
    # L_J derivations: rosenbrock J varies only through -20*x1, so
    # ||J(x)-J(y)||_2 = 20|x1-y1|; powell_singular rows 3/4 have constant
    # Hessians of norm 10 and 4*sqrt(10), giving sqrt(10^2+160) < 16.2;
    # freudenstein_roth second derivatives 10-6*x2 and 2+6*x2 are below
    # 100/92 for |x2| <= 15; beale Hessian norms are bounded by 1, 18 and
    # 182.25 for |x| <= 4.5, giving sqrt-sum < 184.
    ("linear_full_rank", "l1", 5, 10, partial(linear_full_rank, m=10), (1.0,) * 5,
        5.0, "analytic: sum|x_i - t| >= |sum(x) - 5t| = 5; certify_f_ref.py: 5.0000000000000"),
    ("linear_rank_one", "l1", 5, 10, partial(linear_rank_one, m=10), (1.0,) * 5,
        27.0 / 7.0, "weighted median gives 27/7; certify_f_ref.py: 3.8571428571429"),
    ("rosenbrock", "l1", 2, 2, rosenbrock, (-1.2, 1.0),
        0.0, "residuals vanish at (1, 1); certify_f_ref.py: 0.0000000000000",
        rosenbrock_jac, 20.0, (-5.0, 5.0)),
    ("powell_singular", "l1", 4, 4, powell_singular, (3.0, -1.0, 0.0, 1.0),
        0.0, "residuals vanish at the origin; certify_f_ref.py: 0.0000000000000",
        powell_singular_jac, 16.2, (-10.0, 10.0)),
    ("freudenstein_roth", "l1", 2, 2, freudenstein_roth, (0.5, -2.0),
        0.0, "residuals vanish at (5, 4); certify_f_ref.py: 0.0000000000000",
        freudenstein_roth_jac, 136.0, (-15.0, 15.0)),
    ("bard", "l1", 3, 15, bard, (1.0, 1.0, 1.0),
        0.1243383157276, "certify_f_ref.py: 0.1243383157276 at (0.1009, 1.5252, 1.9721)"),
    ("beale", "l1", 2, 3, beale, (1.0, 1.0),
        0.0, "residuals vanish at (3, 0.5); certify_f_ref.py: 0.0000000000000",
        beale_jac, 184.0, (-4.5, 4.5)),
    ("helical_valley", "l1", 3, 3, helical_valley, (-1.0, 0.0, 0.0),
        0.0, "residuals vanish at (1, 0, 0); certify_f_ref.py: 0.0000000000000"),
    ("gaussian", "l1", 3, 15, gaussian, (0.4, 1.0, 0.0),
        0.0003381651607, "certify_f_ref.py: 0.0003381651607 at (0.39898, 0.99996, 0)"),
    ("box_3d", "l1", 3, 10, partial(box_3d, m=10), (0.0, 10.0, 20.0),
        0.0, "residuals vanish at (1, 10, 1); certify_f_ref.py: 0.0000000000000"),
    ("wood", "l1", 4, 6, wood, (-3.0, -1.0, -3.0, -1.0),
        0.0, "residuals vanish at (1, 1, 1, 1); certify_f_ref.py: 0.0000000000000"),
    ("brown_dennis", "l1", 4, 20, partial(brown_dennis, m=20), (25.0, 5.0, -5.0, -1.0),
        903.2343317964182, "certify_f_ref.py: 903.2343317964182 at (-10.224, 11.908, -0.458, 0.580)"),
    ("kowalik_osborne", "l1", 4, 11, kowalik_osborne, (0.25, 0.39, 0.415, 0.39),
        0.0387679733591, "certify_f_ref.py: 0.0387679733591 at (0.1934, 0.1938, 0.1089, 0.1397)"),
    ("brown_almost_linear", "l1", 5, 5, brown_almost_linear, (0.5,) * 5,
        0.0, "residuals vanish at (1, 1, 1, 1, 1); certify_f_ref.py: 0.0000000000000"),
    ("bdqrtic_8", "l1", 8, 8, bdqrtic, (1.0,) * 8,
        7.1625, "certify_f_ref.py: 7.1625000000000 at (0.75, 2/3, 1/3, 0.2, 0, 0, 0, 0)"),
    # --- minimax family -----------------------------------------------------
    # L_J derivations: cb2 Hessian norms on |x| <= 2 are 48, 2 and
    # 4*e^4 < 218.4, sqrt-sum < 224; dem/lq/maxq have constant Hessians of
    # norm 2; ql rows share the Hessian 2*I, sqrt(3)*2 < 3.47; rosen_suzuki
    # diagonal Hessians have norms 4/24/42/42, sqrt-sum < 65.  For the
    # constant-Hessian problems the forward-difference error sits exactly
    # at the bound, so those certificates carry a few percent of padding
    # to keep evaluation rounding under it (still valid upper bounds).
    ("cb2", "minimax", 2, 3, cb2, (1.0, -0.1),
        1.9522244938707, "certify_f_ref.py: 1.9522244938707 at (1.13904, 0.89956)",
        cb2_jac, 224.0, (-2.0, 2.0)),
    ("cb3", "minimax", 2, 3, cb3, (2.0, 2.0),
        2.0, "pieces all equal 2 at (1, 1); certify_f_ref.py: 2.0000000000000"),
    ("dem", "minimax", 2, 3, dem, (1.0, 1.0),
        -3.0, "pieces all equal -3 at (0, -3); certify_f_ref.py: -3.0000000000000",
        dem_jac, 2.1, (-100.0, 100.0)),
    ("ql", "minimax", 2, 3, ql, (-1.0, 5.0),
        7.2, "pieces 1 and 3 equal 7.2 at (1.2, 2.4); certify_f_ref.py: 7.2000000000000",
        ql_jac, 3.6, (-100.0, 100.0)),
    ("lq", "minimax", 2, 2, lq, (-0.5, -0.5),
        -math.sqrt(2.0), "pieces meet at (1/sqrt2, 1/sqrt2); certify_f_ref.py: -1.4142135623731",
        lq_jac, 2.1, (-100.0, 100.0)),
    ("mifflin1", "minimax", 2, 2, mifflin1, (0.8, 0.6),
        -1.0, "pieces equal -1 at (1, 0); certify_f_ref.py: -1.0000000000000"),
    ("wolfe", "minimax", 2, 3, wolfe, (3.0, 2.0),
        0.0, "pieces meet at the origin; certify_f_ref.py: 0.0000000000000"),
    ("rosen_suzuki", "minimax", 4, 4, rosen_suzuki, (0.0, 0.0, 0.0, 0.0),
        -44.0, "pieces 1, 2, 4 equal -44 at (0, 1, 2, -1); certify_f_ref.py: -43.9999999999963",
        rosen_suzuki_jac, 65.0, (-50.0, 50.0)),
    ("maxq_8", "minimax", 8, 8, maxq, _maxq_start(8),
        0.0, "pieces vanish at the origin; certify_f_ref.py: 0.0000000000000",
        maxq_jac, 2.0, (-100.0, 100.0)),
    ("maxl_6", "minimax", 6, 12, maxl, _maxq_start(6),
        0.0, "pieces vanish at the origin; certify_f_ref.py: 0.0000000000031"),
    ("madsen", "minimax", 2, 3, madsen, (3.0, 1.0),
        0.6164324355608, "certify_f_ref.py: 0.6164324355608 at (-0.45330, 0.90659)"),
    ("chebyshev_line_fit", "minimax", 2, 10, chebyshev_line_fit, (0.0, 0.0),
        1.0 / 24.0, "discrete equioscillation at nodes {0, .5, 1} gives 1/24; certify_f_ref.py: 0.0416666666667"),
    ("expfit_minimax", "minimax", 2, 6, expfit_minimax, (0.5, 0.5),
        0.0732394366197, "certify_f_ref.py: 0.0732394366197 at (1.02676, 0.97671)"),
)


def find(name) -> int:
    """The position of problem ``name`` in REGISTRY."""
    for i, row in enumerate(REGISTRY):
        if row[0] == name:
            return i
    raise ValueError(f"no benchmark problem named {name!r}")

