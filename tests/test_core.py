import dataclasses

import numpy as np
import pytest

from trfd.core import (
    MACHINE_EPS,
    FeasibleRegion,
    OuterFunction,
    PNorm,
    eval_h,
    norm,
    norm_constants,
)


def test_norm_examples():
    v = [3.0, -4.0]
    assert norm(v, PNorm.ONE) == 7.0
    assert norm(v, PNorm.INF) == 4.0


def test_machine_eps():
    assert MACHINE_EPS == 2.0**-52


@pytest.mark.parametrize(
    "p, n, m, c2p, cp2",
    [
        (PNorm.ONE, 5, 9, 1.0, 3.0),
        (PNorm.INF, 4, 6, 2.0, 1.0),
    ],
)
def test_norm_constants_values(p, n, m, c2p, cp2):
    assert norm_constants(p, n, m) == (c2p, cp2)
    assert c2p >= 1.0 and cp2 >= 1.0
    for empty in ((0, m), (n, 0)):
        with pytest.raises(ValueError, match="^dimensions must be at least 1$"):
            norm_constants(p, *empty)


def test_norm_equivalence_random_and_tight():
    rng = np.random.default_rng(7)
    for p in PNorm:
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            c2p_n, cp2_m = norm_constants(p, n, m)
            x = rng.normal(size=n)
            z = rng.normal(size=m)
            assert np.linalg.norm(x) <= c2p_n * norm(x, p) * (1 + 1e-12)
            assert norm(z, p) <= cp2_m * np.linalg.norm(z) * (1 + 1e-12)
    # tightness: a canonical vector attains each bound
    n, m = 4, 6
    ones_n, e_n = np.ones(n), np.eye(n)[0]
    ones_m, e_m = np.ones(m), np.eye(m)[0]
    cases = {
        PNorm.ONE: (e_n, ones_m),
        PNorm.INF: (ones_n, e_m),
    }
    for p, (x, z) in cases.items():
        c2p_n, cp2_m = norm_constants(p, n, m)
        assert np.linalg.norm(x) == pytest.approx(c2p_n * norm(x, p), rel=1e-14)
        assert norm(z, p) == pytest.approx(cp2_m * np.linalg.norm(z), rel=1e-14)


def test_from_value_takes_the_exact_spellings_alone():
    assert [PNorm.from_value(v) for v in ("1", "inf", PNorm.INF)] == [PNorm.ONE, PNorm.INF, PNorm.INF]
    assert [OuterFunction.from_value(v) for v in ("l1", "minimax")] == list(OuterFunction)
    for spelling in ("2", "one", "two", "infinity", "Inf", " 1", 1):
        with pytest.raises(ValueError, match=f"^p = {spelling} is not"):
            PNorm.from_value(spelling)
    for spelling in ("max", "L1", "minimax "):
        with pytest.raises(ValueError, match=f"^h = {spelling} is not"):
            OuterFunction.from_value(spelling)


def test_eval_h_examples():
    assert eval_h(OuterFunction.L1, [1.0, -2.0, 3.0]) == 6.0
    assert eval_h(OuterFunction.MINIMAX, [1.0, -2.0, 3.0]) == 3.0
    assert eval_h(OuterFunction.MINIMAX, [-5.0]) == -5.0


def test_outer_function_lipschitz_table():
    m = 9
    assert OuterFunction.L1.lipschitz(PNorm.ONE, m) == 1.0
    assert OuterFunction.L1.lipschitz(PNorm.INF, m) == 9.0
    for p in PNorm:
        assert OuterFunction.MINIMAX.lipschitz(p, m) == 1.0


def test_lipschitz_property_1000_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        z = rng.uniform(-5, 5, m)
        w = rng.uniform(-5, 5, m)
        for h in OuterFunction:
            for p in PNorm:
                lip = h.lipschitz(p, m)
                gap = abs(eval_h(h, z) - eval_h(h, w))
                assert gap <= lip * norm(z - w, p) * (1 + 1e-12) + 1e-15


def test_convexity_property():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = int(rng.integers(1, 7))
        z = rng.uniform(-5, 5, m)
        w = rng.uniform(-5, 5, m)
        lam = float(rng.uniform(0, 1))
        for h in OuterFunction:
            mix = eval_h(h, lam * z + (1 - lam) * w)
            assert mix <= lam * eval_h(h, z) + (1 - lam) * eval_h(h, w) + 1e-12


def test_minimax_monotone_property():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = int(rng.integers(1, 7))
        u = rng.uniform(-5, 5, m)
        v = u + rng.uniform(0, 3, m)
        assert eval_h(OuterFunction.MINIMAX, u) <= eval_h(OuterFunction.MINIMAX, v)


def test_region_validation():
    region = FeasibleRegion([0.0, 0.0], [1.0, 2.0])
    assert region.contains([0.5, 1.0])
    assert not region.contains([1.5, 1.0])
    free = FeasibleRegion.unconstrained(3)
    assert np.all(np.isinf(free.lower)) and np.all(np.isinf(free.upper)) and not free.linear_ineq
    with pytest.raises(ValueError):
        FeasibleRegion([1.0], [0.0])
    for lower, upper in (([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError, match="^bounds must be 1-d arrays of equal length$"):
            FeasibleRegion(lower, upper)
    with pytest.raises(ValueError, match="^inequality row has wrong length$"):
        FeasibleRegion([0.0, 0.0], [1.0, 1.0], [([1.0], 1.0)])
    tri = FeasibleRegion(
        np.full(2, -np.inf), np.full(2, np.inf), ((np.array([1.0, 1.0]), 1.0),)
    )
    assert tri.contains([0.4, 0.4])
    assert not tri.contains([0.8, 0.8])


def test_problem_validation():
    from conftest import make_problem, rosenbrock_residuals

    prob = make_problem(rosenbrock_residuals, 2, 2, "l1", [-1.2, 1.0])
    assert eval_h(prob.h, [1.0, -2.0]) == 3.0
    with pytest.raises(ValueError):
        make_problem(
            rosenbrock_residuals, 2, 2, "l1", [5.0, 5.0],
            region=FeasibleRegion([0.0, 0.0], [1.0, 1.0]),
        )
    # each field against n and m, and the oracle's m against the problem's
    for change, message in (
        ({"x0": [1.0]}, "start point has wrong length"),
        ({"region": FeasibleRegion.unconstrained(3)}, "region dimension mismatch"),
        ({"m": 3}, "oracle output dimension mismatch"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(prob, **change)
