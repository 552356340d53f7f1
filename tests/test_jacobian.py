import math

import numpy as np
import pytest
from conftest import rosenbrock_residuals

from trfd.jacobian import DegenerateStep, build_jacobian
from trfd.oracle import InProcessOracle
from trfd.problems import rosenbrock_jac

EPS = np.finfo(float).eps


def test_affine_exact_integer_data():
    # integer data and power-of-two tau keep every operation exact, so
    # forward differences recover the matrix bit for bit
    rng = np.random.default_rng(0)
    B = rng.integers(-5, 6, size=(3, 4)).astype(float)
    c = rng.integers(-5, 6, size=3).astype(float)
    x = rng.integers(-3, 4, size=4).astype(float)
    oracle = InProcessOracle(lambda v: B @ v + c, 3)
    for tau in (1.0, 0.5, 2.0**-10):
        A = build_jacobian(oracle.eval_F, x, B @ x + c, tau)
        assert np.array_equal(A, B)


def test_affine_float_data_entrywise_bound():
    rng = np.random.default_rng(1)
    B = rng.uniform(-2, 2, size=(4, 3))
    c = rng.uniform(-2, 2, size=4)
    oracle = InProcessOracle(lambda v: B @ v + c, 4)
    x = np.zeros(3)
    A = build_jacobian(oracle.eval_F, x, B @ x + c, 1.0)
    bound = 8 * EPS * np.linalg.norm(B, 2)
    assert np.max(np.abs(A - B)) <= bound


def test_scalar_square_example():
    oracle = InProcessOracle(lambda v: np.array([v[0] ** 2]), 1)
    A = build_jacobian(oracle.eval_F, np.array([1.0]), np.array([1.0]), 0.1)
    assert A[0, 0] == pytest.approx(2.1, abs=1e-12)


def test_rosenbrock_error_bound():
    # L_J = 20: the Jacobian varies only through the -20 x1 entry
    oracle = InProcessOracle(rosenbrock_residuals, 2)
    x = np.array([-1.2, 1.0])
    tau = 1e-6
    A = build_jacobian(oracle.eval_F, x, rosenbrock_residuals(x), tau)
    err = np.linalg.norm(A - rosenbrock_jac(x), 2)
    assert err <= (20.0 * math.sqrt(2) / 2.0) * tau * (1 + 1e-6)


def test_cost_contract_all_n():
    for n in range(1, 51):
        oracle = InProcessOracle(lambda v: v * 2.0, n)
        x = np.zeros(n)
        build_jacobian(oracle.eval_F, x, x * 2.0, 1e-4)
        assert oracle.eval_count == n


def test_first_order_error_slope():
    oracle = InProcessOracle(rosenbrock_residuals, 2)
    rng = np.random.default_rng(2)
    taus = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    slopes = []
    for _ in range(5):
        x = rng.uniform(-2, 2, 2)
        errs = [
            np.linalg.norm(build_jacobian(oracle.eval_F, x, rosenbrock_residuals(x), t) - rosenbrock_jac(x), 2)
            for t in taus
        ]
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        slopes.append(slope)
    for s in slopes:
        assert 0.8 <= s <= 1.2


def test_degenerate_tau_costs_nothing():
    # x[1] is the first coordinate with x_j + tau == x_j (x[2] is another)
    oracle = InProcessOracle(lambda v: v, 3)
    x = np.array([1.0, 1e9, 1e10])
    assert x[0] + 1e-12 != x[0] and x[1] + 1e-12 == x[1]
    with pytest.raises(DegenerateStep, match=r"^x\[1\] \+ tau is not representable \(tau=1e-12\)$"):
        build_jacobian(oracle.eval_F, x, x.copy(), 1e-12)
    assert oracle.eval_count == 0


def test_columns_use_supplied_base():
    # the base vector is trusted, never re-evaluated
    calls = []

    def fn(v):
        calls.append(np.array(v))
        return v * 3.0

    oracle = InProcessOracle(fn, 2)
    x = np.array([0.5, -0.5])
    build_jacobian(oracle.eval_F, x, x * 3.0, 0.25)
    assert len(calls) == 2
    assert not any(np.array_equal(c, x) for c in calls)
