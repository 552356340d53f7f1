"""Benchmark problem registry: one ``BenchmarkProblem`` record for each
row of the table in ``trfd.problems``, which holds the residual maps,
closed-form Jacobians and certified reference optima."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import problems
from .core import FeasibleRegion, OuterFunction, Problem
from .oracle import InProcessOracle, OracleFailure


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
        """The audit's certificate: the record itself if it has a closed-form Jacobian, else None."""
        return self if self.jacobian is not None else None


def _on_floats(fn, x):
    """``fn``, a map of ``trfd.problems`` over lists of floats, at the
    float array ``x``, as an array.  A float fault (an overflow in ``exp``
    or ``**``, a division by zero) is a non-finite value, as numpy's would
    have been."""
    try:
        return np.array(fn(x.tolist()))
    except ArithmeticError as exc:
        raise OracleFailure(f"oracle returned non-finite values: {exc}") from None


def _record(name, h, n, m, residuals, x0, f_ref, note, jacobian=None, lipschitz=None, box=None):
    # partial, not a lambda: a process pool pickles the records
    if jacobian is not None:
        jacobian = partial(_on_floats, jacobian)
    return BenchmarkProblem(name, OuterFunction.from_value(h), n, m, partial(_on_floats, residuals), x0,
                            f_ref, note, jacobian, lipschitz, box)


_REGISTRY = [_record(*row) for row in problems.REGISTRY]


def registry_by_name(name: str) -> BenchmarkProblem:
    return _REGISTRY[problems.find(name)]


def registry_family(family) -> list:
    """The problems of one family, "l1" or "minimax", or every problem for
    "all", least-absolute-deviation family first."""
    if family == "all":
        return list(_REGISTRY)
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
