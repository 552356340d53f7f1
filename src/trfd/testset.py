"""Benchmark problem registry: one ``BenchmarkProblem`` record for each
row of the table in ``trfd.problems``, which holds the residual maps,
closed-form Jacobians and certified reference optima."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problems
from .core import FeasibleRegion, OuterFunction, Problem
from .oracle import InProcessOracle


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
        # imported here: the audits alone need it, not a campaign's set-up
        from .diagnostics import AnalyticProblem

        lo, hi = self.jacobian_box
        return AnalyticProblem(
            problem=self.make_problem(),
            jacobian=self.jacobian,
            lipschitz_jacobian=self.lipschitz_jacobian,
            box=(np.full(self.n, lo, dtype=float), np.full(self.n, hi, dtype=float)),
        )


_REGISTRY = [BenchmarkProblem(name, OuterFunction.from_value(h), *rest) for name, h, *rest in problems.REGISTRY]


def registry() -> list:
    """All benchmark problems, least-absolute-deviation family first."""
    return list(_REGISTRY)


def registry_by_name(name: str) -> BenchmarkProblem:
    return _REGISTRY[problems.find(name)]


def registry_family(family) -> list:
    """The problems of one family, "l1" or "minimax", or every problem for "all"."""
    if family == "all":
        return registry()
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
