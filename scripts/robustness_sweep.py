#!/usr/bin/env python3
"""Run the registry campaign on rescaled, shifted and constrained copies
of its problems.

Each case changes every registry problem in one way: its residuals are
multiplied by a scale (F -> s F), its coordinates are shifted
(x -> x + shift: the residuals are read at x - shift and the start moves
by shift), or its unconstrained region is replaced by one around the
start: a box of half-width 1 or 1e-3, or the half-space
sum(x) <= sum(x0), on whose boundary the start lies.  Every copy is
solved by both default solver configurations under the default budget,
and for each case the script prints how many runs ended in each
termination.  A run that ends in numerical_trouble under a change of
units or of region is a defect of the solver, not of the problem.

Usage:  PYTHONPATH=src python scripts/robustness_sweep.py [problem ...]
"""
import dataclasses
import sys
from collections import Counter

import numpy as np

from trfd.bench import TRFD_L1, TRFD_M
from trfd.core import FeasibleRegion, Problem
from trfd.solver import DEFAULT_SIMPLEX_GRADIENTS, solve
from trfd.testset import registry_by_name, registry_family


def box(half_width):
    return lambda x0: FeasibleRegion(x0 - half_width, x0 + half_width)


def half_space(x0):
    a = np.ones(x0.size)
    return FeasibleRegion(np.full(x0.size, -np.inf), np.full(x0.size, np.inf), [(a, float(a @ x0))])


# (name, residual scale, coordinate shift, region around the start or None)
CASES = (
    ("scale 1", 1.0, 0.0, None),
    ("residuals x1e8", 1e8, 0.0, None),
    ("residuals x1e-8", 1e-8, 0.0, None),
    ("coordinates +1e4", 1.0, 1e4, None),
    ("box x0 +- 1", 1.0, 0.0, box(1.0)),
    ("box x0 +- 1e-3", 1.0, 0.0, box(1e-3)),
    ("sum(x) <= sum(x0)", 1.0, 0.0, half_space),
)


def changed_problem(bp, scale, shift, region) -> Problem:
    def residuals(x):
        return scale * bp.residuals(x - shift)

    changed = dataclasses.replace(bp, residuals=residuals, x0=np.asarray(bp.x0, dtype=float) + shift)
    problem = changed.make_problem()
    return problem if region is None else dataclasses.replace(problem, region=region(problem.x0))


def sweep(problems) -> dict:
    """{case name: Counter of termination values} over ``problems``
    (registry entries) and both solver configs."""
    counts = {}
    for name, scale, shift, region in CASES:
        counts[name] = Counter()
        for bp in problems:
            for config in (TRFD_L1, TRFD_M):
                problem = changed_problem(bp, scale, shift, region)
                record = solve(problem, config.build_params(problem, DEFAULT_SIMPLEX_GRADIENTS))
                counts[name][record.termination.value] += 1
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    problems = [registry_by_name(name) for name in argv] if argv else registry_family("all")
    for name, counter in sweep(problems).items():
        terminations = ", ".join(f"{key}={value}" for key, value in sorted(counter.items()))
        print(f"{name:18s} {sum(counter.values())} runs: {terminations}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
