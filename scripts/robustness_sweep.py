#!/usr/bin/env python3
"""Run the registry campaign on rescaled and shifted copies of its problems.

Each case changes every registry problem in one way: its residuals are
multiplied by a scale (F -> s F), or its coordinates are shifted
(x -> x + shift: the residuals are read at x - shift and the start moves
by shift).  Every copy is solved by both default solver configurations
under the default budget, and for each case the script prints how many
runs ended in each termination.  A run that ends in numerical_trouble
under a change of units is a defect of the solver, not of the problem.

Usage:  PYTHONPATH=src python scripts/robustness_sweep.py [problem ...]
"""
import dataclasses
import sys
from collections import Counter

import numpy as np

from trfd.bench import TRFD_L1, TRFD_M
from trfd.core import Problem
from trfd.solver import solve
from trfd.testset import registry, registry_by_name

# (name, residual scale, coordinate shift)
CASES = (
    ("scale 1", 1.0, 0.0),
    ("residuals x1e8", 1e8, 0.0),
    ("residuals x1e-8", 1e-8, 0.0),
    ("coordinates +1e4", 1.0, 1e4),
)


def changed_problem(bp, scale, shift) -> Problem:
    def residuals(x):
        return scale * bp.residuals(x - shift)

    changed = dataclasses.replace(bp, residuals=residuals, x0=np.asarray(bp.x0, dtype=float) + shift)
    return changed.make_problem()


def sweep(problems) -> dict:
    """{case name: Counter of termination values} over ``problems``
    (registry entries) and both solver configs."""
    counts = {}
    for name, scale, shift in CASES:
        counts[name] = Counter()
        for bp in problems:
            for config in (TRFD_L1, TRFD_M):
                problem = changed_problem(bp, scale, shift)
                record = solve(problem, config.build_params(problem))
                counts[name][record.termination.value] += 1
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    problems = [registry_by_name(name) for name in argv] if argv else registry()
    for name, counter in sweep(problems).items():
        terminations = ", ".join(f"{key}={value}" for key, value in sorted(counter.items()))
        print(f"{name:18s} {sum(counter.values())} runs: {terminations}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
