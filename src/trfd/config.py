"""Declarative config documents for problems and campaigns.

Problem document (JSON, one object per problem):

    {
      "name": "rosenbrock",
      "n": 2, "m": 2,
      "h": "l1",                            # "l1" | "minimax"
      "x0": [-1.2, 1.0],                    # or "start": "registry"
      "lower": [...], "upper": [...],       # optional; null = unbounded
      "linear_ineq": [{"a": [...], "b": 3}] # optional rows a.x <= b
      "oracle": {"registry": "rosenbrock"}  # or {"command": "...", "timeout": 60}
    }

Campaign document:

    {
      "problems": ["rosenbrock", ...] | {"family": "l1" | "minimax" | "all"},
      "solvers": [{"name": "TRFD-L1", "p": "1"},
                  {"name": "TRFD-M", "p": "auto"}],
      "budget_simplex_gradients": 100,
      "tolerances": [1e-1, 1e-3, 1e-5, 1e-7]
    }

Solver entries accept optional overrides (epsilon, alpha, theta,
delta_star, stop_delta, stop_eta) passed straight to the parameter
factory.
"""
from __future__ import annotations

import json

import numpy as np

from .bench import DEFAULT_TOLERANCES, Campaign, SolverConfig
from .core import FeasibleRegion, OuterFunction, Problem
from .oracle import ExternalOracle, InProcessOracle
from .testset import registry, registry_by_name, registry_family


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def problem_from_config(doc: dict) -> Problem:
    """Build a Problem from one problem document."""
    n = int(doc["n"])
    m = int(doc["m"])
    h = OuterFunction.from_value(doc["h"])
    name = doc.get("name", "")

    def bound(key, fill):
        raw = doc.get(key)
        if raw is None:
            return np.full(n, fill)
        return np.array([fill if v is None else float(v) for v in raw])

    rows = tuple(
        (np.asarray(row["a"], dtype=float), float(row["b"]))
        for row in doc.get("linear_ineq", [])
    )
    region = FeasibleRegion(bound("lower", -np.inf), bound("upper", np.inf), rows)

    start = doc.get("x0", "registry" if "start" in doc else None)
    if isinstance(start, str) or start is None:
        x0 = np.asarray(registry_by_name(name).x0, dtype=float)
    else:
        x0 = np.asarray(start, dtype=float)

    binding = doc["oracle"]
    if "registry" in binding:
        bp = registry_by_name(binding["registry"])
        if bp.m != m:
            raise ValueError(f"registry oracle {bp.name!r} has m={bp.m}, config says {m}")
        oracle = InProcessOracle(bp.residuals, m)
    elif "command" in binding:
        oracle = ExternalOracle(binding["command"], n=n, m=m, timeout=binding.get("timeout"))
    else:
        raise ValueError("oracle binding needs 'registry' or 'command'")

    return Problem(n=n, m=m, oracle=oracle, h=h, region=region, x0=x0, name=name)


def campaign_from_config(doc: dict) -> Campaign:
    if not isinstance(doc, dict):
        raise ValueError("a campaign config must be a JSON object")
    selection = doc.get("problems", {"family": "all"})
    if isinstance(selection, dict):
        family = selection.get("family", "all")
        problems = registry() if family == "all" else registry_family(family)
    elif isinstance(selection, list):
        problems = [registry_by_name(name) for name in selection]
    else:
        raise ValueError('"problems" must be a list of names or a {"family": ...} object')

    entries = doc.get("solvers", [{"name": "TRFD-L1", "p": "1"}])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError('"solvers" must be a list of objects')
    solvers = []
    for entry in entries:
        if not isinstance(entry.get("name"), str):
            raise ValueError('every "solvers" entry needs a string "name"')
        overrides = {
            k: _number(v, f'solver override "{k}"')
            for k, v in entry.items()
            if k in ("epsilon", "alpha", "theta", "delta_star", "stop_delta", "stop_eta")
        }
        solvers.append(
            SolverConfig(
                name=entry["name"],
                p=str(entry.get("p", "1")),
                overrides=tuple(sorted(overrides.items())),
            )
        )

    tolerances = doc.get("tolerances", DEFAULT_TOLERANCES)
    if not isinstance(tolerances, (list, tuple)):
        raise ValueError('"tolerances" must be a list of numbers')
    return Campaign(
        problems=problems,
        solver_configs=solvers,
        simplex_gradients=int(doc.get("budget_simplex_gradients", 100)),
        tolerances=tuple(_number(t, '"tolerances"') for t in tolerances),
    )


def _number(value, what):
    """value, when it is a JSON number; a ValueError naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {value!r}")
    return value
