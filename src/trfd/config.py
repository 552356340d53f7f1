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

Solver entries accept optional overrides (epsilon, alpha, delta_star,
stop_delta, stop_eta) passed straight to the parameter factory.  In
both documents, and in each row, any other key is refused: a misspelt
one must not go unread, and a campaign names each problem and solver
once.  "h", "p" and "family" take the exact spellings shown and no
other.  Bounds may be infinite but not NaN; rows and the start point
must be finite.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .bench import DEFAULT_TOLERANCES, Campaign, SolverConfig, check_tolerance
from .core import FeasibleRegion, OuterFunction, Problem
from .oracle import ExternalOracle, InProcessOracle
from .testset import registry, registry_by_name, registry_family

PROBLEM_KEYS = ("name", "n", "m", "h", "x0", "start", "lower", "upper", "linear_ineq", "oracle")
ORACLE_KEYS = ("registry", "command", "timeout")
CAMPAIGN_KEYS = ("problems", "solvers", "budget_simplex_gradients", "tolerances")
OVERRIDE_KEYS = ("epsilon", "alpha", "delta_star", "stop_delta", "stop_eta")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def problem_from_config(doc: dict) -> Problem:
    """Build a Problem from one problem document."""
    _known_keys(doc, PROBLEM_KEYS, "the problem config")
    n, m = (_count(doc[key], f'"{key}"') for key in ("n", "m"))
    h = OuterFunction.from_value(doc["h"])
    name = doc.get("name", "")

    def bound(key, fill):
        raw = doc.get(key)
        if raw is None:
            return np.full(n, fill)
        return np.array([fill if v is None else float(v) for v in raw])

    rows = []
    for row in doc.get("linear_ineq", []):
        if not isinstance(row, dict):
            raise ValueError(f'a "linear_ineq" row must be an object with keys a and b, not {row!r}')
        _known_keys(row, ("a", "b"), 'a "linear_ineq" row')
        rows.append((np.asarray(row["a"], dtype=float), float(row["b"])))
    region = FeasibleRegion(bound("lower", -np.inf), bound("upper", np.inf), rows)

    start = doc.get("x0", "registry" if "start" in doc else None)
    if isinstance(start, str) or start is None:
        x0 = np.asarray(registry_by_name(name).x0, dtype=float)
    else:
        x0 = np.asarray(start, dtype=float)

    binding = doc["oracle"]
    _known_keys(binding, ORACLE_KEYS, '"oracle"')
    if "registry" in binding:
        bp = registry_by_name(binding["registry"])
        if bp.m != m:
            raise ValueError(f"registry oracle {bp.name!r} has m={bp.m}, config says {m}")
        oracle = InProcessOracle(bp.residuals, m)
    elif "command" in binding:
        timeout = binding.get("timeout")
        if "timeout" in binding and not _number(timeout, '"timeout"') > 0:
            raise ValueError(f'"timeout" must be a positive number of seconds, not {timeout!r}')
        oracle = ExternalOracle(binding["command"], n=n, m=m, timeout=timeout)
    else:
        raise ValueError("oracle binding needs 'registry' or 'command'")

    return Problem(n=n, m=m, oracle=oracle, h=h, region=region, x0=x0, name=name)


def campaign_from_config(doc: dict) -> Campaign:
    if not isinstance(doc, dict):
        raise ValueError("a campaign config must be a JSON object")
    _known_keys(doc, CAMPAIGN_KEYS, "the campaign config")
    selection = doc.get("problems", {"family": "all"})
    if isinstance(selection, dict):
        _known_keys(selection, ("family",), '"problems"')
        family = selection.get("family", "all")
        problems = registry() if family == "all" else registry_family(family)
    elif isinstance(selection, list):
        problems = [registry_by_name(name) for name in selection]
    else:
        raise ValueError('"problems" must be a list of names or a {"family": ...} object')
    _distinct([bp.name for bp in problems], "problem")

    entries = doc.get("solvers", [{"name": "TRFD-L1", "p": "1"}])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError('"solvers" must be a list of objects')
    solvers = []
    for entry in entries:
        if not isinstance(entry.get("name"), str):
            raise ValueError('every "solvers" entry needs a string "name"')
        _known_keys(entry, ("name", "p", *OVERRIDE_KEYS), f'solver "{entry["name"]}"')
        overrides = {k: _number(v, f'solver override "{k}"') for k, v in entry.items() if k in OVERRIDE_KEYS}
        solvers.append(
            SolverConfig(
                name=entry["name"],
                p=str(entry.get("p", "1")),
                overrides=tuple(sorted(overrides.items())),
            )
        )
    _distinct([config.name for config in solvers], "solver")

    simplex_gradients = _count(doc.get("budget_simplex_gradients", 100), '"budget_simplex_gradients"')
    # build each solver's parameters once, on every problem, so that a
    # value out of range fails here, before any run starts
    for config in solvers:
        for bp in problems:
            try:
                config.build_params(bp.make_problem(), simplex_gradients)
            except ValueError as exc:
                raise ValueError(f'solver "{config.name}": {exc}') from None

    tolerances = doc.get("tolerances", DEFAULT_TOLERANCES)
    if not isinstance(tolerances, (list, tuple)):
        raise ValueError('"tolerances" must be a list of numbers')
    try:
        tolerances = tuple(check_tolerance(_number(t, "a tolerance")) for t in tolerances)
    except ValueError as exc:
        raise ValueError(f'"tolerances": {exc}') from None
    return Campaign(
        problems=problems,
        solver_configs=solvers,
        simplex_gradients=simplex_gradients,
        tolerances=tolerances,
    )


def _known_keys(doc, known, where):
    """A ValueError naming the first key of ``doc`` outside ``known``."""
    for key in doc:
        if key not in known:
            raise ValueError(f'unknown key "{key}" in {where}; expected one of {", ".join(known)}')


def _distinct(names, what):
    """A ValueError unless ``names`` is nonempty and each can name, once,
    the trace files of a (problem, solver) pair."""
    if not names:
        raise ValueError(f"the campaign config names no {what}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f'{what} "{name}" appears twice in the campaign config')
        if not name or "/" in name or "\0" in name:
            raise ValueError(f'{what} name {name!r} may not be empty or hold "/" or NUL: it names trace files')


def _count(value, what):
    """value, when it is a JSON integer of at least 1; a ValueError
    naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a whole number of at least 1, not {value!r}")
    return value


def _number(value, what):
    """value, when it is a finite JSON number; a ValueError naming ``what``
    otherwise.  ``json.load`` reads NaN and Infinity as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, not {value!r}")
    return value
