"""Declarative config documents for problems and campaigns.

Problem document (JSON, one object per problem):

    {
      "name": "rosenbrock",                 # optional string
      "n": 2, "m": 2,                       # integers of at least 1
      "h": "l1",                            # "l1" | "minimax"
      "x0": [-1.2, 1.0],                    # n numbers
      "lower": [...], "upper": [...],       # optional; n numbers or nulls, null = unbounded
      "linear_ineq": [{"a": [...], "b": 3}] # optional rows a.x <= b, a of n numbers
      "oracle": {"registry": "rosenbrock"}  # or {"command": "...", "timeout": 60}
    }

Campaign document; every key is optional, the values shown are the
defaults, and "problems" defaults to {"family": "all"}:

    {
      "problems": ["rosenbrock", ...] | {"family": "l1" | "minimax" | "all"},
      "solvers": [{"name": "TRFD-L1", "p": "1"},
                  {"name": "TRFD-M", "p": "auto"}],
      "budget_simplex_gradients": 100,
      "tolerances": [1e-1, 1e-3, 1e-5, 1e-7]
    }

``{}`` is the campaign ``trfd run`` runs without a config.  The default
solvers are ``bench.TRFD_L1`` and ``bench.TRFD_M``, so a config without
"solvers" runs both.  Solver entries accept optional number overrides
(epsilon, alpha, delta_star, stop_delta, stop_eta) passed straight to
the parameter factory.  In both documents, and in each row, any other
key is refused: a misspelt one must not go unread.  A campaign names
each problem, solver and tolerance once, and each problem and solver by
a nonempty ASCII name without "/" or NUL: they name trace files and
profile columns, and a tolerance a profile file.  Every value is
read with ``jsontext.field`` and must have the JSON type shown, so a
boolean is no number; names, "h", "p", "family" and "command" are
strings, and "h", "p" and "family" take the exact spellings shown and
no other.  Bounds may be infinite but not NaN; rows and the start point
must be finite.
"""
from __future__ import annotations

import math

from .bench import DEFAULT_TOLERANCES, TRFD_L1, TRFD_M, Campaign, SolverConfig, check_tolerances
from .core import FeasibleRegion, OuterFunction, Problem
from .jsontext import at_least_one, check, field, is_a
from .oracle import DEFAULT_TIMEOUT, ExternalOracle, InProcessOracle
from .solver import DEFAULT_SIMPLEX_GRADIENTS
from .testset import registry_by_name, registry_family

PROBLEM_KEYS = ("name", "n", "m", "h", "x0", "lower", "upper", "linear_ineq", "oracle")
ORACLE_KEYS = ("registry", "command", "timeout")
CAMPAIGN_KEYS = ("problems", "solvers", "budget_simplex_gradients", "tolerances")
OVERRIDE_KEYS = ("epsilon", "alpha", "delta_star", "stop_delta", "stop_eta")


def problem_from_config(doc: dict) -> Problem:
    """Build a Problem from one problem document."""
    _known_keys(check(doc, "the problem config", "object"), PROBLEM_KEYS, "the problem config")
    n, m = (at_least_one(field(doc, key, "integer"), key) for key in ("n", "m"))
    h = OuterFunction.from_value(field(doc, "h", "string"))
    name = field(doc, "name", "string", default="")
    x0 = field(doc, "x0", "array", of="number", size=n)

    def bound(key, fill):
        raw = doc.get(key)
        raw = [None] * n if raw is None else check(raw, f'"{key}"', "array", of="number or null", size=n)
        return [fill if v is None else v for v in raw]

    rows = []
    for row in field(doc, "linear_ineq", "array", default=[]):
        _known_keys(check(row, 'a "linear_ineq" row', "object"), ("a", "b"), 'a "linear_ineq" row')
        rows.append((field(row, "a", "array", of="number", size=n), field(row, "b", "number")))
    region = FeasibleRegion(bound("lower", -math.inf), bound("upper", math.inf), rows)

    binding = field(doc, "oracle", "object")
    _known_keys(binding, ORACLE_KEYS, '"oracle"')
    if "registry" in binding:
        bp = registry_by_name(field(binding, "registry", "string"))
        # residuals of another n would ignore coordinates, or read past x
        for key, want, got in (("n", bp.n, n), ("m", bp.m, m)):
            if want != got:
                raise ValueError(f"registry oracle {bp.name!r} has {key}={want}, config says {got}")
        oracle = InProcessOracle(bp.residuals, m)
    elif "command" in binding:
        oracle = ExternalOracle(field(binding, "command", "string"), n=n, m=m,
                                timeout=binding.get("timeout", DEFAULT_TIMEOUT))
    else:
        raise ValueError("oracle binding needs 'registry' or 'command'")

    return Problem(n=n, m=m, oracle=oracle, h=h, region=region, x0=x0, name=name)


def campaign_from_config(doc: dict) -> Campaign:
    _known_keys(check(doc, "a campaign config", "object"), CAMPAIGN_KEYS, "the campaign config")
    selection = doc.get("problems", {"family": "all"})
    if is_a(selection, "object"):
        _known_keys(selection, ("family",), '"problems"')
        problems = registry_family(field(selection, "family", "string", default="all"))
    else:
        problems = [registry_by_name(name) for name in check(selection, '"problems"', "array", of="string")]
    _distinct([bp.name for bp in problems], "problem")

    solvers = []
    pair = [{"name": config.name, "p": config.p} for config in (TRFD_L1, TRFD_M)]
    for entry in field(doc, "solvers", "array", of="object", default=pair):
        name = field(entry, "name", "string")
        _known_keys(entry, ("name", "p", *OVERRIDE_KEYS), f'solver "{name}"')
        # TrfdParams refuses a NaN or infinite value when the parameters are built below
        overrides = {key: field(entry, key, "number") for key in OVERRIDE_KEYS if key in entry}
        solvers.append(SolverConfig(name=name, p=field(entry, "p", "string", default="1"),
                                    overrides=tuple(sorted(overrides.items()))))
    _distinct([config.name for config in solvers], "solver")

    key = "budget_simplex_gradients"
    simplex_gradients = at_least_one(field(doc, key, "integer", default=DEFAULT_SIMPLEX_GRADIENTS), key)
    # build each solver's parameters once, on every problem, so that a
    # value out of range fails here, before any run starts
    for config in solvers:
        for bp in problems:
            try:
                config.build_params(bp.make_problem(), simplex_gradients)
            except ValueError as exc:
                raise ValueError(f'solver "{config.name}": {exc}') from None

    tolerances = field(doc, "tolerances", "array", of="number", default=DEFAULT_TOLERANCES)
    try:
        tolerances = check_tolerances(tolerances)
    except ValueError as exc:
        raise ValueError(f'"tolerances": {exc}') from None
    return Campaign(problems, solvers, simplex_gradients, tolerances)


def _known_keys(doc, known, where):
    """A ValueError naming the first key of ``doc`` outside ``known``."""
    for key in doc:
        if key not in known:
            raise ValueError(f'unknown key "{key}" in {where}; expected one of {", ".join(known)}')


def _distinct(names, what):
    """A ValueError unless ``names`` is nonempty and each can name, once,
    the trace files of a (problem, solver) pair and a column of the
    ASCII profile CSVs."""
    if not names:
        raise ValueError(f"the campaign config names no {what}")
    for i, name in enumerate(names):
        if not name or "/" in name or "\0" in name or not name.isascii():
            raise ValueError(
                f'{what} name {ascii(name)} may not be empty or hold "/", NUL or a non-ASCII character:'
                " it names trace files and profile columns"
            )
        if name in names[:i]:
            raise ValueError(f'{what} "{name}" appears twice in the campaign config')
