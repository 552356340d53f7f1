"""Derivative-free trust-region solver for composite objectives h(F(x)).

The inner map F is a black box reached through a counted oracle; its
Jacobian is modeled by forward finite differences whose stepsize is
coupled to the trust-region radius.  The outer function h is the 1-norm
or the maximum of components, so every subproblem is solved exactly as
a small dense linear program.

The names below are imported from their submodules on first use
(PEP 562), so that ``python -m trfd.demo_oracle`` starts an oracle child
without loading the solver, the simplex or the campaign runner.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("MACHINE_EPS", "FeasibleRegion", "OuterFunction", "PNorm", "Problem", "eval_h",
         "norm", "norm_constants"),
        "core",
    ),
    **dict.fromkeys(("DegenerateStep", "build_jacobian"), "jacobian"),
    **dict.fromkeys(
        ("BlackBoxOracle", "EvalBudget", "ExternalOracle", "InProcessOracle", "OracleFailure"),
        "oracle",
    ),
    **dict.fromkeys(("LinearProgram", "NumericalTrouble", "SimplexResult", "solve_lp"), "simplex"),
    **dict.fromkeys(
        ("IterationClass", "RunRecord", "Termination", "TrfdParams", "compute_rho",
         "load_trace", "save_trace", "solve"),
        "solver",
    ),
    **dict.fromkeys(
        ("SubproblemSolution", "TrustRegionLP", "reformulate", "solve_tr_subproblem"),
        "subproblem",
    ),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
