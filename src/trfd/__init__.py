"""Derivative-free trust-region solver for composite objectives h(F(x)).

The inner map F is a black box reached through a counted oracle; its
Jacobian is modeled by forward finite differences whose stepsize is
coupled to the trust-region radius.  The outer function h is the 1-norm
or the maximum of components, so every subproblem is solved exactly as
a small dense linear program.
"""

from .core import (
    MACHINE_EPS,
    FeasibleRegion,
    NormConstants,
    OuterFunction,
    PNorm,
    Problem,
    eval_h,
    norm,
    norm_constants,
)
from .jacobian import DegenerateStep, build_jacobian
from .oracle import (
    BlackBoxOracle,
    EvalBudget,
    ExternalOracle,
    HandshakeTimeout,
    InProcessOracle,
    OracleFailure,
    SpawnFailure,
)
from .simplex import LinearProgram, NumericalTrouble, SimplexResult, solve_lp
from .solver import (
    IterationClass,
    RunRecord,
    Termination,
    TrfdParams,
    compute_rho,
    load_trace,
    save_trace,
    solve,
)
from .subproblem import (
    SubproblemSolution,
    TrustRegionLP,
    UnsupportedNorm,
    reformulate,
    solve_tr_subproblem,
)

__all__ = [
    "MACHINE_EPS",
    "BlackBoxOracle",
    "DegenerateStep",
    "EvalBudget",
    "ExternalOracle",
    "FeasibleRegion",
    "HandshakeTimeout",
    "InProcessOracle",
    "IterationClass",
    "LinearProgram",
    "NormConstants",
    "NumericalTrouble",
    "OracleFailure",
    "OuterFunction",
    "PNorm",
    "Problem",
    "RunRecord",
    "SimplexResult",
    "SpawnFailure",
    "SubproblemSolution",
    "Termination",
    "TrfdParams",
    "TrustRegionLP",
    "UnsupportedNorm",
    "build_jacobian",
    "compute_rho",
    "eval_h",
    "load_trace",
    "norm",
    "norm_constants",
    "reformulate",
    "save_trace",
    "solve",
    "solve_lp",
    "solve_tr_subproblem",
]

__version__ = "0.1.0"
