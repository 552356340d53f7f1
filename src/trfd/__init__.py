"""Derivative-free trust-region solver for composite objectives h(F(x)).

The inner map F is a black box reached through a counted oracle; its
Jacobian is modeled by forward finite differences whose stepsize is
coupled to the trust-region radius.  The outer function h is the 1-norm
or the maximum of components, so every subproblem is solved exactly as
a small dense linear program.

Each name is imported from the submodule that defines it (``trfd.core``,
``trfd.oracle``, ``trfd.solver``, ...).  The package itself imports no
submodule, so ``python -m trfd.demo_oracle`` starts an oracle child
without loading the solver, the simplex or the campaign runner.
"""

__version__ = "0.1.0"
