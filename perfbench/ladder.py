"""Seeded synthetic scaling ladder: large dense subproblem LPs.

Every rung has m = 2n residuals at n in LADDER_NS, in two families:

* ``l1``:      F(x) = A e + EPS_L1 * (1 - cos(C e)),  e = x - x*, solved
               with h = L1 and p = 1 (LPs of 2m + 1 rows, 2n + m columns).
* ``minimax``: F(x) = A e with the rows of A in pairs (a_i, -lam_i a_i),
               solved with h = max and p = inf (LPs of m rows, n + 1 columns).

Both are bounded below with a certified optimum f_ref = 0 at x*: the L1
objective is a sum of absolute values that all vanish at x*, and for the
minimax pieces max(a.e, -lam a.e) >= 0 for every e.  The start point sits
inside the initial unit trust region around x*, so with the fixed budget
each run takes two successful steps and then stops: L1 runs on the
budget, about 1e-5 of the initial gap short of f_ref, and minimax runs
on the eta floor at f_ref.  That path held for every seed tried; the
seed moves the data and, through it, the pivot counts.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

LADDER_NS = (10, 20, 40)
# simplex gradients per run: two model builds plus one more at the optimum
LADDER_BUDGET = 3
EPS_L1 = 0.05


@dataclass(frozen=True)
class Residuals:
    """F(x) = A (x - x*) + eps * (1 - cos(C (x - x*)))."""

    A: np.ndarray
    C: np.ndarray
    x_star: np.ndarray
    eps: float

    def __call__(self, x):
        e = np.asarray(x, dtype=float) - self.x_star
        return self.A @ e + self.eps * (1.0 - np.cos(self.C @ e))


@dataclass(frozen=True)
class LadderInstance:
    name: str
    family: str  # "l1" | "minimax"
    n: int
    m: int
    residuals: Residuals
    x0: np.ndarray
    f_ref: float = 0.0


def generate(seed: int) -> list:
    """The ladder for one workload seed, smallest rung first."""
    rng = np.random.default_rng([seed, 0x7F4D])
    out = []
    for n in LADDER_NS:
        out.append(_l1_instance(rng, n))
        out.append(_minimax_instance(rng, n))
    return out


def _l1_instance(rng, n):
    m = 2 * n
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    C = rng.standard_normal((m, n))
    x_star = rng.standard_normal(n)
    u = rng.standard_normal(n)
    u *= 0.5 / np.sum(np.abs(u))
    return LadderInstance(f"ladder_l1_n{n}", "l1", n, m, Residuals(A, C, x_star, EPS_L1), x_star + u)


def _minimax_instance(rng, n):
    m = 2 * n
    half = rng.standard_normal((n, n)) / np.sqrt(n)
    lam = rng.uniform(0.5, 1.5, size=n)
    A = np.vstack([half, -lam[:, None] * half])
    x_star = rng.standard_normal(n)
    u = rng.uniform(-0.5, 0.5, size=n)
    return LadderInstance(
        f"ladder_minimax_n{n}", "minimax", n, m, Residuals(A, np.zeros((m, n)), x_star, 0.0), x_star + u
    )


def fingerprint(instances) -> str:
    """sha256 over every array and scalar that defines the instances."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.name}|{inst.family}|{inst.n}|{inst.m}|{inst.f_ref!r}|{inst.residuals.eps!r}".encode())
        for arr in (inst.residuals.A, inst.residuals.C, inst.residuals.x_star, inst.x0):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()
