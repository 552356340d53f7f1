"""The trust-region solve loop with coupled stepsize/radius updates.

Each iteration first classifies itself as one of four kinds:

  * U1:      entered at step 1 (a fresh model) and the criticality
             measure eta at the reference radius fell below epsilon/2;
             halve tau, rebuild the model.
  * success: the trial step achieved ratio rho >= alpha; accept it and
             double the radius (capped at the reference radius).
  * U2:      rho < alpha but tau * sqrt(n) still fits under the halved
             radius; halve the radius and retry the step with the same
             model (re-entering at step 3), costing a single evaluation.
  * U3:      rho < alpha and the halved radius would violate the
             tau * sqrt(n) <= radius coupling; halve both and rebuild.

It then runs one transition shared by all four: record one snapshot,
scale (tau, delta) by the class's entry in ``_UPDATE``, assert the
coupling tau * sqrt(n) <= delta (``TrfdParams`` guarantees it for the
start), stop if the radius reached its floor (U1 leaves the radius
alone and is exempt), and pick the next entry point: step 3 after U2,
step 1 otherwise.

Each model's LP is assembled once, right after its Jacobian, and solved
first at the reference radius.  A step LP below that radius (after the
Delta* LP, or the step LP that a U2 retry halves) moves the same LP to
its radius, so the simplex restarts from the basis of the solve before.

Evaluation accounting is strict and kept in one ledger, the best-f
list, which gains one entry per evaluation that returned a usable
value: a model rebuild costs exactly n evaluations, a trial point one,
and the budget is checked before each oracle call group so that no
partial Jacobian is ever bought.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import jsontext, subproblem
from .core import NormConstants, OuterFunction, PNorm, Problem, eval_h, norm_constants, MACHINE_EPS
from .jacobian import DegenerateStep, build_jacobian
from .oracle import EvalBudget, OracleFailure
from .simplex import NumericalTrouble
from .subproblem import solve_tr_subproblem

TRACE_SCHEMA = "trfd-trace-v1"

# model decrease below 1e-15 * (1 + |f|) is treated as no decrease
RHO_DEGENERATE_REL = 1e-15


class IterationClass(enum.Enum):
    SUCCESS = "success"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"


class Termination(enum.Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
    DELTA_FLOOR = "delta_floor"
    ETA_FLOOR = "eta_floor"
    ORACLE_ERROR = "oracle_error"
    NUMERICAL_TROUBLE = "numerical_trouble"


@dataclass
class TrfdParams:
    """Algorithm parameters; ``defaults`` reproduces the standard tuning.

    The standard tuning sets sigma so that the initial finite-difference
    stepsize tau0 = epsilon / (L_h * sigma * c_p2 * c_2p * sqrt(n))
    equals sqrt(machine eps), takes Delta0 = max(1, tau0 * sqrt(n)),
    Delta* = 1000, alpha = 0.15, theta = 1, and stops when the radius or
    the criticality measure falls to 1e-13.
    """

    epsilon: float
    alpha: float
    theta: float
    sigma: float
    lipschitz_h: float
    consts: NormConstants
    p: PNorm
    budget: EvalBudget
    delta0: float
    delta_star: float
    stop_delta: float
    stop_eta: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0 < self.theta <= 1):
            raise ValueError("theta must lie in (0, 1]")
        if self.epsilon <= 0 or self.sigma <= 0:
            raise ValueError("epsilon and sigma must be positive")
        if self.p is PNorm.TWO:
            raise ValueError("p = 2 subproblems are not linear programs; use p = 1 or inf")
        n = self.budget.n
        if self.tau0 * math.sqrt(n) > self.delta0:
            raise ValueError("delta0 must be at least tau0 * sqrt(n)")
        if self.delta0 > self.delta_star:
            raise ValueError("delta0 must not exceed delta_star")

    @property
    def tau0(self) -> float:
        n = self.budget.n
        return self.epsilon / (
            self.lipschitz_h * self.sigma * self.consts.cp2_m * self.consts.c2p_n * math.sqrt(n)
        )

    @classmethod
    def defaults(
        cls,
        problem: Problem,
        p: PNorm,
        simplex_gradients: int = 100,
        *,
        epsilon: float = 1e-15,
        alpha: float = 0.15,
        theta: float = 1.0,
        delta_star: float = 1000.0,
        stop_delta: float = 1e-13,
        stop_eta: float = 1e-13,
    ) -> "TrfdParams":
        p = PNorm.from_value(p)
        n, m = problem.n, problem.m
        consts = norm_constants(p, n, m)
        lip = problem.h.lipschitz(p, m)
        sqrt_n = math.sqrt(n)
        sigma = epsilon / (lip * consts.cp2_m * consts.c2p_n * sqrt_n * math.sqrt(MACHINE_EPS))
        tau0 = epsilon / (lip * sigma * consts.cp2_m * consts.c2p_n * sqrt_n)
        return cls(
            epsilon=epsilon,
            alpha=alpha,
            theta=theta,
            sigma=sigma,
            lipschitz_h=lip,
            consts=consts,
            p=p,
            budget=EvalBudget(simplex_gradients=simplex_gradients, n=n),
            delta0=max(1.0, tau0 * sqrt_n),
            delta_star=delta_star,
            stop_delta=stop_delta,
            stop_eta=stop_eta,
        )


@dataclass
class IterationSnapshot:
    k: int
    cls: IterationClass
    entered_at: str  # "step1" | "step3"
    tau: float
    delta: float
    eta: float
    rho: float | None
    rho_degenerate: bool
    f: float
    x: np.ndarray
    evals_iter: int
    evals_total: int


@dataclass
class RunRecord:
    problem_name: str
    n: int
    m: int
    h: OuterFunction
    params: TrfdParams
    iterations: list
    best_f: list
    termination: Termination
    termination_evals: int
    final_x: np.ndarray
    final_f: float

    @property
    def total_evals(self) -> int:
        return len(self.best_f)


def compute_rho(f_x: float, f_trial: float, model_at_d: float) -> float | None:
    """Decrease ratio; None signals a degenerate (non-positive) denominator."""
    denom = f_x - model_at_d
    if denom <= RHO_DEGENERATE_REL * (1.0 + abs(f_x)):
        return None
    return (f_x - f_trial) / denom


# (tau, delta) multipliers per class; the radius is then capped at delta*
_UPDATE = {
    IterationClass.U1: (0.5, 1.0),
    IterationClass.SUCCESS: (1.0, 2.0),
    IterationClass.U2: (1.0, 0.5),
    IterationClass.U3: (0.5, 0.5),
}


def solve(problem: Problem, params: TrfdParams) -> RunRecord:
    if params.budget.n != problem.n:
        raise ValueError("budget dimension does not match the problem")
    oracle = problem.oracle
    h = problem.h
    region = problem.region
    n = problem.n
    sqrt_n = math.sqrt(n)
    max_evals = params.budget.max_evals
    eps_half = params.epsilon / 2.0

    # one entry per successful evaluation: the run's only evaluation count
    best_f: list = []
    snapshots: list = []

    # the data-profile convention scores every evaluation, probe points
    # included, so the Jacobian builder evaluates through this too
    def evaluate(point):
        fvec = oracle.eval_F(point)
        fv = eval_h(h, fvec)
        best_f.append(fv if not best_f else min(best_f[-1], fv))
        return fvec

    def finish(term: Termination) -> RunRecord:
        return RunRecord(
            problem_name=problem.name,
            n=n,
            m=problem.m,
            h=h,
            params=params,
            iterations=snapshots,
            best_f=best_f,
            termination=term,
            termination_evals=len(best_f) - evals_done,
            final_x=x.copy(),
            final_f=f_x,
        )

    x = problem.x0.copy()
    f_x = math.inf
    tau = params.tau0
    delta = params.delta0
    evals_done = 0  # evaluations covered by the start point and classified iterations
    entry = "step1"

    try:
        # max_evals >= n + 1 >= 2, so the start point always fits
        F_x = evaluate(x)
        f_x = eval_h(h, F_x)
        evals_done = len(best_f)

        while True:
            if entry == "step1":
                if len(best_f) + n > max_evals:
                    return finish(Termination.BUDGET_EXHAUSTED)
                A = build_jacobian(evaluate, x, F_x, tau)
                # looked up on its module, where perfbench's tracer wraps it
                tr = subproblem.reformulate(h, F_x, A, region, x, params.p, params.delta_star)
                sol = solve_tr_subproblem(tr)
                eta = sol.eta
                if eta <= params.stop_eta:
                    return finish(Termination.ETA_FLOOR)

            if entry == "step1" and eta < eps_half:
                cls, rho = IterationClass.U1, None
            else:
                if delta < params.delta_star:
                    tr.set_radius(delta)
                    sol = solve_tr_subproblem(tr)
                if len(best_f) + 1 > max_evals:
                    return finish(Termination.BUDGET_EXHAUSTED)
                trial_x = x + sol.d_star
                F_trial = evaluate(trial_x)
                f_trial = eval_h(h, F_trial)
                rho = compute_rho(f_x, f_trial, sol.model_value)
                if rho is not None and rho >= params.alpha:
                    cls = IterationClass.SUCCESS
                elif tau * sqrt_n <= delta / 2.0:
                    cls = IterationClass.U2
                else:
                    cls = IterationClass.U3

            snapshots.append(IterationSnapshot(
                k=len(snapshots), cls=cls, entered_at=entry,
                tau=tau, delta=delta, eta=eta, rho=rho,
                rho_degenerate=cls is not IterationClass.U1 and rho is None,
                f=f_x, x=x.copy(), evals_iter=len(best_f) - evals_done, evals_total=len(best_f),
            ))
            evals_done = len(best_f)
            if cls is IterationClass.SUCCESS:
                x, F_x, f_x = trial_x, F_trial, f_trial
            tau_mult, delta_mult = _UPDATE[cls]
            tau *= tau_mult
            delta = min(delta * delta_mult, params.delta_star)
            assert tau * sqrt_n <= delta
            if cls is not IterationClass.U1 and delta <= params.stop_delta:
                return finish(Termination.DELTA_FLOOR)
            entry = "step3" if cls is IterationClass.U2 else "step1"

    except OracleFailure:
        return finish(Termination.ORACLE_ERROR)
    except (NumericalTrouble, DegenerateStep):
        return finish(Termination.NUMERICAL_TROUBLE)


def record_to_doc(record: RunRecord) -> dict:
    p = record.params
    return {
        "schema": TRACE_SCHEMA,
        "problem": {
            "name": record.problem_name,
            "n": record.n,
            "m": record.m,
            "h": record.h.value,
        },
        "params": {
            "epsilon": p.epsilon,
            "alpha": p.alpha,
            "theta": p.theta,
            "sigma": p.sigma,
            "lipschitz_h": p.lipschitz_h,
            "c2p_n": p.consts.c2p_n,
            "cp2_m": p.consts.cp2_m,
            "p": p.p.value,
            "simplex_gradients": p.budget.simplex_gradients,
            "max_evals": p.budget.max_evals,
            "tau0": p.tau0,
            "delta0": p.delta0,
            "delta_star": p.delta_star,
            "stop_delta": p.stop_delta,
            "stop_eta": p.stop_eta,
        },
        "iterations": [
            {
                "k": s.k,
                "class": s.cls.value,
                "entered_at": s.entered_at,
                "tau": s.tau,
                "delta": s.delta,
                "eta": s.eta,
                "rho": s.rho,
                "rho_degenerate": s.rho_degenerate,
                "f": s.f,
                "x": list(map(float, s.x)),
                "evals_iter": s.evals_iter,
                "evals_total": s.evals_total,
            }
            for s in record.iterations
        ],
        "best_f": list(map(float, record.best_f)),
        "termination": record.termination.value,
        "termination_evals": record.termination_evals,
        "final_x": list(map(float, record.final_x)),
        "final_f": record.final_f,
        "total_evals": record.total_evals,
    }


def record_from_doc(doc: dict) -> RunRecord:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TRACE_SCHEMA:
        raise ValueError(f"unknown trace schema: {schema!r}")
    pd = doc["params"]
    n = doc["problem"]["n"]
    params = TrfdParams(
        epsilon=pd["epsilon"],
        alpha=pd["alpha"],
        theta=pd["theta"],
        sigma=pd["sigma"],
        lipschitz_h=pd["lipschitz_h"],
        consts=NormConstants(c2p_n=pd["c2p_n"], cp2_m=pd["cp2_m"]),
        p=PNorm.from_value(pd["p"]),
        budget=EvalBudget(simplex_gradients=pd["simplex_gradients"], n=n),
        delta0=pd["delta0"],
        delta_star=pd["delta_star"],
        stop_delta=pd["stop_delta"],
        stop_eta=pd["stop_eta"],
    )
    snapshots = [
        IterationSnapshot(
            k=it["k"],
            cls=IterationClass(it["class"]),
            entered_at=it["entered_at"],
            tau=it["tau"],
            delta=it["delta"],
            eta=it["eta"],
            rho=it["rho"],
            rho_degenerate=it["rho_degenerate"],
            f=it["f"],
            x=np.asarray(it["x"], dtype=float),
            evals_iter=it["evals_iter"],
            evals_total=it["evals_total"],
        )
        for it in doc["iterations"]
    ]
    return RunRecord(
        problem_name=doc["problem"]["name"],
        n=n,
        m=doc["problem"]["m"],
        h=OuterFunction.from_value(doc["problem"]["h"]),
        params=params,
        iterations=snapshots,
        best_f=list(doc["best_f"]),
        termination=Termination(doc["termination"]),
        termination_evals=doc["termination_evals"],
        final_x=np.asarray(doc["final_x"], dtype=float),
        final_f=math.inf if doc["final_f"] is None else doc["final_f"],
    )


def save_trace(record: RunRecord, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(jsontext.dumps(record_to_doc(record), indent=1))


def load_trace(path) -> RunRecord:
    with open(path, "r", encoding="ascii") as fh:
        return record_from_doc(jsontext.loads(fh.read()))
