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

The run's LP is assembled once, with the first model, and each later
model is written into it in place (``TrustRegionLP.set_model``).  Each
model is solved first at the step radius delta.  Below the reference
radius Delta*, ``subproblem.eta_at`` turns that step into eta(Delta*):
a bracket between psi(rho)/Delta* and psi(delta)/delta, with psi(rho)
read at the step (rho = delta) or further along its ray, when its lower
end clears twice the floor under which eta would stop the run or take
a U1 step (``max(ETA_SNAP, stop_eta, epsilon/2)``), and the snapshot
records both ends and rho; otherwise the exact eta of the LP at Delta*,
which the snapshot records alone.  A U2 retry moves the LP to its
halved radius.  The simplex restarts each solve from the basis the
solve before left in the LP, through every move and every new model.

Evaluation accounting is strict and kept in one ledger, the best-f
list, which gains one entry per evaluation that returned a usable
value: a model rebuild costs exactly n evaluations, a trial point one,
and the budget is checked before each oracle call group so that no
partial Jacobian is ever bought.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import jsontext, subproblem
from .core import OuterFunction, PNorm, Problem, eval_h, norm_constants, MACHINE_EPS
from .jacobian import DegenerateStep, build_jacobian
from .oracle import EvalBudget, OracleFailure
from .simplex import NumericalTrouble
from .subproblem import ETA_SNAP, eta_at, solve_tr_subproblem

TRACE_SCHEMA = "trfd-trace-v3"
DEFAULT_SIMPLEX_GRADIENTS = 100  # the standard budget, in simplex gradients of n + 1 evaluations

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
    Delta* = 1000, alpha = 0.15, and stops when the radius or the
    criticality measure falls to 1e-13.  The paper's theta is 1, no
    parameter, as every subproblem LP is solved exactly.
    """

    epsilon: float
    alpha: float
    sigma: float
    lipschitz_h: float
    c2p_n: float
    cp2_m: float
    p: PNorm
    budget: EvalBudget
    delta0: float
    delta_star: float
    stop_delta: float
    stop_eta: float

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):  # NaN too
                raise ValueError(f"{name} must be finite, not {value!r}")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        # tau0 = epsilon / (L_h sigma c_p2 c_2p sqrt(n)) must be positive
        for name in ("epsilon", "sigma", "lipschitz_h", "c2p_n", "cp2_m"):
            if not values[name] > 0:
                raise ValueError(f"{name} must be positive, not {values[name]!r}")
        n = self.budget.n
        if self.tau0 * math.sqrt(n) > self.delta0:
            raise ValueError("delta0 must be at least tau0 * sqrt(n)")
        if self.delta0 > self.delta_star:
            raise ValueError("delta0 must not exceed delta_star")

    @property
    def tau0(self) -> float:
        return _tau0(self.epsilon, self.lipschitz_h, self.sigma, self.cp2_m, self.c2p_n, self.budget.n)

    @classmethod
    def defaults(
        cls,
        problem: Problem,
        p: PNorm,
        simplex_gradients: int = DEFAULT_SIMPLEX_GRADIENTS,
        *,
        epsilon: float = 1e-15,
        alpha: float = 0.15,
        delta_star: float = 1000.0,
        stop_delta: float = 1e-13,
        stop_eta: float = 1e-13,
    ) -> "TrfdParams":
        p = PNorm.from_value(p)
        n, m = problem.n, problem.m
        c2p_n, cp2_m = norm_constants(p, n, m)
        lip = problem.h.lipschitz(p, m)
        sqrt_n = math.sqrt(n)
        sigma = epsilon / (lip * cp2_m * c2p_n * sqrt_n * math.sqrt(MACHINE_EPS))
        return cls(
            epsilon=epsilon,
            alpha=alpha,
            sigma=sigma,
            lipschitz_h=lip,
            c2p_n=c2p_n,
            cp2_m=cp2_m,
            p=p,
            budget=EvalBudget(simplex_gradients=simplex_gradients, n=n),
            delta0=max(1.0, _tau0(epsilon, lip, sigma, cp2_m, c2p_n, n) * sqrt_n),
            delta_star=delta_star,
            stop_delta=stop_delta,
            stop_eta=stop_eta,
        )


def _tau0(epsilon, lipschitz_h, sigma, cp2_m, c2p_n, n) -> float:
    return epsilon / (lipschitz_h * sigma * cp2_m * c2p_n * math.sqrt(n))


@dataclass
class IterationSnapshot:
    k: int
    cls: IterationClass
    entered_at: str  # "step1" | "step3"
    tau: float
    delta: float
    # eta at Delta*, or the lower end of its bracket when eta_upper is
    # set; eta_radius is then the radius rho whose decrease psi(rho) the
    # lower end reads, eta = psi(rho)/Delta*, and None when eta is exact
    eta: float
    eta_upper: float | None
    eta_radius: float | None
    rho: float | None
    rho_degenerate: bool
    f: float
    x: np.ndarray
    evals_iter: int
    evals_total: int


# one trace row per snapshot: (field, trace key, JSON kind), in field
# order; "point" is an array of n numbers
SNAPSHOT_ROW = (
    ("k", "k", "integer"),
    ("cls", "class", "string"),
    ("entered_at", "entered_at", "string"),
    ("tau", "tau", "number"),
    ("delta", "delta", "number"),
    ("eta", "eta", "number"),
    ("eta_upper", "eta_upper", "number or null"),
    ("eta_radius", "eta_radius", "number or null"),
    ("rho", "rho", "number or null"),
    ("rho_degenerate", "rho_degenerate", "boolean"),
    ("f", "f", "number"),
    ("x", "x", "point"),
    ("evals_iter", "evals_iter", "integer"),
    ("evals_total", "evals_total", "integer"),
)
_ROW_KEYS = tuple(key for _, key, _ in SNAPSHOT_ROW)
_row_values = operator.attrgetter(*(name for name, _, _ in SNAPSHOT_ROW))


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
    # an eta at or under this stops the run or takes a U1 step
    eta_floor = max(ETA_SNAP, params.stop_eta, eps_half)

    # one entry per successful evaluation: the run's only evaluation count
    best_f: list = []
    snapshots: list = []

    # the data-profile convention scores every evaluation, probe points
    # included, so the Jacobian builder evaluates through this too (via
    # evaluate_F); an h(F) that overflows fails like a non-finite F
    def evaluate(point):
        fvec = oracle.eval_F(point)
        fv = eval_h(h, fvec)
        if not math.isfinite(fv):
            raise OracleFailure("h of the oracle's values is not finite")
        best_f.append(fv if not best_f else min(best_f[-1], fv))
        return fvec, fv

    def evaluate_F(point):
        return evaluate(point)[0]

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
    tr = None  # the run's one subproblem LP, assembled with the first model

    try:
        # max_evals >= n + 1 >= 2, so the start point always fits
        F_x, f_x = evaluate(x)
        evals_done = len(best_f)

        while True:
            if entry == "step1":
                if len(best_f) + n > max_evals:
                    return finish(Termination.BUDGET_EXHAUSTED)
                A = build_jacobian(evaluate_F, x, F_x, tau)
                if tr is None:
                    # looked up on its module, where perfbench's tracer wraps it
                    tr = subproblem.reformulate(h, F_x, A, region, x, params.p, delta)
                else:
                    tr.set_model(F_x, A, x)
            tr.set_radius(delta)  # a new model, or a U2 retry at the halved radius
            sol = solve_tr_subproblem(tr)
            if entry == "step1":
                eta, eta_upper, eta_radius = sol.eta, None, None
                if delta < params.delta_star:
                    eta, eta_upper, eta_radius = eta_at(tr, sol, params.delta_star, eta_floor)
                if eta <= params.stop_eta:
                    return finish(Termination.ETA_FLOOR)

            if entry == "step1" and eta < eps_half:
                cls, rho = IterationClass.U1, None
            else:
                if len(best_f) + 1 > max_evals:
                    return finish(Termination.BUDGET_EXHAUSTED)
                trial_x = x + sol.d_star
                F_trial, f_trial = evaluate(trial_x)
                rho = compute_rho(f_x, f_trial, sol.model_value)
                if rho is not None and rho >= params.alpha:
                    cls = IterationClass.SUCCESS
                elif tau * sqrt_n <= delta / 2.0:
                    cls = IterationClass.U2
                else:
                    cls = IterationClass.U3

            snapshots.append(IterationSnapshot(
                k=len(snapshots), cls=cls, entered_at=entry,
                tau=tau, delta=delta, eta=eta, eta_upper=eta_upper, eta_radius=eta_radius, rho=rho,
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
            # schema v3 keeps the field; exact LP solves make it 1
            "theta": 1.0,
            "sigma": p.sigma,
            "lipschitz_h": p.lipschitz_h,
            "c2p_n": p.c2p_n,
            "cp2_m": p.cp2_m,
            "p": p.p.value,
            "simplex_gradients": p.budget.simplex_gradients,
            "max_evals": p.budget.max_evals,
            "tau0": p.tau0,
            "delta0": p.delta0,
            "delta_star": p.delta_star,
            "stop_delta": p.stop_delta,
            "stop_eta": p.stop_eta,
        },
        "iterations": list(map(_trace_row, record.iterations)),
        "best_f": list(map(float, record.best_f)),
        "termination": record.termination.value,
        "termination_evals": record.termination_evals,
        "final_x": record.final_x.tolist(),
        # a run whose first evaluation failed has no objective value
        "final_f": record.final_f if math.isfinite(record.final_f) else None,
        "total_evals": record.total_evals,
    }


def _trace_row(s: IterationSnapshot) -> dict:
    """The trace row of one snapshot, its fields in SNAPSHOT_ROW's order."""
    row = dict(zip(_ROW_KEYS, _row_values(s)))
    row["class"], row["x"] = s.cls.value, s.x.tolist()
    return row


def record_from_doc(doc: dict) -> RunRecord:
    """The record a trace document holds.  A field missing or of the
    wrong JSON type (see ``jsontext.field``), a non-finite number, or a
    value outside its schema, raises ValueError."""
    if jsontext.check(doc, "a trace", "object").get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unknown trace schema: {doc.get('schema')!r}")
    _check_finite(doc)
    field = jsontext.field
    problem = field(doc, "problem", "object")
    pd = field(doc, "params", "object")
    n, m = (jsontext.at_least_one(field(problem, key, "integer"), key) for key in ("n", "m"))
    numbers = ("epsilon", "alpha", "sigma", "lipschitz_h", "c2p_n", "cp2_m",
               "delta0", "delta_star", "stop_delta", "stop_eta")
    params = TrfdParams(
        **{name: field(pd, name, "number") for name in numbers},
        p=PNorm.from_value(field(pd, "p", "string")),
        budget=EvalBudget(simplex_gradients=field(pd, "simplex_gradients", "integer"), n=n),
    )
    snapshots = []
    for it in field(doc, "iterations", "array", of="object"):
        row = {name: _point(it, key, n) if kind == "point" else field(it, key, kind)
               for name, key, kind in SNAPSHOT_ROW}
        snapshots.append(IterationSnapshot(**row | {"cls": IterationClass(row["cls"])}))
    final_f = field(doc, "final_f", "number or null")
    record = RunRecord(
        problem_name=field(problem, "name", "string"),
        n=n,
        m=m,
        h=OuterFunction.from_value(field(problem, "h", "string")),
        params=params,
        iterations=snapshots,
        best_f=field(doc, "best_f", "array", of="number"),
        termination=Termination(field(doc, "termination", "string")),
        termination_evals=field(doc, "termination_evals", "integer"),
        final_x=_point(doc, "final_x", n),
        final_f=math.inf if final_f is None else final_f,
    )
    # what the trace states beside the values it is derived from
    for where, key, kind, derived in (
        (pd, "theta", "number", 1.0),
        (pd, "max_evals", "integer", params.budget.max_evals),
        (pd, "tau0", "number", params.tau0),
        (doc, "total_evals", "integer", record.total_evals),
    ):
        value = field(where, key, kind)
        if value != derived:
            raise ValueError(f'"{key}" is {value!r}, but the trace gives {derived!r}')
    return record


def _check_finite(value, key=None) -> None:
    """Refuse a NaN or infinity anywhere in ``value``, naming its key: the
    parser reads them, though ``save_trace`` never writes one."""
    if type(value) is dict:
        for k, v in value.items():
            _check_finite(v, k)
    elif type(value) is list:
        for v in value:
            _check_finite(v, key)
    elif type(value) is float and not math.isfinite(value):
        raise ValueError(f'"{key}" must be finite, not {value!r}')


def _point(doc, key, n) -> np.ndarray:
    value = jsontext.field(doc, key, "array", of="number")
    if len(value) != n:
        raise ValueError(f'"{key}" must hold n = {n} numbers, not {len(value)}')
    return np.asarray(value, dtype=float)


def save_trace(record: RunRecord, path) -> None:
    """Write ``record``'s trace, one iteration per line; a document the
    encoder refuses (a non-finite ``best_f``) raises before ``path`` is
    opened, so it leaves no file."""
    text = jsontext.dumps_rows(record_to_doc(record), "iterations")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_trace(path) -> RunRecord:
    return record_from_doc(jsontext.load(path))
