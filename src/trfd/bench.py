"""Campaign runner and data profiles.

A campaign runs every (problem, solver config) pair exactly once under
a shared evaluation budget, writes one trace file per run, and a
summary document.  Data profiles score a solver as having solved a
problem at evaluation count t when

    (f(x0) - best_f(t)) / (f(x0) - f_best) >= 1 - tolerance,

where f_best is the lowest value any solver in the group found on that
problem; the curve maps a budget kappa, in simplex gradients, to the
fraction of problems solved within kappa * (n + 1) evaluations.
Best-f trajectories are recorded per single evaluation (probe points
included), so the curves have evaluation-level resolution.

All outputs are byte-deterministic: ordered documents, 17-digit floats,
no timestamps.  Parallelism (``jobs``) only distributes independent
runs; each run is single-threaded and the collector writes every file.
"""
from __future__ import annotations

import glob
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import jsontext
from .core import PNorm
from .oracle import format_float
from .solver import RunRecord, TrfdParams, record_from_doc, record_to_doc, save_trace, solve
from .testset import BenchmarkProblem, registry_by_name

DEFAULT_TOLERANCES = (1e-1, 1e-3, 1e-5, 1e-7)


@dataclass(frozen=True)
class SolverConfig:
    """A named parameterization; p may be '1', 'inf', or 'auto'.

    'auto' picks p = 1 when sqrt(m) < n and p = inf otherwise, the rule
    that balances the complexity constants for minimax problems.
    """

    name: str
    p: str = "1"
    overrides: tuple = ()

    def __post_init__(self):
        # aliases such as "one" pass; p = 2 and unknown values fail here,
        # before any run of a campaign starts
        if self.p != "auto" and PNorm.from_value(self.p) is PNorm.TWO:
            raise ValueError("p = 2 subproblems are not linear programs; use p = 1, inf or auto")

    def build_params(self, problem, simplex_gradients: int = 100) -> TrfdParams:
        if self.p == "auto":
            p = PNorm.ONE if math.sqrt(problem.m) < problem.n else PNorm.INF
        else:
            p = PNorm.from_value(self.p)
        return TrfdParams.defaults(problem, p, simplex_gradients, **dict(self.overrides))


TRFD_L1 = SolverConfig(name="TRFD-L1", p="1")
TRFD_M = SolverConfig(name="TRFD-M", p="auto")


@dataclass
class Campaign:
    problems: list
    solver_configs: list
    simplex_gradients: int = 100
    tolerances: tuple = DEFAULT_TOLERANCES


@dataclass
class CampaignResult:
    records: dict  # (problem_name, config_name) -> RunRecord
    out_dir: str | None


def run_one(problem_name: str, config: SolverConfig, simplex_gradients: int) -> RunRecord:
    bp = registry_by_name(problem_name)
    problem = bp.make_problem()
    return solve(problem, config.build_params(problem, simplex_gradients))


def _worker(task):
    problem_name, config, simplex_gradients = task
    record = run_one(problem_name, config, simplex_gradients)
    return problem_name, config.name, record_to_doc(record)


def run_campaign(campaign: Campaign, out_dir=None, jobs: int = 1) -> CampaignResult:
    """Execute every (problem, config) pair once; write traces and a summary."""
    tasks = [
        (bp.name if isinstance(bp, BenchmarkProblem) else str(bp), config, campaign.simplex_gradients)
        for bp in campaign.problems
        for config in campaign.solver_configs
    ]
    records = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for pname, cname, doc in pool.map(_worker, tasks):
                records[(pname, cname)] = record_from_doc(doc)
    else:
        for task in tasks:
            pname, cname, doc = _worker(task)
            records[(pname, cname)] = record_from_doc(doc)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for (pname, cname), rec in sorted(records.items()):
            save_trace(rec, os.path.join(out_dir, f"{pname}__{cname}.json"))
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="ascii") as fh:
            fh.write(jsontext.dumps(summarize(records), indent=1))
    return CampaignResult(records=records, out_dir=out_dir)


def trace_files(directory) -> list:
    """((problem, config), path) for every trace file ``run_campaign``
    wrote into ``directory``, sorted by path."""
    paths = sorted(glob.glob(os.path.join(directory, "*__*.json")))
    return [(tuple(os.path.basename(path)[: -len(".json")].split("__", 1)), path) for path in paths]


def summarize(records: dict) -> dict:
    rows = []
    for (pname, cname), rec in sorted(records.items()):
        rows.append(
            {
                "problem": pname,
                "config": cname,
                "final_f": rec.final_f,
                "best_f": rec.best_f[-1] if rec.best_f else None,
                "evals": rec.total_evals,
                "iterations": len(rec.iterations),
                "termination": rec.termination.value,
            }
        )
    return {"schema": "trfd-summary-v1", "runs": rows}


class EmptyGroup(Exception):
    """No records to profile."""


@dataclass
class DataProfile:
    tolerance: float
    budget: int
    solvers: tuple
    curves: dict  # solver name -> list of fractions, index = kappa 0..budget
    f_best: dict  # problem name -> lowest value found by any solver


def data_profile(records: dict, tolerance: float, budget: int | None = None) -> DataProfile:
    """Profile a group of records keyed (problem, solver) -> RunRecord."""
    if not records:
        raise EmptyGroup("no records")
    solvers = sorted({conf for _, conf in records})
    problems = sorted({prob for prob, _ in records})
    for prob in problems:
        for solver in solvers:
            if (prob, solver) not in records:
                raise EmptyGroup(f"missing record for {prob!r} under {solver!r}")
    if budget is None:
        budget = max(rec.params.budget.simplex_gradients for rec in records.values())

    f_best = {
        prob: min(records[(prob, s)].best_f[-1] for s in solvers) for prob in problems
    }
    f_start = {prob: records[(prob, solvers[0])].best_f[0] for prob in problems}

    curves = {}
    for solver in solvers:
        solved_at = []
        for prob in problems:
            rec = records[(prob, solver)]
            target_gap = f_start[prob] - f_best[prob]
            need = (1.0 - tolerance) * target_gap
            t_solved = None
            if target_gap <= 0:
                t_solved = 1
            else:
                bf = rec.best_f
                for t, val in enumerate(bf, start=1):
                    if f_start[prob] - val >= need:
                        t_solved = t
                        break
            solved_at.append((prob, t_solved, rec.n))
        curve = []
        for kappa in range(budget + 1):
            count = sum(
                1
                for prob, t, n in solved_at
                if t is not None and t <= kappa * (n + 1)
            )
            curve.append(count / len(problems))
        curves[solver] = curve
    return DataProfile(
        tolerance=tolerance,
        budget=budget,
        solvers=tuple(solvers),
        curves=curves,
        f_best=f_best,
    )


def emit_profile_csv(profile: DataProfile, path) -> None:
    """kappa column plus one column per solver, full-precision floats."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("kappa," + ",".join(profile.solvers) + "\n")
        for kappa in range(profile.budget + 1):
            row = [str(kappa)] + [
                format_float(profile.curves[s][kappa]) for s in profile.solvers
            ]
            fh.write(",".join(row) + "\n")
