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

All outputs are byte-deterministic: ordered documents, shortest
round-trip floats (see ``jsontext``), no timestamps.  Parallelism
(``jobs``) only distributes independent runs, to at most one worker
process per run, and none for a single run; each run is
single-threaded and the collector writes every file.  A worker gets a
``BenchmarkProblem`` and returns the ``RunRecord`` that ``solve`` made;
a pool pickles both, exactly, and only ``save_trace`` writes documents.
"""
from __future__ import annotations

import csv
import glob
import math
import os
from dataclasses import dataclass

from . import jsontext
from .core import PNorm
from .solver import DEFAULT_SIMPLEX_GRADIENTS, TrfdParams, save_trace, solve

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
        # any other p fails here, before any run of a campaign starts
        if self.p != "auto":
            PNorm.from_value(self.p)

    def build_params(self, problem, simplex_gradients: int) -> TrfdParams:
        if self.p == "auto":
            p = PNorm.ONE if math.sqrt(problem.m) < problem.n else PNorm.INF
        else:
            p = PNorm.from_value(self.p)
        return TrfdParams.defaults(problem, p, simplex_gradients, **dict(self.overrides))


TRFD_L1 = SolverConfig(name="TRFD-L1", p="1")
TRFD_M = SolverConfig(name="TRFD-M", p="auto")


def check_tolerances(tolerances) -> tuple:
    """``tolerances`` as a tuple if it is not empty, each lies in (0, 1) and none repeats; a ValueError otherwise."""
    if not tolerances:
        raise ValueError("no tolerance is given")
    for i, tol in enumerate(tolerances):
        if not 0.0 < tol < 1.0:
            raise ValueError(f"a tolerance must lie in (0, 1), not {tol!r}")
        if tol in tolerances[:i]:
            raise ValueError(f"the tolerance {tol!r} is given twice")
    return tuple(tolerances)


@dataclass
class Campaign:
    problems: list  # registry BenchmarkProblems
    solver_configs: list
    simplex_gradients: int = DEFAULT_SIMPLEX_GRADIENTS
    tolerances: tuple = DEFAULT_TOLERANCES


@dataclass
class CampaignResult:
    records: dict  # (problem_name, config_name) -> RunRecord


def _worker(task):
    bp, config, simplex_gradients = task
    problem = bp.make_problem()
    return bp.name, config.name, solve(problem, config.build_params(problem, simplex_gradients))


def run_campaign(campaign: Campaign, out_dir=None, jobs: int = 1) -> CampaignResult:
    """Execute every (problem, config) pair once; write traces and a summary."""
    tasks = [
        (bp, config, campaign.simplex_gradients)
        for bp in campaign.problems
        for config in campaign.solver_configs
    ]
    # a fork pool starts all its workers on the first submit, so it gets
    # no more than there are tasks, and none for a single task
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here, so only a parallel campaign loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [_worker(task) for task in tasks]
    records = {(pname, cname): record for pname, cname, record in results}

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for (pname, cname), rec in sorted(records.items()):
            save_trace(rec, os.path.join(out_dir, f"{pname}__{cname}.json"))
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="ascii") as fh:
            fh.write(jsontext.dumps(summarize(records), indent=1))
    return CampaignResult(records=records)


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
                "final_f": rec.final_f if math.isfinite(rec.final_f) else None,
                "best_f": rec.best_f[-1] if rec.best_f else None,
                "evals": rec.total_evals,
                "iterations": len(rec.iterations),
                "termination": rec.termination.value,
            }
        )
    return {"schema": "trfd-summary-v1", "runs": rows}


class EmptyGroup(Exception):
    """No records to profile."""


def data_profile(records: dict, tolerance: float, budget: int | None = None) -> dict:
    """Profile a group of records keyed (problem, solver) -> RunRecord:
    solver name -> list of fractions solved, index = kappa 0..budget."""
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

    # a run that made no evaluation (an oracle error at x0) never solves
    # its problem and sets neither f(x0) nor f_best
    f_start, f_best = {}, {}
    for prob in problems:
        runs = [records[(prob, s)].best_f for s in solvers if records[(prob, s)].best_f]
        if runs:
            f_start[prob] = runs[0][0]
            f_best[prob] = min(bf[-1] for bf in runs)

    curves = {}
    for solver in solvers:
        solved_at = []
        for prob in problems:
            rec = records[(prob, solver)]
            t_solved = None
            if rec.best_f:
                target_gap = f_start[prob] - f_best[prob]
                need = (1.0 - tolerance) * target_gap
                if target_gap <= 0:
                    t_solved = 1
                else:
                    for t, val in enumerate(rec.best_f, start=1):
                        if f_start[prob] - val >= need:
                            t_solved = t
                            break
            solved_at.append((prob, t_solved, rec.n))
        curves[solver] = [
            sum(1 for _, t, n in solved_at if t is not None and t <= kappa * (n + 1)) / len(problems)
            for kappa in range(budget + 1)
        ]
    return curves


def emit_profile_csv(curves: dict, path) -> None:
    """kappa column plus one column per solver, in name order, with
    full-precision floats; a solver name that holds a comma or a quote
    is quoted."""
    solvers = sorted(curves)
    with open(path, "w", encoding="ascii", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["kappa", *solvers])
        for kappa in range(len(curves[solvers[0]])):
            out.writerow([kappa] + [repr(curves[s][kappa]) for s in solvers])
