"""The benchmark's workloads.

``setup(name, seed)`` builds a workload's inputs; ``Workload.run`` then
executes one repeat into a fresh directory and writes what ``trfd run``
writes: one trace per run, ``summary.json`` and the four data profiles.

* registry: the default campaign, 28 registry problems under TRFD-L1 and
            TRFD-M (56 runs), serial, in-process oracles.
* ladder:   seeded synthetic problems (see ladder.py), in-process.
* external: the 13 minimax problems under TRFD-M, each run bound to its
            own ``python -m trfd.demo_oracle`` child through
            ``config.problem_from_config``.

The registry-based workloads have fixed inputs; only the ladder is drawn
from the seed.  Every run is timed on its own and bracketed by reference
measurements (see reference.py).
"""
from __future__ import annotations

import os
import shlex
import sys
from dataclasses import dataclass, field
from time import perf_counter

from trfd import bench, config, jsontext
from trfd.core import FeasibleRegion, OuterFunction, Problem
from trfd.oracle import InProcessOracle
from trfd.testset import problem_to_config, registry_by_name, registry_family

import ladder
import reference

WORKLOADS = ("registry", "ladder", "external")
CAMPAIGN_BUDGET = 100  # simplex gradients per run, the campaign default
LADDER_CONFIGS = {
    "l1": bench.SolverConfig(name="TRFD-ladder", p="1"),
    "minimax": bench.SolverConfig(name="TRFD-ladder", p="inf"),
}


class Brackets:
    """Reference measurements taken before each run of a repeat and once
    after the last; run i is bracketed by measurements i and i + 1."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.refs = []
        self.spent_s = 0.0  # time the measurements themselves took

    def mark(self) -> None:
        t0 = perf_counter()
        self.refs.append(reference.measure(self.kernel))
        self.spent_s += perf_counter() - t0

    def factors(self, keys) -> dict:
        if len(self.refs) != len(keys) + 1:
            raise RuntimeError(f"{len(self.refs)} reference marks for {len(keys)} runs")
        return {key: reference.factor(self.kernel, self.refs[i], self.refs[i + 1])
                for i, key in enumerate(keys)}


@dataclass
class Repeat:
    records: dict  # (problem, config) -> RunRecord
    run_times: dict  # (problem, config) -> measured seconds
    factors: dict  # (problem, config) -> reference seconds per measured second
    reference_s: float  # time spent measuring the reference inside the repeat
    profile_s: float


@dataclass
class Workload:
    name: str
    kernel: str  # reference kernel, see reference.py
    budget: int
    f_ref: dict  # problem name -> certified optimal value
    inputs: list = field(default_factory=list)

    def analytic(self, problem_name):
        """The registry's analytic certificate for a problem, if any."""
        if self.name == "ladder":
            return None
        return registry_by_name(problem_name).analytic()

    def run(self, out_dir) -> Repeat:
        os.makedirs(out_dir)
        brackets = Brackets(self.kernel)
        if self.name == "registry":
            records, run_times = self._run_campaign(out_dir, brackets)
        else:
            records, run_times = self._run_own_loop(out_dir, brackets)
        t0 = perf_counter()
        for tol in bench.DEFAULT_TOLERANCES:
            profile = bench.data_profile(records, tol, self.budget)
            bench.emit_profile_csv(profile, os.path.join(out_dir, f"profile_tol{tol:.0e}.csv"))
        profile_s = perf_counter() - t0
        return Repeat(records, run_times, brackets.factors(list(run_times)), brackets.spent_s, profile_s)

    def _run_campaign(self, out_dir, brackets):
        campaign = bench.Campaign(
            problems=registry_family("l1") + registry_family("minimax"),
            solver_configs=[bench.TRFD_L1, bench.TRFD_M],
            simplex_gradients=self.budget,
        )
        original = bench._worker
        run_times = {}

        def timed_worker(task):
            brackets.mark()
            t0 = perf_counter()
            result = original(task)
            run_times[result[:2]] = perf_counter() - t0
            return result

        # run_campaign looks _worker up at call time; with jobs=1 it runs
        # every task through it in this process
        bench._worker = timed_worker
        try:
            result = bench.run_campaign(campaign, out_dir=out_dir, jobs=1)
        finally:
            bench._worker = original
        brackets.mark()
        return result.records, run_times

    def _run_own_loop(self, out_dir, brackets):
        records, run_times = {}, {}
        for make_problem, solver_config in self.inputs:
            brackets.mark()
            t0 = perf_counter()
            problem = make_problem()
            try:
                record = bench.solve(problem, solver_config.build_params(problem, self.budget))
            finally:
                problem.oracle.close()
            key = (problem.name, solver_config.name)
            run_times[key] = perf_counter() - t0
            records[key] = record
        brackets.mark()
        # the same files run_campaign writes
        for (pname, cname), record in sorted(records.items()):
            bench.save_trace(record, os.path.join(out_dir, f"{pname}__{cname}.json"))
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="ascii") as fh:
            fh.write(jsontext.dumps(bench.summarize(records), indent=1))
        return records, run_times


def setup(name: str, seed: int) -> Workload:
    if name == "registry":
        problems = registry_family("l1") + registry_family("minimax")
        return Workload(name, "interp", CAMPAIGN_BUDGET, {bp.name: bp.f_ref for bp in problems})
    if name == "external":
        problems = registry_family("minimax")
        inputs = [(_external_factory(bp), bench.TRFD_M) for bp in problems]
        return Workload(name, "interp", CAMPAIGN_BUDGET, {bp.name: bp.f_ref for bp in problems}, inputs)
    if name == "ladder":
        instances = ladder.generate(seed)
        inputs = [(_ladder_factory(inst), LADDER_CONFIGS[inst.family]) for inst in instances]
        return Workload(name, "dense", ladder.LADDER_BUDGET, {inst.name: inst.f_ref for inst in instances},
                        inputs)
    raise ValueError(f"unknown workload {name!r}")


def _external_factory(bp):
    doc = problem_to_config(bp)
    doc["oracle"] = {
        "command": f"{shlex.quote(sys.executable)} -m trfd.demo_oracle --problem {shlex.quote(bp.name)}"
    }
    return lambda: config.problem_from_config(doc)


def _ladder_factory(inst):
    h = OuterFunction.L1 if inst.family == "l1" else OuterFunction.MINIMAX
    return lambda: Problem(
        n=inst.n,
        m=inst.m,
        oracle=InProcessOracle(inst.residuals, inst.m),
        h=h,
        region=FeasibleRegion.unconstrained(inst.n),
        x0=inst.x0,
        name=inst.name,
    )
