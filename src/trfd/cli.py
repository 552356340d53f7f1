"""Command-line harness.

Subcommands:

    trfd list                         show the benchmark registry
    trfd run --config c.json --out d  run a campaign, write traces + CSVs
    trfd profile --out d [...]        recompute data profiles from traces
    trfd audit trace.json [...]       replay traces against the invariants

Exit status is 0 only when every run terminated without an oracle error
or numerical breakdown (run), when every curve could be built (profile),
and when every audited trace is clean (audit).  A campaign config that
cannot be read or built makes ``run`` print one error line and exit 2.
A trace that cannot be read or is not a trace fails the audit with one
line, and ``audit`` goes on to the next path.
"""
from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    Campaign,
    DEFAULT_TOLERANCES,
    TRFD_L1,
    TRFD_M,
    data_profile,
    emit_profile_csv,
    run_campaign,
    trace_files,
)
from .config import campaign_from_config, load_json
from .diagnostics import AuditFailure, audit_trace
from .solver import Termination, load_trace
from .testset import registry, registry_by_name, registry_family


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trfd")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the benchmark registry")
    p_list.add_argument("--family", choices=["l1", "minimax", "all"], default="all")

    p_run = sub.add_parser("run", help="run a campaign")
    p_run.add_argument("--config", help="campaign config file (JSON)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--budget", type=int, default=None, help="simplex gradients per run")
    p_run.add_argument("--tolerance", type=float, action="append", default=None)
    p_run.add_argument("--jobs", type=int, default=1, help="parallel runs")

    p_prof = sub.add_parser("profile", help="data profiles from stored traces")
    p_prof.add_argument("--out", required=True, help="directory holding trace files")
    p_prof.add_argument("--tolerance", type=float, action="append", default=None)

    p_audit = sub.add_parser("audit", help="replay traces against the invariants")
    p_audit.add_argument("traces", nargs="+", help="trace files or directories")

    args = parser.parse_args(argv)
    return {"list": _cmd_list, "run": _cmd_run, "profile": _cmd_profile, "audit": _cmd_audit}[
        args.command
    ](args)


def _cmd_list(args) -> int:
    for bp in registry():
        if args.family != "all" and bp.family.value != args.family:
            continue
        cert = " [analytic]" if bp.jacobian is not None else ""
        print(f"{bp.name:24s} {bp.family.value:8s} n={bp.n:<3d} m={bp.m:<4d} f_ref={bp.f_ref:.10g}{cert}")
    return 0


def _cmd_run(args) -> int:
    if args.config:
        # a bad config fails here, before any run starts or any file is written
        try:
            campaign = campaign_from_config(load_json(args.config))
        except (OSError, ValueError, KeyError) as exc:
            # KeyError's str() quotes its message
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"trfd run: error: {message}", file=sys.stderr)
            return 2
    else:
        campaign = Campaign(
            problems=registry_family("l1") + registry_family("minimax"),
            solver_configs=[TRFD_L1, TRFD_M],
        )
    if args.budget is not None:
        campaign.simplex_gradients = args.budget
    if args.tolerance:
        campaign.tolerances = tuple(args.tolerance)

    result = run_campaign(campaign, out_dir=args.out, jobs=args.jobs)
    _write_profiles(result.records, campaign.tolerances, campaign.simplex_gradients, args.out)

    bad = 0
    for (pname, cname), rec in sorted(result.records.items()):
        best = f"{rec.best_f[-1]:<16.8g}" if rec.best_f else "n/a             "
        print(f"{pname:24s} {cname:10s} best={best} evals={rec.total_evals:<5d} {rec.termination.value}")
        if rec.termination in (Termination.ORACLE_ERROR, Termination.NUMERICAL_TROUBLE):
            bad += 1
    print(f"{len(result.records)} runs, {bad} failed; traces in {args.out}")
    return 1 if bad else 0


def _cmd_profile(args) -> int:
    records = {key: load_trace(path) for key, path in trace_files(args.out)}
    if not records:
        print(f"no trace files under {args.out}", file=sys.stderr)
        return 1
    tolerances = tuple(args.tolerance) if args.tolerance else DEFAULT_TOLERANCES
    budget = max(rec.params.budget.simplex_gradients for rec in records.values())
    _write_profiles(records, tolerances, budget, args.out)
    return 0


def _write_profiles(records, tolerances, budget, out_dir) -> None:
    for tol in tolerances:
        profile = data_profile(records, tol, budget)
        path = os.path.join(out_dir, f"profile_tol{tol:.0e}.csv")
        emit_profile_csv(profile, path)
        print(f"wrote {path} (solved at full budget: "
              + ", ".join(f"{s}={profile.curves[s][-1]:.3f}" for s in profile.solvers) + ")")


def _cmd_audit(args) -> int:
    paths = []
    for entry in args.traces:
        if os.path.isdir(entry):
            paths.extend(path for _, path in trace_files(entry))
        else:
            paths.append(entry)
    failures = 0
    for path in paths:
        try:
            record = load_trace(path)
        except (OSError, ValueError, KeyError) as exc:
            failures += 1
            print(f"{path}: FAILED: {type(exc).__name__}: {exc}")
            continue
        analytic = None
        try:
            bp = registry_by_name(record.problem_name)
            analytic = bp.analytic()
        except KeyError:
            pass
        try:
            report = audit_trace(record, analytic=analytic)
            extra = " +radius-floor" if report.delta_min_applicable else ""
            print(f"{path}: ok ({report.iterations} iterations{extra})")
        except AuditFailure as exc:
            failures += 1
            print(f"{path}: FAILED: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
