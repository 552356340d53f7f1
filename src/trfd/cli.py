"""Command-line harness.

Subcommands:

    trfd list                           show the benchmark registry
    trfd run [--config c.json] --out d  run a campaign, write traces + CSVs
    trfd profile --out d [...]          recompute data profiles from traces
    trfd audit trace.json [...]         replay traces against the invariants

Exit status is 0 only when every run terminated without an oracle error
or numerical breakdown (run), when every curve could be built (profile),
and when every audited trace is clean (audit).  A campaign config that
cannot be read or built, a key outside its schema, an option out of
range (a tolerance outside (0, 1), a job count below 1), a problem,
solver or tolerance given twice, a problem or solver not at all, or an
``--out`` that cannot be made a directory or already holds a trace or
``summary.json``, makes ``run`` or ``profile`` print one error line and
exit 2 before any run starts; ``run`` without a config runs ``{}``.
A trace that cannot be read or is not a trace (a field missing or of the wrong JSON
type included), and a directory that holds no trace, fail the audit
with one line, and ``audit`` goes on to the next path; it checks a
registry problem's certificate only on a run of that problem.
``profile`` writes no profile, prints one error line and exits 1 when a
trace cannot be read or is missing for a (problem, solver) pair, or when
there is none.  It names each profile by the shortest scientific form
that reads back as its tolerance, as in ``profile_tol1.4e-03.csv``.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (
    DEFAULT_TOLERANCES,
    check_tolerances,
    data_profile,
    emit_profile_csv,
    run_campaign,
    trace_files,
)
from .config import campaign_from_config
from .diagnostics import AuditFailure, audit_trace
from .core import eval_h
from .solver import Termination, load_trace
from .jsontext import load
from .testset import registry_by_name, registry_family


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trfd")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the benchmark registry")
    p_list.add_argument("--family", choices=["l1", "minimax", "all"], default="all")

    p_run = sub.add_parser("run", help="run a campaign")
    p_run.add_argument("--config", help="campaign config file (JSON); default: every problem, both configs")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=_at_least_one, default=1, help="parallel runs")

    p_prof = sub.add_parser("profile", help="data profiles from stored traces")
    p_prof.add_argument("--out", required=True, help="directory holding trace files")
    p_prof.add_argument("--tolerance", type=_tolerance, action="append", default=None)

    p_audit = sub.add_parser("audit", help="replay traces against the invariants")
    p_audit.add_argument("traces", nargs="+", help="trace files or directories")

    args = parser.parse_args(argv)
    return {"list": _cmd_list, "run": _cmd_run, "profile": _cmd_profile, "audit": _cmd_audit}[
        args.command
    ](args)


def _at_least_one(text: str) -> int:
    """--jobs: a whole number, at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        return check_tolerances([float(text)])[0]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_list(args) -> int:
    for bp in registry_family(args.family):
        cert = " [analytic]" if bp.jacobian is not None else ""
        print(f"{bp.name:24s} {bp.family.value:8s} n={bp.n:<3d} m={bp.m:<4d} f_ref={bp.f_ref:.10g}{cert}")
    return 0


def _cmd_run(args) -> int:
    # refused before any run starts; a bad config makes no directory
    try:
        campaign = campaign_from_config(load(args.config) if args.config else {})
        # profile and audit would read another campaign's traces as this one's
        if trace_files(args.out) or os.path.exists(os.path.join(args.out, "summary.json")):
            raise ValueError(f"{args.out} already holds the traces of a campaign; give a new or empty --out")
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"trfd run: error: {exc}", file=sys.stderr)
        return 2

    result = run_campaign(campaign, out_dir=args.out, jobs=args.jobs)
    _write_profiles(result.records, campaign.tolerances, args.out)

    bad = 0
    for (pname, cname), rec in sorted(result.records.items()):
        best = f"{rec.best_f[-1]:<16.8g}" if rec.best_f else "n/a             "
        print(f"{pname:24s} {cname:10s} best={best} evals={rec.total_evals:<5d} {rec.termination.value}")
        if rec.termination in (Termination.ORACLE_ERROR, Termination.NUMERICAL_TROUBLE):
            bad += 1
    print(f"{len(result.records)} runs, {bad} failed; traces in {args.out}")
    return 1 if bad else 0


def _cmd_profile(args) -> int:
    try:
        tolerances = check_tolerances(args.tolerance or DEFAULT_TOLERANCES)
    except ValueError as exc:
        return _profile_error(exc, status=2)
    records = {}
    for key, path in trace_files(args.out):
        try:
            records[key] = load_trace(path)
        except (OSError, ValueError) as exc:
            return _profile_error(f"cannot read {path}: {type(exc).__name__}: {exc}")
    if not records:
        return _profile_error(f"no trace files under {args.out}")
    try:
        _write_profiles(records, tolerances, args.out)
    except ValueError as exc:
        return _profile_error(exc)
    return 0


def _profile_error(message, status=1) -> int:
    print(f"trfd profile: error: {message}", file=sys.stderr)
    return status


def _write_profiles(records, tolerances, out_dir) -> None:
    """Build every profile, to the records' budget, then write them: a
    group that cannot be profiled raises ValueError before any file is written."""
    for tol, curves in [(tol, data_profile(records, tol)) for tol in tolerances]:
        name = np.format_float_scientific(tol, trim="-", exp_digits=2)
        path = os.path.join(out_dir, f"profile_tol{name}.csv")
        emit_profile_csv(curves, path)
        print(f"wrote {path} (solved at full budget: "
              + ", ".join(f"{s}={curves[s][-1]:.3f}" for s in sorted(curves)) + ")")


def _cmd_audit(args) -> int:
    paths = []
    failures = 0
    for entry in args.traces:
        if os.path.isdir(entry):
            found = [path for _, path in trace_files(entry)]
            if not found:
                failures += 1
                print(f"no trace files under {entry}", file=sys.stderr)
            paths.extend(found)
        else:
            paths.append(entry)
    for path in paths:
        try:
            record = load_trace(path)
        except (OSError, ValueError) as exc:
            failures += 1
            print(f"{path}: FAILED: {type(exc).__name__}: {exc}")
            continue
        try:
            extra = " +radius-floor" if audit_trace(record, analytic=_certificate(record)) else ""
            print(f"{path}: ok ({len(record.iterations)} iterations{extra})")
        except AuditFailure as exc:
            failures += 1
            print(f"{path}: FAILED: {exc}")
    return 1 if failures else 0


def _certificate(record):
    """The certificate of the registry problem ``record`` names, if ``record``
    is a run of it (same n, m and h, same first f bit for bit), else None."""
    try:
        bp = registry_by_name(record.problem_name)
    except ValueError:  # not a registry problem
        return None
    first = record.iterations[:1]
    if (bp.n, bp.m, bp.family) == (record.n, record.m, record.h) and first:
        if eval_h(bp.family, bp.residuals(first[0].x)) == first[0].f:
            return bp.analytic()
    return None


if __name__ == "__main__":
    sys.exit(main())
