#!/usr/bin/env python3
"""Time two checkouts against each other in alternating benchmark pairs.

The script compares each workload that CHANGE_DIR's BENCHMARK.json
declares, or only the one ``--workload`` names, in a block of its own.
Each pair runs ``perfbench/run.py --trace 0`` on the workload once in
PARENT_DIR and once in CHANGE_DIR, each from its own checkout; the
parent runs first in odd pairs and second in even ones, so neither side
always runs on a machine the other has just warmed.  For every
end-to-end metric BENCHMARK.json declares, the block then prints both
sides' median and quartiles over the pairs, the change of the median,
and in how many pairs the change did better, and then how many
operations failed on each side.

A change that claims unchanged arithmetic must print the parent's
``trace digest`` and ``counters`` lines.  The script exits 1 when any
run of a workload prints other such lines than the parent's first run
of that workload, and stops with exit status 1 when a run fails.

Usage:  python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR
            [--workload NAME] [--pairs 10] [--seconds 60] [--seed 1]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

IDENTITY_LINES = ("trace digest", "counters")


def bench(checkout, workload, args):
    """The identity lines and result document of one run in ``checkout``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    identity = [line for line in lines if line.startswith(IDENTITY_LINES)]
    return identity, json.loads(lines[-1])


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/ab_pairs.py")
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", help="default: every workload BENCHMARK.json declares")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    status = 0
    for workload in workloads:
        print(f"workload {workload}:")
        status = max(status, compare(workload, benchmark["end_to_end"], args))
    return status


def compare(workload, declared, args) -> int:
    """Run ``workload``'s pairs and print its block; 1 when an identity
    line differs from the parent's first run, 0 otherwise."""
    runs = {"parent": [], "change": []}
    expected, differ = None, []
    for k in range(args.pairs):
        order = (("parent", args.parent_dir), ("change", args.change_dir))
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            identity, result = bench(checkout, workload, args)
            # the first pair runs the parent first
            expected = identity if expected is None else expected
            if identity != expected:
                differ.append((f"pair {k + 1} {side}", identity))
            runs[side].append(result)
        print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}" for side in runs), flush=True)

    print(f"{'metric':<18} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'change':>8}  better")
    for metric in declared:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in runs)
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        cells = []
        for values in (parent, change):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        rel = statistics.median(change) / statistics.median(parent) - 1.0 if statistics.median(parent) else 0.0
        print(f"{name:<18} {cells[0]:>36} {cells[1]:>36} {rel:>+8.2%}  {wins}/{len(parent)}")

    print("failed: " + ", ".join(
        f"{side} {sum(r['failed'] for r in runs[side])} of {sum(r['attempted'] for r in runs[side])}"
        for side in runs))
    if differ:
        print("identity lines differ from the parent's first run:")
        for where, identity in differ:
            print(f"  {where}: " + " | ".join(identity))
        return 1
    print("identical: " + " | ".join(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
