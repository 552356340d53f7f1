#!/usr/bin/env python3
"""Compare two campaign trace directories, old and new.

For every run whose termination, evaluation count or final f changed it
prints the old and new values.  Then, for each default tolerance, it
prints the smallest and largest change (new minus old) of each solver's
data-profile curve over kappa.  Both versions are profiled as one group,
so every problem's f_best is the lowest value either version found.

Usage:  PYTHONPATH=src python scripts/profile_delta.py OLD_DIR NEW_DIR
"""
import sys

from trfd.bench import DEFAULT_TOLERANCES, data_profile, trace_files
from trfd.solver import load_trace


def load_dir(directory) -> dict:
    return {key: load_trace(path) for key, path in trace_files(directory)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: profile_delta.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old, new = (load_dir(d) for d in argv)
    if not old or old.keys() != new.keys():
        print("the two directories must hold traces of the same, nonempty set of runs", file=sys.stderr)
        return 2

    changed = 0
    for key in sorted(old):
        a, b = old[key], new[key]
        if (a.termination, a.total_evals, a.final_f) == (b.termination, b.total_evals, b.final_f):
            continue
        changed += 1
        print(f"{key[0]:24s} {key[1]:10s} {a.termination.value} -> {b.termination.value}, "
              f"evals {a.total_evals} -> {b.total_evals}, "
              f"final f {a.final_f:.10g} -> {b.final_f:.10g} ({b.final_f - a.final_f:+.2g})")
    print(f"{changed} of {len(old)} runs changed")

    group = {(p, f"old:{c}"): rec for (p, c), rec in old.items()}
    group.update({(p, f"new:{c}"): rec for (p, c), rec in new.items()})
    solvers = sorted({c for _, c in old})
    for tol in DEFAULT_TOLERANCES:
        curves = data_profile(group, tol).curves
        parts = []
        for s in solvers:
            delta = [b - a for a, b in zip(curves[f"old:{s}"], curves[f"new:{s}"])]
            parts.append(f"{s} min {min(delta):+.4f} max {max(delta):+.4f}")
        print(f"profile delta at tol {tol:.0e}: " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
