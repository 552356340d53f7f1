#!/usr/bin/env python3
"""Compare two campaign trace directories, old and new.

For every run whose trace differs in any field but ``eta``,
``eta_upper`` and ``eta_radius`` it prints the old and new termination,
evaluation count and final f, and the first iteration and field that
differ (or the first top-level field, when every iteration agrees).
Then it prints how many traces hold the same JSON document, every field
compared, the eta fields too, and how many trace files are
byte-identical: a change of layout alone keeps every document and no
file's bytes.  Then, for each default tolerance, it prints the smallest
and largest change (new minus old) of each solver's data-profile curve
over kappa.  Both versions are profiled as one group, so every
problem's f_best is the lowest value either version found.

Older traces are read as the current schema, so a tree from before a
change of schema can be compared with one from after it: a v1 trace,
written before snapshots had ``eta_upper``, has every eta exact, and a
v2 trace, written before ``eta_radius``, read every bracket's lower end
at rho = delta.

Usage:  PYTHONPATH=src python scripts/profile_delta.py OLD_DIR NEW_DIR
"""
import sys
from pathlib import Path

from trfd import jsontext
from trfd.bench import DEFAULT_TOLERANCES, data_profile, trace_files
from trfd.solver import TRACE_SCHEMA, record_from_doc

# fields whose change a bracketed eta explains
ETA_FIELDS = ("eta", "eta_upper", "eta_radius")


def load_doc(path) -> dict:
    doc = jsontext.load(path)
    if doc.get("schema") in ("trfd-trace-v1", "trfd-trace-v2"):
        for it in doc["iterations"]:
            it.setdefault("eta_upper", None)
            # a U2 retry inherits the radius of the step-1 snapshot before it
            if it["entered_at"] == "step1":
                radius = None if it["eta_upper"] is None else it["delta"]
            it["eta_radius"] = radius
        doc["schema"] = TRACE_SCHEMA
    return doc


def first_difference(a: dict, b: dict) -> str | None:
    """Where two trace documents first differ outside the eta fields."""
    for ia, ib in zip(a["iterations"], b["iterations"]):
        for key in ia:
            if key not in ETA_FIELDS and ia[key] != ib.get(key):
                return f"iteration {ia['k']} field {key}"
    if len(a["iterations"]) != len(b["iterations"]):
        return f"iteration {min(len(a['iterations']), len(b['iterations']))} (in one trace only)"
    for key in a:
        if key != "iterations" and a[key] != b.get(key):
            return f"field {key}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: profile_delta.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_paths, new_paths = (dict(trace_files(d)) for d in argv)
    old_docs = {key: load_doc(path) for key, path in old_paths.items()}
    new_docs = {key: load_doc(path) for key, path in new_paths.items()}
    if not old_docs or old_docs.keys() != new_docs.keys():
        print("the two directories must hold traces of the same, nonempty set of runs", file=sys.stderr)
        return 2
    old = {key: record_from_doc(doc) for key, doc in old_docs.items()}
    new = {key: record_from_doc(doc) for key, doc in new_docs.items()}

    changed = 0
    for key in sorted(old):
        where = first_difference(old_docs[key], new_docs[key])
        if where is None:
            continue
        changed += 1
        a, b = old[key], new[key]
        print(f"{key[0]:24s} {key[1]:10s} {a.termination.value} -> {b.termination.value}, "
              f"evals {a.total_evals} -> {b.total_evals}, "
              f"final f {a.final_f:.10g} -> {b.final_f:.10g} ({b.final_f - a.final_f:+.2g}), "
              f"first at {where}")
    print(f"{changed} of {len(old)} runs changed")
    same_doc = sum(old_docs[key] == new_docs[key] for key in old)
    print(f"{same_doc} of {len(old)} traces hold the same JSON document")
    same = sum(Path(old_paths[key]).read_bytes() == Path(new_paths[key]).read_bytes() for key in old)
    print(f"{same} of {len(old)} traces byte-identical")

    group = {(p, f"old:{c}"): rec for (p, c), rec in old.items()}
    group.update({(p, f"new:{c}"): rec for (p, c), rec in new.items()})
    solvers = sorted({c for _, c in old})
    for tol in DEFAULT_TOLERANCES:
        curves = data_profile(group, tol)
        parts = []
        for s in solvers:
            delta = [b - a for a, b in zip(curves[f"old:{s}"], curves[f"new:{s}"])]
            parts.append(f"{s} min {min(delta):+.4f} max {max(delta):+.4f}")
        print(f"profile delta at tol {tol:.0e}: " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
