"""trfd benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload is repeated as often as fits in ``--seconds`` (at
least twice).  With ``--trace 1`` untraced and traced repeats alternate
and the per-layer metrics come from the traced ones.  After the timed
repeats, and outside the timing, a correctness gate audits every trace;
any violation makes the exit status nonzero.  The last line of standard
output is the JSON result; the lines before it give every metric with
its unit and sample count.  See perfbench/README.md.
"""
import os
import sys

# One BLAS thread in this process and every child it starts, set before
# numpy is first imported: pivot sequences, and so the exact counters and
# trace bytes of the large ladder LPs, depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
from collections import Counter
from time import perf_counter

import numpy as np

import reference
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SETUP_PROBES = 7
TOLERANCES = {"solved_frac_1e-3": 1e-3, "solved_frac_1e-7": 1e-7}
FAILED_TERMINATIONS = ("oracle_error", "numerical_trouble")
TIME_UNITS = ("s", "ms", "us")


class GateFailure(Exception):
    """An output of the program is wrong."""


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)

    wl = workloads.setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    print(environment_line(), flush=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        return measure(wl, args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def measure(wl, args, work_root) -> int:
    untraced, traced = [], []

    def next_repeat(tracer):
        for rep in untraced + traced:
            rep["records"] = None  # only the latest repeat's records are kept
        return timed_repeat(wl, work_root, len(untraced) + len(traced), tracer)

    # repeat while the next repeat (or traced pair) is expected to end
    # within --seconds, and at least twice
    started = perf_counter()
    last = 0.0
    while len(untraced) < 2 or perf_counter() - started + last <= args.seconds:
        t0 = perf_counter()
        untraced.append(next_repeat(None))
        if args.trace:
            traced.append(next_repeat(tracing.Tracer()))
        last = perf_counter() - t0
    peak_rss_mb = peak_rss()
    setup_s = time_setups(args)

    repeats = untraced + traced
    problems = []
    try:
        check_repeats(repeats, traced)
        gate(wl, repeats[-1], args)
    except GateFailure as exc:
        problems.append(str(exc))

    lines, metrics = report(wl, args, untraced, traced, setup_s, peak_rss_mb)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    if not problems:
        print(f"gate: ok ({repeats[-1]['counters']['runs']} traces audited, "
              f"{len(repeats)} repeats identical)")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["counters"]["runs"] for r in repeats),
        "failed": sum(r["counters"]["failed"] for r in repeats),
        "metrics": metrics,
    }), flush=True)
    return 1 if problems else 0


def timed_repeat(wl, work_root, index, tracer):
    out_dir = os.path.join(work_root, f"repeat{index}")
    restore = tracing.install(tracer) if tracer is not None else None
    try:
        t0 = perf_counter()
        rep = wl.run(out_dir)
        wall_s = perf_counter() - t0
    finally:
        if restore is not None:
            restore()
    result = {
        "records": rep.records,
        "run_times": rep.run_times,
        "factors": rep.factors,
        "factor": statistics.median(rep.factors.values()),
        "reference_s": rep.reference_s,
        "profile_s": rep.profile_s,
        "wall_s": wall_s,
        "digest": trace_digest(out_dir),
        "trace_bytes": trace_bytes(out_dir),
        "counters": record_counters(rep.records),
        "solved": {name: solved_fraction(wl, rep.records, tol) for name, tol in TOLERANCES.items()},
        "out_dir": out_dir,
        "tracer": tracer,
    }
    # keep only the latest repeat's files for the gate
    for earlier in os.listdir(work_root):
        if earlier != f"repeat{index}":
            shutil.rmtree(os.path.join(work_root, earlier), ignore_errors=True)
    return result


def trace_files(out_dir):
    names = sorted(n for n in os.listdir(out_dir) if "__" in n and n.endswith(".json"))
    return names + ["summary.json"]


def trace_digest(out_dir) -> str:
    """sha256 over the trace files and summary.json, names included."""
    h = hashlib.sha256()
    for name in trace_files(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def trace_bytes(out_dir) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in trace_files(out_dir))


def record_counters(records) -> dict:
    classes = Counter(s.cls.value for rec in records.values() for s in rec.iterations)
    terminations = Counter(rec.termination.value for rec in records.values())
    return {
        "runs": len(records),
        "evals": sum(rec.total_evals for rec in records.values()),
        "iterations": sum(len(rec.iterations) for rec in records.values()),
        "classes": {c: classes.get(c, 0) for c in ("success", "u1", "u2", "u3")},
        "terminations": dict(sorted(terminations.items())),
        "failed": sum(terminations.get(t, 0) for t in FAILED_TERMINATIONS),
    }


def solved_fraction(wl, records, tolerance) -> float:
    """Share of runs whose best f closes (1 - tolerance) of f(x0) - f_ref."""
    solved = 0
    for (pname, _), rec in records.items():
        gap = rec.best_f[0] - wl.f_ref[pname]
        if gap <= 0 or rec.best_f[0] - rec.best_f[-1] >= (1.0 - tolerance) * gap:
            solved += 1
    return solved / len(records)


def layer_counters(rep) -> dict:
    t = rep["tracer"]
    return {
        "lps": t.calls["simplex"],
        "pivots": t.counts["simplex.pivots"],
        "subproblems": t.calls["subproblem"],
        "jacobian_builds": t.calls["jacobian"],
        "oracle_calls": t.calls["oracle"],
        "oracle_spawns": t.calls["oracle.spawn"],
    }


def check_repeats(repeats, traced) -> None:
    """Exact counters and trace bytes must repeat across the repeats."""
    first = repeats[0]
    for rep in repeats[1:]:
        if rep["digest"] != first["digest"]:
            raise GateFailure(f"trace digest differs between repeats: {first['digest']} vs {rep['digest']}")
        if rep["counters"] != first["counters"]:
            raise GateFailure(f"record counters differ between repeats: {first['counters']} vs {rep['counters']}")
    for rep in traced[1:]:
        if layer_counters(rep) != layer_counters(traced[0]):
            raise GateFailure("per-layer counters differ between traced repeats")
    for rep in traced:
        calls = layer_counters(rep)["oracle_calls"]
        if calls != rep["counters"]["evals"]:
            raise GateFailure(f"{calls} oracle calls traced, records count {rep['counters']['evals']} evaluations")


def gate(wl, rep, args) -> None:
    """Audit every trace of one repeat; the others are byte-identical."""
    from trfd.diagnostics import AuditFailure, audit_trace
    from trfd.solver import load_trace

    out_dir = rep["out_dir"]
    names = trace_files(out_dir)[:-1]
    if len(names) != len(rep["records"]):
        raise GateFailure(f"{len(names)} trace files for {len(rep['records'])} runs")
    for name in names:
        record = load_trace(os.path.join(out_dir, name))
        if record.total_evals > record.params.budget.max_evals:
            raise GateFailure(f"{name}: {record.total_evals} evaluations exceed the budget "
                              f"{record.params.budget.max_evals}")
        try:
            audit_trace(record, analytic=wl.analytic(record.problem_name))
        except AuditFailure as exc:
            raise GateFailure(f"{name}: audit: {exc}") from exc
    if wl.name == "ladder":
        import ladder

        if ladder.fingerprint(ladder.generate(args.seed)) != ladder.fingerprint(ladder.generate(args.seed)):
            raise GateFailure("the ladder generator gave different instances for one seed")
        trouble = rep["counters"]["terminations"].get("numerical_trouble", 0)
        if trouble:
            raise GateFailure(f"{trouble} ladder runs ended in numerical_trouble")


def time_setups(args) -> list:
    """Reference seconds from starting a fresh interpreter until the
    workload is built and its first run could start, once per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = reference.measure("interp")
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        after = reference.measure("interp")
        out.append(elapsed * reference.factor("interp", before, after))
        before = after
    return out


def peak_rss() -> float:
    """Peak resident MB of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_times(reps) -> list:
    """Each run's time in reference seconds, the median over the repeats."""
    return [statistics.median(r["run_times"][key] * r["factors"][key] for r in reps)
            for key in reps[0]["run_times"]]


def wall(reps) -> float:
    """Wall time of the workload in reference seconds: the runs' times
    summed, plus the median of the rest of a repeat (trace, summary and
    profile writing), leaving out the reference measurements."""
    rest = statistics.median(
        (r["wall_s"] - sum(r["run_times"].values()) - r["reference_s"]) * r["factor"] for r in reps)
    return sum(run_times(reps)) + rest


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def report(wl, args, untraced, traced, setup_s, peak_rss_mb):
    k = len(untraced)
    c = untraced[0]["counters"]
    n_runs = c["runs"]
    wall_s = wall(untraced)
    runs = run_times(untraced)
    per_run = f"each the median of {k} repeats"
    e2e = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "wall_s": (wall_s, "s", f"{n_runs} runs, {per_run}"),
        "iters_per_s": (c["iterations"] / wall_s, "1/s", f"{c['iterations']} iterations / wall_s"),
        "evals_per_s": (c["evals"] / wall_s, "1/s", f"{c['evals']} evaluations / wall_s"),
        "run_s_p50": (statistics.median(runs), "s", f"median of {n_runs} runs, {per_run}"),
        "failed_frac": (c["failed"] / n_runs, "ratio", f"of {n_runs} runs"),
    }
    for name in TOLERANCES:
        e2e[name] = (untraced[0]["solved"][name], "ratio", f"of {n_runs} runs, certified f_ref")
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB", "this process plus its largest child")

    lines = [f"workload={wl.name} seed={args.seed} trace={args.trace} reference={wl.kernel} "
             f"repeats={k} untraced" + (f" + {len(traced)} traced" if traced else "")]
    for kind, reps in (("untraced", untraced), ("traced", traced)):
        if reps:
            lines.append(f"{kind} repeats: raw wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in reps)
                         + "; reference factor " + " ".join(f"{r['factor']:.3f}" for r in reps))
    lines.append(f"run_s over {n_runs} runs: p50={statistics.median(runs):.6f} "
                 f"p90={percentile(runs, 90):.6f} max={max(runs):.6f}")
    lines.append("end-to-end (untraced, times in reference seconds):")
    for name, (value, unit, note) in e2e.items():
        lines.append(f"  {name:<20} {value:>14.6g} {unit:<6} ({note})")
    lines.append(f"counters: runs={n_runs} evals={c['evals']} iterations={c['iterations']} "
                 + " ".join(f"{key}={v}" for key, v in c["classes"].items())
                 + " terminations: " + " ".join(f"{key}={v}" for key, v in c["terminations"].items()))
    lines.append(f"trace digest sha256={untraced[0]['digest']} (traces + summary.json)")

    if not traced:
        # failed_frac is 0 on a healthy tree, so it goes out as the result's
        # attempted/failed counts rather than as a bounded metric
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()
                   if name != "failed_frac"}
        return lines, metrics

    per_rep = [layer_metrics(r) for r in traced]
    layers = {name: (statistics.median(m[name][0] for m in per_rep), unit)
              for name, (_, unit) in per_rep[0].items()}
    layers["tracing_overhead_s"] = (wall(traced) - wall_s, "s")
    lines.append("counters (traced): " + " ".join(f"{key}={v}" for key, v in layer_counters(traced[0]).items()))
    lines.append(f"per-layer (traced, median of {len(traced)} repeats, times in reference seconds):")
    for name, (value, unit) in layers.items():
        lines.append(f"  {name:<24} {value:>14.6g} {unit}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    return lines, metrics


def layer_metrics(rep) -> dict:
    t = rep["tracer"]
    c = rep["counters"]
    lp_ms = [s * 1e3 for s in t.samples["simplex"]] or [0.0]
    call_us = [s * 1e6 for s in t.samples["oracle"]] or [0.0]
    pivots = t.counts["simplex.pivots"]
    metrics = {
        "simplex.lps": (t.calls["simplex"], "count"),
        "simplex.pivots": (pivots, "count"),
        "simplex.busy_s": (t.busy["simplex"], "s"),
        "simplex.us_per_pivot": (t.busy["simplex"] / pivots * 1e6 if pivots else 0.0, "us"),
        "simplex.lp_ms_p50": (percentile(lp_ms, 50), "ms"),
        "simplex.lp_ms_p99": (percentile(lp_ms, 99), "ms"),
        "subproblem.calls": (t.calls["subproblem"], "count"),
        "subproblem.reformulate_s": (t.busy["subproblem.reformulate"], "s"),
        "subproblem.self_s": (t.busy["subproblem"] - t.busy["simplex"], "s"),
        "oracle.calls": (t.calls["oracle"], "count"),
        "oracle.busy_s": (t.busy["oracle"], "s"),
        "oracle.spawn_s": (t.busy["oracle.spawn"], "s"),
        "oracle.wire_us_p50": (percentile(call_us, 50), "us"),
        "oracle.wire_us_p99": (percentile(call_us, 99), "us"),
        "jacobian.builds": (t.calls["jacobian"], "count"),
        "jacobian.self_s": (t.self_time["jacobian"], "s"),
        "solver.iterations": (c["iterations"], "count"),
        "solver.iter_success": (c["classes"]["success"], "count"),
        "solver.iter_u1": (c["classes"]["u1"], "count"),
        "solver.iter_u2": (c["classes"]["u2"], "count"),
        "solver.iter_u3": (c["classes"]["u3"], "count"),
        "solver.self_s": (t.self_time["solver"], "s"),
        "trace.write_s": (t.busy["trace.write"], "s"),
        "trace.bytes": (rep["trace_bytes"], "bytes"),
        "bench.profile_s": (rep["profile_s"], "s"),
    }
    # times in reference seconds, at the repeat's median factor
    return {name: (value * rep["factor"] if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in metrics.items()}


def environment_line() -> str:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')}-{deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"env: python={sys.version.split()[0]} numpy={np.__version__} blas={blas} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} cores={cores}")


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "trfd", "__init__.py")):
        print(f"perfbench: no trfd sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    # temporary files stay inside the checkout
    os.makedirs(SCRATCH, exist_ok=True)
    os.environ["TMPDIR"] = SCRATCH
    tempfile.tempdir = SCRATCH
    sys.exit(main())
