"""Per-layer spans recorded from outside the package.

The package binds its collaborators with ``from .x import y``, so a span
must wrap each name where it is looked up, not where it is defined:
patching ``trfd.simplex.solve_lp`` alone would record nothing, because
``trfd.subproblem`` holds its own reference.  ``install`` wraps every
site that ``sites`` lists and returns a function that puts the originals back.

A span's self time is its duration minus the time of the nested spans
it directly encloses.  Spans marked ``nested=False`` are timed but do
not take part in that subtraction (the LP assembly is reported as a
part of the subproblem layer's own time, as is trace writing outside
any other span).
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self._open = []  # child-time accumulators of the nested spans now open
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.samples = defaultdict(list)  # layer -> span durations in seconds
        self.counts = defaultdict(int)  # exact counters other than calls

    def wrap(self, layer, fn, *, nested=True, keep_samples=False, on_result=None):
        def traced(*args, **kwargs):
            if nested:
                self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._open.pop() if nested else 0.0
                if nested and self._open:
                    self._open[-1] += dt
                self.busy[layer] += dt
                self.self_time[layer] += dt - child
                self.calls[layer] += 1
                if keep_samples:
                    self.samples[layer].append(dt)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced


def _count_pivots(tracer, result):
    tracer.counts["simplex.pivots"] += int(result.iterations)


def sites():
    """(layer, owner, attribute, options) for every wrapped lookup site."""
    import trfd.bench
    import trfd.oracle
    import trfd.solver
    import trfd.subproblem

    return [
        ("solver", trfd.bench, "solve", {}),
        ("jacobian", trfd.solver, "build_jacobian", {}),
        ("subproblem", trfd.solver, "solve_tr_subproblem", {}),
        ("subproblem.reformulate", trfd.subproblem, "reformulate", {"nested": False}),
        ("simplex", trfd.subproblem, "solve_lp", {"keep_samples": True, "on_result": _count_pivots}),
        ("trace.write", trfd.bench, "save_trace", {"nested": False}),
        ("oracle", trfd.oracle.BlackBoxOracle, "eval_F", {"keep_samples": True}),
        ("oracle.spawn", trfd.oracle.ExternalOracle, "__init__", {"nested": False}),
    ]


def install(tracer: Tracer):
    """Wrap every site; returns a callable that restores the originals."""
    saved = []
    for layer, owner, attr, options in sites():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(layer, original, **options))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
