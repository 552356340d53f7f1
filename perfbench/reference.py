"""Host-speed reference: the unit in which the benchmark reports time.

The benchmark runs on hosts shared with other tenants, whose load slows
the same work by up to 2x for a minute at a time.  Raw wall times of one
commit then drift between runs by more than any useful regression
bound.  So every timed solver run is bracketed by two measurements of a
fixed reference kernel that shares no code with trfd, and its time is
reported in reference seconds:

    reported = measured * NOMINAL_S[kernel] / reference

where ``reference`` is the mean of the kernel's median time just before
and just after the run.  Contention slows the run and the kernel alike,
so the ratio holds still while the raw time swings.  Each workload uses
the kernel whose work resembles its own:

* ``interp``: Python arithmetic and small dense numpy solves, like the
  many small LPs of the registry campaign;
* ``dense``:  LAPACK solves at 161 x 161, like the large ladder LPs.

NOMINAL_S only fixes the unit: it is close to each kernel's time on a
2-vCPU Xeon at 2.1 GHz with one BLAS thread when that shared host ran
fastest, so there a reference second is about a second.  Keep it fixed,
or earlier results stop comparing.  A change to trfd cannot move the
kernels, so it shows in full.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

UNITS = 3  # kernel timings per measurement; the median is kept

_SMALL = np.cos(np.arange(40.0 * 40.0)).reshape(40, 40) + 40.0 * np.eye(40)
_MID = np.cos(np.arange(120.0 * 120.0)).reshape(120, 120) + 120.0 * np.eye(120)
_DENSE = np.cos(np.arange(161.0 * 161.0)).reshape(161, 161) + 161.0 * np.eye(161)
_RHS = np.sin(np.arange(161.0))


def _interp() -> float:
    b = np.sin(np.arange(40.0))
    acc = 0.0
    for _ in range(25):
        x = np.linalg.solve(_SMALL, b)
        y = np.linalg.solve(_SMALL.T, x)
        acc += float(np.max(np.abs(_SMALL @ x - b))) + sum(k * 0.5 for k in range(30))
        b = np.where(y > 0, b, -b)
    for j in range(3):
        acc += float(np.linalg.solve(_MID, _MID[:, j])[0])
    return acc


def _dense() -> float:
    x = _RHS
    for _ in range(6):
        x = np.linalg.solve(_DENSE, _RHS)
        x = np.linalg.solve(_DENSE.T, x)
    return float(x[0])


KERNELS = {"interp": _interp, "dense": _dense}
NOMINAL_S = {"interp": 0.00130, "dense": 0.00220}


def measure(kernel: str) -> float:
    """Median seconds of one kernel call, measured now."""
    fn = KERNELS[kernel]
    times = []
    for _ in range(UNITS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(kernel: str, before: float, after: float) -> float:
    """Reference seconds per measured second over a bracketed interval."""
    return NOMINAL_S[kernel] / ((before + after) / 2.0)
