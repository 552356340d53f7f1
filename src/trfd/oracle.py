"""Evaluation-counted access to the black-box residual map F.

Two backends share one interface: an in-process callable, and an
external child process speaking a newline-delimited JSON protocol over
stdin/stdout.  Every call to ``eval_F`` counts as exactly one
evaluation; the solver's budget is expressed in "simplex gradients",
each worth n + 1 evaluations.

Wire protocol (one JSON document per line):

    solver -> oracle   {"hello": {"n": <int>, "m": <int>}}
    oracle -> solver   {"ready": true}
                       or {"ready": false, "error": "<message>"}
    solver -> oracle   {"id": <int>, "x": [<n floats>]}
    oracle -> solver   {"id": <int>, "fvec": [<m floats>]}
                       or {"id": <int>, "error": "<message>"}

Both ends write each float as its shortest round-trip decimal (Python's
``repr``), so the text parses back to the same float64 bit for bit; any
JSON number is accepted on reading.  A command that cannot be started,
a failed handshake (after which the child is closed), and a reply of any
other form than above or not JSON at all, all raise OracleFailure.
Failures are fatal: the exact-oracle model has no retry semantics.
"""
from __future__ import annotations

import math
import os
import select
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from . import jsontext
from .core import every

DEFAULT_TIMEOUT = 60.0
# seconds a closed child gets to exit after SIGTERM before it is killed
TERMINATE_WAIT = 5.0


class OracleFailure(Exception):
    """The backend cannot be used: a command that does not start, a
    failed handshake, an unusable answer (wrong shape, non-finite,
    malformed output) or a dead process."""


@dataclass
class EvalBudget:
    """Evaluation allowance in simplex gradients (n + 1 evaluations each)."""

    simplex_gradients: int
    n: int

    def __post_init__(self):
        if self.simplex_gradients < 1:
            raise ValueError("budget must be at least one simplex gradient")

    @property
    def max_evals(self) -> int:
        return self.simplex_gradients * (self.n + 1)


class BlackBoxOracle:
    """Base: validates outputs and counts evaluations."""

    def __init__(self, m: int):
        self.m = int(m)
        self.eval_count = 0

    def eval_F(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not every(np.isfinite(x)):
            raise OracleFailure("query point has non-finite components")
        fvec = self._evaluate(x)
        self.eval_count += 1
        fvec = np.asarray(fvec, dtype=float)
        if fvec.ndim != 1:
            fvec = fvec.reshape(-1)
        if fvec.size != self.m:
            raise OracleFailure(f"oracle returned {fvec.size} values, expected {self.m}")
        if not every(np.isfinite(fvec)):
            raise OracleFailure("oracle returned non-finite values")
        return fvec

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InProcessOracle(BlackBoxOracle):
    def __init__(self, fn, m: int):
        super().__init__(m)
        self._fn = fn

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        return self._fn(x)


class ExternalOracle(BlackBoxOracle):
    """Child process speaking the line protocol above.

    The instance is single-owner: one solver run drives one process.
    """

    def __init__(self, command: str, n: int, m: int, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(m)
        self.n = int(n)
        # checked before the child starts: select() refuses a negative or
        # NaN wait, and a zero one times out every handshake
        if not 0 < jsontext.check(timeout, '"timeout"', "number") < math.inf:
            raise ValueError(f'"timeout" must be a positive number of seconds, not {timeout!r}')
        self.timeout = timeout
        self._next_id = 0
        argv = shlex.split(command)
        if not argv:
            raise OracleFailure("empty oracle command")
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise OracleFailure(f"could not start {argv[0]!r}: {exc}") from exc
        self._buffer = b""
        self._handshake()

    def _handshake(self) -> None:
        try:
            self._send('{"hello": {"n": %d, "m": %d}}' % (self.n, self.m))
            doc = self._reply()
            if not jsontext.field(doc, "ready", "boolean"):
                why = f": {jsontext.field(doc, 'error', 'string')}" if "error" in doc else ""
                raise OracleFailure("oracle not ready" + why)
        except (OracleFailure, ValueError) as exc:
            self.close()
            raise OracleFailure(f"oracle handshake failed: {exc}") from exc

    def _send(self, line: str) -> None:
        try:
            self._proc.stdin.write(line.encode("ascii") + b"\n")
            self._proc.stdin.flush()
        except OSError as exc:  # BrokenPipeError once the child has exited
            raise OracleFailure("oracle process closed its input") from exc

    def _reply(self) -> dict:
        """The child's next line, which must hold a JSON object."""
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], self.timeout)
            if not ready:
                raise OracleFailure(f"oracle timed out after {self.timeout:g}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise OracleFailure("oracle process closed its output")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return jsontext.check(jsontext.loads(line.decode()), "an oracle reply", "object")
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise OracleFailure(f"malformed oracle reply {line!r:.60}: {exc}") from None

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        qid = self._next_id
        self._next_id += 1
        payload = ", ".join(map(repr, x.tolist()))
        self._send('{"id": %d, "x": [%s]}' % (qid, payload))
        doc = self._reply()
        try:
            if jsontext.field(doc, "id", "integer") != qid:
                raise OracleFailure(f"oracle answered id {doc['id']} to query {qid}")
            if "error" in doc:
                raise OracleFailure(f"oracle error: {jsontext.field(doc, 'error', 'string')}")
            # a JSON integer beyond float range overflows here
            return np.array(jsontext.field(doc, "fvec", "array", of="number", size=self.m), dtype=float)
        except (ValueError, OverflowError) as exc:
            raise OracleFailure(f"malformed oracle reply: {exc}") from None

    def close(self) -> None:
        """End the child: SIGTERM, then close both pipes, then wait up to
        TERMINATE_WAIT for it to exit, and kill it if it has not.  The
        signal goes first: a child that reads EOF first runs its
        interpreter's shutdown while the parent still closes the pipe.
        A child that has already exited is reaped with no signal."""
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        running = proc.poll() is None
        if running:
            proc.terminate()
        for stream in (proc.stdin, proc.stdout):
            try:
                if stream:
                    stream.close()
            except OSError:
                pass
        if running:
            if not _exits_within(proc, TERMINATE_WAIT):
                proc.kill()
            proc.wait()

    def __del__(self):
        self.close()


def _exits_within(proc: subprocess.Popen, timeout: float) -> bool:
    """Whether the unreaped child ``proc`` exits within ``timeout`` seconds.

    Blocks on a pidfd, which turns readable when the child exits, instead
    of the sleep-and-poll loop of ``Popen.wait(timeout)``; without pidfds
    it falls back to that loop."""
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        try:
            proc.wait(timeout=timeout)
            return True
        except subprocess.TimeoutExpired:
            return False
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    return bool(ready)
