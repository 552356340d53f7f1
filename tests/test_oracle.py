import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import rosenbrock_residuals

import trfd.oracle
from trfd.core import FeasibleRegion, OuterFunction, PNorm, Problem
from trfd.oracle import EvalBudget, ExternalOracle, InProcessOracle, OracleFailure
from trfd.solver import Termination, TrfdParams, solve
from trfd.testset import registry, registry_by_name


def test_inprocess_rosenbrock_values():
    oracle = InProcessOracle(rosenbrock_residuals, 2)
    assert np.array_equal(oracle.eval_F([1.0, 1.0]), [0.0, 0.0])
    # F1 = 10*(1 - 1.44) = -4.4, F2 = 1 - (-1.2) = 2.2
    fvec = oracle.eval_F([-1.2, 1.0])
    assert fvec == pytest.approx([-4.4, 2.2], rel=1e-15)
    assert oracle.eval_count == 2


def test_counting_and_determinism():
    oracle = InProcessOracle(rosenbrock_residuals, 2)
    x = np.array([0.3, -0.7])
    a = oracle.eval_F(x)
    b = oracle.eval_F(x)
    assert np.array_equal(a, b)
    assert oracle.eval_count == 2


def test_wrong_length_and_nonfinite():
    bad_len = InProcessOracle(lambda x: np.zeros(3), 2)
    with pytest.raises(OracleFailure):
        bad_len.eval_F([0.0, 0.0])
    bad_val = InProcessOracle(lambda x: np.array([np.nan, 0.0]), 2)
    with pytest.raises(OracleFailure):
        bad_val.eval_F([0.0, 0.0])


def test_budget_accounting():
    b = EvalBudget(simplex_gradients=100, n=4)
    assert b.max_evals == 500
    with pytest.raises(ValueError):
        EvalBudget(simplex_gradients=0, n=4)


def test_external_echo(demo_oracle_cmd):
    # maxl_6 answers x, then -x: its first six values echo the query
    oracle = ExternalOracle(f"{demo_oracle_cmd} --problem maxl_6", n=6, m=12)
    try:
        assert oracle.eval_count == 0
        x = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        assert np.array_equal(oracle.eval_F(x), [*x, *-x])
        assert oracle.eval_count == 1
        # bit-exactness through the wire
        x = np.array([np.pi, -1.0 / 3.0, 0.1, 1e-7, 2.0 / 3.0, -1e5])
        assert np.array_equal(oracle.eval_F(x), [*x, *-x])
    finally:
        oracle.close()


def test_wire_is_bit_exact(demo_oracle_cmd):
    # shortest round-trip decimals carry every float64 bit for bit:
    # the smallest subnormal, a negative zero, the largest finite float;
    # maxl_6 answers the query, then its negation, both exact
    rng = np.random.default_rng(7)
    x = np.array([5e-324, -0.0, 1.7976931348623157e308, 0.1 + 0.2, *rng.normal(size=2)])
    oracle = ExternalOracle(f"{demo_oracle_cmd} --problem maxl_6", n=6, m=12)
    try:
        for query in (x, -x, x * 1e-300, *rng.normal(size=(2, 6))):
            assert oracle.eval_F(query).tobytes() == np.concatenate([query, -query]).tobytes()
    finally:
        oracle.close()


def test_oracle_child_imports_no_solver_code(demo_oracle_cmd):
    # a fresh interpreter: the child's imports, then the lazy package names
    code = """
import sys
import trfd.demo_oracle
assert not {"trfd.solver", "trfd.simplex", "trfd.subproblem", "trfd.bench", "trfd.oracle"} & set(sys.modules)
import trfd
from trfd import simplex
assert trfd.solve is sys.modules["trfd.solver"].solve
for name in trfd.__all__:
    getattr(trfd, name)
try:
    trfd.no_such_name
except AttributeError:
    print("ok")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_oracle_child_loads_no_numpy(demo_oracle_cmd):
    # a fresh interpreter runs the child's main on the problems whose maps
    # call math: of trfd it loads the package, the child and the problem
    # table, and neither numpy, nor the argument parser, nor dataclasses
    code = """
import io, sys
import trfd.demo_oracle
from trfd import problems
for name in ("cb2", "expfit_minimax", "gaussian", "brown_dennis"):
    _, _, n, m, _, x0, *_ = problems.REGISTRY[problems.find(name)]
    sys.stdin = io.StringIO('{"hello": {"n": %d, "m": %d}}\\n{"id": 0, "x": %s}\\n' % (n, m, list(x0)))
    assert trfd.demo_oracle.main(["--problem", name]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "trfd"))
print(sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "argparse", "dataclasses")))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for ready, reply in zip(lines[0:8:2], lines[1:8:2]):
        assert ready == '{"ready": true}' and reply.startswith('{"id": 0, "fvec": [')
    assert lines[8:] == ["['trfd', 'trfd.demo_oracle', 'trfd.problems']", "[]"]


# what the child is started with, what its hello asks for -> its refusal
SHAPE_MISMATCHES = {
    "cb2 as n = 3": ("--problem cb2", 3, 3, "cb2 serves n = 2, m = 3, not n = 3, m = 3"),
    "maxq_8 as n = 2": ("--problem maxq_8", 2, 2, "maxq_8 serves n = 8, m = 8, not n = 2, m = 2"),
}


@pytest.mark.parametrize("mode, n, m, error", list(SHAPE_MISMATCHES.values()), ids=list(SHAPE_MISMATCHES))
def test_oracle_child_refuses_a_hello_of_another_size(demo_oracle_cmd, mode, n, m, error):
    # before any query: a child serving another n or m would answer every
    # query of its own size, and the run would go on with a wrong problem
    with pytest.raises(OracleFailure, match=f"^{re.escape('oracle handshake failed: oracle not ready: ' + error)}$"):
        ExternalOracle(f"{demo_oracle_cmd} {mode}", n=n, m=m)


@pytest.mark.parametrize("mode, m", [("--problem cb2", 3)])
def test_oracle_child_answers_a_query_without_n_numbers_and_serves_on(demo_oracle_cmd, mode, m):
    # a raw child after a hello of n = 2: a query of 3 values, one holding
    # a string, one without "x", one holding an inf (as json reads 1e400),
    # then a good one, which it still answers
    queries = ['{"id": 0, "x": [1.0, 2.0, 3.0]}', '{"id": 1, "x": ["a", 2.0]}', '{"id": 2}',
               '{"id": 3, "x": [1e400, 2.0]}', '{"id": 4, "x": [1.0, 2.0]}']
    hello = '{"hello": {"n": 2, "m": %d}}' % m
    done = subprocess.run([*shlex.split(demo_oracle_cmd), *mode.split()], input="\n".join([hello, *queries]) + "\n",
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    ready, *replies = done.stdout.splitlines()
    assert ready == '{"ready": true}' and len(replies) == 5
    for qid, shown in enumerate(['[1.0, 2.0, 3.0]', '["a", 2.0]', 'null', '[Infinity, 2.0]']):
        error = f'"x" must be an array of 2 finite numbers, not {shown}'
        assert json.loads(replies[qid]) == {"id": qid, "error": error}
    last = json.loads(replies[4])
    assert last["id"] == 4 and len(last["fvec"]) == m


def test_an_overflow_in_a_map_fails_the_evaluation(demo_oracle_cmd):
    # gaussian's exp overflows at x2 = -1000; numpy's gave inf, and so
    # does either oracle fail, not the process that calls it
    x = np.array([0.4, -1000.0, 0.0])
    with pytest.raises(OracleFailure, match="^oracle returned non-finite values: math range error$"):
        registry_by_name("gaussian").make_problem().oracle.eval_F(x)
    oracle = ExternalOracle(f"{demo_oracle_cmd} --problem gaussian", n=3, m=15)
    try:
        with pytest.raises(OracleFailure, match="^oracle error: math range error$"):
            oracle.eval_F(x)
        assert oracle.eval_F(np.array([0.4, 1.0, 0.0])).shape == (15,)
    finally:
        oracle.close()


def test_a_map_value_that_is_not_finite_is_an_oracle_error(demo_oracle_cmd):
    # maxq_8 squares 1e200 to inf without raising; JSON has no inf, so the
    # child answers an error, as the in-process oracle refuses the value
    x = np.array([1e200] + [0.0] * 7)
    with pytest.raises(OracleFailure, match="^oracle returned non-finite values$"):
        registry_by_name("maxq_8").make_problem().oracle.eval_F(x)
    oracle = ExternalOracle(f"{demo_oracle_cmd} --problem maxq_8", n=8, m=8)
    try:
        with pytest.raises(OracleFailure, match="^oracle error: maxq_8 returned non-finite values$"):
            oracle.eval_F(x)
        assert np.array_equal(oracle.eval_F(np.ones(8)), np.ones(8))
    finally:
        oracle.close()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--problem", "nope"], "trfd-demo-oracle: error: no benchmark problem named 'nope'"),
        ([], "usage: trfd-demo-oracle --problem NAME"),
        (["--problem"], "usage: trfd-demo-oracle --problem NAME"),
        (["--echo", "--problem", "cb2"], "usage: trfd-demo-oracle --problem NAME"),
        (["--verbose"], "usage: trfd-demo-oracle --problem NAME"),
    ],
    ids=["unknown name", "no mode", "no name", "both modes", "unknown option"],
)
def test_oracle_child_refuses_its_arguments_before_the_handshake(demo_oracle_cmd, args, message):
    done = subprocess.run([*shlex.split(demo_oracle_cmd), *args], input="", capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", message + "\n")


def test_every_registry_problem_crosses_the_wire_bit_for_bit(demo_oracle_cmd):
    # the child serves the very table the in-process registry is built from
    rng = np.random.default_rng(24)
    for bp in registry():
        x0 = np.array(bp.x0)
        oracle = ExternalOracle(f"{demo_oracle_cmd} --problem {bp.name}", n=bp.n, m=bp.m)
        try:
            for x in (x0, x0 + rng.normal(scale=0.1, size=bp.n)):
                want = np.asarray(bp.residuals(x), dtype=float)
                assert oracle.eval_F(x).tobytes() == want.tobytes(), bp.name
        finally:
            oracle.close()


def test_external_registry_problem(demo_oracle_cmd):
    oracle = ExternalOracle(f"{demo_oracle_cmd} --problem rosenbrock", n=2, m=2)
    try:
        assert oracle.eval_F([-1.2, 1.0]) == pytest.approx([-4.4, 2.2], rel=1e-15)
    finally:
        oracle.close()


def test_spawn_failure():
    with pytest.raises(OracleFailure, match="^could not start 'definitely-not-a-real-command-xyz'"):
        ExternalOracle("definitely-not-a-real-command-xyz --problem rosenbrock", n=2, m=2)
    with pytest.raises(OracleFailure, match="^empty oracle command$"):
        ExternalOracle("", n=2, m=2)


def test_close_reaps_a_child_that_exits_on_sigterm(demo_oracle_cmd):
    oracle = ExternalOracle(f"{demo_oracle_cmd} --problem rosenbrock", n=2, m=2)
    proc = oracle._proc
    start = time.perf_counter()
    oracle.close()
    # signalled before its input closes, the child never sees EOF
    assert proc.returncode == -signal.SIGTERM
    assert time.perf_counter() - start < trfd.oracle.TERMINATE_WAIT


def test_close_reaps_an_exited_child_without_a_signal(tmp_path, monkeypatch):
    # the child exits on its own right after the handshake
    oracle = scripted_oracle(tmp_path, [READY], then="sys.exit(3)")
    proc = oracle._proc
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
    signals = []
    monkeypatch.setattr(proc, "send_signal", signals.append)
    oracle.close()
    assert proc.returncode == 3 and signals == []


def test_close_kills_a_child_that_ignores_sigterm(tmp_path, monkeypatch):
    # the child answers the handshake, then ignores SIGTERM and the
    # closed pipes, so only the kill after TERMINATE_WAIT ends it
    child = tmp_path / "stubborn.py"
    child.write_text(
        "import signal, sys, time\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "sys.stdin.readline()\n"
        "print('{\"ready\": true}', flush=True)\n"
        "time.sleep(60)\n"
    )
    monkeypatch.setattr(trfd.oracle, "TERMINATE_WAIT", 0.2)
    oracle = ExternalOracle(f"{sys.executable} {child}", n=2, m=2)
    proc = oracle._proc
    start = time.perf_counter()
    oracle.close()
    assert proc.returncode == -signal.SIGKILL
    assert 0.2 <= time.perf_counter() - start < 5.0



READY = '{"ready": true}'


def scripted_oracle(tmp_path, replies, m=2, then="sys.stdin.read()", **kwargs):
    """An ExternalOracle with n = 2 on a child that writes ``replies``,
    one a line: the first to the handshake, each next to the next query.
    The child then runs ``then``: by default it reads to the end of its
    input, answering nothing more; ``kwargs`` go to ExternalOracle."""
    child = tmp_path / "scripted.py"
    child.write_text(
        "import sys\n"
        f"for reply, _ in zip({replies!r}, sys.stdin):\n"
        "    print(reply, flush=True)\n"
        f"{then}\n"
    )
    return ExternalOracle(f"{sys.executable} {child}", n=2, m=m, **kwargs)


def test_handshake_timeout(tmp_path):
    # the child answers nothing, not even the handshake
    with pytest.raises(OracleFailure, match="^oracle handshake failed: oracle timed out after 0.5s$"):
        scripted_oracle(tmp_path, [], timeout=0.5)


def test_eval_timeout(tmp_path):
    # the child answers the handshake only; it starts under the default
    # timeout so that its start-up is not bounded by the limit under test
    oracle = scripted_oracle(tmp_path, [READY])
    oracle.timeout = 0.5
    try:
        with pytest.raises(OracleFailure, match="^oracle timed out after 0.5s$"):
            oracle.eval_F([1.0, 2.0])
    finally:
        oracle.close()


def test_process_death(tmp_path):
    # the child exits after its first answer; the next query meets a
    # broken pipe or the end of the child's output, never a wait
    oracle = scripted_oracle(tmp_path, [READY, '{"id": 0, "fvec": [1.0, 2.0]}'], then="", timeout=5.0)
    try:
        assert np.array_equal(oracle.eval_F([1.0, 2.0]), [1.0, 2.0])
        assert oracle._proc.wait(timeout=5.0) == 0
        with pytest.raises(OracleFailure, match="^oracle process closed its (input|output)$"):
            oracle.eval_F([3.0, 4.0])
    finally:
        oracle.close()


# each reply is malformed; the queries before the last are answered well
@pytest.mark.parametrize("m, replies", [
    (2, ["[1, 2]"]),
    (2, ['{"id": 0, "fvec": ["1e3", true]}']),
    (1, ['{"id": 0, "fvec": "12"}']),
    (2, ['{"id": 0, "fvec": [[1.0], [2.0]]}']),
    (2, ['{"id": 0, "fvec": [1' + "0" * 400 + ", 1.0]}"]),
    (2, ['{"id": 0, "error": 5}']),
    (2, ["[" * 100000 + "]" * 100000]),
    (2, ['{"fvec": [1.0, 2.0]}']),
    (2, ['{"id": 0, "fvec": [1.0, 2.0]}', '{"id": true, "fvec": [1.0, 2.0]}']),
    (2, ['{"id": 0, "fvec": [1.0, 2.0, 0.0]}']),
    (2, ["this is not json"]),
])
def test_a_malformed_reply_is_an_oracle_failure(tmp_path, m, replies):
    oracle = scripted_oracle(tmp_path, [READY, *replies], m=m)
    try:
        for _ in replies[:-1]:
            oracle.eval_F([1.0, 2.0])
        with pytest.raises(OracleFailure, match="^malformed oracle reply"):
            oracle.eval_F([1.0, 2.0])
    finally:
        oracle.close()


# a handshake reply -> why the handshake fails
BAD_HANDSHAKES = {
    "[1]": "malformed oracle reply b'[1]': an oracle reply must be an object, not [1]",
    '{"ready": false}': "oracle not ready",
}


@pytest.mark.parametrize("reply", list(BAD_HANDSHAKES))
def test_a_bad_handshake_reply_closes_the_child(tmp_path, monkeypatch, reply):
    closed = []
    close = ExternalOracle.close
    monkeypatch.setattr(ExternalOracle, "close", lambda self: closed.append(self._proc) or close(self))
    with pytest.raises(OracleFailure, match=f"^{re.escape('oracle handshake failed: ' + BAD_HANDSHAKES[reply])}$"):
        scripted_oracle(tmp_path, [reply])
    assert closed and closed[0].returncode is not None


def test_a_malformed_reply_ends_the_run_with_oracle_error(tmp_path):
    # the start is evaluated; the first Jacobian probe gets no usable reply
    oracle = scripted_oracle(tmp_path, [READY, '{"id": 0, "fvec": [1.0, 2.0]}', "[1, 2]"])
    prob = Problem(n=2, m=2, oracle=oracle, h=OuterFunction.L1, region=FeasibleRegion.unconstrained(2),
                   x0=np.zeros(2))
    try:
        rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE))
    finally:
        oracle.close()
    assert rec.termination is Termination.ORACLE_ERROR
    assert rec.best_f == [3.0] and rec.total_evals == 1 and rec.iterations == []
