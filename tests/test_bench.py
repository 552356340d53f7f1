import copy
import dataclasses
import enum
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trfd.bench import (
    Campaign,
    EmptyGroup,
    SolverConfig,
    TRFD_L1,
    TRFD_M,
    data_profile,
    emit_profile_csv,
    run_campaign,
)
from trfd.core import OuterFunction, PNorm
from trfd.oracle import EvalBudget
from trfd import jsontext
from trfd.solver import RunRecord, Termination, TrfdParams, load_trace, record_to_doc, solve
from trfd.testset import registry_by_name


def fake_record(name, n, best_f, budget=100):
    params = TrfdParams(
        epsilon=1e-15, alpha=0.15, sigma=1e9, lipschitz_h=1.0,
        c2p_n=1.0, cp2_m=1.0, p=PNorm.ONE,
        budget=EvalBudget(simplex_gradients=budget, n=n),
        delta0=1.0, delta_star=1000.0, stop_delta=1e-13, stop_eta=1e-13,
    )
    return RunRecord(
        problem_name=name, n=n, m=n, h=OuterFunction.L1, params=params,
        iterations=[], best_f=list(best_f), termination=Termination.BUDGET_EXHAUSTED,
        termination_evals=0, final_x=np.zeros(n), final_f=best_f[-1],
    )


def test_profile_step_at_solving_evaluation():
    # n = 1: kappa simplex gradients cover 2*kappa evaluations; the
    # solver reaches the target exactly at evaluation 6 = 3 * (n + 1)
    best = [10.0] * 5 + [0.0] + [0.0] * 14
    records = {("p", "S"): fake_record("p", 1, best, budget=10)}
    prof = data_profile(records, 1e-3, budget=10)
    assert prof["S"][0] == 0.0
    assert prof["S"][2] == 0.0
    assert prof["S"][3] == 1.0
    assert prof["S"][10] == 1.0


def test_profile_never_solving_is_zero():
    records = {
        ("p", "good"): fake_record("p", 1, [10.0, 0.0, 0.0, 0.0]),
        ("p", "stuck"): fake_record("p", 1, [10.0, 10.0, 10.0, 10.0]),
    }
    prof = data_profile(records, 1e-3, budget=2)
    assert prof["stuck"] == [0.0, 0.0, 0.0]
    assert prof["good"][1] == 1.0


def test_profile_identical_records_identical_curves():
    best = [8.0, 4.0, 2.0, 1.0]
    records = {
        ("p", "a"): fake_record("p", 1, best),
        ("p", "b"): fake_record("p", 1, list(best)),
    }
    prof = data_profile(records, 1e-1, budget=2)
    assert prof["a"] == prof["b"]


def test_profile_tolerance_ordering_and_monotone():
    rng = np.random.default_rng(0)
    records = {}
    for i in range(6):
        vals = np.minimum.accumulate(rng.uniform(0, 10, 40))
        vals[0] = 10.0
        records[(f"p{i}", "S")] = fake_record(f"p{i}", 1, list(vals), budget=20)
    tight = data_profile(records, 1e-5, budget=20)["S"]
    loose = data_profile(records, 1e-1, budget=20)["S"]
    for a, b in zip(tight, loose):
        assert b >= a
    for curve in (tight, loose):
        assert all(y >= x for x, y in zip(curve, curve[1:]))
        assert all(0.0 <= v <= 1.0 for v in curve)


def test_profile_final_value_is_solved_fraction():
    records = {
        ("p0", "S"): fake_record("p0", 1, [10.0, 1e-9, 1e-9, 1e-9]),
        ("p1", "S"): fake_record("p1", 1, [10.0, 10.0, 10.0, 10.0]),
        ("p1", "T"): fake_record("p1", 1, [10.0, 0.0, 0.0, 0.0]),
        ("p0", "T"): fake_record("p0", 1, [10.0, 10.0, 10.0, 10.0]),
    }
    prof = data_profile(records, 1e-3, budget=2)
    assert prof["S"][-1] == 0.5
    assert prof["T"][-1] == 0.5


def test_profile_missing_record_raises():
    records = {
        ("p", "a"): fake_record("p", 1, [1.0]),
        ("q", "a"): fake_record("q", 1, [1.0]),
        ("p", "b"): fake_record("p", 1, [1.0]),
    }
    with pytest.raises(EmptyGroup):
        data_profile(records, 1e-3)
    with pytest.raises(EmptyGroup):
        data_profile({}, 1e-3)


def test_profile_run_without_evaluations_never_solves():
    # an oracle error at x0 leaves best_f empty: that run solves nothing
    # and sets neither f(x0) nor f_best, whichever solver comes first
    from conftest import make_problem

    prob = make_problem(lambda x: np.array([np.nan]), 1, 1, "l1", (0.0,), name="p")
    dead = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, simplex_gradients=2))
    assert dead.termination is Termination.ORACLE_ERROR and dead.best_f == []
    records = {
        ("p", "a"): dead,
        ("p", "b"): fake_record("p", 1, [10.0, 5.0, 5.0, 5.0], budget=2),
        ("q", "a"): fake_record("q", 1, [3.0, 3.0, 3.0, 3.0], budget=2),
        ("q", "b"): fake_record("q", 1, [3.0, 3.0, 3.0, 3.0], budget=2),
    }
    prof = data_profile(records, 1e-3, budget=2)
    assert prof["a"] == [0.0, 0.5, 0.5]
    assert prof["b"] == [0.0, 1.0, 1.0]
    # no run of a problem made an evaluation: nobody solved it
    records[("q", "b")] = records[("q", "a")] = dead
    prof = data_profile(records, 1e-3, budget=2)
    assert prof["a"] == [0.0, 0.0, 0.0]
    assert prof["b"] == [0.0, 0.5, 0.5]


def test_csv_row_count_and_roundtrip(tmp_path):
    # n = 1: three problems solved at kappa 1, 3 and 50, so the curve
    # holds thirds, which no short decimal writes exactly
    records = {
        (name, "S"): fake_record(name, 1, [10.0] * (2 * kappa - 1) + [1.0] * (201 - 2 * kappa), budget=100)
        for name, kappa in (("p", 1), ("q", 3), ("r", 50))
    }
    prof = data_profile(records, 1e-3, budget=100)
    assert prof["S"][1] == 1 / 3 and prof["S"][3] == 2 / 3
    path = tmp_path / "profile.csv"
    emit_profile_csv(prof, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 102  # header + kappa 0..100
    assert lines[0] == "kappa,S"
    back = [float(line.split(",")[1]) for line in lines[1:]]
    assert [struct.pack("<d", v) for v in back] == [struct.pack("<d", v) for v in prof["S"]]


def test_run_campaign_writes_traces_and_summary(tmp_path):
    camp = Campaign(
        problems=[registry_by_name("rosenbrock"), registry_by_name("dem")],
        solver_configs=[TRFD_L1],
        tolerances=(1e-3,),
    )
    out = tmp_path / "out"
    result = run_campaign(camp, out_dir=str(out))
    assert sorted(p.name for p in out.iterdir()) == [
        "dem__TRFD-L1.json",
        "rosenbrock__TRFD-L1.json",
        "summary.json",
    ]
    assert len(result.records) == 2
    for rec in result.records.values():
        assert rec.total_evals <= 100 * (rec.n + 1)


def test_campaign_rerun_bit_identical(tmp_path):
    camp = Campaign(
        problems=[registry_by_name("rosenbrock"), registry_by_name("cb2")],
        solver_configs=[TRFD_L1, TRFD_M],
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_campaign(camp, out_dir=str(out1))
    run_campaign(camp, out_dir=str(out2))
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_campaign_parallel_matches_serial(tmp_path):
    camp = Campaign(
        problems=[registry_by_name("rosenbrock"), registry_by_name("dem"),
                  registry_by_name("lq")],
        solver_configs=[TRFD_L1],
    )
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    run_campaign(camp, out_dir=str(out1), jobs=1)
    run_campaign(camp, out_dir=str(out2), jobs=3)
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_only_a_parallel_campaign_loads_the_process_pool(monkeypatch):
    # a fresh interpreter: the command-line modules leave the pool, and
    # the multiprocessing it pulls in, to run_campaign(jobs > 1)
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"), prepend=os.pathsep)
    code = """
import sys
import trfd.bench, trfd.cli, trfd.config
assert "concurrent.futures.process" not in sys.modules
print("ok")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("jobs, problems, workers", [(3, ["rosenbrock"], None), (4, ["rosenbrock", "dem"], 2),
                                                     (2, ["rosenbrock", "dem", "cb2"], 2)])
def test_campaign_pool_gets_no_more_workers_than_tasks(monkeypatch, jobs, problems, workers):
    # a fork pool starts every worker on the first submit: a recording
    # stand-in shows how many a campaign asks for, and forks none
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    camp = Campaign([registry_by_name(name) for name in problems], [TRFD_L1], simplex_gradients=2)
    result = run_campaign(camp, jobs=jobs)
    assert sorted(result.records) == sorted((name, "TRFD-L1") for name in problems)
    assert asked == ([] if workers is None else [workers])


def assert_same_fields(got, want, where="record"):
    """Field by field: floats bit for bit, arrays equal, enums the same."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            assert_same_fields(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, where
        assert np.array_equal(got, want), where
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_fields(g, w, f"{where}[{i}]")
    elif isinstance(want, enum.Enum):
        assert got is want, where
    elif isinstance(want, float):
        assert isinstance(got, float) and struct.pack("<d", got) == struct.pack("<d", want), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_records_equal_their_traces(tmp_path, jobs):
    # run_campaign hands back the records its workers made; the traces it
    # writes must read back as the same records
    camp = Campaign(
        problems=[registry_by_name(name) for name in ("rosenbrock", "dem", "cb2", "lq")],
        solver_configs=[TRFD_L1, TRFD_M],
    )
    result = run_campaign(camp, out_dir=str(tmp_path), jobs=jobs)
    assert len(result.records) == 8
    # None survives too: some iteration has no decrease ratio
    assert any(it.rho is None for record in result.records.values() for it in record.iterations)
    for (pname, cname), record in result.records.items():
        assert_same_fields(record, load_trace(tmp_path / f"{pname}__{cname}.json"))


def test_traces_in_the_old_float_text_load_the_same(tmp_path):
    # traces were once indented, one value a line, with every float as
    # %.16e text; load_trace reads any JSON number, so such a trace still
    # gives the record bit for bit
    problem = registry_by_name("rosenbrock").make_problem()
    record = solve(problem, TRFD_L1.build_params(problem, 20))
    path = tmp_path / "trace.json"
    path.write_text(jsontext.dumps(record_to_doc(record), indent=1))
    number = re.compile(r'^(\s*(?:"\w+": )?)(-?\d[\d.eE+-]*)(,?)$')

    def old_text(line):
        match = number.match(line)
        if match is None or not any(c in match[2] for c in ".eE"):
            return line  # no float here: ints were written as ints
        return f"{match[1]}{float(match[2]):.16e}{match[3]}"

    old = "".join(old_text(line) + "\n" for line in path.read_text().splitlines())
    assert f'"final_f": {record.final_f:.16e},' in old
    path.write_text(old)
    assert_same_fields(load_trace(path), record)


def test_affine_campaign_terminates_by_floor():
    camp = Campaign(problems=[registry_by_name("chebyshev_line_fit")], solver_configs=[TRFD_M])
    result = run_campaign(camp)
    rec = next(iter(result.records.values()))
    assert rec.termination in (Termination.ETA_FLOOR, Termination.DELTA_FLOOR)


def test_solver_config_auto_rule():
    maxl = registry_by_name("maxl_6").make_problem()   # sqrt(12) < 6
    cheb = registry_by_name("chebyshev_line_fit").make_problem()  # sqrt(10) >= 2
    assert TRFD_M.build_params(maxl, 1).p is PNorm.ONE
    assert TRFD_M.build_params(cheb, 1).p is PNorm.INF
    assert SolverConfig(name="x", p="inf").build_params(maxl, 1).p is PNorm.INF


def load_script(name):
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_profile_delta_script(tmp_path, capsys):
    # a shorter budget stands in for a version that regressed
    script = load_script("profile_delta")
    problems = [registry_by_name("rosenbrock"), registry_by_name("dem")]
    for name, budget in (("old", 20), ("new", 2)):
        run_campaign(Campaign(problems, [TRFD_L1], simplex_gradients=budget), out_dir=str(tmp_path / name))
    old, new = str(tmp_path / "old"), str(tmp_path / "new")

    assert script.main([old, old]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 of 2 runs changed"
    assert lines[1] == "2 of 2 traces hold the same JSON document"
    assert lines[2] == "2 of 2 traces byte-identical"
    assert len(lines) == 7
    assert all(line.endswith("TRFD-L1 min +0.0000 max +0.0000") for line in lines[3:])

    assert script.main([old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "2 of 2 runs changed"
    assert lines[3] == "0 of 2 traces hold the same JSON document"
    assert lines[4] == "0 of 2 traces byte-identical"
    assert all("-> budget_exhausted" in line for line in lines[:2])
    assert all(line.endswith("first at iteration 1 (in one trace only)") for line in lines[:2])
    assert lines[-1].startswith("profile delta at tol 1e-07: TRFD-L1 min -")
    assert lines[-1].endswith("max +0.0000")
    assert script.main([old, str(tmp_path)]) == 2


def test_profile_delta_names_the_first_difference_outside_eta(tmp_path, capsys):
    script = load_script("profile_delta")
    run_campaign(Campaign([registry_by_name("rosenbrock")], [TRFD_L1]), out_dir=str(tmp_path / "old"))
    name = "rosenbrock__TRFD-L1.json"
    doc = json.loads((tmp_path / "old" / name).read_text())
    (tmp_path / "new").mkdir()

    def compare(edit):
        edited = copy.deepcopy(doc)
        edit(edited)
        (tmp_path / "new" / name).write_text(json.dumps(edited))
        capsys.readouterr()
        assert script.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
        return capsys.readouterr().out.splitlines()

    def eta_only(d):
        d["iterations"][1]["eta"] *= 2.0
        d["iterations"][1]["eta_upper"] = 1.0
        d["iterations"][1]["eta_radius"] = 1.0

    assert compare(eta_only)[:2] == ["0 of 1 runs changed", "0 of 1 traces hold the same JSON document"]
    # another layout of the same document
    assert compare(lambda d: None)[:3] == [
        "0 of 1 runs changed", "1 of 1 traces hold the same JSON document", "0 of 1 traces byte-identical"]

    def rho_and_later(d):
        d["iterations"][3]["rho"] = 0.5
        d["iterations"][5]["f"] = 7.0
        d["final_f"] = 7.0

    lines = compare(rho_and_later)
    assert lines[0].endswith("first at iteration 3 field rho") and lines[1] == "1 of 1 runs changed"

    def v1(d):
        # a trace of a tree from before eta_upper, with the same run
        d["schema"] = "trfd-trace-v1"
        for it in d["iterations"]:
            del it["eta_upper"], it["eta_radius"]

    assert compare(v1)[0] == "0 of 1 runs changed"

    def v2(d):
        # a trace of a tree from before eta_radius, whose brackets read
        # psi at rho = delta
        d["schema"] = "trfd-trace-v2"
        for it in d["iterations"]:
            del it["eta_radius"]

    assert compare(v2)[0] == "0 of 1 runs changed"


def test_robustness_sweep_script(capsys):
    # two problems stand in for the registry; zero numerical_trouble is
    # asserted unscaled and in each constrained region, and under a change
    # of units only once the runs are invariant to units
    script = load_script("robustness_sweep")
    assert script.main(["rosenbrock", "cb2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:18].strip() for line in lines] == [name for name, *_ in script.CASES]
    assert all(" 4 runs: " in line for line in lines)
    assert lines[0].startswith("scale 1 ")
    for line, (name, _, _, region) in zip(lines, script.CASES):
        if name == "scale 1" or region is not None:
            assert "numerical_trouble" not in line, line


def fake_checkout(root, digest, wall_s, evals=9):
    """A checkout whose perfbench/run.py prints fixed identity lines,
    naming the workload, and metrics, and that declares two workloads and
    two end-to-end metrics."""
    (root / "perfbench").mkdir(parents=True)
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "solved_frac_1e-3": {"value": 0.5, "unit": "ratio"}}
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"print('counters: ' + sys.argv[sys.argv.index('--workload') + 1] + ' evals={evals}')\n"
        f"print('trace digest sha256={digest} (traces)')\n"
        f"print({json.dumps(json.dumps({'attempted': 4, 'failed': 0, 'metrics': metrics}))})\n"
    )
    declared = [{"name": "wall_s", "better": "lower"}, {"name": "solved_frac_1e-3", "better": "higher"}]
    workloads = [{"name": "registry"}, {"name": "external"}]
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": workloads, "end_to_end": declared}))
    return str(root)


def test_ab_pairs_script(tmp_path, capsys):
    script = load_script("ab_pairs")
    parent = fake_checkout(tmp_path / "parent", "aa", 0.6)
    faster = fake_checkout(tmp_path / "faster", "aa", 0.5)
    other = fake_checkout(tmp_path / "other", "bb", 0.5)

    # every declared workload, each in its own block with its own identity
    assert script.main([parent, faster, "--pairs", "2", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    for block, workload in zip((lines[:8], lines[8:]), ("registry", "external")):
        assert block[0] == f"workload {workload}:"
        assert block[1] == "pair 1/2: parent wall_s 0.6000, change wall_s 0.5000"
        assert block[4].split() == ["wall_s", "0.6", "[0.6,", "0.6]", "0.5", "[0.5,", "0.5]", "-16.67%", "2/2"]
        assert block[5].split()[-2:] == ["+0.00%", "0/2"]
        assert block[6] == "failed: parent 0 of 8, change 0 of 8"
        assert block[7] == f"identical: counters: {workload} evals=9 | trace digest sha256=aa (traces)"

    # --workload runs the one it names
    assert script.main([parent, faster, "--workload", "external", "--pairs", "1", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload external:" and len(lines) == 7

    # a change of digest fails, though the change is faster, and says the
    # counters held
    assert script.main([parent, other, "--workload", "registry", "--pairs", "1", "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3] == "identity lines differ from the parent's first run:"
    assert lines[-2] == "  pair 1 change: counters: registry evals=9 | trace digest sha256=bb (traces)"
    assert lines[-1] == "registry: only the trace digest differs, the counters do not"

    # so does a change of counters, in every workload's block
    recount = fake_checkout(tmp_path / "recount", "bb", 0.5, evals=8)
    assert script.main([parent, recount, "--pairs", "1", "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "differ" in line and not line.startswith("identity")] == [
        "registry: trace digest and counters differ", "external: trace digest and counters differ"]
