import json

import pytest

from trfd.bench import SolverConfig
from trfd.cli import main


def test_list_runs():
    assert main(["list"]) == 0
    assert main(["list", "--family", "minimax"]) == 0


def write_campaign(path, problems, budget=100):
    doc = {
        "problems": problems,
        "solvers": [{"name": "TRFD-L1", "p": "1"}],
        "budget_simplex_gradients": budget,
        "tolerances": [1e-1, 1e-3],
    }
    path.write_text(json.dumps(doc))


def test_run_profile_audit_cycle(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock", "dem"])
    out = tmp_path / "out"

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "rosenbrock__TRFD-L1.json" in names
    assert "profile_tol1e-01.csv" in names and "profile_tol1e-03.csv" in names

    assert main(["profile", "--out", str(out), "--tolerance", "1e-05"]) == 0
    assert (out / "profile_tol1e-05.csv").exists()

    assert main(["audit", str(out)]) == 0
    capsys.readouterr()


def test_audit_rejects_corrupted_trace(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock"])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    trace = out / "rosenbrock__TRFD-L1.json"
    doc = json.loads(trace.read_text())
    doc["iterations"][2]["delta"] = doc["iterations"][2]["delta"] * 3.0
    trace.write_text(json.dumps(doc))
    assert main(["audit", str(trace)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_audit_reports_unreadable_traces_and_goes_on(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock"])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    good = out / "rosenbrock__TRFD-L1.json"
    doc = json.loads(good.read_text())
    del doc["params"]
    bad = {
        "missing": tmp_path / "missing.json",
        "not_json": tmp_path / "not_json.json",
        "wrong_schema": tmp_path / "wrong_schema.json",
        "array": tmp_path / "array.json",
        "missing_key": tmp_path / "missing_key.json",
    }
    bad["not_json"].write_text("{")
    bad["wrong_schema"].write_text(json.dumps({"schema": "trfd-summary-v1"}))
    bad["array"].write_text("[]")
    bad["missing_key"].write_text(json.dumps(doc))
    paths = [str(p) for p in bad.values()] + [str(good)]
    assert main(["audit", *paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(paths)
    for line, path in zip(lines[:-1], paths):
        assert line.startswith(f"{path}: FAILED: ")
    assert lines[-1].startswith(f"{good}: ok")


def test_run_with_family_config_and_budget_flag(tmp_path):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({
        "problems": {"family": "minimax"},
        "solvers": [{"name": "TRFD-M", "p": "auto"}],
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--budget", "5"]) == 0
    traces = [p for p in out.iterdir() if "__" in p.name]
    assert len(traces) == 13
    doc = json.loads((out / "cb2__TRFD-M.json").read_text())
    assert doc["params"]["simplex_gradients"] == 5


def test_run_parallel_jobs_flag(tmp_path):
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock", "dem", "lq"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_run_exit_code_on_failed_run(tmp_path, monkeypatch):
    # a run ending in numerical trouble must flip the exit status
    import trfd.cli as cli
    from trfd.bench import CampaignResult, run_campaign as real_run

    def sabotaged(campaign, out_dir=None, jobs=1):
        result = real_run(campaign, out_dir=out_dir, jobs=jobs)
        from trfd.solver import Termination

        victim = next(iter(result.records.values()))
        victim.termination = Termination.NUMERICAL_TROUBLE
        return result

    monkeypatch.setattr(cli, "run_campaign", sabotaged)
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock"])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_external_oracle_config_end_to_end(tmp_path, demo_oracle_cmd):
    from trfd.config import problem_from_config
    from trfd.solver import TrfdParams, solve
    from trfd.core import PNorm

    doc = {
        "name": "rosenbrock",
        "n": 2, "m": 2, "h": "l1",
        "x0": [-1.2, 1.0],
        "oracle": {"command": f"{demo_oracle_cmd} --problem rosenbrock"},
    }
    prob = problem_from_config(doc)
    try:
        rec = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, simplex_gradients=20))
        assert rec.final_f < 1e-3
    finally:
        prob.oracle.close()


# case: (campaign document, text its error line must contain)
BAD_CONFIGS = {
    "p2": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "p": "2"}]}, "p = 2"),
    "problems_string": ({"problems": "rosenbrock"}, '"problems"'),
    "solvers_string": ({"problems": ["rosenbrock"], "solvers": "TRFD-L1"}, '"solvers"'),
    "solver_without_name": ({"problems": ["rosenbrock"], "solvers": [{"p": "1"}]}, '"name"'),
    "not_object": (["rosenbrock"], "JSON object"),
    "tolerances_number": ({"problems": ["rosenbrock"], "tolerances": 0.1}, '"tolerances"'),
    "override_string": (
        {"problems": ["rosenbrock"], "solvers": [{"name": "X", "epsilon": "abc"}]}, '"epsilon"'
    ),
}


@pytest.mark.parametrize(
    "case",
    [
        "p2", "unknown_problem", "missing_file", "problems_string", "solvers_string", "solver_without_name",
        "not_object", "tolerances_number", "override_string",
    ],
)
def test_run_rejects_bad_config_with_one_line(tmp_path, capsys, case):
    cfg = tmp_path / "campaign.json"
    if case in BAD_CONFIGS:
        cfg.write_text(json.dumps(BAD_CONFIGS[case][0]))
    elif case == "unknown_problem":
        write_campaign(cfg, ["no_such_problem"])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("trfd run: error: ")
    if case in BAD_CONFIGS:
        assert BAD_CONFIGS[case][1] in lines[0]
    assert not out.exists()
    # aliases still pass the check
    SolverConfig(name="X", p="Infinity")

