import csv
import json
import math

import numpy as np
import pytest

from trfd import solver
from trfd.bench import DEFAULT_TOLERANCES, TRFD_L1, TRFD_M
from trfd.cli import main
from trfd.config import campaign_from_config
from trfd.testset import registry


def test_list_runs():
    assert main(["list"]) == 0
    assert main(["list", "--family", "minimax"]) == 0


def write_campaign(path, problems, budget=100, **config):
    doc = {
        "problems": problems,
        "solvers": [{"name": "TRFD-L1", "p": "1"}],
        "budget_simplex_gradients": budget,
        "tolerances": [1e-1, 1e-3],
    }
    path.write_text(json.dumps(doc | config))


L1_AND_INF = [{"name": "TRFD-L1", "p": "1"}, {"name": "TRFD-M", "p": "inf"}]


def run_into(tmp_path, problems, budget=100, **config):
    """``tmp_path / "out"``, after ``trfd run`` of ``write_campaign``'s config into it exits 0."""
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, problems, budget, **config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def test_run_profile_audit_cycle(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock", "dem"])
    names = sorted(p.name for p in out.iterdir())
    assert "rosenbrock__TRFD-L1.json" in names
    assert "profile_tol1e-01.csv" in names and "profile_tol1e-03.csv" in names

    assert main(["profile", "--out", str(out), "--tolerance", "1e-05"]) == 0
    assert (out / "profile_tol1e-05.csv").exists()

    assert main(["audit", str(out)]) == 0
    capsys.readouterr()


def test_audit_rejects_corrupted_trace(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock"])

    trace = out / "rosenbrock__TRFD-L1.json"
    doc = json.loads(trace.read_text())
    doc["iterations"][2]["delta"] = doc["iterations"][2]["delta"] * 3.0
    trace.write_text(json.dumps(doc))
    assert main(["audit", str(trace)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_audit_reports_unreadable_traces_and_goes_on(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock"])
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


def test_audit_reports_a_field_of_the_wrong_json_type_with_one_line(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock"], budget=2)
    trace = out / "rosenbrock__TRFD-L1.json"
    for field, value in [("best_f", None), ("final_x", ["a"]), ("termination_evals", True)]:
        doc = json.loads(trace.read_text())
        doc[field] = value
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["audit", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f'{bad}: FAILED: ValueError: "{field}" must be ' + (
            "an integer, not True\n" if field == "termination_evals"
            else f"an array of numbers, not {value!r}\n"
        )


@pytest.mark.parametrize("field, value, message", [
    ("lipschitz_h", 0, "must be positive, not 0"),
    ("c2p_n", 0.0, "must be positive, not 0.0"),
    ("cp2_m", -1.0, "must be positive, not -1.0"),
    ("x", [1.0], "must hold n = 2 numbers, not 1"),
    ("final_x", [1.0, 2.0, 3.0], "must hold n = 2 numbers, not 3"),
    ("lipschitz_h", -1, "must be positive, not -1"),
])
def test_audit_reports_a_value_outside_its_schema_with_one_line(tmp_path, capsys, field, value, message):
    out = run_into(tmp_path, ["rosenbrock"], budget=2)
    doc = json.loads((out / "rosenbrock__TRFD-L1.json").read_text())
    owner = {"x": doc["iterations"][0], "final_x": doc}.get(field, doc["params"])
    owner[field] = value
    bad = tmp_path / f"{field}.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    # TrfdParams names a parameter bare, the trace reader quotes a key
    name = field if owner is doc["params"] else f'"{field}"'
    assert captured.out == f"{bad}: FAILED: ValueError: {name} {message}\n"


@pytest.mark.parametrize("field, value", [("best_f", math.nan), ("eta", math.inf), ("final_x", -math.inf)])
def test_a_trace_that_holds_a_non_finite_number_fails_with_one_line(tmp_path, capsys, field, value):
    # the parser reads NaN and Infinity, which no trace is written with
    out = run_into(tmp_path, ["rosenbrock"], budget=2)
    trace = out / "rosenbrock__TRFD-L1.json"
    doc = json.loads(trace.read_text())
    if field == "eta":
        doc["iterations"][0]["eta"] = value
    else:
        doc[field][-1] = value
    trace.write_text(json.dumps(doc))
    for csv_path in out.glob("profile_*.csv"):
        csv_path.unlink()
    capsys.readouterr()
    message = f'ValueError: "{field}" must be finite, not {value!r}'
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr() == (f"{trace}: FAILED: {message}\n", "")
    assert main(["profile", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"trfd profile: error: cannot read {trace}: {message}\n")
    assert not list(out.glob("profile_*.csv"))


def test_a_file_nested_too_deeply_fails_with_one_line(tmp_path, capsys):
    # the parser's RecursionError is the reader's ValueError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["audit", str(deep)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"{deep}: FAILED: ValueError: the document nests too deeply\n", "")
    out = tmp_path / "out"
    assert main(["run", "--config", str(deep), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "trfd run: error: the document nests too deeply\n")
    assert not out.exists()


def test_profile_counts_a_run_without_evaluations_as_never_solved(tmp_path, capsys):
    from conftest import make_problem
    from trfd.core import PNorm
    from trfd.solver import Termination, TrfdParams, save_trace, solve

    out = run_into(tmp_path, ["rosenbrock", "dem"], 2, solvers=L1_AND_INF, tolerances=[0.5])
    prob = make_problem(lambda x: np.array([np.nan, np.nan]), 2, 2, "l1", (-1.2, 1.0), name="rosenbrock")
    dead = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, simplex_gradients=2))
    assert dead.termination is Termination.ORACLE_ERROR and dead.best_f == []
    save_trace(dead, out / "rosenbrock__TRFD-L1.json")
    capsys.readouterr()
    assert main(["profile", "--out", str(out), "--tolerance", "0.5"]) == 0
    # at budget 2, TRFD-L1 solved rosenbrock and TRFD-M dem; with TRFD-L1's
    # rosenbrock run dead, TRFD-M's run alone sets f_best there and solves it
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].endswith("(solved at full budget: TRFD-L1=0.000, TRFD-M=1.000)")


def test_run_with_family_config_and_budget_key(tmp_path):
    out = run_into(tmp_path, {"family": "minimax"}, 5, solvers=[{"name": "TRFD-M", "p": "auto"}])
    traces = [p for p in out.iterdir() if "__" in p.name]
    assert len(traces) == 13
    doc = json.loads((out / "cb2__TRFD-M.json").read_text())
    assert doc["params"]["simplex_gradients"] == 5


def test_the_empty_config_is_the_default_campaign():
    campaign = campaign_from_config({})
    assert [bp.name for bp in campaign.problems] == [bp.name for bp in registry()]
    assert campaign.solver_configs == [TRFD_L1, TRFD_M]
    assert campaign.simplex_gradients == 100
    assert campaign.tolerances == DEFAULT_TOLERANCES
    # a config without "solvers" runs the same pair
    assert campaign_from_config({"problems": ["cb2"]}).solver_configs == [TRFD_L1, TRFD_M]


def test_run_without_a_config_runs_the_default_campaign(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*__*.json")) == sorted(
        f"{bp.name}__{name}.json" for bp in registry() for name in ("TRFD-L1", "TRFD-M")
    )
    assert json.loads((out / "cb2__TRFD-M.json").read_text())["params"]["simplex_gradients"] == 100
    assert capsys.readouterr().out.splitlines()[-1] == f"56 runs, 0 failed; traces in {out}"


@pytest.mark.parametrize("flag", ["--budget=5", "--tolerance=0.5"])
def test_run_refuses_the_budget_and_tolerance_flags(tmp_path, capsys, flag):
    # a config's "budget_simplex_gradients" and "tolerances" set both
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(out), flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_an_output_path_it_cannot_create_before_any_run(tmp_path, capsys, monkeypatch):
    import trfd.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_campaign", no_run)
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock"], budget=2)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["run", "--config", str(cfg), "--out", str(afile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("trfd run: error: ") and str(afile) in lines[0]
    assert afile.read_text() == ""


@pytest.mark.parametrize("keep", [None, "summary.json", "dem__TRFD-L1.json"])
def test_run_refuses_an_out_that_holds_a_campaign(tmp_path, capsys, keep):
    # profile and audit read every trace under --out: a second campaign
    # there would mix its traces with the first one's; ``keep`` leaves
    # only that one file of the first campaign in place
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_campaign(first, ["rosenbrock", "dem"], budget=2)
    write_campaign(second, ["rosenbrock"], budget=3)
    out = tmp_path / "out"
    assert main(["run", "--config", str(first), "--out", str(out)]) == 0
    for p in out.iterdir():
        if keep and p.name != keep:
            p.unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["run", "--config", str(second), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("trfd run: error: ") and str(out) in lines[0]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("profile", "--tolerance", "-1"), ("profile", "--tolerance", "nan"), ("profile", "--tolerance", "2"),
        ("run", "--jobs", "0"), ("run", "--jobs", "-3"),
    ],
)
def test_option_out_of_range_fails_with_one_error_line(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "campaign.json"
    write_campaign(cfg, ["rosenbrock"], budget=2)
    out = tmp_path / "out"
    args = ["run", "--config", str(cfg)] if command == "run" else ["profile"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}: " in errors[0]
    assert not out.exists()


def test_profile_tolerances_never_share_a_file(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock"], budget=2)
    for old in out.glob("profile_*.csv"):
        old.unlink()
    capsys.readouterr()
    tolerances = [1e-3, 1.4e-3, 0.10000000000000003, 1e-3]
    assert main(["profile", "--out", str(out), *(f"--tolerance={t!r}" for t in tolerances)]) == 0
    written = capsys.readouterr().out.splitlines()
    assert len(written) == 4
    # one-digit tolerances keep their names, and every name reads back as its tolerance
    assert (out / "profile_tol1e-03.csv").exists() and (out / "profile_tol1.4e-03.csv").exists()
    names = sorted(p.name for p in out.glob("profile_*.csv"))
    assert len(names) == 3
    assert sorted(float(name[len("profile_tol"):-len(".csv")]) for name in names) == sorted(set(tolerances))


@pytest.mark.parametrize("case", ["missing_pair", "unreadable", "wrong_type", "empty"])
def test_profile_fails_with_one_error_line(tmp_path, capsys, case):
    out = run_into(tmp_path, ["rosenbrock", "dem"], 2, solvers=L1_AND_INF)
    for path in out.iterdir():
        if path.name.startswith("profile_") or case == "empty":
            path.unlink()
    if case == "missing_pair":
        (out / "dem__TRFD-L1.json").unlink()
        named = "missing record for 'dem' under 'TRFD-L1'"
    elif case == "unreadable":
        (out / "dem__TRFD-L1.json").write_text(json.dumps({"schema": solver.TRACE_SCHEMA}))
        named = f'{out / "dem__TRFD-L1.json"}: ValueError: "problem" is missing'
    elif case == "wrong_type":
        doc = json.loads((out / "dem__TRFD-L1.json").read_text())
        doc["best_f"] = None
        (out / "dem__TRFD-L1.json").write_text(json.dumps(doc))
        named = f'{out / "dem__TRFD-L1.json"}: ValueError: "best_f" must be an array of numbers'
    else:
        named = f"no trace files under {out}"
    capsys.readouterr()
    assert main(["profile", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("trfd profile: error: ") and named in lines[0]
    assert not list(out.glob("profile_*.csv"))


def test_profile_csv_quotes_a_solver_name_with_a_comma(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock"], 2, solvers=[{"name": "A,B", "p": "1"}], tolerances=[0.1])
    profile = out / "profile_tol1e-01.csv"
    for command in (None, ["profile", "--out", str(out), "--tolerance", "0.1"]):
        if command:
            profile.unlink()
            assert main(command) == 0
        with open(profile, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["kappa", "A,B"]
        assert len(rows) == 3 and all(len(row) == 2 for row in rows)  # kappa = 0, 1, 2
    capsys.readouterr()


def test_audit_of_a_directory_without_traces_fails(tmp_path, capsys):
    assert main(["audit", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"no trace files under {tmp_path}\n"


@pytest.mark.parametrize("case", ["three_variables", "other_residuals"])
def test_audit_applies_no_certificate_of_another_problem_under_a_registry_name(tmp_path, capsys, case):
    from conftest import make_problem, rosenbrock_residuals
    from trfd.cli import _certificate
    from trfd.core import PNorm
    from trfd.solver import TrfdParams, save_trace, solve

    if case == "three_variables":
        # the registry's rosenbrock has n = 2; its box would not broadcast
        prob = make_problem(lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], x[2]]),
                            3, 3, "l1", (-1.2, 1.0, 0.5), name="rosenbrock")
    else:
        prob = make_problem(lambda x: 2.0 * rosenbrock_residuals(x), 2, 2, "l1", (-1.2, 1.0), name="rosenbrock")
    record = solve(prob, TrfdParams.defaults(prob, PNorm.ONE, simplex_gradients=20))
    assert _certificate(record) is None
    trace = tmp_path / "rosenbrock__mine.json"
    save_trace(record, trace)
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 0
    # the radius-floor check needs the certificate
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"{trace}: ok ({len(record.iterations)} iterations)\n", "")


def test_audit_applies_the_certificate_to_a_registry_run(tmp_path, capsys):
    out = run_into(tmp_path, ["rosenbrock"], budget=20)
    trace = out / "rosenbrock__TRFD-L1.json"
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 0
    assert capsys.readouterr().out.endswith(" iterations +radius-floor)\n")


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
    # only the exact spellings name a norm, a family or an override
    "p_one": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "p": "one"}]}, "p = one"),
    "p_infinity": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "p": "Infinity"}]}, "p = Infinity"),
    "p_number": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "p": 1}]}, '"p" must be a string, not 1'),
    "theta_override": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "theta": 0.5}]}, 'unknown key "theta"'),
    "family_max": ({"problems": {"family": "max"}}, "h = max"),
    "unknown_problem": ({"problems": ["nope"]}, "no benchmark problem named 'nope'"),
    "problems_string": ({"problems": "rosenbrock"}, '"problems"'),
    "solvers_string": ({"problems": ["rosenbrock"], "solvers": "TRFD-L1"}, '"solvers"'),
    "solver_without_name": ({"problems": ["rosenbrock"], "solvers": [{"p": "1"}]}, '"name"'),
    "not_object": (["rosenbrock"], "a campaign config must be an object"),
    "tolerances_number": ({"problems": ["rosenbrock"], "tolerances": 0.1}, '"tolerances"'),
    "override_string": (
        {"problems": ["rosenbrock"], "solvers": [{"name": "X", "epsilon": "abc"}]}, '"epsilon"'
    ),
    "epsilon_negative": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "epsilon": -1}]}, "epsilon"),
    # json.load reads NaN and Infinity; no parameter may take them
    "epsilon_nan": (
        {"problems": ["rosenbrock"], "solvers": [{"name": "X", "epsilon": float("nan")}]}, "epsilon must be finite, not nan"
    ),
    "stop_eta_infinite": (
        {"problems": ["rosenbrock"], "solvers": [{"name": "X", "stop_eta": float("inf")}]}, "stop_eta must be finite, not inf"
    ),
    "alpha_above_one": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "alpha": 2}]}, "alpha"),
    "budget_zero": ({"problems": ["rosenbrock"], "budget_simplex_gradients": 0}, '"budget_simplex_gradients"'),
    "budget_string": ({"problems": ["rosenbrock"], "budget_simplex_gradients": "abc"}, '"budget_simplex_gradients"'),
    "budget_fractional": ({"problems": ["rosenbrock"], "budget_simplex_gradients": 2.9}, '"budget_simplex_gradients"'),
    "budget_infinite": (
        {"problems": ["rosenbrock"], "budget_simplex_gradients": float("inf")}, '"budget_simplex_gradients"'
    ),
    "tolerance_negative": ({"problems": ["rosenbrock"], "tolerances": [1e-3, -1]}, '"tolerances"'),
    "tolerance_nan": ({"problems": ["rosenbrock"], "tolerances": [float("nan")]}, '"tolerances"'),
    "tolerance_above_one": ({"problems": ["rosenbrock"], "tolerances": [2]}, '"tolerances"'),
    "solver_key_misspelt": ({"problems": ["rosenbrock"], "solvers": [{"name": "X", "alpah": 0.9}]}, '"alpah"'),
    "top_key_budget": ({"problems": ["rosenbrock"], "budget": 2}, '"budget"'),
    "top_key_tolerance": ({"problems": ["rosenbrock"], "tolerance": [0.5]}, '"tolerance"'),
    "family_key_misspelt": ({"problems": {"famliy": "l1"}}, '"famliy"'),
    # every (problem, solver) pair has its own trace file
    "problems_empty": ({"problems": []}, "names no problem"),
    "solvers_empty": ({"problems": ["rosenbrock"], "solvers": []}, "names no solver"),
    "solver_name_twice": (
        {"problems": ["rosenbrock"], "solvers": [{"name": "A", "p": "1"}, {"name": "A", "p": "inf"}]},
        'solver "A" appears twice',
    ),
    "problem_twice": ({"problems": ["rosenbrock", "cb2", "rosenbrock"]}, 'problem "rosenbrock" appears twice'),
    "solver_name_slash": ({"problems": ["rosenbrock"], "solvers": [{"name": "A/B"}]}, "'A/B'"),
    "solver_name_empty": ({"problems": ["rosenbrock"], "solvers": [{"name": ""}]}, "name '' may not be empty"),
    # the profile CSVs are ASCII; such a name used to fail only there,
    # after every run, and leave an empty CSV behind
    "solver_name_non_ascii": ({"problems": ["rosenbrock"], "solvers": [{"name": "TRFD-\u00e9"}]}, "'TRFD-\\xe9'"),
}


@pytest.mark.parametrize(
    "case",
    [
        "p2", "p_one", "p_infinity", "p_number", "theta_override", "family_max", "unknown_problem", "missing_file", "problems_string", "solvers_string", "solver_without_name",
        "not_object", "tolerances_number", "override_string", "epsilon_negative", "epsilon_nan",
        "stop_eta_infinite", "alpha_above_one", "budget_zero", "budget_string", "budget_fractional", "budget_infinite",
        "tolerance_negative", "tolerance_nan", "tolerance_above_one",
        "solver_key_misspelt", "top_key_budget", "top_key_tolerance", "family_key_misspelt",
        "problems_empty", "solvers_empty", "solver_name_twice", "problem_twice", "solver_name_slash",
        "solver_name_empty", "solver_name_non_ascii",
    ],
)
def test_run_rejects_bad_config_with_one_line(tmp_path, capsys, case):
    cfg = tmp_path / "campaign.json"
    if case in BAD_CONFIGS:
        cfg.write_text(json.dumps(BAD_CONFIGS[case][0]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("trfd run: error: ")
    if case in BAD_CONFIGS:
        assert BAD_CONFIGS[case][1] in lines[0]
    assert not out.exists()

