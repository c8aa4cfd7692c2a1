"""Scenario schema, expectation engine, and CLI behavior."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import adaptive_kuramoto
from adaptive_kuramoto.cli import main
from adaptive_kuramoto.scenarios import (
    Expectation,
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_scenario,
)

FIVE_CHECK = {
    "name": "tiny_check",
    "task": "check",
    "network": {
        "adjacency": [[0, 1], [1, 0]],
        "frequencies": [1.0, 1.0],
        "partition": [[1, 2]],
    },
    "plasticity": {"gamma": 1.0, "mu": 0.01, "rule": {"kind": "hebbian"}},
    "parameters": {},
    "expectations": [{"path": "report.overall", "op": "eq", "value": True}],
}


def bundled(name):
    root = resources.files("adaptive_kuramoto").joinpath("scenario_data")
    return json.loads(root.joinpath(name + ".json").read_text())


def test_parse_minimal_check():
    sc = parse_scenario(FIVE_CHECK)
    assert sc.task == "check"
    assert sc.network.n_nodes == 2
    assert sc.partition.m == 1


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["parameters"].update(seed=3), "seed"),
        (lambda d: d["network"].update(directed=True), "directed"),
        (lambda d: d["plasticity"].update(alpha=2), "alpha"),
        (lambda d: d["expectations"][0].update(note="x"), "note"),
        (lambda d: d["plasticity"]["rule"].update(kind="sine"), "sine"),
        (lambda d: d.update(task="explode"), "explode"),
        (lambda d: d.pop("network"), "network"),
    ],
)
def test_parse_rejects_unknowns(mutate, fragment):
    data = json.loads(json.dumps(FIVE_CHECK))
    mutate(data)
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(data)


def test_two_osc_forbids_network_block():
    data = {
        "name": "t",
        "task": "two-osc",
        "network": FIVE_CHECK["network"],
        "parameters": {"w1": 0.9, "w2": 1.1, "k": 1.0},
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_expectation_ops():
    tree = {"a": {"b": 2.0}, "list": [10, {"x": 5}]}
    assert Expectation("a.b", "lt", 3.0).evaluate(tree)[0]
    assert Expectation("a.b", "le", 2.0).evaluate(tree)[0]
    assert Expectation("a.b", "gt", 1.0).evaluate(tree)[0]
    assert Expectation("a.b", "ge", 2.0).evaluate(tree)[0]
    assert Expectation("a.b", "eq", 2.0).evaluate(tree)[0]
    assert Expectation("a.b", "ne", 7.0).evaluate(tree)[0]
    assert Expectation("a.b", "approx", 2.0 + 1e-9, tol=1e-6).evaluate(tree)[0]
    assert not Expectation("a.b", "approx", 2.1, tol=1e-6).evaluate(tree)[0]
    # integer path segments index lists
    assert Expectation("list.0", "eq", 10).evaluate(tree)[0]
    assert Expectation("list.1.x", "eq", 5).evaluate(tree)[0]
    ok, desc = Expectation("a.missing", "eq", 1).evaluate(tree)
    assert not ok and "missing" in desc


def test_expectation_validation():
    with pytest.raises(ScenarioError):
        parse_scenario(
            {**FIVE_CHECK, "expectations": [{"path": "x", "op": "approx", "value": 1.0}]}
        )  # approx needs tol
    with pytest.raises(ScenarioError):
        parse_scenario(
            {**FIVE_CHECK, "expectations": [{"path": "x", "op": "between", "value": 1.0}]}
        )


def test_uniform_coupling_seed_and_override(tmp_path):
    data = bundled("five_node_sim")
    assert run_scenario(parse_scenario(data), tmp_path / "full").ok  # its own expectations
    # seed reproducibility and the override need no long run
    params = {**data["parameters"], "t_end": 20.0}
    short = parse_scenario({**data, "parameters": params, "expectations": []})
    outcomes = [run_scenario(short, tmp_path / "a"), run_scenario(short, tmp_path / "b"),
                run_scenario(short, tmp_path / "c", seed=4242)]
    assert all(out.ok for out in outcomes)
    a, b, c = ((tmp_path / name / "metrics.json").read_bytes() for name in "abc")
    assert a == b
    assert a != c


def test_run_check_scenario(tmp_path):
    sc = parse_scenario(FIVE_CHECK)
    outcome = run_scenario(sc, tmp_path)
    assert outcome.ok and outcome.check_overall
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["overall"] is True
    assert report["name"] == "tiny_check"
    assert outcome.files == ("report.json",)


def test_run_scenario_unmet_expectation(tmp_path):
    data = json.loads(json.dumps(FIVE_CHECK))
    data["expectations"][0] = {"path": "report.overall", "op": "eq", "value": False}
    outcome = run_scenario(parse_scenario(data), tmp_path)
    assert not outcome.ok
    assert outcome.failures


def _cli(*argv):
    return main(list(argv))


def test_cli_check_exit_codes(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(FIVE_CHECK))
    assert _cli("check", "--scenario", str(scenario), "--out", str(tmp_path / "o1")) == 0

    failing = json.loads(json.dumps(FIVE_CHECK))
    failing["network"]["frequencies"] = [1.0, 2.0]  # breaks (A1)
    failing["expectations"] = [{"path": "report.overall", "op": "eq", "value": False}]
    scenario2 = tmp_path / "f.json"
    scenario2.write_text(json.dumps(failing))
    # expectations hold, but the condition verdict is negative: exit 2
    assert _cli("check", "--scenario", str(scenario2), "--out", str(tmp_path / "o2")) == 2


def test_cli_task_mismatch_and_parse_error(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(FIVE_CHECK))
    assert _cli("simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _cli("check", "--scenario", str(bad), "--out", str(tmp_path / "o2")) == 1
    missing = tmp_path / "nope.json"
    assert _cli("check", "--scenario", str(missing), "--out", str(tmp_path / "o3")) == 1
    capsys.readouterr()


def test_cli_unmet_expectation_exit(tmp_path):
    data = json.loads(json.dumps(FIVE_CHECK))
    data["expectations"][0] = {"path": "report.overall", "op": "eq", "value": False}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert _cli("check", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == 1


def test_cli_reproduce_only_filter(tmp_path, capsys):
    code = _cli("reproduce-all", "--only", "two_osc", "--out", str(tmp_path / "r"))
    out = capsys.readouterr().out
    assert code == 0
    assert "two_osc" in out
    summary = json.loads((tmp_path / "r/summary.json").read_text())
    assert [r["name"] for r in summary["results"]] == ["two_osc"]
    assert summary["all_ok"] is True


def test_cli_reproduce_directory_override(tmp_path, capsys):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "one.json").write_text(json.dumps(FIVE_CHECK))
    code = _cli("reproduce-all", "--scenario", str(scen_dir), "--out", str(tmp_path / "r"))
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "r/summary.json").read_text())
    assert len(summary["results"]) == 1


def test_cli_reproduce_reports_failure(tmp_path, capsys):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    failing = json.loads(json.dumps(FIVE_CHECK))
    failing["expectations"][0]["value"] = False
    (scen_dir / "one.json").write_text(json.dumps(failing))
    code = _cli("reproduce-all", "--scenario", str(scen_dir), "--out", str(tmp_path / "r"))
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_bundled_scenarios_parse_and_cover_tasks():
    root = resources.files("adaptive_kuramoto").joinpath("scenario_data")
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    assert len(names) == 10
    tasks = set()
    for name in names:
        sc = parse_scenario(json.loads(root.joinpath(name).read_text()))
        tasks.add(sc.task)
    assert tasks == {"check", "simulate", "torus", "design", "two-osc", "switch"}


def test_load_scenario_path(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(FIVE_CHECK))
    sc = load_scenario(path)
    assert sc.name == "tiny_check"


def test_cli_entry_point_installed():
    exe = shutil.which("adaptive-kuramoto")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    for word in ("check", "simulate", "torus", "design", "two-osc", "switch", "reproduce-all"):
        assert word in out.stdout


def test_cli_runs_as_module():
    # the child must import the same copy of the package as this process,
    # installed or not, so its parent directory goes first on PYTHONPATH
    package_root = str(Path(adaptive_kuramoto.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "adaptive_kuramoto", "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    for word in ("check", "simulate", "torus", "design", "two-osc", "switch", "reproduce-all"):
        assert word in out.stdout


def test_switch_scenario_via_cli(tmp_path):
    data = bundled("seven_node_switch")
    data["parameters"]["t_end"] = 600.0  # shorten; expectations dropped below
    data["expectations"] = [{"path": "metrics.max_error_overall", "op": "gt", "value": 0.05}]
    scenario = tmp_path / "sw.json"
    scenario.write_text(json.dumps(data))
    assert _cli("switch", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == 0
    metrics = json.loads((tmp_path / "o/metrics.json").read_text())
    assert metrics["t_switch"] == 500.0
    assert (tmp_path / "o/trajectory.csv").exists()


def test_two_osc_scenario_runner(tmp_path):
    sc = parse_scenario(bundled("two_osc"))
    outcome = run_scenario(sc, tmp_path)
    assert outcome.ok
    data = json.loads((tmp_path / "twoosc.json").read_text())
    assert data["analysis"]["synchronizable"] is True


def test_torus_scenario_rejects_coarse_grid_before_solving(tmp_path, monkeypatch):
    from adaptive_kuramoto import scenarios

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_torus must not run for an unusable resolution")

    monkeypatch.setattr(scenarios, "solve_torus", no_solve)
    data = bundled("five_node_torus")
    data["parameters"]["resolution"] = 8
    with pytest.raises(ValueError, match="residual evaluation needs resolution >= 16"):
        run_scenario(parse_scenario(data), tmp_path)
    assert list(tmp_path.iterdir()) == []
