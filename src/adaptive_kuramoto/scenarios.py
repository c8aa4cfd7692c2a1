"""Declarative experiment scenarios.

A scenario file is a JSON object:

    {
      "name": "five_node_check",
      "task": "check",
      "network": {"adjacency": [[...]], "frequencies": [...], "partition": [[1,2,3],[4,5]]},
      "plasticity": {"gamma": 1.0, "mu": 0.01, "rule": {"kind": "hebbian"}},
      "parameters": { ... task-specific ... },
      "expectations": [{"path": "report.overall", "op": "eq", "value": true}, ...],
      "notes": ["free-form remarks carried into the report"]
    }

Tasks and their parameters (unknown keys are rejected everywhere):

    check     freq_tol?
    simulate  t_end, initial, step?, record_stride?, tolerance?
    switch    t_end, t_switch, initial, perturbation, step?, record_stride?, tolerance?
    torus     resolution?, tol?, max_iter?, step?, horizon?, surface_edge?
    design    max_edits, freq_tol?
    two-osc   w1, w2, k, e0?, t_end?, step?   (no network/plasticity blocks)

``initial`` is {"phases": [...], "coupling": spec} where spec is one of
    {"kind": "uniform", "low": a, "high": b, "seed": n}   per-edge iid draws
    {"kind": "constant", "intra": x, "inter": y}          by edge class
    {"kind": "explicit", "matrix": [[...]]}               full matrix
``perturbation`` is a sparse list of 1-based [receiver, source, +-1] edits
defining the post-switch topology.

Expectations are checked against the task's summary data tree (the same dict
written to the task's JSON output). Ops: lt, le, gt, ge, eq, ne, and approx
(needs "tol"). Paths are dot-separated keys, with integer segments indexing
lists.

Every runner writes its outputs into one directory and returns a
ScenarioOutcome; numeric output is deterministic byte-for-byte for a fixed
scenario file and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conditions import (
    LearningRule,
    PlasticityParams,
    check_cluster_conditions,
)
from .design import PerturbationMatrix, design_topology
from .dynamics import (
    error_metrics,
    initial_state,
    random_couplings,
    simulate,
    simulate_static_pair,
    switch_topology_scenario,
    trajectory_to_csv,
    two_oscillator_static_analysis,
)
from .network import apply_perturbation, network_from_dict
from .torus import (
    RESIDUAL_MIN_RESOLUTION,
    export_surface,
    full_manifold,
    invariance_residual,
    save_torus,
    solve_torus,
)

__all__ = [
    "Scenario",
    "Expectation",
    "ScenarioOutcome",
    "ScenarioError",
    "parse_scenario",
    "load_scenario",
    "run_scenario",
    "rule_from_dict",
    "plasticity_from_dict",
]

TASKS = ("check", "simulate", "torus", "design", "two-osc", "switch")


class ScenarioError(ValueError):
    """Malformed scenario file or parameters."""


def _require_keys(data: dict, required: set, optional: set, what: str) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(f"{what}: expected a JSON object")
    unknown = set(data) - required - optional
    if unknown:
        raise ScenarioError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ScenarioError(f"{what}: missing keys {sorted(missing)}")


def rule_from_dict(data: dict) -> LearningRule:
    _require_keys(data, {"kind"}, {"offset", "samples"}, "rule")
    kind = data["kind"]
    if kind == "hebbian":
        _require_keys(data, {"kind"}, set(), "hebbian rule")
        return LearningRule.hebbian()
    if kind == "shifted-cosine":
        _require_keys(data, {"kind", "offset"}, set(), "shifted-cosine rule")
        return LearningRule.shifted_cosine(float(data["offset"]))
    if kind == "tabulated":
        _require_keys(data, {"kind", "samples"}, set(), "tabulated rule")
        return LearningRule.tabulated(data["samples"])
    raise ScenarioError(f"unknown rule kind {kind!r}")


def plasticity_from_dict(data: dict) -> PlasticityParams:
    _require_keys(data, {"gamma", "mu"}, {"rule", "delta"}, "plasticity")
    rule = rule_from_dict(data.get("rule", {"kind": "hebbian"}))
    return PlasticityParams(
        gamma=float(data["gamma"]),
        mu=float(data["mu"]),
        rule=rule,
        delta=float(data.get("delta", 0.0)),
    )


@dataclass(frozen=True)
class Expectation:
    """One assertion against the task summary tree."""

    path: str
    op: str
    value: object
    tol: float | None = None

    _OPS = ("lt", "le", "gt", "ge", "eq", "ne", "approx")

    def __post_init__(self):
        if self.op not in self._OPS:
            raise ScenarioError(f"expectation op must be one of {self._OPS}, got {self.op!r}")
        if self.op == "approx" and self.tol is None:
            raise ScenarioError(f"expectation {self.path}: approx needs a tol")

    def evaluate(self, tree: dict) -> tuple[bool, str]:
        try:
            actual = _lookup(tree, self.path)
        except (KeyError, IndexError, TypeError):
            return False, f"{self.path}: no such value"
        desc = f"{self.path} (= {actual!r}) {self.op} {self.value!r}"
        try:
            if self.op == "eq":
                ok = actual == self.value
            elif self.op == "ne":
                ok = actual != self.value
            elif self.op == "approx":
                ok = abs(float(actual) - float(self.value)) <= self.tol
                desc += f" +- {self.tol!r}"
            else:
                a, v = float(actual), float(self.value)
                ok = {"lt": a < v, "le": a <= v, "gt": a > v, "ge": a >= v}[self.op]
        except (TypeError, ValueError):
            return False, f"{desc}: not comparable"
        return ok, desc


def _lookup(tree, path: str):
    node = tree
    for seg in path.split("."):
        if isinstance(node, dict):
            node = node[seg]
        elif isinstance(node, list):
            node = node[int(seg)]
        else:
            raise KeyError(path)
    return node


_TASK_PARAMS: dict[str, tuple[set, set]] = {
    "check": (set(), {"freq_tol"}),
    "simulate": ({"t_end", "initial"}, {"step", "record_stride", "tolerance"}),
    "switch": (
        {"t_end", "t_switch", "initial", "perturbation"},
        {"step", "record_stride", "tolerance"},
    ),
    "torus": (set(), {"resolution", "tol", "max_iter", "step", "horizon", "surface_edge"}),
    "design": ({"max_edits"}, {"freq_tol"}),
    "two-osc": ({"w1", "w2", "k"}, {"e0", "t_end", "step"}),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    task: str
    network: object
    partition: object
    plasticity: PlasticityParams | None
    parameters: dict
    expectations: tuple[Expectation, ...]
    notes: tuple[str, ...]


def parse_scenario(raw: dict) -> Scenario:
    _require_keys(
        raw,
        {"name", "task"},
        {"network", "plasticity", "parameters", "expectations", "notes"},
        "scenario",
    )
    name = raw["name"]
    task = raw["task"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario name must be a non-empty string")
    if task not in TASKS:
        raise ScenarioError(f"unknown task {task!r}, expected one of {TASKS}")

    needs_network = task != "two-osc"
    net = part = pp = None
    if needs_network:
        if "network" not in raw:
            raise ScenarioError(f"task {task!r} needs a network block")
        if "plasticity" not in raw:
            raise ScenarioError(f"task {task!r} needs a plasticity block")
        try:
            net, part = network_from_dict(raw["network"])
        except ValueError as exc:
            raise ScenarioError(f"network block: {exc}") from exc
        pp = plasticity_from_dict(raw["plasticity"])
    else:
        if "network" in raw or "plasticity" in raw:
            raise ScenarioError("two-osc scenarios take no network or plasticity block")

    params = raw.get("parameters", {})
    required, optional = _TASK_PARAMS[task]
    _require_keys(params, required, optional, f"{task} parameters")

    expectations = []
    for k, item in enumerate(raw.get("expectations", [])):
        _require_keys(item, {"path", "op", "value"}, {"tol"}, f"expectation {k}")
        expectations.append(
            Expectation(item["path"], item["op"], item["value"], item.get("tol"))
        )
    notes = raw.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(s, str) for s in notes):
        raise ScenarioError("notes must be a list of strings")

    return Scenario(
        name=name,
        task=task,
        network=net,
        partition=part,
        plasticity=pp,
        parameters=dict(params),
        expectations=tuple(expectations),
        notes=tuple(notes),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path}: expected a JSON object")
    return parse_scenario(raw)


# -- runners -------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one scenario run.

    ``ok`` means the task completed and every expectation held;
    ``check_overall`` carries the condition verdict for check tasks (drives
    the CLI exit code); ``files`` lists the artifacts written into out_dir.
    """

    name: str
    task: str
    ok: bool
    check_overall: bool | None
    failures: tuple[str, ...]
    files: tuple[str, ...]
    data: dict


def _write_json(path: Path, data: dict) -> None:
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _build_initial(scenario: Scenario, spec: dict, seed_override: int | None):
    _require_keys(spec, {"phases", "coupling"}, set(), "initial block")
    net = scenario.network
    phases = np.asarray(spec["phases"], dtype=np.float64)
    coupling = spec["coupling"]
    _require_keys(coupling, {"kind"}, {"low", "high", "seed", "intra", "inter", "matrix"}, "coupling")
    kind = coupling["kind"]
    if kind == "uniform":
        _require_keys(coupling, {"kind", "low", "high", "seed"}, set(), "uniform coupling")
        seed = int(coupling["seed"]) if seed_override is None else int(seed_override)
        kmat = random_couplings(net, float(coupling["low"]), float(coupling["high"]), seed)
    elif kind == "constant":
        _require_keys(coupling, {"kind", "intra", "inter"}, set(), "constant coupling")
        cluster_of = scenario.partition.cluster_of()
        kmat = np.zeros((net.n_nodes, net.n_nodes))
        for i, j in net.edges():
            same = cluster_of[i] == cluster_of[j]
            kmat[i, j] = float(coupling["intra"]) if same else float(coupling["inter"])
    elif kind == "explicit":
        _require_keys(coupling, {"kind", "matrix"}, set(), "explicit coupling")
        kmat = np.asarray(coupling["matrix"], dtype=np.float64)
    else:
        raise ScenarioError(f"unknown coupling kind {kind!r}")
    return initial_state(net, phases, kmat)


def _run_check(scenario: Scenario, out: Path, seed, force) -> tuple[dict, list[str]]:
    freq_tol = float(scenario.parameters.get("freq_tol", 0.0))
    report = check_cluster_conditions(
        scenario.network, scenario.partition, scenario.plasticity, freq_tol
    ).with_notes(scenario.notes)
    data = {"name": scenario.name, "task": scenario.task, "report": report.to_json_dict()}
    _write_json(out / "report.json", data)
    return data, ["report.json"]


def _run_simulate(scenario: Scenario, out: Path, seed, force) -> tuple[dict, list[str]]:
    p = scenario.parameters
    initial = _build_initial(scenario, p["initial"], seed)
    traj = simulate(
        scenario.network,
        scenario.plasticity,
        initial,
        t_end=float(p["t_end"]),
        step=float(p.get("step", 0.01)),
        record_stride=int(p.get("record_stride", 10)),
        partition=scenario.partition,
    )
    tol = p.get("tolerance")
    metrics = error_metrics(traj, tol=None if tol is None else float(tol))
    trajectory_to_csv(traj, out / "trajectory.csv")
    data = {
        "name": scenario.name,
        "task": scenario.task,
        "metrics": metrics.to_json_dict(),
        "notes": list(scenario.notes),
    }
    _write_json(out / "metrics.json", data)
    return data, ["trajectory.csv", "metrics.json"]


def _run_switch(scenario: Scenario, out: Path, seed, force) -> tuple[dict, list[str]]:
    p = scenario.parameters
    entries = np.zeros((scenario.network.n_nodes,) * 2, dtype=np.int64)
    for item in p["perturbation"]:
        if len(item) != 3:
            raise ScenarioError("perturbation entries must be [receiver, source, +-1]")
        i, j, v = (int(x) for x in item)
        entries[i - 1, j - 1] = v
    net_after = apply_perturbation(scenario.network, PerturbationMatrix(entries))

    initial = _build_initial(scenario, p["initial"], seed)
    traj = switch_topology_scenario(
        scenario.network,
        net_after,
        scenario.plasticity,
        initial,
        t_switch=float(p["t_switch"]),
        t_end=float(p["t_end"]),
        step=float(p.get("step", 0.01)),
        record_stride=int(p.get("record_stride", 10)),
        partition=scenario.partition,
    )
    tol = p.get("tolerance")
    metrics = error_metrics(traj, tol=None if tol is None else float(tol))
    trajectory_to_csv(traj, out / "trajectory.csv")
    data = {
        "name": scenario.name,
        "task": scenario.task,
        "t_switch": float(p["t_switch"]),
        "metrics": metrics.to_json_dict(),
        "notes": list(scenario.notes),
    }
    _write_json(out / "metrics.json", data)
    return data, ["trajectory.csv", "metrics.json"]


def _run_torus(scenario: Scenario, out: Path, seed, force) -> tuple[dict, list[str]]:
    p = scenario.parameters
    net, part, pp = scenario.network, scenario.partition, scenario.plasticity
    horizon = p.get("horizon")
    resolution = int(p.get("resolution", 64))
    # the residual is part of every torus report; reject before the solve
    if resolution < RESIDUAL_MIN_RESOLUTION:
        raise ValueError(f"residual evaluation needs resolution >= {RESIDUAL_MIN_RESOLUTION}")
    torus, log = solve_torus(
        net,
        part,
        pp,
        resolution=resolution,
        tol=float(p.get("tol", 1e-10)),
        max_iter=int(p.get("max_iter", 100)),
        step=float(p.get("step", 0.01)),
        horizon=None if horizon is None else float(horizon),
        force=force,
    )
    residual = invariance_residual(net, part, pp, torus)
    manifold = full_manifold(net, part, pp, torus)
    save_torus(torus, out / "torus.txt", params=pp.to_json_dict())
    files = ["torus.txt", "iteration_log.json"]

    edge = p.get("surface_edge")
    if edge is not None:
        export_surface(torus, (int(edge[0]) - 1, int(edge[1]) - 1), out / "surface.csv")
        files.append("surface.csv")

    data = {
        "name": scenario.name,
        "task": scenario.task,
        "iteration": log.to_json_dict(),
        "residual": residual,
        "sup_norm": torus.sup_norm(),
        "intra_value": manifold.intra.value,
        "notes": list(scenario.notes),
    }
    _write_json(out / "iteration_log.json", data)
    return data, files


def _run_design(scenario: Scenario, out: Path, seed, force) -> tuple[dict, list[str]]:
    p = scenario.parameters
    result = design_topology(
        scenario.network,
        scenario.partition,
        scenario.plasticity,
        max_edits=int(p["max_edits"]),
        freq_tol=float(p.get("freq_tol", 0.0)),
    )
    data = {
        "name": scenario.name,
        "task": scenario.task,
        "design": result.to_json_dict(),
        "notes": list(scenario.notes),
    }
    _write_json(out / "design.json", data)
    return data, ["design.json"]


def _run_two_osc(scenario: Scenario, out: Path, seed, force) -> tuple[dict, list[str]]:
    p = scenario.parameters
    w1, w2, k = float(p["w1"]), float(p["w2"]), float(p["k"])
    analysis = two_oscillator_static_analysis(w1, w2, k)
    final_diff, measured = simulate_static_pair(
        w1,
        w2,
        k,
        e0=float(p.get("e0", 0.0)),
        t_end=float(p.get("t_end", 60.0)),
        step=float(p.get("step", 0.001)),
    )
    data = {
        "name": scenario.name,
        "task": scenario.task,
        "analysis": {
            "d": _finite_or_none(analysis.d),
            "mean_freq": analysis.mean_freq,
            "synchronizable": analysis.synchronizable,
        },
        "simulated": {"final_difference": final_diff, "mean_frequency": measured},
        "notes": list(scenario.notes),
    }
    _write_json(out / "twoosc.json", data)
    return data, ["twoosc.json"]


_RUNNERS = {
    "check": _run_check,
    "simulate": _run_simulate,
    "switch": _run_switch,
    "torus": _run_torus,
    "design": _run_design,
    "two-osc": _run_two_osc,
}


def run_scenario(
    scenario: Scenario,
    out_dir,
    seed: int | None = None,
    force: bool = False,
) -> ScenarioOutcome:
    """Run one scenario, writing artifacts into ``out_dir``.

    ``seed`` overrides the seed embedded in the initial-coupling spec, when
    there is one; ``force`` bypasses the condition gate of the torus task.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data, files = _RUNNERS[scenario.task](scenario, out, seed, force)

    failures = []
    for exp in scenario.expectations:
        ok, desc = exp.evaluate(data)
        if not ok:
            failures.append(desc)

    check_overall = None
    if scenario.task == "check":
        check_overall = bool(data["report"]["overall"])
    return ScenarioOutcome(
        name=scenario.name,
        task=scenario.task,
        ok=not failures,
        check_overall=check_overall,
        failures=tuple(failures),
        files=tuple(files),
        data=data,
    )
