"""Spans around the calls between the package's modules (traced runs only).

Each wrapped name is the module-level name a layer looks up when it calls
the next one, so the program itself is not edited. A span records its name,
start, end, parent span and operation; spans stay in memory until the run
writes them out. A span's self time is its duration minus that of its child
spans (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import math
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: str | None = None
        self.op_class: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, probe=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "op": self.op,
                "class": self.op_class,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if probe is not None:
                span.update(probe(args, result))
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        from adaptive_kuramoto import _backend, design, dynamics, scenarios, torus

        def sweep_points(args, _result):
            grid, horizon, step = args[1], args[10], args[11]
            substeps = max(1, math.ceil(horizon / step))
            return {"work": math.prod(int(r) for r in grid) * substeps}

        def files_mb(args, outcome):
            return {"mb": sum(os.path.getsize(Path(args[1]) / f) for f in outcome.files) / 1e6}

        self.wrap(_backend, "integrate_network", "kernels.integrate_network",
                  lambda a, _r: {"work": a[10]})
        self.wrap(_backend, "torus_sweep", "kernels.torus_sweep", sweep_points)
        self.wrap(scenarios, "simulate", "dynamics.simulate",
                  lambda _a, r: {"mb": (r.phases.nbytes + r.couplings.nbytes) / 1e6})
        self.wrap(scenarios, "error_metrics", "dynamics.error_metrics")
        self.wrap(scenarios, "trajectory_to_csv", "dynamics.trajectory_to_csv",
                  lambda a, _r: {"mb": os.path.getsize(a[1]) / 1e6})
        self.wrap(scenarios, "solve_torus", "torus.solve_torus",
                  lambda _a, r: {"work": r[1].iterations_used})
        self.wrap(scenarios, "invariance_residual", "torus.invariance_residual")
        self.wrap(scenarios, "save_torus", "torus.save_torus")
        self.wrap(torus, "check_cluster_conditions", "conditions.check_cluster_conditions")
        self.wrap(design, "check_perturbed_conditions", "conditions.check_perturbed_conditions",
                  lambda _a, r: {"work": int(r.overall)})
        self.wrap(design, "min_edits_for_targets", "design.min_edits_for_targets")
        self.wrap(scenarios, "design_topology", "design.design_topology")
        self.wrap(dynamics, "inter_cluster_structure", "network.inter_cluster_structure")
        self.wrap(torus, "inter_cluster_structure", "network.inter_cluster_structure")
        self.wrap(scenarios, "load_scenario", "scenarios.load_scenario")
        self.wrap(scenarios, "run_scenario", "scenarios.run_scenario", files_mb)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# (metric, span, statistic, unit, better). Statistics, over the traced
# operations of one class: "calls", "s", "self_s" and "mb" are per-operation
# means; "work" is the per-operation mean of the span's work count; a
# ("per_work", scale) statistic is total seconds * scale / total work;
# "us_per_call" is total seconds * 1e6 / calls; "work_per_call" is total
# work / calls.
LAYER_METRICS = (
    ("kernels.integrate_network.calls", "kernels.integrate_network", "calls", "count", "lower"),
    ("kernels.integrate_network.s", "kernels.integrate_network", "s", "s", "lower"),
    ("kernels.integrate_network.us_per_step", "kernels.integrate_network", ("per_work", 1e6), "us", "lower"),
    ("kernels.torus_sweep.calls", "kernels.torus_sweep", "calls", "count", "lower"),
    ("kernels.torus_sweep.s", "kernels.torus_sweep", "s", "s", "lower"),
    ("kernels.torus_sweep.ns_per_point_step", "kernels.torus_sweep", ("per_work", 1e9), "ns", "lower"),
    ("dynamics.simulate.self_s", "dynamics.simulate", "self_s", "s", "lower"),
    ("dynamics.error_metrics.s", "dynamics.error_metrics", "s", "s", "lower"),
    ("dynamics.trajectory_to_csv.s", "dynamics.trajectory_to_csv", "s", "s", "lower"),
    ("dynamics.trajectory_to_csv.mb", "dynamics.trajectory_to_csv", "mb", "MB", "lower"),
    ("dynamics.trajectory.mb", "dynamics.simulate", "mb", "MB", "lower"),
    ("torus.solve_torus.s", "torus.solve_torus", "s", "s", "lower"),
    ("torus.solve_torus.self_s", "torus.solve_torus", "self_s", "s", "lower"),
    ("torus.iterations", "torus.solve_torus", "work", "count", "lower"),
    ("torus.invariance_residual.s", "torus.invariance_residual", "s", "s", "lower"),
    ("torus.save_torus.s", "torus.save_torus", "s", "s", "lower"),
    ("conditions.check_perturbed_conditions.calls", "conditions.check_perturbed_conditions", "calls", "count", "lower"),
    ("conditions.check_perturbed_conditions.us_per_call", "conditions.check_perturbed_conditions", "us_per_call", "us", "lower"),
    ("conditions.check_cluster_conditions.calls", "conditions.check_cluster_conditions", "calls", "count", "lower"),
    ("design.design_topology.s", "design.design_topology", "s", "s", "lower"),
    ("design.design_topology.self_s", "design.design_topology", "self_s", "s", "lower"),
    ("design.min_edits_for_targets.us_per_call", "design.min_edits_for_targets", "us_per_call", "us", "lower"),
    ("design.useful_ratio", "conditions.check_perturbed_conditions", "work_per_call", "ratio", "higher"),
    ("network.inter_cluster_structure.calls", "network.inter_cluster_structure", "calls", "count", "lower"),
    ("network.inter_cluster_structure.s", "network.inter_cluster_structure", "s", "s", "lower"),
    ("scenarios.run_scenario.self_s", "scenarios.run_scenario", "self_s", "s", "lower"),
    ("scenarios.mb_written", "scenarios.run_scenario", "mb", "MB", "lower"),
)
CLASSES = ("light", "heavy")
RUN_METRICS = (
    ("scenarios.load_scenario.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    names = [(f"{c}.{m}", unit, better) for c in CLASSES for m, _s, _k, unit, better in LAYER_METRICS]
    return names + list(RUN_METRICS)


def self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-class layer metrics from the spans of traced operations."""
    own = self_times(spans)
    out = {}
    for cls in CLASSES:
        n_ops = len({s["op"] for s in spans if s["class"] == cls}) or 1
        for metric, name, stat, unit, _better in LAYER_METRICS:
            picked = [(s, own[k]) for k, s in enumerate(spans) if s["class"] == cls and s["name"] == name]
            calls = len(picked)
            dur = sum(s["end"] - s["start"] for s, _ in picked)
            work = sum(s.get("work", 0) for s, _ in picked)
            if stat == "calls":
                value = calls / n_ops
            elif stat == "s":
                value = dur / n_ops
            elif stat == "self_s":
                value = sum(t for _, t in picked) / n_ops
            elif stat == "mb":
                value = sum(s.get("mb", 0.0) for s, _ in picked) / n_ops
            elif stat == "work":
                value = work / n_ops
            elif stat == "us_per_call":
                value = dur * 1e6 / calls if calls else 0.0
            elif stat == "work_per_call":
                value = work / calls if calls else 0.0
            else:
                value = dur * stat[1] / work if work else 0.0
            out[f"{cls}.{metric}"] = (value, unit)
    return out
