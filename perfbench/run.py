#!/usr/bin/env python3
"""Benchmark of adaptive-kuramoto through its scenario runner.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

runs one workload (simulate, torus or design) from a source checkout: it
writes the workload's scenario files from the seed, calls
``adaptive_kuramoto.scenarios.run_scenario`` on them in whole rounds (one
light and one heavy operation each) for at least ``--seconds`` seconds,
checks the outputs, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics from spans (``--trace 1``). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in its own process and prints their
metrics side by side. Outputs go to perfbench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
WORKLOADS = ("simulate", "torus", "design")
CLASSES = ("light", "heavy")
SETUP_SAMPLES = 7
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "ADAPTIVE_KURAMOTO_THREADS", "ADAPTIVE_KURAMOTO_BACKEND",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, metavar="DIR",
                    help="set up in DIR and exit (used to time set-up in a fresh process)")
    args = ap.parse_args(argv)
    if args.setup_only is not None and args.workload == "all":
        ap.error("--setup-only needs one workload")
    return args


def setup(workload: str, seed: int, work: Path, tracer=None):
    """Imports, input generation, scenario loading and one warm-up operation.

    Returns the scenarios module, the input dicts and the loaded scenarios.
    """
    sys.path.insert(0, str(SRC))
    from adaptive_kuramoto import scenarios

    import workloads

    if tracer is not None:
        tracer.install()
    inputs = workloads.INPUTS[workload](seed)
    work.mkdir(parents=True, exist_ok=True)
    loaded = {}
    for cls, scenario in inputs.items():
        path = work / f"{cls}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        loaded[cls] = scenarios.load_scenario(path)
    scenarios.run_scenario(loaded["warmup"], work / "warmup")
    if tracer is not None:
        tracer.uninstall()
    return scenarios, inputs, loaded


def time_setup(workload: str, seed: int, work: Path) -> float:
    """Wall time of one complete set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-only", str(work)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_rounds(scenarios, loaded, work: Path, seconds: float, label: str, tracer=None,
               between=None):
    """Whole rounds of one light and one heavy operation until the rounds
    have taken ``seconds``, calling ``between()`` after each round. Returns
    the rounds' timings and the count of failed operations."""
    rounds, failed = [], 0
    busy = 0.0
    while not rounds or busy < seconds:
        rec = {}
        r0 = time.perf_counter()
        for cls in CLASSES:
            out = work / f"{label}{len(rounds)}-{cls}"
            if tracer is not None:
                tracer.op, tracer.op_class = out.name, cls
            t0 = time.perf_counter()
            try:
                outcome = scenarios.run_scenario(loaded[cls], out)
                failed += not outcome.ok
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                failed += 1
            rec[cls] = time.perf_counter() - t0
        rec["round"] = time.perf_counter() - r0
        busy += rec["round"]
        rounds.append(rec)
        if between is not None:
            between()
    if tracer is not None:
        tracer.op = tracer.op_class = None
    return rounds, failed


def check_outputs(workload, inputs, work: Path, labels: list[str], failures: list) -> dict:
    """Independent checks on the first round's outputs; every later round
    must have written the same bytes."""
    import checks

    numbers = {}
    for cls in CLASSES:
        first = work / f"{labels[0]}-{cls}"
        numbers.update(checks.CHECKS[workload](inputs[cls], first, cls, failures))
        for label in labels[1:]:
            other = work / f"{label}-{cls}"
            for f in sorted(p.name for p in first.iterdir()):
                if (first / f).read_bytes() != (other / f).read_bytes():
                    failures.append(f"{other.name}/{f} differs from {first.name}/{f}")
    return numbers


def provenance() -> dict:
    import numpy

    import adaptive_kuramoto

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "backend": adaptive_kuramoto.BACKEND,
        "package": adaptive_kuramoto.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_workload(args) -> dict:
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    scenarios, inputs, loaded = setup(args.workload, args.seed, work / "inputs", tracer)
    metrics = {}
    failures: list[str] = []
    setup_samples: list[float] = []

    if args.trace:
        from spans import layer_metrics

        reference, failed_ref = run_rounds(scenarios, loaded, work, 0.0, "u")
        tracer.install()
        rounds, failed = run_rounds(scenarios, loaded, work, args.seconds, "t", tracer)
        tracer.uninstall()
        failed += failed_ref
        rounds_all = reference + rounds
        labels = ["u0"] + [f"t{k}" for k in range(len(rounds))]
        metrics.update(layer_metrics(tracer.spans))
        loads = [s for s in tracer.spans if s["name"] == "scenarios.load_scenario"]
        metrics["scenarios.load_scenario.s"] = (sum(s["end"] - s["start"] for s in loads), "s")
        overhead = statistics.median(r["round"] for r in rounds) - reference[0]["round"]
        metrics["trace.overhead_s"] = (overhead, "s")
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    else:
        # One set-up after every round, so that the samples spread over the
        # run like the operations do; the host's speed drifts over seconds.
        def sample_setup():
            setup_samples.append(time_setup(args.workload, args.seed,
                                            work / f"setup{len(setup_samples)}"))

        rounds_all, failed = run_rounds(scenarios, loaded, work, args.seconds, "r",
                                        between=sample_setup)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_samples) < SETUP_SAMPLES:
            sample_setup()
        labels = [f"r{k}" for k in range(len(rounds_all))]
        metrics.update(
            setup_s=(statistics.median(setup_samples), "s"),
            run_s=(statistics.median(r["round"] for r in rounds_all), "s"),
            light_ms=(1e3 * statistics.median(r["light"] for r in rounds_all), "ms"),
            heavy_ms=(1e3 * statistics.median(r["heavy"] for r in rounds_all), "ms"),
            peak_rss_mb=(peak_mb, "MB"),
        )

    numbers = check_outputs(args.workload, inputs, work, labels, failures)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(), "rounds": rounds_all, "setup_samples": setup_samples,
        "checks": numbers,
        "check_failures": failures,
    }
    (work / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for label in labels:
        for cls in CLASSES:
            shutil.rmtree(work / f"{label}-{cls}", ignore_errors=True)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"checks": numbers}))
    return {
        "correct": not failures,
        "attempted": len(CLASSES) * len(rounds_all),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adaptive_kuramoto" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        setup(args.workload, args.seed, args.setup_only)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
