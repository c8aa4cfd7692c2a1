"""Command-line front end.

    adaptive-kuramoto <task> --scenario FILE [--out DIR] [--seed N] [--force]
    adaptive-kuramoto reproduce-all [--out DIR] [--only NAME] [--seed N]
                                    [--force] [--scenario DIR]

The single-task commands (check, simulate, torus, design, two-osc, switch)
run one scenario file whose "task" field must match the command. Artifacts
land in --out (default runs/<scenario name>).

Exit codes: 0 success; 2 when a check task reports overall = false; 1 on any
error, including unmet scenario expectations.

reproduce-all runs every bundled scenario (or every *.json in the --scenario
directory), writes each scenario's artifacts into <out>/<name>/ plus a
summary.json, prints a verdict table, and exits 0 only when all scenarios
meet their expectations. --only NAME filters scenarios by substring.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

from .scenarios import (
    TASKS,
    Scenario,
    ScenarioError,
    ScenarioOutcome,
    load_scenario,
    parse_scenario,
    run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptive-kuramoto",
        description="Adaptive Kuramoto networks: cluster conditions, simulation, "
        "invariant tori, and interconnection design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for task in TASKS:
        p = sub.add_parser(task, help=f"run a scenario file with task '{task}'")
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory (default runs/<name>)")
        p.add_argument("--seed", type=int, default=None, help="override the coupling seed")
        p.add_argument(
            "--force", action="store_true", help="bypass the condition gate (torus task)"
        )

    p = sub.add_parser("reproduce-all", help="run every bundled scenario")
    p.add_argument(
        "--scenario",
        default=None,
        metavar="DIR",
        help="directory of scenario files (default: the bundled set)",
    )
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--only", default=None, help="run only scenarios whose name contains this")
    p.add_argument("--seed", type=int, default=None, help="override coupling seeds")
    p.add_argument("--force", action="store_true", help="bypass condition gates")
    return parser


def _load_bundled_scenarios() -> list[Scenario]:
    root = resources.files("adaptive_kuramoto").joinpath("scenario_data")
    scenarios = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            raw = json.loads(entry.read_text(encoding="utf-8"))
            scenarios.append(parse_scenario(raw))
    return scenarios


def _load_directory_scenarios(directory: Path) -> list[Scenario]:
    if not directory.is_dir():
        raise ScenarioError(f"scenario directory {directory} does not exist")
    scenarios = [load_scenario(p) for p in sorted(directory.glob("*.json"))]
    if not scenarios:
        raise ScenarioError(f"no scenario files in {directory}")
    return scenarios


def _run_single(args: argparse.Namespace, command: str) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if scenario.task != command:
        print(
            f"error: scenario {scenario.name!r} declares task {scenario.task!r}, "
            f"but the command is {command!r}",
            file=sys.stderr,
        )
        return 1

    out_dir = Path(args.out) if args.out else Path("runs") / scenario.name
    try:
        outcome = run_scenario(scenario, out_dir, seed=args.seed, force=args.force)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {scenario.name}: {exc}", file=sys.stderr)
        return 1

    for name in outcome.files:
        print(f"wrote {out_dir / name}")
    for failure in outcome.failures:
        print(f"expectation failed: {failure}", file=sys.stderr)

    if command == "check" and outcome.check_overall is False:
        print("conditions not satisfied (overall = false)")
        return 2
    return 0 if outcome.ok else 1


def _run_one_safely(scenario: Scenario, out_root: Path, seed, force) -> ScenarioOutcome:
    try:
        return run_scenario(scenario, out_root / scenario.name, seed=seed, force=force)
    except Exception as exc:  # noqa: BLE001 - reported per scenario in the summary
        detail = f"{type(exc).__name__}: {exc}"
        return ScenarioOutcome(
            name=scenario.name,
            task=scenario.task,
            ok=False,
            check_overall=None,
            failures=(detail,),
            files=(),
            data={},
        )


def _run_reproduce_all(args: argparse.Namespace) -> int:
    try:
        if args.scenario is not None:
            scenarios = _load_directory_scenarios(Path(args.scenario))
        else:
            scenarios = _load_bundled_scenarios()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.only:
        scenarios = [s for s in scenarios if args.only in s.name]
        if not scenarios:
            print(f"error: no scenario name contains {args.only!r}", file=sys.stderr)
            return 1

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    workers = min(4, len(scenarios))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    lambda s: _run_one_safely(s, out_root, args.seed, args.force),
                    scenarios,
                )
            )
    else:
        outcomes = [_run_one_safely(s, out_root, args.seed, args.force) for s in scenarios]

    outcomes.sort(key=lambda o: o.name)
    width = max(len(o.name) for o in outcomes)
    print(f"{'scenario'.ljust(width)}  {'task'.ljust(8)}  result")
    for o in outcomes:
        verdict = "PASS" if o.ok else "FAIL"
        print(f"{o.name.ljust(width)}  {o.task.ljust(8)}  {verdict}")
        for failure in o.failures:
            print(f"  - {failure}")

    summary = {
        "all_ok": all(o.ok for o in outcomes),
        "results": [
            {"name": o.name, "task": o.task, "ok": o.ok, "failures": list(o.failures)}
            for o in outcomes
        ],
    }
    (out_root / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_root / 'summary.json'}")
    return 0 if summary["all_ok"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-all":
            return _run_reproduce_all(args)
        return _run_single(args, args.command)
    except KeyboardInterrupt:
        return 130
    except Exception:  # noqa: BLE001 - last-resort guard so the CLI never tracebacks silently
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
