"""MNT Bench end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload portfolio --seed 1 --seconds 4 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric plus the tracing overhead) and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It exits
1 when a correctness check or the steadiness guard fails and 2 when the
program under test is missing.  ``--smoke`` runs a minimum-size
version of the workload.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
HISTORY = WORK / "history.jsonl"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {
    metric["name"]: metric["unit"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
WORKLOADS = ("portfolio", "iscas_mid", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimum-size run")
    parser.add_argument(
        "--record",
        action="store_true",
        help="write this run's digests and areas to expected.json instead of checking them",
    )
    return parser.parse_args(argv)


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or "unknown"


def expected_key(args) -> str:
    return args.workload + ("-smoke" if args.smoke else "")


def run_workload(args, tracer, work: Path, expected):
    import workloads

    if args.workload == "serve":
        import serve_load

        return serve_load.run_serve(args.seed, args.seconds, tracer, work, expected, args.smoke)
    config = (
        workloads.portfolio_config(args.smoke)
        if args.workload == "portfolio"
        else workloads.iscas_mid_config(args.smoke)
    )
    return workloads.run_batch(config, tracer, work, expected)


def record_expected(key: str, notes: dict, metrics: dict) -> None:
    import workloads

    data = workloads.load_expected() if workloads.EXPECTED_PATH.exists() else {}
    entry = {
        "digest": notes["digest"],
        "best_area_tiles": metrics["best_area_tiles"][0],
    }
    if "export_digest" in notes:
        entry["export_digest"] = notes["export_digest"]
    if notes.get("exact"):
        entry["exact_solved"] = {
            o["key"]: o["area"] for o in notes["exact"] if o["solved"]
        }
    data[key] = entry
    workloads.EXPECTED_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer, install, wrapper_cost_s

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    work = WORK / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    expected = None
    if not args.record:
        expected = workloads.load_expected()[expected_key(args)]
    started = time.perf_counter()
    try:
        result = run_workload(args, tracer, work, expected)
    except workloads.CheckFailed as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    wall_s = time.perf_counter() - started

    if args.record:
        record_expected(expected_key(args), result.notes, result.metrics)

    print(
        f"workload {args.workload} seed {args.seed} cpus {os.cpu_count()} "
        f"wall {wall_s:.1f} s"
    )
    for name, value in sorted(result.notes.items()):
        if isinstance(value, (int, float, str)):
            print(f"  note {name:28s} {value}")
    if tracer is None:
        metrics = {
            name: {"value": float(result.metrics[name][0]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        import layers

        values = dict(result.layers)
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = tracer.total_calls() * wrapper_cost_s()
        metrics = layers.complete(values)
    for name, item in metrics.items():
        print(f"  {name:44s} {item['value']:14.6g} {item['unit']}")
    if not args.smoke and not args.record:
        WORK.mkdir(parents=True, exist_ok=True)
        entry = {
            "commit": commit(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "cpus": os.cpu_count(),
            "src_lines": src_lines(),
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "metrics": {name: item["value"] for name, item in metrics.items()},
        }
        with HISTORY.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
