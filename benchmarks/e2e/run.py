"""End-to-end benchmark: four seeded workloads through the public API.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--smoke] [--json OUT]

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``).  Without ``--workload`` each workload runs in
its own subprocess, one after another, and a summary table follows.
The exit code is 0 only when every output check passed.

Telemetry the library records during a run goes to a scratch
``MetricsRegistry``; the benchmark writes no file unless ``--json`` is
given.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import sys

# The repository tracks compiled bytecode; importing without writing
# any keeps a run from touching tracked files.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

DEFAULT_SEED = 1
#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 1
#: (name, unit) of the end-to-end metrics, emitted by every workload.
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced run instead of end-to-end ones",
    )
    parser.add_argument("--smoke", action="store_true", help="toy sizes")
    parser.add_argument("--json", metavar="OUT", help="also write the results to OUT")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


def make_workload(name: str, seed: int, smoke: bool):
    from e2e.batch import DynamicDTN, StaticStructures
    from e2e.layers import DYNAMIC, STATIC
    from e2e.serving import ServingWorkload

    if name == STATIC:
        return StaticStructures(seed, smoke)
    if name == DYNAMIC:
        return DynamicDTN(seed, smoke)
    return ServingWorkload(name, seed, smoke)


def run_workload(args) -> dict:
    """Run one workload in this process; the result object."""
    from e2e.layers import PER_LAYER
    from e2e.report import Report, peak_rss_mb, row
    from repro.observability.metrics import MetricsRegistry, set_registry

    set_registry(MetricsRegistry("e2e-scratch"))
    report = Report(args.workload)
    workload = make_workload(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            workload.trace(args.seconds, report)
        else:
            workload.measure(args.seconds, report)
            report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc(file=sys.stderr)
        report.units(1)
        report.fail("run", f"{type(error).__name__}: {error}")
    if args.trace:
        metrics = {
            m.name: {"value": float(report.per_layer.get(m.name, 0.0)), "unit": m.unit}
            for m in PER_LAYER
        }
        for name, entry in metrics.items():
            report.lines.append(row(args.workload, name, entry["value"], entry["unit"]))
    else:
        metrics = {
            name: {"value": report.metrics[name][0], "unit": unit}
            for name, unit in END_TO_END
            if name in report.metrics
        }
    print("\n".join(report.summary_lines()), flush=True)
    return {
        "correct": report.correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": metrics,
    }


def run_all(args, workloads) -> list:
    """Each workload in its own subprocess; their result objects."""
    from e2e.report import row

    results = []
    for name in workloads:
        command = [
            sys.executable, "-B", str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(lines[-1], flush=True)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        result["workload"] = name
        results.append(result)
    print()
    for result in results:
        for name, entry in result["metrics"].items():
            print(row(result["workload"], name, entry["value"], entry["unit"]))
        print(
            f"{result['workload']:<18} {'error_rate':<32} "
            f"{result['failed'] / result['attempted']:>14.6g} ratio  "
            f"(attempted={result['attempted']})"
        )
    return results


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE.parent))
    from e2e.layers import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload:
        result = run_workload(args)
        results = [dict(result, workload=args.workload)]
    else:
        results = run_all(args, WORKLOADS)
    if args.json:
        for result in results:
            result.update(seed=args.seed, trace=args.trace, smoke=args.smoke)
        Path(args.json).write_text(json.dumps({"runs": results}, indent=1) + "\n")
    if args.workload:
        print(json.dumps(result), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
