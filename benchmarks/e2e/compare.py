"""Compare two sets of benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py --parent A1.json A2.json ... \\
                                      --change B1.json B2.json ...

Each file is written by ``run.py --json``.  Runs pair up in the order
given (the i-th parent run with the i-th change run, per workload), so
list the files in the order they ran, alternating which side went
first.  For every workload and metric the table shows each side's
median and quartiles, the share of pairs the change won, and a verdict
against the bound ``BENCHMARK.json`` fixes for that metric:

* improved - the change won at least 9 of 10 pairs and its median beats
  the parent's by more than the parent's own quartile spread;
* regressed - the change's median is worse by more than the bound;
* unresolved - the parent's quartile spread is wider than the bound and
  not every change run beats every parent run;
* within bound - none of the above.

Per-layer metrics have no bound; they are only ever called improved or
"no bound".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, in file order."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if not run["correct"]:
                print(
                    f"warning: {path}: {run['workload']} failed its checks",
                    file=sys.stderr,
                )
            for name, entry in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    parent: List[float], change: List[float], better: str, bound: Optional[float]
) -> Tuple[float, str]:
    """(share of pairs the change won, verdict)."""
    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    pairs = list(zip(parent, change))
    wins = sum(beats(b, a) for a, b in pairs) / len(pairs)
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    gain = (median_a - median_b) if better == "lower" else (median_b - median_a)
    if wins >= 0.9 and gain > q3 - q1:
        return wins, "improved"
    if bound is None:
        return wins, "no bound"
    if (q3 - q1) > bound * abs(median_a) and not all(
        beats(b, a) for a in parent for b in change
    ):
        return wins, "unresolved"
    if -gain > bound * abs(median_a):
        return wins, "regressed"
    return wins, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--change", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    print(
        f"{'workload':<18} {'metric':<32} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'wins':>5}  verdict"
    )
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        meta = metrics.get(name, {"better": "lower"})
        wins, word = verdict(
            parent[key], change[key], meta["better"], meta.get("bound")
        )
        regressed |= word == "regressed"
        cells = []
        for values in (parent[key], change[key]):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        print(
            f"{workload:<18} {name:<32} {cells[0]:>34} {cells[1]:>34} "
            f"{wins:>5.2f}  {word}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
