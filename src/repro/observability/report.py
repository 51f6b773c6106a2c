"""Consolidated perf dashboard over BENCH feeds and the perf ledger.

``python -m repro.observability.report`` scans every committed
``BENCH_*.json`` feed (the ``repro.bench/v1`` documents the benchmark
harnesses emit at the repo top level) plus the append-only
``benchmarks/out/history.jsonl`` perf ledger, and renders one
dashboard — markdown by default, JSON with ``--json``.

The dashboard is a list of sections, each a ``{title, header, rows}``
table.  Four sections read across feeds and the ledger:

* **speedup floors** — for every perf feed whose table carries
  ``kernel`` and ``speedup`` columns, the minimum speedup at the
  largest benchmarked size (the number the tier-1 floor tests gate on);
* **trajectory** — for every experiment in the ledger, the latest
  run's ``*_median_s`` timings against the median of the prior
  last-k records, worst delta first;
* **slowest cases** — the :data:`SLOWEST_CASES` slowest
  ``*_median_s`` cases across all feed timing maps;
* **memory ceilings** — the per-span tracemalloc peaks in each
  experiment's latest ledger record.

Every feed then gets the same panel, built from the feed alone: its
table verbatim, its scalar metrics and its histogram summaries.  A
feed with new columns or a new metric family needs no change here.

The dashboard is itself a schema'd document (``repro.report/v2``) so
downstream tooling can diff two dashboards the same way the bench
feeds are diffed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.observability.regression import (
    DEFAULT_BASELINE_K,
    detect_regressions,
    load_history,
)

REPORT_SCHEMA = "repro.report/v2"

#: Length of the slowest-cases list.
SLOWEST_CASES = 10

#: Feed table columns that mark a perf-comparison table.
_KERNEL_COL = "kernel"
_SPEEDUP_COL = "speedup"
_SIZE_COLS = ("requested n", "n")

#: The histogram summary fields a feed panel shows.
_HISTOGRAM_FIELDS = ("count", "mean", "p50", "p90", "p99", "max")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def scan_bench_feeds(top_dir: str) -> Dict[str, Dict[str, Any]]:
    """Load every ``BENCH_*.json`` under ``top_dir``, keyed by
    experiment name (falling back to the filename stem)."""
    feeds: Dict[str, Dict[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(top_dir, "BENCH_*.json"))):
        try:
            with open(path) as handle:
                document = json.load(handle)
        except ValueError:
            continue
        if not isinstance(document, dict):
            continue
        stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
        feeds[str(document.get("experiment") or stem)] = document
    return feeds


# ----------------------------------------------------------------------
# cross-feed summaries
# ----------------------------------------------------------------------
def speedup_summary(feeds: Mapping[str, Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Per perf feed: each kernel's speedup at the largest size, plus
    the feed-wide floor (the minimum of those)."""
    out: List[Dict[str, Any]] = []
    for experiment in sorted(feeds):
        document = feeds[experiment]
        header = document.get("header") or []
        rows = document.get("rows") or []
        if _KERNEL_COL not in header or _SPEEDUP_COL not in header or not rows:
            continue
        kernel_col = header.index(_KERNEL_COL)
        speedup_col = header.index(_SPEEDUP_COL)
        size_col = next(
            (header.index(c) for c in _SIZE_COLS if c in header), None
        )
        if size_col is not None:
            largest = max(row[size_col] for row in rows)
            top_rows = [row for row in rows if row[size_col] == largest]
        else:
            largest = None
            top_rows = rows
        kernels = {
            str(row[kernel_col]): float(row[speedup_col]) for row in top_rows
        }
        if not kernels:
            continue
        floor_kernel = min(kernels, key=kernels.get)
        out.append(
            {
                "experiment": experiment,
                "largest_size": largest,
                "kernels": kernels,
                "floor": kernels[floor_kernel],
                "floor_kernel": floor_kernel,
            }
        )
    return out


def slowest_spans(feeds: Mapping[str, Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """The :data:`SLOWEST_CASES` slowest ``*_median_s`` cases across all
    feeds."""
    cases: List[Dict[str, Any]] = []
    for experiment, document in feeds.items():
        timings = document.get("timings")
        if not isinstance(timings, Mapping):
            continue
        for key, value in timings.items():
            if key.endswith("_median_s") and isinstance(value, (int, float)):
                cases.append(
                    {"experiment": experiment, "case": key, "median_s": float(value)}
                )
    cases.sort(key=lambda c: -c["median_s"])
    return cases[:SLOWEST_CASES]


def trajectory_summary(
    ledger: Sequence[Mapping[str, Any]], k: int = DEFAULT_BASELINE_K
) -> List[Dict[str, Any]]:
    """Latest-vs-baseline delta per experiment in the ledger.

    Uses the same median-of-last-``k`` baseline as the regression
    detector but reports *every* compared key's worst slowdown, not
    just threshold breaches, so drift is visible before it gates.
    """
    by_experiment: Dict[str, List[Mapping[str, Any]]] = {}
    for record in ledger:
        experiment = record.get("experiment")
        if isinstance(experiment, str):
            by_experiment.setdefault(experiment, []).append(record)
    out: List[Dict[str, Any]] = []
    for experiment in sorted(by_experiment):
        records = by_experiment[experiment]
        current, history = records[-1], records[:-1]
        entry: Dict[str, Any] = {
            "experiment": experiment,
            "runs": len(records),
            "generated_at": current.get("generated_at"),
            "regressions": [],
            "worst_slowdown": None,
        }
        if history:
            # threshold barely above 1.0 => report every slowdown
            deltas = detect_regressions(history, current, k=k, threshold=1.000001)
            entry["worst_slowdown"] = deltas[0].slowdown if deltas else 1.0
            entry["regressions"] = [
                {
                    "key": d.key,
                    "baseline_s": d.baseline_s,
                    "current_s": d.current_s,
                    "slowdown": d.slowdown,
                }
                for d in deltas[:5]
            ]
        out.append(entry)
    return out


def memory_summary(ledger: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-span tracer peaks from each experiment's latest ledger record.

    Older records stay in the append-only ledger but not here, so a
    span whose code is gone leaves with the next run of its
    experiment.  A span two experiments share shows the larger peak.
    """
    latest: Dict[Any, Mapping[str, Any]] = {}
    for record in ledger:
        latest[record.get("experiment")] = record
    out: Dict[str, Dict[str, float]] = {}
    for record in latest.values():
        memory = record.get("memory")
        if not isinstance(memory, Mapping):
            continue
        for span, stats in memory.items():
            if not isinstance(stats, Mapping):
                continue
            entry = out.setdefault(str(span), {"peak_kib": 0.0, "alloc_kib": 0.0})
            for field in ("peak_kib", "alloc_kib"):
                value = stats.get(field)
                if isinstance(value, (int, float)):
                    entry[field] = max(entry[field], float(value))
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["peak_kib"]))


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _section(
    title: str, header: Sequence[str], rows: Sequence[Sequence[Any]],
    empty: str = "(no rows)",
) -> Dict[str, Any]:
    """One dashboard table; ``empty`` is shown when it has no rows."""
    return {"title": title, "header": list(header),
            "rows": [list(row) for row in rows], "empty": empty}


def cross_feed_sections(
    feeds: Mapping[str, Mapping[str, Any]],
    ledger: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Speedup floors, trajectory, slowest cases and memory ceilings."""
    speedups = [
        [
            entry["experiment"], entry["largest_size"], f"{entry['floor']:.1f}x",
            entry["floor_kernel"],
            ", ".join(f"{k} {v:.1f}x" for k, v in sorted(entry["kernels"].items())),
        ]
        for entry in speedup_summary(feeds)
    ]
    trajectory = []
    for entry in trajectory_summary(ledger):
        worst = entry["worst_slowdown"]
        trajectory.append([
            entry["experiment"], entry["runs"],
            f"{worst:.2f}x" if isinstance(worst, float) else "n/a",
            entry["regressions"][0]["key"] if entry["regressions"] else "—",
        ])
    slowest = [
        [case["experiment"], case["case"], f"{case['median_s']:.4f}s"]
        for case in slowest_spans(feeds)
    ]
    memory = [
        [span, f"{stats['peak_kib']:.0f} KiB", f"{stats['alloc_kib']:.0f} KiB"]
        for span, stats in memory_summary(ledger).items()
    ]
    return [
        _section(
            "Speedup floors (largest size per feed)",
            ("experiment", "size", "floor", "floor kernel", "kernels"),
            speedups, "(no perf-comparison feeds found)",
        ),
        _section(
            "Trajectory (ledger, latest vs median-of-last-k)",
            ("experiment", "runs", "worst slowdown", "top drifting case"),
            trajectory, "(ledger empty — run a perf benchmark to populate it)",
        ),
        _section(
            f"Top {len(slowest)} slowest cases",
            ("experiment", "case", "median"), slowest, "(no timings found)",
        ),
        _section(
            "Memory ceilings (tracer peaks, latest ledger record per experiment)",
            ("span", "peak", "net alloc"), memory,
            "(no memory peaks in the ledger — run a benchmark with "
            "`trace.enable(memory=True)`)",
        ),
    ]


def _significant(value: Any) -> Any:
    """A float rounded to 4 significant digits; anything else as is."""
    return float(f"{value:.4g}") if isinstance(value, float) else value


def feed_panel(experiment: str, document: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The generic panel of one feed: its table verbatim, then its
    scalar metrics and its histogram summaries under their snapshot
    keys (histograms are the dict-valued entries)."""
    metrics = document.get("metrics")
    metrics = metrics if isinstance(metrics, Mapping) else {}
    scalars = [
        [key, value] for key, value in metrics.items()
        if not isinstance(value, Mapping)
    ]
    histograms = [
        [key, *(_significant(value.get(f, "-")) for f in _HISTOGRAM_FIELDS)]
        for key, value in metrics.items()
        if isinstance(value, Mapping)
    ]
    sections = [
        _section(
            f"{experiment}: {document.get('title', '')}",
            document.get("header") or [], document.get("rows") or [],
        )
    ]
    if scalars:
        sections.append(_section(f"{experiment} metrics", ("metric", "value"), scalars))
    if histograms:
        sections.append(
            _section(
                f"{experiment} histograms", ("histogram", *_HISTOGRAM_FIELDS),
                histograms,
            )
        )
    return sections


# ----------------------------------------------------------------------
# the dashboard
# ----------------------------------------------------------------------
def build_dashboard(top_dir: str, history_path: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the full ``repro.report/v2`` dashboard document."""
    if history_path is None:
        history_path = os.path.join(top_dir, "benchmarks", "out", "history.jsonl")
    feeds = scan_bench_feeds(top_dir)
    ledger = load_history(history_path)
    sections = cross_feed_sections(feeds, ledger)
    for experiment in sorted(feeds):
        sections.extend(feed_panel(experiment, feeds[experiment]))
    return {
        "schema": REPORT_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "feeds": sorted(feeds),
        "ledger_path": history_path,
        "ledger_records": len(ledger),
        "sections": sections,
    }


def _markdown_row(cells: Sequence[Any]) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def render_markdown(dashboard: Mapping[str, Any]) -> str:
    """The human-facing view of :func:`build_dashboard`'s output."""
    lines: List[str] = [
        "# Perf observatory",
        "",
        f"Generated {dashboard.get('generated_at', '?')} · "
        f"{len(dashboard.get('feeds', []))} BENCH feeds · "
        f"{dashboard.get('ledger_records', 0)} ledger records "
        f"({dashboard.get('ledger_path', '?')})",
        "",
    ]
    for section in dashboard.get("sections", []):
        lines += [f"## {section['title']}", ""]
        if section["rows"]:
            lines.append(_markdown_row(section["header"]))
            lines.append("|" + "---|" * len(section["header"]))
            lines.extend(_markdown_row(row) for row in section["rows"])
        else:
            lines.append(section["empty"])
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.report",
        description="Consolidated perf dashboard over BENCH feeds and the ledger.",
    )
    parser.add_argument(
        "--top-dir", default=".", help="repo root holding the BENCH_*.json feeds"
    )
    parser.add_argument(
        "--history",
        default=None,
        help="perf ledger path (default <top-dir>/benchmarks/out/history.jsonl)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON document, not markdown"
    )
    parser.add_argument("--out", default=None, help="write to this file instead of stdout")
    options = parser.parse_args(argv)

    dashboard = build_dashboard(options.top_dir, history_path=options.history)
    if options.json:
        text = json.dumps(dashboard, indent=2, sort_keys=True) + "\n"
    else:
        text = render_markdown(dashboard)
    if options.out:
        from repro.observability.export import write_atomic

        write_atomic(options.out, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
