"""Consolidated perf dashboard over BENCH feeds and the perf ledger.

``python -m repro.observability.report`` scans every committed
``BENCH_*.json`` feed (the ``repro.bench/v1`` documents the benchmark
harnesses emit at the repo top level) plus the append-only
``benchmarks/out/history.jsonl`` perf ledger, and renders one
dashboard — markdown by default, JSON with ``--json``:

* **speedup floors** — for every perf feed whose table carries
  ``kernel`` and ``speedup`` columns, the minimum speedup at the
  largest benchmarked size (the number the tier-1 floor tests gate on);
* **trajectory** — for every experiment in the ledger, the latest
  run's ``*_median_s`` timings against the median of the prior
  last-k records, worst delta first;
* **cache hit rates** — the ``repro.cache.frozen`` counters per owner
  type, aggregated across feeds and ledger records;
* **top-N slowest spans** — the slowest ``*_median_s`` cases across
  all feed timing maps;
* **memory ceilings** — the largest per-span tracemalloc peaks the
  tracer recorded into the ledger;
* **scale-out** — per-shard memory peaks from the ledger and the
  ceiling-vs-actual margins from the committed ``BENCH_perf-scale.json``
  rows;
* **incremental serving** — mixed-stream throughput (baseline vs
  serving queries/sec) from the committed ``BENCH_serving.json`` feed
  plus the aggregated ``repro.serving.*`` patch/repair/gateway
  counters;
* **write path** — per-edge vs batched mutations/sec from the
  committed ``BENCH_serving-write.json`` feed plus the aggregated
  ``repro.serving.batch.*`` barrier counters and batch-size histogram.

The dashboard is itself a schema'd document (``repro.report/v1``) so
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
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.observability.regression import (
    DEFAULT_BASELINE_K,
    detect_regressions,
    load_history,
)
from repro.observability.telemetry import CACHE_METRIC, _LABELED

REPORT_SCHEMA = "repro.report/v1"

#: Feed table columns that mark a perf-comparison table.
_KERNEL_COL = "kernel"
_SPEEDUP_COL = "speedup"
_SIZE_COLS = ("requested n", "n")


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
# section builders
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


def _merge_labeled_counts(
    snapshot: Mapping[str, Any],
    metric_name: str,
    into: Dict[str, Dict[str, int]],
    outer_label: str,
    inner_label: str,
) -> None:
    for key, value in snapshot.items():
        match = _LABELED.match(key)
        if match is None or match.group("name") != metric_name:
            continue
        labels = dict(
            pair.partition("=")[::2] for pair in match.group("labels").split(",")
        )
        outer = labels.get(outer_label, "?")
        inner = labels.get(inner_label, "?")
        bucket = into.setdefault(outer, {})
        bucket[inner] = bucket.get(inner, 0) + int(value)


def cache_summary(
    feeds: Mapping[str, Mapping[str, Any]],
    ledger: Sequence[Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Aggregate ``repro.cache.frozen`` counters across every feed's
    metrics snapshot and every ledger record; adds a ``hit_rate`` per
    owner type (hits over all freeze-path calls)."""
    merged: Dict[str, Dict[str, int]] = {}
    for document in feeds.values():
        metrics = document.get("metrics")
        if isinstance(metrics, Mapping):
            _merge_labeled_counts(metrics, CACHE_METRIC, merged, "owner", "event")
    for record in ledger:
        cache = record.get("cache")
        if not isinstance(cache, Mapping):
            continue
        for owner, events in cache.items():
            if not isinstance(events, Mapping):
                continue
            bucket = merged.setdefault(str(owner), {})
            for event, count in events.items():
                bucket[str(event)] = bucket.get(str(event), 0) + int(count)
    out: Dict[str, Dict[str, Any]] = {}
    for owner, events in sorted(merged.items()):
        total = sum(events.values())
        entry: Dict[str, Any] = dict(events)
        entry["hit_rate"] = (events.get("hit", 0) / total) if total else 0.0
        out[owner] = entry
    return out


def slowest_spans(
    feeds: Mapping[str, Mapping[str, Any]], top: int = 10
) -> List[Dict[str, Any]]:
    """The ``top`` slowest ``*_median_s`` cases across all feeds."""
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
    return cases[:top]


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


def _table_rows(
    feed: Any, columns: Sequence[str], casts: Sequence[Callable[[Any], Any]]
) -> List[Tuple[Any, ...]]:
    """The ``columns`` of a committed feed's table, one tuple per row.

    Each cell goes through the matching entry of ``casts``.  Rows too
    short for the columns, or with a cell that fails to cast, are
    dropped; a missing feed or column yields no rows.
    """
    if not isinstance(feed, Mapping):
        return []
    header = feed.get("header") or []
    if not all(column in header for column in columns):
        return []
    cols = [header.index(column) for column in columns]
    out: List[Tuple[Any, ...]] = []
    for row in feed.get("rows") or []:
        if len(row) <= max(cols):
            continue
        try:
            out.append(tuple(cast(row[col]) for cast, col in zip(casts, cols)))
        except (TypeError, ValueError):
            continue
    return out


def scale_summary(
    feeds: Mapping[str, Mapping[str, Any]],
    ledger: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """The scale-out panel: per-shard peaks and memory ceilings.

    Per-shard peak memory comes from the tracer spans named ``*.shard``
    in the ledger; the ceiling-vs-actual margins come from the committed
    ``BENCH_perf-scale.json`` rows (tightest margin first).
    """
    shard_peaks = {
        span: stats
        for span, stats in memory_summary(ledger).items()
        if span.endswith(".shard")
    }
    ceilings = sorted(
        (
            {
                "case": case,
                "peak_mib": peak,
                "ceiling_mib": ceiling,
                "margin_mib": ceiling - peak,
            }
            for tier, case, peak, ceiling in _table_rows(
                feeds.get("perf-scale"),
                ("tier", "case", "peak MiB", "ceiling MiB"),
                (str, str, float, float),
            )
            if tier == "scale"
        ),
        key=lambda entry: entry["margin_mib"],
    )
    return {
        "shard_peaks": shard_peaks,
        "ceilings": ceilings,
    }


def serving_summary(feeds: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """The incremental-serving panel: mixed-stream throughput and the
    serving-plane counters.

    Stream rows (baseline vs serving queries/sec and the speedup) come
    from the committed ``BENCH_serving.json`` table; the patch/repair/
    gateway counters come from the ``repro.serving.*`` metrics snapshot
    riding on the same feed, aggregated across all feeds that carry
    them.
    """
    streams = [
        dict(zip(("n", "queries", "baseline_qps", "serving_qps", "speedup"), row))
        for row in _table_rows(
            feeds.get("serving"),
            ("n", "queries", "baseline q/s", "serving q/s", "speedup"),
            (int, int, float, float, float),
        )
    ]
    patch: Dict[str, Dict[str, int]] = {}
    queries: Dict[str, Dict[str, int]] = {}
    repairs: Dict[str, Dict[str, int]] = {}
    plain = {"batches": 0, "sweeps": 0, "retries": 0}
    plain_metrics = {
        "batches": "repro.serving.batches",
        "sweeps": "repro.serving.sweeps",
        "retries": "repro.serving.retries",
    }
    for document in feeds.values():
        metrics = document.get("metrics")
        if not isinstance(metrics, Mapping):
            continue
        _merge_labeled_counts(
            metrics, "repro.serving.patch", patch, "event", "event"
        )
        _merge_labeled_counts(
            metrics, "repro.serving.queries", queries, "kind", "kind"
        )
        _merge_labeled_counts(
            metrics, "repro.serving.repairs", repairs, "index", "mode"
        )
        for name, metric in plain_metrics.items():
            value = metrics.get(metric)
            if isinstance(value, (int, float)):
                plain[name] += int(value)
    total_queries = sum(sum(kinds.values()) for kinds in queries.values())
    return {
        "streams": streams,
        "patch": {event: counts.get(event, 0) for event, counts in patch.items()},
        "queries": {kind: counts.get(kind, 0) for kind, counts in queries.items()},
        "repairs": repairs,
        **plain,
        "coalesce_ratio": (
            total_queries / plain["sweeps"] if plain["sweeps"] else 0.0
        ),
    }


def _merge_histogram(
    into: Dict[str, Any], snapshot: Mapping[str, Any]
) -> None:
    """Fold one histogram summary dict into an accumulator.

    Counts, sums and extrema merge exactly; percentiles cannot, so the
    accumulator keeps the percentiles of whichever snapshot carried the
    most observations."""
    count = snapshot.get("count")
    if not isinstance(count, (int, float)) or count <= 0:
        return
    prior = into.get("count", 0)
    into["count"] = prior + int(count)
    into["sum"] = into.get("sum", 0.0) + float(snapshot.get("sum") or 0.0)
    into["mean"] = into["sum"] / into["count"]
    for field, pick in (("min", min), ("max", max)):
        value = snapshot.get(field)
        if isinstance(value, (int, float)):
            into[field] = (
                pick(into[field], float(value)) if field in into else float(value)
            )
    if count >= prior:
        for field in ("p50", "p90", "p99"):
            value = snapshot.get(field)
            if isinstance(value, (int, float)):
                into[field] = float(value)


def write_path_summary(feeds: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """The write-path panel: batched-mutation throughput plus the
    coalescing telemetry.

    Stream rows (per-edge vs batched mutations/sec and the speedup)
    come from the committed ``BENCH_serving-write.json`` table; the
    barrier counters and the batch-size histogram come from the
    ``repro.serving.batch.*`` metrics riding on any feed, aggregated
    across all of them.
    """
    streams = [
        dict(zip(("n", "mutations", "per_edge_mps", "batched_mps", "speedup"), row))
        for row in _table_rows(
            feeds.get("serving-write"),
            ("n", "mutations", "per-edge muts/s", "batched muts/s", "speedup"),
            (int, int, float, float, float),
        )
    ]
    mutations: Dict[str, Dict[str, int]] = {}
    writes = 0
    coalesced = 0
    batch_sizes: Dict[str, Any] = {}
    for document in feeds.values():
        metrics = document.get("metrics")
        if not isinstance(metrics, Mapping):
            continue
        _merge_labeled_counts(
            metrics, "repro.serving.mutations", mutations, "kind", "kind"
        )
        for name, value in (
            ("writes", metrics.get("repro.serving.batch.writes")),
            ("coalesced", metrics.get("repro.serving.batch.coalesced")),
        ):
            if isinstance(value, (int, float)):
                if name == "writes":
                    writes += int(value)
                else:
                    coalesced += int(value)
        snapshot = metrics.get("repro.serving.batch.write_size")
        if isinstance(snapshot, Mapping):
            _merge_histogram(batch_sizes, snapshot)
    return {
        "streams": streams,
        "mutations": {
            kind: counts.get(kind, 0) for kind, counts in mutations.items()
        },
        "writes": writes,
        "coalesced": coalesced,
        "coalesced_per_barrier": coalesced / writes if writes else 0.0,
        "batch_size": batch_sizes,
    }


def memory_summary(ledger: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Largest per-span tracer peaks recorded into the ledger."""
    out: Dict[str, Dict[str, float]] = {}
    for record in ledger:
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
# the dashboard
# ----------------------------------------------------------------------
def build_dashboard(
    top_dir: str,
    history_path: Optional[str] = None,
    top: int = 10,
) -> Dict[str, Any]:
    """Assemble the full ``repro.report/v1`` dashboard document."""
    if history_path is None:
        history_path = os.path.join(top_dir, "benchmarks", "out", "history.jsonl")
    feeds = scan_bench_feeds(top_dir)
    ledger = load_history(history_path)
    return {
        "schema": REPORT_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "feeds": sorted(feeds),
        "ledger_path": history_path,
        "ledger_records": len(ledger),
        "speedups": speedup_summary(feeds),
        "trajectory": trajectory_summary(ledger),
        "cache": cache_summary(feeds, ledger),
        "slowest": slowest_spans(feeds, top=top),
        "memory": memory_summary(ledger),
        "scale": scale_summary(feeds, ledger),
        "serving": serving_summary(feeds),
        "write_path": write_path_summary(feeds),
    }


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

    speedups = dashboard.get("speedups", [])
    lines.append("## Speedup floors (largest size per feed)")
    lines.append("")
    if speedups:
        lines.append("| experiment | size | floor | floor kernel | kernels |")
        lines.append("|---|---|---|---|---|")
        for entry in speedups:
            kernels = ", ".join(
                f"{k} {v:.1f}x" for k, v in sorted(entry["kernels"].items())
            )
            lines.append(
                f"| {entry['experiment']} | {entry['largest_size']} "
                f"| {entry['floor']:.1f}x | {entry['floor_kernel']} | {kernels} |"
            )
    else:
        lines.append("(no perf-comparison feeds found)")
    lines.append("")

    trajectory = dashboard.get("trajectory", [])
    lines.append("## Trajectory (ledger, latest vs median-of-last-k)")
    lines.append("")
    if trajectory:
        lines.append("| experiment | runs | worst slowdown | top drifting case |")
        lines.append("|---|---|---|---|")
        for entry in trajectory:
            worst = entry.get("worst_slowdown")
            worst_text = f"{worst:.2f}x" if isinstance(worst, float) else "n/a"
            top_case = entry["regressions"][0]["key"] if entry["regressions"] else "—"
            lines.append(
                f"| {entry['experiment']} | {entry['runs']} | {worst_text} | {top_case} |"
            )
    else:
        lines.append("(ledger empty — run a perf benchmark to populate it)")
    lines.append("")

    cache = dashboard.get("cache", {})
    lines.append("## Frozen-cache hit rates")
    lines.append("")
    if cache:
        lines.append("| owner | hit | miss | refreeze | hit rate |")
        lines.append("|---|---|---|---|---|")
        for owner, stats in cache.items():
            lines.append(
                f"| {owner} | {stats.get('hit', 0)} | {stats.get('miss', 0)} "
                f"| {stats.get('refreeze', 0)} | {stats.get('hit_rate', 0.0):.1%} |"
            )
    else:
        lines.append("(no cache telemetry recorded yet)")
    lines.append("")

    slowest = dashboard.get("slowest", [])
    lines.append(f"## Top {len(slowest)} slowest cases")
    lines.append("")
    if slowest:
        lines.append("| experiment | case | median |")
        lines.append("|---|---|---|")
        for entry in slowest:
            lines.append(
                f"| {entry['experiment']} | {entry['case']} | {entry['median_s']:.4f}s |"
            )
    else:
        lines.append("(no timings found)")
    lines.append("")

    memory = dashboard.get("memory", {})
    lines.append("## Memory ceilings (tracer peaks from the ledger)")
    lines.append("")
    if memory:
        lines.append("| span | peak | net alloc |")
        lines.append("|---|---|---|")
        for span, stats in memory.items():
            lines.append(
                f"| {span} | {stats['peak_kib']:.0f} KiB | {stats['alloc_kib']:.0f} KiB |"
            )
    else:
        lines.append("(no memory peaks in the ledger — run a benchmark with "
                     "`trace.enable(memory=True)`)")
    lines.append("")

    scale = dashboard.get("scale", {})
    lines.append("## Scale-out (shard peaks, memory ceilings)")
    lines.append("")
    shard_peaks = scale.get("shard_peaks", {})
    if shard_peaks:
        lines.append("| shard span | peak | net alloc |")
        lines.append("|---|---|---|")
        for span, stats in shard_peaks.items():
            lines.append(
                f"| {span} | {stats['peak_kib']:.0f} KiB "
                f"| {stats['alloc_kib']:.0f} KiB |"
            )
        lines.append("")
    ceilings = scale.get("ceilings", [])
    if ceilings:
        lines.append("| scale case | peak MiB | ceiling MiB | margin MiB |")
        lines.append("|---|---|---|---|")
        for entry in ceilings:
            lines.append(
                f"| {entry['case']} | {entry['peak_mib']:.1f} "
                f"| {entry['ceiling_mib']:.1f} | {entry['margin_mib']:.1f} |"
            )
        lines.append("")
    if not shard_peaks and not ceilings:
        lines.append("(no shard peaks or perf-scale rows yet)")
        lines.append("")

    serving = dashboard.get("serving", {})
    lines.append("## Incremental serving (mixed mutate/query stream)")
    lines.append("")
    streams = serving.get("streams", [])
    if streams:
        lines.append("| n | queries | baseline q/s | serving q/s | speedup |")
        lines.append("|---|---|---|---|---|")
        for entry in streams:
            lines.append(
                f"| {entry['n']} | {entry['queries']} "
                f"| {entry['baseline_qps']:.0f} | {entry['serving_qps']:.0f} "
                f"| {entry['speedup']:.1f}x |"
            )
        lines.append("")
    if serving.get("batches"):
        patch = serving.get("patch", {})
        patch_text = ", ".join(
            f"{event} {count}" for event, count in sorted(patch.items())
        ) or "none"
        repairs = serving.get("repairs", {})
        repair_text = ", ".join(
            f"{index}:{mode} {count}"
            for index, modes in sorted(repairs.items())
            for mode, count in sorted(modes.items())
        ) or "none"
        lines.append(
            f"Batches {serving['batches']}, sweeps {serving['sweeps']}, "
            f"retries {serving['retries']}, coalesce ratio "
            f"{serving.get('coalesce_ratio', 0.0):.2f}; patch events: "
            f"{patch_text}; repairs: {repair_text}."
        )
        lines.append("")
    elif not streams:
        lines.append("(no serving feed committed yet — run "
                     "benchmarks/bench_serving.py)")
        lines.append("")

    write_path = dashboard.get("write_path", {})
    lines.append("## Write path (batched mutation coalescing)")
    lines.append("")
    write_streams = write_path.get("streams", [])
    if write_streams:
        lines.append("| n | mutations | per-edge muts/s | batched muts/s | speedup |")
        lines.append("|---|---|---|---|---|")
        for entry in write_streams:
            lines.append(
                f"| {entry['n']} | {entry['mutations']} "
                f"| {entry['per_edge_mps']:.0f} | {entry['batched_mps']:.0f} "
                f"| {entry['speedup']:.1f}x |"
            )
        lines.append("")
    if write_path.get("writes"):
        kinds = write_path.get("mutations", {})
        kind_text = ", ".join(
            f"{kind} {count}" for kind, count in sorted(kinds.items())
        ) or "none"
        lines.append(
            f"Write barriers {write_path['writes']}, coalescing netted away "
            f"{write_path['coalesced']} carried mutations "
            f"({write_path.get('coalesced_per_barrier', 0.0):.2f} per barrier); "
            f"mutations by kind: {kind_text}."
        )
        lines.append("")
        sizes = write_path.get("batch_size", {})
        if sizes.get("count"):
            lines.append(
                f"Barrier batch sizes: mean {sizes['mean']:.2f}, "
                f"p90 {sizes.get('p90', 0.0):.0f}, "
                f"max {sizes.get('max', 0.0):.0f} "
                f"over {sizes['count']} barriers."
            )
            lines.append("")
    elif not write_streams:
        lines.append("(no serving-write feed committed yet — run "
                     "benchmarks/bench_serving_write.py)")
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
    parser.add_argument(
        "--top", type=int, default=10, help="slowest-case list length (default 10)"
    )
    options = parser.parse_args(argv)

    dashboard = build_dashboard(
        options.top_dir, history_path=options.history, top=options.top
    )
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
