"""Smoke harness: one tiny instance of every figure benchmark.

Each runner exercises the same code path as its full benchmark
(``bench_fig*.py`` / ``bench_dtn_protocols.py``) at toy scale, with
tracing enabled, and emits a table through :func:`_util.emit_table`.
:func:`run_all` then validates every emitted JSON document against the
``repro.bench/v1`` schema, checks the instrumented runners observed
span durations, and returns the per-experiment results.

Wired into tier-1 through ``tests/test_bench_smoke.py`` (which runs it
against a temp directory), and runnable standalone::

    PYTHONPATH=src python benchmarks/smoke.py

which writes the top-level ``BENCH_smoke-*.json`` feeds and appends
to the ``benchmarks/out/history.jsonl`` ledger.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable, Dict

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import OUT_DIR, TOP_DIR, TableResult, emit_table, scratch_registry
from repro.observability import trace, validate_bench_report

SMOKE_RUNNERS: Dict[str, Callable[[], Dict[str, Any]]] = {}


def smoke(name: str) -> Callable:
    def decorator(fn: Callable[[], Dict[str, Any]]) -> Callable[[], Dict[str, Any]]:
        SMOKE_RUNNERS[name] = fn
        return fn

    return decorator


@smoke("fig1")
def smoke_fig1() -> Dict[str, Any]:
    from repro.graphs.interval_hypergraph import interval_hypergraph

    rng = np.random.default_rng(1)
    starts = {user: float(rng.uniform(0, 24)) for user in range(10)}
    intervals = {user: [(start, start + 1.5)] for user, start in starts.items()}
    hyper = interval_hypergraph(intervals)
    dist = hyper.cardinality_distribution()
    return {
        "title": "interval hypergraph (smoke)",
        "header": ["cardinality", "count"],
        "rows": sorted(dist.items()),
    }


@smoke("fig2")
def smoke_fig2() -> Dict[str, Any]:
    from repro.temporal.evolving import paper_fig2_evolving_graph
    from repro.temporal.journeys import earliest_completion_journey

    eg = paper_fig2_evolving_graph()
    journey = earliest_completion_journey(eg, "A", "C", start=4)
    return {
        "title": "Fig. 2 journey (smoke)",
        "header": ["hop", "value"],
        "rows": [(i, f"{u}-{t}->{v}") for i, (u, v, t) in enumerate(journey.hops)],
    }


@smoke("fig3")
def smoke_fig3() -> Dict[str, Any]:
    from repro.datasets.gnutella import gnutella_largest_scc
    from repro.layering.nsf import peel_to_fraction

    graph = gnutella_largest_scc(400, np.random.default_rng(33))
    half = peel_to_fraction(graph, 0.5)
    return {
        "title": "Gnutella-like peel (smoke)",
        "header": ["view", "peers", "edges"],
        "rows": [
            ("full SCC", graph.num_nodes, graph.num_edges),
            ("top 50%", half.num_nodes, half.num_edges),
        ],
    }


@smoke("fig4")
def smoke_fig4() -> Dict[str, Any]:
    from repro.layering.link_reversal import full_link_reversal, paper_fig4_graph

    graph, destination, heights = paper_fig4_graph()
    result = full_link_reversal(graph, destination, heights=heights)
    return {
        "title": "full link reversal on the Fig. 4 fixture (smoke)",
        "header": ["metric", "value"],
        "rows": [
            ("steps", result.steps),
            ("link reversals", result.link_reversals),
            ("oriented", result.orientation.is_destination_oriented(destination)),
        ],
    }


@smoke("fig5")
def smoke_fig5() -> Dict[str, Any]:
    from repro.graphs.traversal import connected_components
    from repro.graphs.unit_disk import unit_disk_graph
    from repro.remapping.geo_routing import crescent_hole_positions, greedy_route
    from repro.remapping.hyperbolic import embed_tree, greedy_route_hyperbolic

    rng = np.random.default_rng(5)
    positions = crescent_hole_positions(80, 10.0, 10.0, rng)
    graph = unit_disk_graph(positions, 1.8)
    giant = graph.subgraph(connected_components(graph)[0])
    positions = {v: positions[v] for v in giant.nodes()}
    embedding = embed_tree(giant)
    nodes = sorted(giant.nodes())
    pairs = [(nodes[0], nodes[-1]), (nodes[1], nodes[-2])]
    rows = []
    for s, t in pairs:
        euclid = greedy_route(giant, s, t, positions).delivered
        hyper = greedy_route_hyperbolic(giant, embedding, s, t).delivered
        rows.append((f"{s}->{t}", euclid, hyper))
    return {
        "title": "greedy routing, Euclidean vs hyperbolic (smoke)",
        "header": ["pair", "euclidean delivered", "hyperbolic delivered"],
        "rows": rows,
    }


@smoke("fig6")
def smoke_fig6() -> Dict[str, Any]:
    from repro.datasets.human_contacts import rate_model_trace
    from repro.remapping.feature_space import (
        FeatureSpace,
        contact_frequency_by_feature_distance,
    )

    rng = np.random.default_rng(66)
    trace, profiles = rate_model_trace(
        12, (2, 2, 3), rng, rate0=0.4, decay=0.45, end_time=40.0
    )
    space = FeatureSpace(profiles, (2, 2, 3))
    law = contact_frequency_by_feature_distance(trace.to_evolving(1.0), space)
    return {
        "title": "contact frequency vs feature distance (smoke)",
        "header": ["feature distance", "mean contacts"],
        "rows": [(d, round(law[d], 3)) for d in sorted(law)],
    }


@smoke("fig7")
def smoke_fig7() -> Dict[str, Any]:
    from repro.layering.nsf import degree_levels, nsf_levels, paper_fig7_graph

    graph = paper_fig7_graph()
    nested = nsf_levels(graph)
    plain = degree_levels(graph)
    return {
        "title": "degree vs nested levels on the Fig. 7 fixture (smoke)",
        "header": ["node", "degree level", "nested level"],
        "rows": [
            (node, plain[node], nested[node])
            for node in sorted(graph.nodes(), key=repr)
        ],
    }


@smoke("fig8")
def smoke_fig8() -> Dict[str, Any]:
    from repro.labeling.cds import (
        is_connected_dominating_set,
        paper_fig8_graph,
        wu_dai_cds,
    )
    from repro.labeling.mis import compute_mis, is_maximal_independent_set

    graph = paper_fig8_graph()
    marked, trimmed = wu_dai_cds(graph)
    mis, _ = compute_mis(graph)
    return {
        "title": "static labels on the Fig. 8 fixture (smoke)",
        "header": ["label", "size", "valid"],
        "rows": [
            ("marking", len(marked), is_connected_dominating_set(graph, marked)),
            ("CDS", len(trimmed), is_connected_dominating_set(graph, trimmed)),
            ("MIS", len(mis), is_maximal_independent_set(graph, mis)),
        ],
    }


@smoke("fig9")
def smoke_fig9() -> Dict[str, Any]:
    from repro.labeling.safety import compute_safety_levels, paper_fig9_faults

    n, faults = paper_fig9_faults()
    safety = compute_safety_levels(n, faults)
    return {
        "title": "safety levels in the faulty 4-D cube (smoke)",
        "header": ["metric", "value"],
        "rows": [
            ("rounds", safety.rounds),
            ("faults", len(faults)),
            ("min level", min(safety.levels.values())),
            ("max level", max(safety.levels.values())),
        ],
    }


@smoke("dtn")
def smoke_dtn() -> Dict[str, Any]:
    from repro.datasets.human_contacts import rate_model_trace
    from repro.dtn.routers import DirectDelivery, EpidemicRouter
    from repro.dtn.simulator import MessageSpec, run_protocol_comparison

    rng = np.random.default_rng(8)
    trace, _ = rate_model_trace(
        12, (2, 2, 3), rng, rate0=0.4, decay=0.5, end_time=40.0
    )
    eg = trace.to_evolving(1.0)
    specs = [MessageSpec(f"m{i}", i, 11, created=0, ttl=30) for i in range(4)]
    results = run_protocol_comparison(eg, [DirectDelivery(), EpidemicRouter()], specs)
    return {
        "title": "DTN protocol comparison (smoke)",
        "header": ["protocol", "delivered", "created"],
        "rows": [
            (name, stats.delivered, stats.created) for name, stats in results.items()
        ],
    }


@smoke("report")
def smoke_report() -> Dict[str, Any]:
    from repro.observability.report import (
        build_dashboard, render_markdown, scan_bench_feeds, speedup_summary,
    )

    markdown = render_markdown(build_dashboard(TOP_DIR))
    if not markdown.startswith("# "):
        raise AssertionError("report: markdown dashboard missing title")
    rows = [
        (
            summary["experiment"],
            summary["floor_kernel"],
            round(summary["floor"], 2),
        )
        for summary in speedup_summary(scan_bench_feeds(TOP_DIR))
    ]
    if not rows:
        raise AssertionError("report: no speedup feeds found in top dir")
    return {
        "title": "consolidated perf report (smoke)",
        "header": ["experiment", "slowest kernel", "speedup floor"],
        "rows": rows,
        "notes": (
            "Dashboard built by repro.observability.report over the "
            "committed BENCH_*.json feeds; each row is the worst "
            "speedup at the largest size of one perf experiment."
        ),
    }


@smoke("perf-temporal")
def smoke_perf_temporal() -> Dict[str, Any]:
    import bench_perf_temporal

    rows, _ = bench_perf_temporal._measure_size(((30, 40, 400, 6), 1))
    return {
        "title": "frozen temporal kernels vs reference (smoke)",
        "header": bench_perf_temporal.HEADER,
        "rows": rows,
        "notes": (
            "Toy instance of benchmarks/bench_perf_temporal.py; exact "
            "output equality (parents, DTN stats) asserted inside the "
            "measurement, no speedup floor at this scale."
        ),
    }


@smoke("perf-labeling")
def smoke_perf_labeling() -> Dict[str, Any]:
    import bench_perf_labeling

    rows, _ = bench_perf_labeling._measure_size((bench_perf_labeling.TOY_SIZE, 1))
    return {
        "title": "frozen labeling & routing kernels vs reference (smoke)",
        "header": bench_perf_labeling.HEADER,
        "rows": rows,
        "notes": (
            "Toy instance of benchmarks/bench_perf_labeling.py; exact "
            "output equality (labels, sets, routes; scores to 1e-9) "
            "asserted inside the measurement, no speedup floor at this "
            "scale."
        ),
    }


@smoke("perf-runtime")
def smoke_perf_runtime() -> Dict[str, Any]:
    import bench_perf_runtime

    rows, _ = bench_perf_runtime._measure_size((bench_perf_runtime.TOY_SIZE, 1))
    return {
        "title": "vector runtime plane vs scalar engine (smoke)",
        "header": bench_perf_runtime.HEADER,
        "rows": rows,
        "notes": (
            "Toy instance of benchmarks/bench_perf_runtime.py; bit-exact "
            "final state plus equal round and message counts asserted "
            "inside the measurement for every protocol, no speedup floor "
            "at this scale."
        ),
    }


@smoke("serving")
def smoke_serving() -> Dict[str, Any]:
    """Toy instance of benchmarks/bench_serving.py: answer equality and
    zero steady-state refreezes are asserted inside the measurement, so
    a divergent patch merge or a refreeze leak fails tier-1."""
    import bench_serving

    row, _, _ = bench_serving._measure_size(
        60, epochs=2, mutations=2, repeats=1, threshold=8
    )
    return {
        "title": "incremental serving vs refreeze-per-generation (smoke)",
        "header": bench_serving.HEADER,
        "rows": [row],
        "notes": (
            "Toy instance of benchmarks/bench_serving.py; answer "
            "equality between the stacks and zero repro.cache.frozen "
            "events during the serving run asserted, no speedup floor "
            "at this scale."
        ),
    }


@smoke("serving-write")
def smoke_serving_write() -> Dict[str, Any]:
    """Toy instance of benchmarks/bench_serving_write.py: reference
    verification, per-edge vs batched answer equality, and zero
    steady-state refreezes asserted — so a divergent batch application
    or a lost write fails tier-1."""
    import bench_serving_write

    row, _, checked, _ = bench_serving_write._measure_size(
        80, epochs=2, bursts=2, repeats=1, threshold=8
    )
    return {
        "title": "gateway-batched write path vs per-edge posture (smoke)",
        "header": bench_serving_write.HEADER,
        "rows": [row],
        "notes": (
            "Toy instance of benchmarks/bench_serving_write.py; "
            f"{checked} query-block answers verified against the "
            "reference kernels, posture answer equality and zero "
            "repro.cache.frozen events asserted, no speedup floor at "
            "this scale."
        ),
    }


@smoke("faults")
def smoke_faults() -> Dict[str, Any]:
    import bench_faults

    rows = bench_faults.fault_rows(
        drop_rates=(0.0, 0.2),
        dtn_kwargs={"n": 12, "end_time": 14.0, "n_messages": 6, "ttl": 8},
        rev_kwargs={"n": 12, "p": 0.2},
    )
    return {
        "title": "chaos degradation sweep (smoke)",
        "header": bench_faults.HEADER,
        "rows": rows,
    }


def run_all(out_dir: str = OUT_DIR, top_dir: str = TOP_DIR) -> Dict[str, TableResult]:
    """Run every smoke instance with tracing on, each under its own
    metrics registry; validate each emitted feed.

    ``top_dir`` receives the ``BENCH_smoke-*.json`` feeds and
    ``out_dir`` the ledger.  Raises ``AssertionError`` on any schema
    violation or when an instrumented runner observed no span duration.
    """
    was_enabled = trace.enabled()
    trace.enable()
    results: Dict[str, TableResult] = {}
    try:
        for name, runner in sorted(SMOKE_RUNNERS.items()):
            # A fresh registry per runner: each feed's metrics snapshot
            # and ledger record hold only what its own runner recorded.
            with scratch_registry(f"smoke-{name}") as registry:
                spec = runner()
                result = emit_table(
                    f"smoke-{name}",
                    spec["title"],
                    spec["header"],
                    spec["rows"],
                    notes=spec.get("notes", ""),
                    out_dir=out_dir,
                    top_dir=top_dir,
                )
            with open(result.bench_path) as handle:
                document = json.load(handle)
            problems = validate_bench_report(document)
            if problems:
                raise AssertionError(
                    f"smoke-{name}: schema violations: {problems}"
                )
            if document["rows"] == []:
                raise AssertionError(f"smoke-{name}: emitted no rows")
            if name in ("fig4", "dtn") and not any(
                key.endswith(".duration_s") for key in registry.snapshot()
            ):
                # instrumented paths must have observed a span
                raise AssertionError(f"smoke-{name}: no span duration observed")
            results[name] = result
    finally:
        if not was_enabled:
            trace.disable()
    return results


if __name__ == "__main__":
    outcomes = run_all()
    print(f"\nsmoke: {len(outcomes)} experiments emitted and validated")
