"""The layer map: which library functions the traced run wraps, and the
per-layer metrics read off the spans and counters afterwards.

Each span is named ``<layer>.<part>`` after the ``repro`` subpackage
the wrapped function lives in.  A metric ending in ``_s`` is the self
time of the span with the same stem; one ending in ``.calls`` is how
often that span fired.  The workloads each per-layer metric is
*declared* for are the ones whose traced run must fire it: a declared
span that never fires fails the run, so a moved or renamed function
cannot quietly report zero.  On other workloads the metric reads 0.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from e2e.trace import Point, SpanRecorder

STATIC = "static-structures"
DYNAMIC = "dynamic-dtn"
READ = "serve-read"
WRITE = "serve-write"
WORKLOADS = (STATIC, DYNAMIC, READ, WRITE)
SERVING = (READ, WRITE)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    declared: Tuple[str, ...] = ()


def _s(name: str, *declared: str) -> LayerMetric:
    return LayerMetric(f"{name}_s", "s", "lower", declared)


def _calls(name: str, *declared: str) -> LayerMetric:
    return LayerMetric(f"{name}.calls", "count", "lower", declared)


DTN_ROUTERS = (
    "direct",
    "epidemic",
    "spray-and-wait",
    "prophet",
    "forwarding-set",
    "fspace-greedy",
)

PER_LAYER: Tuple[LayerMetric, ...] = (
    _s("datasets.generate", *WORKLOADS),
    _s("graphs.freeze", STATIC, *SERVING),
    _s("graphs.interval", STATIC),
    _s("graphs.csr", STATIC),
    _s("graphs.metrics", STATIC),
    _s("graphs.traversal", STATIC),
    _s("graphs.delta.bfs", READ),
    _calls("graphs.delta.bfs", READ),
    _s("graphs.delta.apply", *SERVING),
    _s("graphs.delta.snapshot", *SERVING),
    LayerMetric("graphs.delta.merges", "count", "lower"),
    _s("layering.nsf", STATIC),
    _s("layering.reversal", STATIC),
    _s("layering.nsf.update", *SERVING),
    _calls("layering.nsf.update", *SERVING),
    _s("labeling.labels.update", *SERVING),
    _calls("labeling.labels.update", *SERVING),
    _s("labeling.pagerank.update", *SERVING),
    _calls("labeling.pagerank.update", *SERVING),
    _s("labeling.mis.update", *SERVING),
    _calls("labeling.mis.update", *SERVING),
    _s("labeling.mis", STATIC),
    _s("labeling.safety", STATIC),
    _s("remapping.embed", STATIC),
    _s("remapping.distance_table", STATIC),
    _calls("remapping.distance_table", STATIC),
    _s("remapping.feature_space", DYNAMIC),
    _s("trimming.spanner", STATIC),
    _s("trimming.replacement", DYNAMIC),
    LayerMetric("trimming.node_trimmable.calls", "count", "lower", (DYNAMIC,)),
    _s("trimming.forwarding_sets", DYNAMIC),
    _s("temporal.evolve", DYNAMIC),
    _s("temporal.freeze", DYNAMIC),
    _s("temporal.connectivity", DYNAMIC),
    _s("dtn.compare", DYNAMIC),
    *(_s(f"dtn.{router}", DYNAMIC) for router in DTN_ROUTERS),
    LayerMetric("dtn.prophet.on_contact.calls", "count", "lower", (DYNAMIC,)),
    LayerMetric("dtn.contacts", "count", "lower", (DYNAMIC,)),
    LayerMetric("dtn.fast_path_runs", "count", "higher", (DYNAMIC,)),
    _s("runtime.engine", STATIC),
    LayerMetric("runtime.engine.rounds", "count", "lower", (STATIC,)),
    LayerMetric("runtime.engine.messages", "count", "lower", (STATIC,)),
    _s("runtime.vector", STATIC),
    LayerMetric("runtime.vector.rounds", "count", "lower", (STATIC,)),
    LayerMetric("runtime.vector.messages", "count", "lower", (STATIC,)),
    LayerMetric("faults.events", "count", "lower", (STATIC,)),
    _s("serving.service", *SERVING),
    _s("serving.gateway.flush", *SERVING),
    _s("serving.loop", *SERVING),
    LayerMetric("serving.gateway.self_s", "s", "lower"),
    LayerMetric("serving.gateway.batches", "count", "lower"),
    LayerMetric("serving.gateway.batch_size_mean", "requests", "higher"),
    LayerMetric("serving.gateway.write_barriers", "count", "lower"),
    LayerMetric("serving.gateway.coalesced", "count", "higher"),
    LayerMetric("serving.coalesce_ratio", "ratio", "higher"),
    LayerMetric("serving.service_busy_share", "share", "lower"),
    LayerMetric("serving.query_p50_ms", "ms", "lower"),
    LayerMetric("serving.query_p99_ms", "ms", "lower"),
    LayerMetric("serving.write_p50_ms", "ms", "lower"),
    LayerMetric("serving.write_p99_ms", "ms", "lower"),
    LayerMetric("loadgen.late_p99_ms", "ms", "lower"),
    LayerMetric("loadgen.idle_s", "s", "lower"),
    LayerMetric("trace.unattributed_share", "share", "lower"),
    LayerMetric("trace.overhead_share", "share", "lower"),
)


def _count_stats(prefix: str):
    """``on_return`` hook for engine runs: add their RunStats totals."""

    def hook(recorder: SpanRecorder, args: tuple, stats) -> None:
        recorder.counts[f"{prefix}.rounds"] += stats.rounds
        recorder.counts[f"{prefix}.messages"] += stats.messages_sent

    return hook


def _keep_session(recorder: SpanRecorder, args: tuple, session) -> None:
    recorder.kept["faults"].append(session)


def _dtn_contacts(recorder: SpanRecorder, args: tuple, stats) -> None:
    contacts = args[0].metrics.counter("repro.dtn.contacts").value
    recorder.counts["dtn.contacts"] += contacts


def _service_points(*methods: str) -> List[Point]:
    return [
        Point(f"repro.serving.state:GraphService.{method}", "serving.service")
        for method in methods
    ]


#: The instrumented functions, shared by every workload (a workload
#: that never calls one simply records nothing for it).
POINTS: Tuple[Point, ...] = (
    Point("repro.datasets.gnutella:gnutella_largest_scc", "datasets.generate"),
    Point("repro.datasets.human_contacts:rate_model_trace", "datasets.generate"),
    Point("repro.graphs.csr:FrozenGraph.__init__", "graphs.freeze"),
    Point("repro.graphs.interval:is_chordal", "graphs.interval"),
    Point("repro.graphs.interval:is_interval_graph", "graphs.interval"),
    Point("repro.graphs.csr:FrozenGraph.average_clustering", "graphs.csr"),
    Point("repro.graphs.csr:FrozenGraph.is_connected", "graphs.csr"),
    Point("repro.graphs.csr:FrozenGraph.diameter", "graphs.csr"),
    Point("repro.graphs.metrics:degree_sequence", "graphs.metrics"),
    Point("repro.graphs.metrics:fit_power_law", "graphs.metrics"),
    Point("repro.graphs.traversal:is_connected", "graphs.traversal"),
    Point("repro.graphs.delta:PatchedGraph.bfs_levels", "graphs.delta.bfs"),
    Point("repro.graphs.delta:PatchedGraph.apply_batch", "graphs.delta.apply"),
    Point("repro.graphs.delta:PatchedGraph.insert_edge", "graphs.delta.apply"),
    Point("repro.graphs.delta:PatchedGraph.delete_edge", "graphs.delta.apply"),
    Point("repro.graphs.delta:PatchedGraph.snapshot", "graphs.delta.snapshot"),
    Point("repro.graphs.delta:PatchedGraph.merge", count="graphs.delta.merges"),
    Point("repro.layering.nsf:nsf_levels", "layering.nsf"),
    Point(
        "repro.layering.link_reversal_distributed:distributed_full_reversal",
        "layering.reversal",
    ),
    Point("repro.runtime.vector:vector_full_reversal", "layering.reversal"),
    Point("repro.layering.incremental:IncrementalNSF.update", "layering.nsf.update"),
    Point(
        "repro.labeling.incremental:IncrementalLandmarkLabels.update",
        "labeling.labels.update",
    ),
    Point(
        "repro.labeling.incremental:IncrementalPageRank.update",
        "labeling.pagerank.update",
    ),
    Point("repro.labeling.incremental:IncrementalMIS.update", "labeling.mis.update"),
    Point("repro.runtime.vector:vector_mis", "labeling.mis"),
    Point("repro.runtime.vector:vector_safety_levels", "labeling.safety"),
    Point("repro.remapping.hyperbolic:embed_tree", "remapping.embed"),
    Point(
        "repro.remapping.hyperbolic:HyperbolicEmbedding.distance_table",
        "remapping.distance_table",
    ),
    Point(
        "repro.remapping.feature_space:FeatureSpace.__init__",
        "remapping.feature_space",
    ),
    Point("repro.trimming.spanners:greedy_spanner", "trimming.spanner"),
    Point("repro.trimming.static_rules:trim_nodes", "trimming.replacement"),
    Point(
        "repro.trimming.static_rules:node_trimmable",
        count="trimming.node_trimmable.calls",
    ),
    Point(
        "repro.trimming.forwarding_set:optimal_forwarding_sets",
        "trimming.forwarding_sets",
    ),
    Point("repro.temporal.contacts:ContactTrace.to_evolving", "temporal.evolve"),
    Point("repro.temporal.frozen:FrozenContacts.__init__", "temporal.freeze"),
    Point("repro.temporal.connectivity:dynamic_diameter", "temporal.connectivity"),
    Point("repro.dtn.simulator:run_protocol_comparison", "dtn.compare"),
    Point(
        "repro.dtn.simulator:DTNSimulation.run",
        span=lambda args: f"dtn.{args[0].router.name}",
        on_return=_dtn_contacts,
    ),
    Point(
        "repro.dtn.routers:ProphetRouter.on_contact",
        count="dtn.prophet.on_contact.calls",
    ),
    Point(
        "repro.runtime.engine:Network.run",
        "runtime.engine",
        on_return=_count_stats("runtime.engine"),
    ),
    Point(
        "repro.runtime.vector:VectorEngine.run",
        "runtime.vector",
        on_return=_count_stats("runtime.vector"),
    ),
    Point("repro.faults.plan:FaultPlan.start", on_return=_keep_session),
    *_service_points(
        "__init__",
        "insert_edge",
        "delete_edge",
        "apply_batch",
        "has_edge",
        "distances_from",
        "distance",
        "nsf_level",
        "gateway_label",
        "pagerank_score",
        "mis_member",
    ),
    Point(
        "repro.serving.gateway:ServingGateway._execute",
        "serving.gateway.flush",
        flush=lambda args: args[0].batches_flushed + 1,
    ),
    # Every event-loop callback (task step): the gateway's request
    # plumbing and the clients, around the flushes they run.
    Point("asyncio.events:Handle._run", "serving.loop"),
)


@contextlib.contextmanager
def traced():
    """Wrap every point, with library telemetry in a scratch registry.

    Yields ``(recorder, registry)``; the originals and the previous
    registry are back in place when the block ends.
    """
    from repro.observability.metrics import MetricsRegistry, set_registry

    registry = MetricsRegistry("e2e-trace")
    recorder = SpanRecorder()
    previous = set_registry(registry)
    try:
        with recorder:
            recorder.install(POINTS)
            yield recorder, registry
    finally:
        set_registry(previous)


def layer_values(
    recorder: SpanRecorder, registry, windows, workload: str, report
) -> Dict[str, float]:
    """The per-layer metrics of a traced run over its timed ``windows``.

    Fails ``report`` for every metric declared for ``workload`` that
    never fired.
    """
    from repro.observability.telemetry import dispatch_counts, serving_counts

    self_times = recorder.self_times()
    counts = recorder.counts
    values: Dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.name.endswith("_s"):
            values[metric.name] = self_times.get(metric.name[:-2], 0.0)
        elif metric.name.endswith(".calls") and metric.name not in counts:
            values[metric.name] = float(counts.get(metric.name[: -len(".calls")], 0))
        else:
            values[metric.name] = float(counts.get(metric.name, 0))
    serving = serving_counts(registry)
    values.update(
        {
            "faults.events": float(sum(len(s.ledger) for s in recorder.kept["faults"])),
            "dtn.fast_path_runs": float(
                dispatch_counts(registry).get("dtn.run", {}).get("fast", 0)
            ),
            "serving.gateway.batches": float(serving["batches"]),
            "serving.gateway.batch_size_mean": registry.histogram(
                "repro.serving.batch_size"
            ).mean,
            "serving.gateway.write_barriers": float(serving["write_batches"]),
            "serving.gateway.coalesced": float(serving["write_coalesced"]),
            "serving.coalesce_ratio": serving["queries"].get("distance", 0)
            / max(serving["sweeps"], 1),
        }
    )
    wall = sum(hi - lo for lo, hi in windows)
    covered = sum(recorder.covered(lo, hi) for lo, hi in windows)
    values["trace.unattributed_share"] = 1.0 - covered / wall
    for metric in PER_LAYER:
        if workload in metric.declared and not values[metric.name]:
            report.fail("trace", f"declared metric {metric.name} never fired")
    return values
