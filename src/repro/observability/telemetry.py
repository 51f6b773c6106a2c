"""Cache, dispatch, and shard telemetry for the frozen fast paths.

Counter families on the global metrics registry:

``repro.cache.frozen{owner=...,event=hit|miss|refreeze}``
    Emitted by :func:`repro.graphs.csr.generation_cached`, the one
    shared frozen-snapshot cache idiom.  A *miss* is the first freeze
    for an owner, a *refreeze* is a rebuild after the owner mutated,
    and a *hit* reuses the cached snapshot.  ``owner`` is the owner's
    class name (``Graph``, ``DiGraph``, ``EvolvingGraph``).

``repro.dispatch.calls{kernel=...,path=fast|reference|...}``
    Emitted at every ``FROZEN_MIN_*`` gate: one count per public call,
    labeled with which implementation actually ran.  Beyond the two
    gate paths, snapshot constructions are labeled
    ``kernel=graphs.freeze`` with ``path=build|arrays|patch-merge``,
    so "how often was the graph rebuilt?" is answerable from a
    snapshot.

``repro.shard.sweeps{kernel=...}``
    One count per streamed source shard a kernel processed.

``repro.serving.*``
    The incremental serving plane (:mod:`repro.serving`):
    ``repro.serving.patch{event=insert|delete|cancel|merge|rebase}``
    counts patch-buffer mutations and lazy CSR merges
    (:mod:`repro.graphs.delta`);
    ``repro.serving.repairs{index=nsf|labels|pagerank|mis|cds|distances,mode=...}``
    counts incremental index repairs vs full rebuilds (``distances``:
    the hot-source store's level-array repairs);
    ``repro.serving.queries{kind=...}`` / ``repro.serving.batches`` /
    ``repro.serving.sweeps`` / ``repro.serving.retries`` count gateway
    traffic and the BFS sweeps distance queries actually ran
    (coalesce ratio = queries / sweeps), and
    ``repro.serving.point_searches`` the distance queries answered by a
    bidirectional point search instead of a level array, with
    ``repro.serving.batch_size`` (histogram) and
    ``repro.serving.queue_depth`` (gauge) recording flush shape.

    The write path adds ``repro.serving.mutations{kind=insert|delete}``
    (mutations accepted by the gateway),
    ``repro.serving.batch.writes`` / ``repro.serving.batch.write_size``
    (one count per write barrier, histogram of edge ops per barrier —
    the write-side coalesce ratio is ops / writes), and
    ``repro.serving.batch.writers`` (histogram of distinct writers per
    write barrier — the fairness signal).  Bulk
    patch applications are dispatch-labeled
    ``kernel=graphs.apply_batch, path=patch-batch``.

All helpers are one registry lookup plus an integer add, and they are
called at entry-point / per-shard granularity (never per node / per
contact), so they stay within the disabled-mode overhead budget.
Import the module from kernel code — not individual counters — so
tests can swap the registry via
:func:`repro.observability.metrics.set_registry`.
"""

from __future__ import annotations

import re
from typing import Any, Dict

from repro.observability.metrics import MetricsRegistry, get_registry

CACHE_METRIC = "repro.cache.frozen"
DISPATCH_METRIC = "repro.dispatch.calls"
SHARD_METRIC = "repro.shard.sweeps"
SERVING_PATCH_METRIC = "repro.serving.patch"
SERVING_REPAIR_METRIC = "repro.serving.repairs"
SERVING_QUERY_METRIC = "repro.serving.queries"
SERVING_BATCH_METRIC = "repro.serving.batches"
SERVING_BATCH_SIZE_METRIC = "repro.serving.batch_size"
SERVING_QUEUE_DEPTH_METRIC = "repro.serving.queue_depth"
SERVING_SWEEP_METRIC = "repro.serving.sweeps"
SERVING_POINT_SEARCH_METRIC = "repro.serving.point_searches"
SERVING_RETRY_METRIC = "repro.serving.retries"
SERVING_MUTATION_METRIC = "repro.serving.mutations"
SERVING_WRITE_BATCH_METRIC = "repro.serving.batch.writes"
SERVING_WRITE_SIZE_METRIC = "repro.serving.batch.write_size"
SERVING_WRITERS_METRIC = "repro.serving.batch.writers"

_LABELED = re.compile(r"^(?P<name>[^{]+)\{(?P<labels>.*)\}$")


def record_cache_event(owner: Any, event: str) -> None:
    """Count one frozen-cache *hit* / *miss* / *refreeze* for ``owner``."""
    get_registry().counter(
        CACHE_METRIC, {"owner": type(owner).__name__, "event": event}
    ).inc()


def record_dispatch(kernel: str, fast: bool = True, path: str = None) -> None:
    """Count one kernel call routed to the fast or reference path.

    ``path`` overrides the fast/reference label for routes outside the
    two-way gates — e.g. ``"build"`` / ``"arrays"`` for snapshot
    constructions.
    """
    if path is None:
        path = "fast" if fast else "reference"
    get_registry().counter(
        DISPATCH_METRIC, {"kernel": kernel, "path": path}
    ).inc()


def record_shard(kernel: str, count: int = 1) -> None:
    """Count ``count`` streamed source shards processed by ``kernel``."""
    get_registry().counter(SHARD_METRIC, {"kernel": kernel}).inc(int(count))


def record_patch_event(event: str, count: int = 1) -> None:
    """Count one patch-buffer event (insert/delete/cancel/merge/rebase)."""
    get_registry().counter(SERVING_PATCH_METRIC, {"event": event}).inc(int(count))


def record_repair(index: str, mode: str) -> None:
    """Count one incremental-index repair, labeled with how it resolved.

    ``index`` names the maintained structure (a
    :data:`repro.serving.state.INDEXES` name);
    ``mode`` is ``replay`` / ``relax`` for a true incremental repair,
    ``full`` for a fall-back rebuild, ``noop`` when nothing was dirty.
    """
    get_registry().counter(
        SERVING_REPAIR_METRIC, {"index": index, "mode": mode}
    ).inc()


def record_serving_query(kind: str, count: int = 1) -> None:
    """Count ``count`` point queries accepted by the serving gateway."""
    get_registry().counter(SERVING_QUERY_METRIC, {"kind": kind}).inc(int(count))


def record_serving_batch(size: int, depth: int) -> None:
    """Record one gateway flush: batch counter, size histogram, queue gauge."""
    registry = get_registry()
    registry.counter(SERVING_BATCH_METRIC).inc()
    registry.histogram(SERVING_BATCH_SIZE_METRIC).observe(float(size))
    registry.gauge(SERVING_QUEUE_DEPTH_METRIC).set(float(depth))


def record_serving_sweep(count: int = 1) -> None:
    """Count BFS sweeps run to answer distance queries (store misses)."""
    get_registry().counter(SERVING_SWEEP_METRIC).inc(int(count))


def record_serving_point_search(count: int = 1) -> None:
    """Count distance queries answered by a point search (no sweep)."""
    get_registry().counter(SERVING_POINT_SEARCH_METRIC).inc(int(count))


def record_serving_retry(count: int = 1) -> None:
    """Count queries re-queued after a mid-batch crash (never lost)."""
    get_registry().counter(SERVING_RETRY_METRIC).inc(int(count))


def record_serving_mutation(kind: str, count: int = 1) -> None:
    """Count ``count`` edge mutations accepted by the serving gateway."""
    get_registry().counter(SERVING_MUTATION_METRIC, {"kind": kind}).inc(
        int(count)
    )


def record_write_batch(ops: int) -> None:
    """Record one write barrier carrying ``ops`` edge operations."""
    registry = get_registry()
    registry.counter(SERVING_WRITE_BATCH_METRIC).inc()
    registry.histogram(SERVING_WRITE_SIZE_METRIC).observe(float(ops))


def record_batch_writers(count: int) -> None:
    """Record how many distinct writers one write barrier drained."""
    get_registry().histogram(SERVING_WRITERS_METRIC).observe(float(count))


def _labeled_counts(metric_name: str, registry: MetricsRegistry):
    """Yield ``(labels_dict, value)`` for every series of ``metric_name``."""
    for key, value in registry.snapshot().items():
        match = _LABELED.match(key)
        if match is None or match.group("name") != metric_name:
            continue
        labels: Dict[str, str] = {}
        for pair in match.group("labels").split(","):
            label, _, label_value = pair.partition("=")
            labels[label] = label_value
        yield labels, value


def cache_counts(registry: MetricsRegistry = None) -> Dict[str, Dict[str, int]]:
    """``{owner: {event: count}}`` view of the frozen-cache counters."""
    registry = registry if registry is not None else get_registry()
    out: Dict[str, Dict[str, int]] = {}
    for labels, value in _labeled_counts(CACHE_METRIC, registry):
        owner = labels.get("owner", "?")
        out.setdefault(owner, {})[labels.get("event", "?")] = int(value)
    return out


def dispatch_counts(registry: MetricsRegistry = None) -> Dict[str, Dict[str, int]]:
    """``{kernel: {path: count}}`` view of the dispatch counters."""
    registry = registry if registry is not None else get_registry()
    out: Dict[str, Dict[str, int]] = {}
    for labels, value in _labeled_counts(DISPATCH_METRIC, registry):
        kernel = labels.get("kernel", "?")
        out.setdefault(kernel, {})[labels.get("path", "?")] = int(value)
    return out


def serving_counts(registry: MetricsRegistry = None) -> Dict[str, Any]:
    """Serving-plane counters in one nested view.

    ``{"patch": {event: count}, "repairs": {index: {mode: count}},
    "queries": {kind: count}, "batches": n, "sweeps": n,
    "point_searches": n, "retries": n, "coalesce_ratio": distance
    queries/sweeps, "mutations": {kind: count},
    "write_batches": n, "write_coalesced": 0, "write_coalesce_ratio":
    mutations/write_batches}`` — the shape the serving benchmarks and
    ``benchmarks/e2e/layers.py`` read.  ``write_coalesced`` always
    reads 0: the sequence barrier applies every mutation through its own
    service call and nets nothing away, and the key stays only because
    the end-to-end benchmark's layer table reads it.  ``point_searches``
    counts the distance queries of sources the hot-source store does not
    admit, each answered by one bidirectional point search.  They are not
    sweeps, so they count in ``coalesce_ratio``'s numerator only.
    """
    registry = registry if registry is not None else get_registry()
    patch: Dict[str, int] = {}
    for labels, value in _labeled_counts(SERVING_PATCH_METRIC, registry):
        patch[labels.get("event", "?")] = int(value)
    repairs: Dict[str, Dict[str, int]] = {}
    for labels, value in _labeled_counts(SERVING_REPAIR_METRIC, registry):
        index = labels.get("index", "?")
        repairs.setdefault(index, {})[labels.get("mode", "?")] = int(value)
    queries: Dict[str, int] = {}
    for labels, value in _labeled_counts(SERVING_QUERY_METRIC, registry):
        queries[labels.get("kind", "?")] = int(value)
    mutations: Dict[str, int] = {}
    for labels, value in _labeled_counts(SERVING_MUTATION_METRIC, registry):
        mutations[labels.get("kind", "?")] = int(value)
    snapshot = registry.snapshot()
    batches = int(snapshot.get(SERVING_BATCH_METRIC, 0))
    sweeps = int(snapshot.get(SERVING_SWEEP_METRIC, 0))
    point_searches = int(snapshot.get(SERVING_POINT_SEARCH_METRIC, 0))
    retries = int(snapshot.get(SERVING_RETRY_METRIC, 0))
    write_batches = int(snapshot.get(SERVING_WRITE_BATCH_METRIC, 0))
    total_mutations = sum(mutations.values())
    return {
        "patch": patch,
        "repairs": repairs,
        "queries": queries,
        "batches": batches,
        "sweeps": sweeps,
        "point_searches": point_searches,
        "retries": retries,
        # Only distance queries ride BFS sweeps; index probes do not.
        "coalesce_ratio": (
            (queries.get("distance", 0) / sweeps) if sweeps else 0.0
        ),
        "mutations": mutations,
        "write_batches": write_batches,
        "write_coalesced": 0,
        "write_coalesce_ratio": (
            (total_mutations / write_batches) if write_batches else 0.0
        ),
    }
