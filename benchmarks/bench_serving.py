"""Mixed mutate/query stream: incremental serving vs refreeze-per-generation.

Drives the same interleaved stream of edge mutations and point queries
(distances, NSF levels, landmark labels) through two stacks:

* **baseline** — the pre-serving posture: a dict graph mutated in
  place, where every query block calls ``graph.frozen()`` and pays a
  full refreeze for the generation bumped by the preceding mutation,
  then recomputes the NSF peel and landmark labels from scratch;
* **serving** — :class:`~repro.serving.state.GraphService` behind the
  :class:`~repro.serving.gateway.ServingGateway`: O(degree) patch-
  buffer mutations, lazily merged snapshots, incrementally repaired
  indexes, and distance queries answered by the service's hot-source
  store (one BFS sweep of the merged snapshot per new source, shared
  by every query from it; a held source is repaired, not re-swept,
  after a write).  Each block here draws a fresh random source, so
  every block sweeps once.

The stream is one :class:`_util.Case`: every answer is asserted equal
between the stacks before any timing is reported, and each stack
records into its own scratch registry.  The serving side's must hold
**zero** ``repro.cache.frozen`` refreezes (all snapshots come from the
vectorized patch-merge path).  The full run checks :data:`FLOORS`:
>= 5x mixed-stream queries/sec over the baseline.

    PYTHONPATH=src python benchmarks/bench_serving.py

writes the top-level ``BENCH_serving.json`` feed;
``tests/test_bench_perf.py`` runs the same harness at toy scale inside
tier-1.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import OUT_DIR, TOP_DIR, Case, TableResult, check_floors, emit_table, measure, speedups

EXPERIMENT = "serving"

#: Acceptance floor for the full run: mixed-stream queries/sec must be
#: at least this multiple of the refreeze-per-generation baseline.
FLOORS = {"stream": 5.0}

#: (baseline, serving) timing-key templates.
KEYS = ("baseline_{case}_n{n}", "serving_{case}_n{n}")

#: Sizes of the full run.
DEFAULT_SIZES: Tuple[int, ...] = (500, 2000)

HEADER = ["n", "m", "blocks", "queries", "baseline median s", "serving median s",
          "baseline q/s", "serving q/s", "speedup"]

#: Distance queries issued (and coalesced) per mutation sub-block.
FANOUT = 6


def build_workload(
    n: int, extra: float, epochs: int, mutations: int, seed: int
) -> Tuple[List[Tuple[int, int]], List[dict]]:
    """The seed edge list plus a deterministic mixed-stream script.

    Each epoch holds ``mutations`` sub-blocks; a sub-block toggles one
    churn pair (insert if absent, delete if present) and then issues
    ``FANOUT`` same-source distance queries plus one NSF-level and one
    landmark-label query.  Scripts are pure data so the baseline and
    the serving stack replay exactly the same stream.
    """
    from repro.graphs.generators import random_connected_graph

    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n, extra, rng)
    edges = [tuple(e) for e in graph.edges()]
    present = {tuple(sorted(e)) for e in edges}
    churn: List[Tuple[int, int]] = []
    while len(churn) < max(4, (epochs * mutations) // 2):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        pair = (min(u, v), max(u, v))
        if u != v and pair not in present and pair not in churn:
            churn.append(pair)
    script: List[dict] = []
    for block in range(epochs * mutations):
        pair = churn[block % len(churn)]
        source = int(rng.integers(n))
        targets = [int(t) for t in rng.integers(0, n, size=FANOUT)]
        probe = int(rng.integers(n))
        script.append(
            {
                "toggle": pair,
                "source": source,
                "targets": targets,
                "probe": probe,
            }
        )
    return edges, script


def make_graph(edges):
    from repro.graphs.graph import Graph

    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def run_baseline(edges, script, landmarks) -> List[object]:
    """Refreeze-per-generation: the repo's public query surface as-is.

    Every point query goes through the pre-serving APIs
    (``bfs_distances`` / ``nsf_levels`` / ``distance_gateway_labels``),
    each of which calls ``graph.frozen()`` internally — so the first
    query after each mutation pays a full refreeze, and with no
    coalescing layer every distance query re-runs its own BFS.
    """
    from repro.graphs.traversal import bfs_distances
    from repro.labeling.landmarks import distance_gateway_labels
    from repro.layering.nsf import nsf_levels

    graph = make_graph(edges)
    answers: List[object] = []
    for block in script:
        u, v = block["toggle"]
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)
        answers.append(nsf_levels(graph)[block["probe"]])
        answers.append(
            distance_gateway_labels(graph, landmarks).get(block["probe"])
        )
        for target in block["targets"]:
            answers.append(bfs_distances(graph, block["source"]).get(target))
    return answers


def run_serving(edges, script, landmarks, threshold) -> List[object]:
    """The incremental stack behind the async gateway."""
    from repro.serving import GraphService, ServingGateway

    service = GraphService(
        make_graph(edges), landmarks=landmarks, threshold=threshold
    )

    async def main() -> List[object]:
        answers: List[object] = []
        # max_batch matches the per-block fan-out so the coalesced
        # gather flushes on size; the index singletons flush on the
        # (short) deadline instead of stalling a mostly-empty batch.
        async with ServingGateway(
            service, max_batch=FANOUT, max_delay=0.0002
        ) as gateway:
            for block in script:
                u, v = block["toggle"]
                if service.has_edge(u, v):
                    gateway.delete_edge(u, v)
                else:
                    gateway.insert_edge(u, v)
                # Index probes first: the repair merges (and caches)
                # the snapshot, so the distance fan-out below rides
                # the plain frozen BFS kernel off the merged CSR.
                answers.append(await gateway.nsf_level(block["probe"]))
                answers.append(await gateway.gateway_label(block["probe"]))
                answers.extend(
                    await asyncio.gather(
                        *[
                            gateway.distance(block["source"], target)
                            for target in block["targets"]
                        ]
                    )
                )
        return answers

    return asyncio.run(main())


def workload(size: int, epochs: int = 6, mutations: int = 4):
    """``(edges, script, landmarks)`` of the mixed stream at ``size``."""
    from repro.labeling.landmarks import select_landmarks

    extra = 4.0 / size  # ~2n extra edge endpoints -> m ~ 3n
    edges, script = build_workload(size, extra, epochs, mutations, size)
    return edges, script, select_landmarks(make_graph(edges), 4)


def cases(size: int, w, threshold: int = 64) -> List[Case]:
    """The one measured case: the mixed stream through both stacks."""
    edges, script, landmarks = w
    return [
        Case(
            "stream",
            size,
            lambda: run_baseline(edges, script, landmarks),
            lambda: run_serving(edges, script, landmarks, threshold),
        )
    ]


def refreezes(registry) -> int:
    """Frozen-cache refreezes recorded in ``registry``."""
    from repro.observability.telemetry import cache_counts

    return sum(
        counts.get("refreeze", 0) for counts in cache_counts(registry).values()
    )


def _measure_size(
    size: int, epochs: int, mutations: int, repeats: int, threshold: int
) -> Tuple[Tuple[object, ...], Dict[str, float], int]:
    """Measure the stream at one size: ``(row, timings, baseline
    refreezes)``.  Answer equality is asserted inside the measurement;
    the baseline must record refreezes and the serving side none."""
    w = workload(size, epochs, mutations)
    edges, script, _ = w
    queries = len(script) * (FANOUT + 2)
    (case,) = cases(size, w, threshold)
    measured = measure(case, repeats)
    baseline_refreezes = refreezes(measured.reference_registry)
    serving_refreezes = refreezes(measured.fast_registry)
    if baseline_refreezes == 0 or serving_refreezes != 0:
        raise AssertionError(
            f"frozen-cache refreezes at n={size}: baseline {baseline_refreezes} "
            "(0 means its scratch registry lost them, so the serving zero "
            f"proves nothing), serving {serving_refreezes} (must be 0)"
        )
    ref_s, fast_s, speedup = measured.cells()
    row = (
        size, make_graph(edges).num_edges, len(script), queries, ref_s, fast_s,
        round(queries / measured.reference.median_s, 1),
        round(queries / measured.fast.median_s, 1),
        speedup,
    )
    return row, measured.timings(KEYS), baseline_refreezes


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    epochs: int = 6,
    mutations: int = 4,
    repeats: int = 3,
    threshold: int = 64,
    out_dir: str = OUT_DIR,
    top_dir: str = TOP_DIR,
    floors: Optional[Mapping[str, float]] = None,
) -> TableResult:
    """Benchmark the mixed stream at every size.

    Asserts answer equality between the stacks and zero refreezes
    during the serving runs regardless of ``floors``; the full run
    passes :data:`FLOORS` to enforce the >= 5x queries/sec floor at the
    largest size.
    """
    from repro.observability.telemetry import serving_counts

    rows: List[Tuple[object, ...]] = []
    timings: Dict[str, float] = {}
    baseline_refreezes = 0
    for size in sizes:
        row, size_timings, size_refreezes = _measure_size(
            size, epochs, mutations, repeats, threshold
        )
        rows.append(row)
        timings.update(size_timings)
        baseline_refreezes += size_refreezes
    if floors:
        check_floors(speedups(HEADER, rows), floors)
    counts = serving_counts()
    return emit_table(
        EXPERIMENT,
        "mixed mutate/query stream: refreeze-per-generation vs incremental "
        f"serving (median of {repeats}, answer equality asserted)",
        HEADER,
        rows,
        notes=(
            "Each block toggles one churn edge then issues "
            f"{FANOUT} same-source distance queries (answered from one "
            "BFS sweep of the merged snapshot) plus one NSF-level and "
            "one landmark-label query (incremental repair).  Baseline pays "
            "a full refreeze + index rebuild per block "
            f"({baseline_refreezes} refreezes, recorded in its own scratch "
            "registry so they cannot leak into this feed).  Serving runs "
            "recorded zero repro.cache.frozen events; coalesce ratio "
            f"{counts['coalesce_ratio']:.2f} "
            f"({counts['queries'].get('distance', 0)} distance queries over "
            f"{counts['sweeps']} sweeps), patch events {counts['patch']}."
        ),
        timings=timings,
        out_dir=out_dir,
        top_dir=top_dir,
    )


if __name__ == "__main__":
    result = run(floors=FLOORS)
    print(f"\nserving: emitted {result.bench_path}")
