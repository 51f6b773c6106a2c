"""Million-node benchmark for the source-sharded kernels.

The n = 10^6 tier, in two acts:

1. **Verification tier** (small n): the degree-ordered generator's
   direct-to-CSR freeze is compared cell-for-cell against freezing the
   dict-graph twin, and every sharded kernel is asserted bit-exact
   against its unsharded form — so the scale tier below times code
   whose outputs are already proven.
2. **Scale tier** (n = 10^6): generate a degree-ordered Chung–Lu graph
   at a million nodes, freeze it, and run the source-sharded kernels
   (sampled all-pairs distance sums, eccentricities, landmark labels)
   plus full-graph components under :data:`MEMORY_BUDGET`.  Each
   kernel runs inside a span with tracer memory capture on; the
   measured peak must stay under :data:`CEILING_MIB`, and the per-span
   peaks flow into the ``repro.perf/v1`` ledger where the
   ``REPRO_PERF_GATE`` regression gate treats a ceiling blowout like a
   slowdown.

    PYTHONPATH=src python benchmarks/bench_perf_scale.py

writes ``benchmarks/out/perf-scale.{txt,json}`` plus the top-level
``BENCH_perf-scale.json`` feed; ``tests/test_bench_perf.py`` runs the
same harness at toy scale inside tier-1.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import OUT_DIR, TOP_DIR, TableResult, emit_table
from repro.graphs.csr import FrozenGraph, shard_sources
from repro.graphs.generators import degree_ordered_graph, degree_ordered_reference
from repro.observability import get_tracer
from repro.observability.tracing import memory_capture

EXPERIMENT = "perf-scale"

#: The acceptance tier: one million nodes.
SCALE_N = 1_000_000

#: Small tier where sharded outputs are proven bit-exact first.
VERIFY_N = 2500

AVG_DEGREE = 8.0
EXPONENT = 2.5

#: Per-shard working-set budget handed to :func:`shard_sources`.
MEMORY_BUDGET = 512 * 1024 * 1024

#: Hard tracemalloc ceiling (MiB) each sharded kernel span must respect
#: at n = 10^6.  The graph arrays themselves predate tracing, so this
#: bounds exactly what the budget promises to bound: kernel working set.
CEILING_MIB = 1536.0

#: Sampled source counts for the scale tier (full all-pairs at 10^6 is
#: ~10^12 distances — the sampled sweep is the honest workload).
SAMPLE_SOURCES = 512
LANDMARKS = 1024


# ----------------------------------------------------------------------
# verification tier
# ----------------------------------------------------------------------
def _verify(n: int, budget: int, rows: List[Tuple[object, ...]]) -> None:
    """Prove generator + sharded kernels bit-exact at small n."""
    rng_seed = 7
    fg = degree_ordered_graph(n, AVG_DEGREE, EXPONENT, np.random.default_rng(rng_seed))
    twin = FrozenGraph(
        degree_ordered_reference(n, AVG_DEGREE, EXPONENT, np.random.default_rng(rng_seed))
    )
    if not (
        np.array_equal(fg.indptr, twin.indptr)
        and np.array_equal(fg.indices, twin.indices)
    ):
        raise AssertionError("degree_ordered_graph CSR diverges from dict-graph freeze")

    checks = 0
    if not np.array_equal(
        fg.all_pairs_distance_sums(), fg.all_pairs_distance_sums(memory_budget=budget)
    ):
        raise AssertionError("sharded distance sums diverge")
    checks += 1
    if not np.array_equal(
        fg.eccentricities(), fg.eccentricities(memory_budget=budget)
    ):
        raise AssertionError("sharded eccentricities diverge")
    checks += 1
    if fg.closeness_centrality() != fg.closeness_centrality(memory_budget=budget):
        raise AssertionError("sharded closeness diverges")
    checks += 1
    landmarks = np.arange(0, min(n, 200), dtype=np.int64)
    base = fg.multi_source_labels(landmarks)
    sharded = fg.multi_source_labels(landmarks, memory_budget=1)
    if not (
        np.array_equal(base[0], sharded[0]) and np.array_equal(base[1], sharded[1])
    ):
        raise AssertionError("sharded landmark labels diverge")
    checks += 1
    rows.append(
        (
            "verify",
            fg.n,
            int(fg.indices.shape[0] // 2),
            f"bit-exact x{checks}",
            "-",
            "-",
            "-",
            "-",
        )
    )


# ----------------------------------------------------------------------
# scale tier
# ----------------------------------------------------------------------
def _peak_mib(span_name: str) -> float:
    """Max tracemalloc peak (MiB) over the named tracer spans."""
    peaks = [
        record["peak_kib"]
        for record in get_tracer().spans(span_name)
        if "peak_kib" in record
    ]
    return max(peaks) / 1024.0 if peaks else 0.0


def _run_scale_kernel(
    name: str,
    fn,
    fg: FrozenGraph,
    sources: int,
    budget: int,
    ceiling_mib: float,
    rows: List[Tuple[object, ...]],
    timings: Dict[str, float],
) -> None:
    """Time one sharded kernel under the ceiling; emit its table row."""
    span = f"repro.bench.scale.{name}"
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()  # isolate this kernel's high-water mark
    start = time.perf_counter()
    with get_tracer().span(span, kernel=name, n=fg.n):
        fn()
    wall = time.perf_counter() - start
    peak_mib = _peak_mib(span)
    if peak_mib > ceiling_mib:
        raise AssertionError(
            f"{name} at n={fg.n}: peak {peak_mib:.0f} MiB exceeds the "
            f"{ceiling_mib:.0f} MiB ceiling"
        )
    plan = shard_sources(
        sources, memory_budget=budget, n=fg.n, edges=int(fg.indices.shape[0])
    )
    timings[f"{name}_median_s"] = wall
    rows.append(
        (
            "scale",
            fg.n,
            int(fg.indices.shape[0] // 2),
            name,
            round(wall, 3),
            round(peak_mib, 1),
            round(ceiling_mib, 1),
            plan.shards,
        )
    )


def _scale(
    n: int,
    budget: int,
    ceiling_mib: float,
    rows: List[Tuple[object, ...]],
    timings: Dict[str, float],
) -> None:
    """Generate, freeze, and run the sharded kernels at ``n`` nodes."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    fg = degree_ordered_graph(n, AVG_DEGREE, EXPONENT, rng)
    timings["generate_s"] = time.perf_counter() - start

    sample = np.linspace(0, fg.n - 1, num=min(SAMPLE_SOURCES, fg.n), dtype=np.int64)
    sample = np.unique(sample)
    landmarks = np.arange(min(LANDMARKS, fg.n), dtype=np.int64)

    with memory_capture():
        _run_scale_kernel(
            "distance-sums",
            lambda: fg.all_pairs_distance_sums(sources=sample, memory_budget=budget),
            fg,
            sample.size,
            budget,
            ceiling_mib,
            rows,
            timings,
        )
        _run_scale_kernel(
            "eccentricities",
            lambda: fg.eccentricities(sources=sample, memory_budget=budget),
            fg,
            sample.size,
            budget,
            ceiling_mib,
            rows,
            timings,
        )
        _run_scale_kernel(
            "landmark-labels",
            lambda: fg.multi_source_labels(landmarks, memory_budget=budget),
            fg,
            landmarks.size,
            budget,
            ceiling_mib,
            rows,
            timings,
        )
        _run_scale_kernel(
            "components",
            fg.component_labels,
            fg,
            1,
            budget,
            ceiling_mib,
            rows,
            timings,
        )


HEADER = [
    "tier",
    "n",
    "m",
    "case",
    "wall s",
    "peak MiB",
    "ceiling MiB",
    "shards",
]


def run(
    scale_n: int = SCALE_N,
    verify_n: int = VERIFY_N,
    memory_budget: int = MEMORY_BUDGET,
    ceiling_mib: float = CEILING_MIB,
    out_dir: Optional[str] = None,
    top_dir: Optional[str] = TOP_DIR,
) -> TableResult:
    """Verification tier, then scale tier — one emitted table."""
    rows: List[Tuple[object, ...]] = []
    timings: Dict[str, float] = {}
    _verify(verify_n, memory_budget, rows)
    _scale(scale_n, memory_budget, ceiling_mib, rows, timings)
    return emit_table(
        EXPERIMENT,
        f"million-node tier: sharded kernels under a {ceiling_mib:.0f} MiB "
        "tracemalloc ceiling",
        HEADER,
        rows,
        notes=(
            "verify rows prove the sharded kernels bit-exact against their "
            "unsharded forms before any timing; scale rows run under "
            f"shard_sources(memory_budget={memory_budget // (1024 * 1024)} MiB) "
            "with the per-span tracemalloc peak asserted below the ceiling."
        ),
        timings=timings,
        out_dir=out_dir,
        top_dir=top_dir,
    )


if __name__ == "__main__":
    result = run(out_dir=OUT_DIR, top_dir=TOP_DIR)
    print(f"\nperf-scale: emitted {result.bench_path}")
