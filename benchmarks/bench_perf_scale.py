"""Million-node scale-out benchmark: sharded kernels + shared memory.

The n = 10^6 tier promised by ROADMAP item 2, in three acts:

1. **Verification tier** (small n): the degree-ordered generator's
   direct-to-CSR freeze is compared cell-for-cell against freezing the
   dict-graph twin, and every sharded / out-of-core kernel is asserted
   bit-exact against its unsharded and reference forms — so the scale
   tier below times code whose outputs are already proven.
2. **Scale tier** (n = 10^6): generate a degree-ordered Chung–Lu graph
   at a million nodes, freeze it, and run the source-sharded kernels
   (sampled all-pairs distance sums, eccentricities, landmark labels,
   full-graph components, and the memmap-spilling distance table)
   under :data:`MEMORY_BUDGET`.  Each kernel runs inside a
   span with tracer memory capture on; the measured peak must stay
   under :data:`CEILING_MIB`, and the per-span peaks flow into the
   ``repro.perf/v1`` ledger where the ``REPRO_PERF_GATE`` regression
   gate treats a ceiling blowout like a slowdown.
3. **Sweep tier**: ``run_sweep --jobs``-style fan-out over the frozen
   graph, once with the pickle baseline (the graph rides inside every
   task) and once with the shared-memory ``shared=`` hook (workers
   attach zero-copy views).  The shm path must win on wall-clock with
   zero per-worker graph rebuilds (asserted from the dispatch
   counters).

    PYTHONPATH=src python benchmarks/bench_perf_scale.py

writes ``benchmarks/out/perf-scale.{txt,json}`` plus the top-level
``BENCH_perf-scale.json`` feed; ``tests/test_bench_perf.py`` runs the
same harness at toy scale inside tier-1.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import OUT_DIR, TOP_DIR, TableResult, emit_table, run_sweep
from repro.graphs import shm
from repro.graphs.csr import FrozenGraph, shard_sources
from repro.graphs.generators import degree_ordered_graph, degree_ordered_reference
from repro.observability import dispatch_counts, get_tracer, shm_counts
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
TABLE_SOURCES = 512

#: Sweep-tier shape: tasks per run, worker count, timed runs per way.
SWEEP_TASKS = 4
SWEEP_JOBS = 2
SWEEP_REPEATS = 3


def _probe(fg: FrozenGraph, item: int) -> int:
    """One cheap sweep point that must touch the CSR arrays."""
    node = item % fg.n
    lo, hi = int(fg.indptr[node]), int(fg.indptr[node + 1])
    return int(fg.degrees[node]) + int(fg.indices[lo:hi].sum())


def _probe_with_graph(fg: FrozenGraph, item: int) -> int:
    """Pickle-baseline task: the graph rides inside the task pickle."""
    return _probe(fg, item)


def _probe_shared(item: int, fg: FrozenGraph) -> int:
    """Shared-memory task: the graph arrives as zero-copy shm views."""
    return _probe(fg, item)


# ----------------------------------------------------------------------
# verification tier
# ----------------------------------------------------------------------
def _verify(n: int, budget: int, rows: List[Tuple[object, ...]]) -> FrozenGraph:
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
    # Out-of-core table vs per-source BFS, through a real scratch file.
    sample = np.arange(0, min(n, 128), dtype=np.int64)
    scratch = tempfile.mktemp(prefix="repro-scale-", suffix=".npy")
    try:
        table = fg.all_pairs_distance_table(
            sources=sample, memory_budget=budget, path=scratch
        )
        expect = np.stack([fg.bfs_levels(int(s)) for s in sample], axis=0)
        ok = np.array_equal(np.asarray(table), expect.astype(np.int16))
        del table
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    if not ok:
        raise AssertionError("memmap distance table diverges from bfs_levels")
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
            "-",
        )
    )
    return fg


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
    spill_before = shm_counts()["spill_bytes"]
    start = time.perf_counter()
    with get_tracer().span(span, kernel=name, n=fg.n):
        fn()
    wall = time.perf_counter() - start
    spilled = shm_counts()["spill_bytes"] - spill_before
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
            spilled,
        )
    )


def _scale(
    n: int,
    budget: int,
    ceiling_mib: float,
    rows: List[Tuple[object, ...]],
    timings: Dict[str, float],
) -> FrozenGraph:
    """Generate, freeze, and run the sharded kernels at ``n`` nodes."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    fg = degree_ordered_graph(n, AVG_DEGREE, EXPONENT, rng)
    timings["generate_s"] = time.perf_counter() - start

    sample = np.linspace(0, fg.n - 1, num=min(SAMPLE_SOURCES, fg.n), dtype=np.int64)
    sample = np.unique(sample)
    landmarks = np.arange(min(LANDMARKS, fg.n), dtype=np.int64)
    table_sources = np.unique(
        np.linspace(0, fg.n - 1, num=min(TABLE_SOURCES, fg.n), dtype=np.int64)
    )
    scratch = tempfile.mktemp(prefix="repro-scale-", suffix=".npy")

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

        def table_run() -> None:
            table = fg.all_pairs_distance_table(
                sources=table_sources, memory_budget=budget, path=scratch
            )
            del table

        try:
            _run_scale_kernel(
                "distance-table",
                table_run,
                fg,
                table_sources.size,
                budget,
                ceiling_mib,
                rows,
                timings,
            )
        finally:
            if os.path.exists(scratch):
                os.remove(scratch)
    return fg


# ----------------------------------------------------------------------
# sweep tier: pickle baseline vs shared-memory attach
# ----------------------------------------------------------------------
def _sweep_compare(
    fg: FrozenGraph,
    jobs: int,
    tasks: int,
    rows: List[Tuple[object, ...]],
    timings: Dict[str, float],
) -> None:
    """Fan the same sweep out both ways; shm must win, zero rebuilds.

    Each way is timed median-of-:data:`SWEEP_REPEATS`, the two
    interleaved, after one untimed warm-up round.  The first pool runs
    in a process pay one-time costs, chiefly the ``resource_tracker``
    process that the first shared segment starts, and without the
    warm-up those land on whichever sweep happens to run first.
    """
    items = list(range(tasks))
    expected = [_probe(fg, item) for item in items]

    snapshot = fg.to_shared()
    try:
        sweeps = {
            "pickle": lambda: run_sweep(
                items, partial(_probe_with_graph, fg), jobs=jobs
            ),
            "shm": lambda: run_sweep(
                items, _probe_shared, jobs=jobs, shared=snapshot.handle
            ),
        }
        walls: Dict[str, List[float]] = {name: [] for name in sweeps}
        before = dispatch_counts()
        for round_ in range(1 + SWEEP_REPEATS):  # round 0 is the warm-up
            for name, sweep in sweeps.items():
                start = time.perf_counter()
                if sweep() != expected:
                    raise AssertionError(f"{name} sweep returned wrong results")
                if round_:
                    walls[name].append(time.perf_counter() - start)
        after = dispatch_counts()
    finally:
        snapshot.close()
    pickle_wall = statistics.median(walls["pickle"])
    shm_wall = statistics.median(walls["shm"])

    attaches = after.get("benchmarks.run_sweep", {}).get(
        "shm-attach", 0
    ) - before.get("benchmarks.run_sweep", {}).get("shm-attach", 0)
    rebuilds = after.get("graphs.freeze", {}).get("build", 0) - before.get(
        "graphs.freeze", {}
    ).get("build", 0)
    if attaches != tasks * (1 + SWEEP_REPEATS):
        raise AssertionError(
            f"expected {tasks * (1 + SWEEP_REPEATS)} shm-attach dispatches, "
            f"saw {attaches}"
        )
    if rebuilds != 0:
        raise AssertionError(
            f"shared-memory sweep rebuilt the graph {rebuilds} times"
        )
    if shm_wall > pickle_wall:
        raise AssertionError(
            f"shm sweep ({shm_wall:.2f}s) lost to the pickle baseline "
            f"({pickle_wall:.2f}s)"
        )
    timings["sweep_pickle_s"] = pickle_wall
    timings["sweep_shm_s"] = shm_wall
    m = int(fg.indices.shape[0] // 2)
    rows.append(
        ("sweep", fg.n, m, "run_sweep-pickle", round(pickle_wall, 3), "-", "-", "-", "-")
    )
    rows.append(
        ("sweep", fg.n, m, "run_sweep-shm", round(shm_wall, 3), "-", "-", "-", "-")
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
    "spill bytes",
]


def run(
    scale_n: int = SCALE_N,
    verify_n: int = VERIFY_N,
    memory_budget: int = MEMORY_BUDGET,
    ceiling_mib: float = CEILING_MIB,
    jobs: int = SWEEP_JOBS,
    tasks: int = SWEEP_TASKS,
    out_dir: Optional[str] = None,
    top_dir: Optional[str] = TOP_DIR,
) -> TableResult:
    """Verification tier, scale tier, sweep tier — one emitted table."""
    rows: List[Tuple[object, ...]] = []
    timings: Dict[str, float] = {}
    _verify(verify_n, memory_budget, rows)
    fg = _scale(scale_n, memory_budget, ceiling_mib, rows, timings)
    _sweep_compare(fg, jobs, tasks, rows, timings)
    return emit_table(
        EXPERIMENT,
        f"million-node tier: sharded kernels under a {ceiling_mib:.0f} MiB "
        "tracemalloc ceiling + shm sweep vs pickle baseline",
        HEADER,
        rows,
        notes=(
            "verify rows prove sharded/out-of-core kernels bit-exact against "
            "their unsharded and reference forms before any timing; scale "
            "rows run under shard_sources(memory_budget="
            f"{memory_budget // (1024 * 1024)} MiB) with the per-span "
            "tracemalloc peak asserted below the ceiling; sweep rows compare "
            "run_sweep fan-out with the graph pickled per task vs attached "
            "once per worker from shared memory (zero rebuilds asserted)."
        ),
        timings=timings,
        out_dir=out_dir,
        top_dir=top_dir,
    )


if __name__ == "__main__":
    result = run(out_dir=OUT_DIR, top_dir=TOP_DIR)
    print(f"\nperf-scale: emitted {result.bench_path}")
