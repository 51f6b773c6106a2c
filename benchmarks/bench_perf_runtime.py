"""Vectorized runtime-plane benchmark: scalar engine vs array kernels.

Times the bulk-synchronous round protocols on both execution planes:

* the scalar ground truth — per-node :class:`~repro.runtime.engine
  .NodeAlgorithm` objects stepped by :class:`~repro.runtime.engine
  .Network`, and
* the vector plane — :class:`~repro.runtime.vector.VectorEngine`
  running the same protocols as numpy array ops over the
  :class:`~repro.graphs.csr.FrozenGraph` CSR with active-set
  compaction.

Three protocol families are measured: full link reversal repairing a
batch of stale sinks on a sparse random graph, safety-level labeling of
a faulty hypercube, and round-based MIS election.  Each protocol is a
:class:`_util.Case`; :func:`_util.measure` checks its timed outputs for
**bit-exact parity** (final state, round count, total/per-round message
accounting: ``RunStats`` equality) before returning any timing.  The
full run checks :data:`FLOORS`, each protocol at its own largest n:
>= 10x on link reversal and on safety levels.

    PYTHONPATH=src python benchmarks/bench_perf_runtime.py

writes the top-level ``BENCH_perf-runtime.json`` feed;
``tests/test_bench_perf.py`` runs the same harness at toy scale inside
tier-1.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import (
    OUT_DIR, TOP_DIR, Case, TableResult, check_floors, emit_table, measure, speedups,
)

EXPERIMENT = "perf-runtime"

#: Acceptance floors per kernel at its own largest n (the MIS row is
#: measured and reported without a floor).
FLOORS: Dict[str, float] = {
    "link-reversal": 10.0,
    "safety-levels": 10.0,
}

#: (scalar reference, vector) timing-key templates.
KEYS = ("{case}_n{n}_ref", "{case}_n{n}_vector")

HEADER = ["n", "kernel", "ref median s", "vector median s", "speedup"]

#: (random-graph n, hypercube dimension) per measured tier.
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = (
    (2000, 10),
    (20000, 13),
)

#: The tier-1 / smoke scale.
TOY_SIZE: Tuple[int, int] = (120, 4)


def reversal_workload(n: int):
    """A sparse connected graph whose height function has stale sinks.

    BFS heights toward node 0, then ~n/100 non-destination nodes are
    knocked down to level -1 — each becomes a local minimum whose
    repair ripples through its neighborhood, the post-break shape of
    Fig. 4 at scale.
    """
    rng = np.random.default_rng(n)
    from repro.graphs.generators import random_connected_graph
    from repro.layering.link_reversal import initial_heights

    graph = random_connected_graph(n, 4.0 / n, rng)
    heights = initial_heights(graph, 0)
    candidates = sorted((node for node in graph.nodes() if node != 0))
    knock = max(1, n // 100)
    picks = rng.choice(len(candidates), size=min(knock, len(candidates)), replace=False)
    stale = dict(heights)
    for i in picks:
        node = candidates[int(i)]
        stale[node] = (-1, stale[node][-1])
    return graph, 0, stale


def safety_workload(dimension: int):
    """A d-cube with ~1/32 of its nodes faulty (seeded by dimension)."""
    rng = np.random.default_rng(dimension)
    n = 1 << dimension
    count = max(1, n // 32)
    picks = rng.choice(n, size=count, replace=False)
    from repro.graphs.hypercube import binary_addresses

    nodes = list(binary_addresses(dimension))
    return frozenset(nodes[int(i)] for i in picks)


def _assert_stats_equal(scalar, vector) -> None:
    if scalar != vector:
        raise AssertionError(
            "engine accounting diverges — scalar rounds="
            f"{scalar.rounds} messages={scalar.messages_sent} vs vector "
            f"rounds={vector.rounds} messages={vector.messages_sent}"
        )


def _reversal_runners(graph, fg, destination, stale):
    """(scalar runner, vector runner, parity check) for link reversal.

    Runners rebuild their engine per call — the per-node object network
    vs the array kernel — over the prebuilt graph/CSR, so each timing
    covers setup + run on its own plane and neither pays the one-off
    snapshot cost.
    """
    from repro.layering.link_reversal_distributed import LinkReversalAlgorithm
    from repro.runtime.engine import Network
    from repro.runtime.vector import FullReversalKernel, VectorEngine

    nodes = fg.node_list
    dest_index = fg.index_of(destination)

    def scalar_run():
        network = Network(
            graph,
            lambda node: LinkReversalAlgorithm(
                is_destination=node == destination, height=stale[node]
            ),
        )
        return network, network.run()

    def vector_run():
        levels = np.array([stale[node][0] for node in nodes], dtype=np.int64)
        ties = np.array([stale[node][-1] for node in nodes], dtype=np.int64)
        kernel = FullReversalKernel(dest_index, levels, ties)
        engine = VectorEngine(fg, kernel)
        return kernel, engine.run()

    def check(scalar_out, vector_out):
        network, scalar_stats = scalar_out
        kernel, vector_stats = vector_out
        _assert_stats_equal(scalar_stats, vector_stats)
        scalar_heights = {
            node: tuple(network.state_of(node)["height"]) for node in nodes
        }
        vector_heights = {
            nodes[i]: (int(kernel.level[i]), int(kernel.tie[i]))
            for i in range(fg.n)
        }
        if scalar_heights != vector_heights:
            raise AssertionError("final heights diverge")
        scalar_rev = {
            node: network.state_of(node).get("reversals", 0) for node in nodes
        }
        vector_rev = {
            nodes[i]: int(kernel.reversals[i]) for i in range(fg.n)
        }
        if scalar_rev != vector_rev:
            raise AssertionError("reversal counts diverge")
        return True

    return scalar_run, vector_run, check


def _safety_runners(cube, fg, dimension, faults):
    """(scalar runner, vector runner, parity check) for safety levels."""
    from repro.labeling.safety_distributed import SafetyLevelAlgorithm
    from repro.runtime.engine import Network
    from repro.runtime.vector import SafetyLevelKernel, VectorEngine

    nodes = fg.node_list
    faulty_mask = np.zeros(fg.n, dtype=bool)
    for i, node in enumerate(nodes):
        if node in faults:
            faulty_mask[i] = True

    def scalar_run():
        network = Network(
            cube,
            lambda node: SafetyLevelAlgorithm(dimension, node in faults),
        )
        return network, network.run()

    def vector_run():
        kernel = SafetyLevelKernel(dimension, faulty_mask.copy())
        engine = VectorEngine(fg, kernel)
        return kernel, engine.run()

    def check(scalar_out, vector_out):
        network, scalar_stats = scalar_out
        kernel, vector_stats = vector_out
        _assert_stats_equal(scalar_stats, vector_stats)
        scalar_levels = network.states("level")
        vector_levels = {
            nodes[i]: int(kernel.level[i]) for i in range(fg.n)
        }
        if scalar_levels != vector_levels:
            raise AssertionError("final levels diverge")
        return True

    return scalar_run, vector_run, check


def _mis_runners(graph, fg):
    """(scalar runner, vector runner, parity check) for round MIS."""
    from repro.labeling.mis import MISAlgorithm, id_priorities
    from repro.runtime.engine import Network
    from repro.runtime.vector import MISKernel, VectorEngine

    nodes = fg.node_list
    priorities = id_priorities(graph)
    priority = np.array([priorities[node] for node in nodes], dtype=np.float64)

    def scalar_run():
        network = Network(
            graph, lambda node: MISAlgorithm(priorities[node])
        )
        return network, network.run()

    def vector_run():
        kernel = MISKernel(priority)
        engine = VectorEngine(fg, kernel)
        return kernel, engine.run()

    def check(scalar_out, vector_out):
        network, scalar_stats = scalar_out
        kernel, vector_stats = vector_out
        _assert_stats_equal(scalar_stats, vector_stats)
        colors = {0: "white", 1: "black", 2: "gray"}
        vector_colors = {
            nodes[i]: colors[int(kernel.color[i])] for i in range(fg.n)
        }
        if network.states("color") != vector_colors:
            raise AssertionError("final colors diverge")
        return True

    return scalar_run, vector_run, check


def workload(size: Tuple[int, int]):
    """Every prebuilt graph and CSR snapshot measured at tier ``size``."""
    from repro.graphs.hypercube import binary_hypercube
    from repro.runtime.vector import hypercube_frozen

    n, dimension = size
    graph, destination, stale = reversal_workload(n)
    cube = (binary_hypercube(dimension), hypercube_frozen(dimension))
    return graph, graph.frozen(), destination, stale, safety_workload(dimension), cube


def cases(size: Tuple[int, int], w) -> List[Case]:
    """One :class:`Case` per protocol; the safety-level case is sized
    by its cube (2**dimension nodes), the others by ``n``."""
    n, dimension = size
    graph, fg, destination, stale, faults, (cube, cube_fg) = w
    return [
        Case("link-reversal", n, *_reversal_runners(graph, fg, destination, stale)),
        Case("safety-levels", 1 << dimension,
             *_safety_runners(cube, cube_fg, dimension, faults)),
        Case("mis", n, *_mis_runners(graph, fg)),
    ]


def _measure_size(
    task: Tuple[Tuple[int, int], int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    """Measure every protocol at one tier; asserts parity per protocol.

    The graph and its CSR snapshot are built up front (recorded as
    ``freeze_n*_s``); each runner then rebuilds its own engine per
    pass, so a timing covers one full build-and-run on one plane.  Scalar references at large tiers are timed once.
    """
    size, repeats = task
    rows: List[Tuple[object, ...]] = []
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    w = workload(size)
    timings[f"freeze_n{size[0]}_s"] = time.perf_counter() - start

    for case in cases(size, w):
        measured = measure(case, repeats, 1 if case.n >= 1000 else repeats)
        timings.update(measured.timings(KEYS))
        rows.append((case.n, case.name, *measured.cells()))
    return rows, timings


def run(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    repeats: int = 3,
    out_dir: str = OUT_DIR,
    top_dir: str = TOP_DIR,
    floors: Optional[Mapping[str, float]] = None,
) -> TableResult:
    """Benchmark every round protocol on both planes at every tier.

    ``floors`` (the full run passes :data:`FLOORS`) asserts
    per-protocol floors, each at its own largest n.  Raises
    ``AssertionError`` on any scalar/vector state, round, or message
    divergence regardless.
    """
    measured = [_measure_size((size, repeats)) for size in sizes]
    rows = [row for size_rows, _ in measured for row in size_rows]
    timings = {k: v for _, size_timings in measured for k, v in size_timings.items()}
    if floors:
        check_floors(speedups(HEADER, rows), floors)
    return emit_table(
        EXPERIMENT,
        "scalar round engine vs vectorized array kernels "
        "(state/round/message parity asserted per protocol before timing)",
        HEADER,
        rows,
        notes=(
            "Workloads: full link reversal repairing ~n/100 stale sinks "
            "on a sparse random connected graph (BFS heights toward node "
            "0, victims knocked to level -1), safety-level labeling of a "
            "d-cube with ~1/32 faulty nodes, and round-based MIS "
            "election with repr-rank priorities.  Each row times one "
            "full engine build-and-run per plane over a prebuilt "
            "graph/CSR (freeze_n*_s records the one-off snapshot "
            "builds).  Parity is asserted on the timed outputs: final "
            "state, round count, and total + per-round message counts "
            "are bit-identical across planes (RunStats equality).  Scalar "
            "references at n >= 1000 are timed once."
        ),
        timings=timings,
        out_dir=out_dir,
        top_dir=top_dir,
    )


if __name__ == "__main__":
    result = run(floors=FLOORS)
    print(f"\nperf-runtime: emitted {result.bench_path}")
