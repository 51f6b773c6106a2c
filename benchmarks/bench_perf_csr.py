"""CSR fast-path benchmark: pure-Python reference vs FrozenGraph kernels.

Times each whole-graph kernel on Gnutella-like largest-SCC workloads
(the paper's Fig. 3 substrate) at increasing sizes, on both substrates:

* the dict-of-sets reference path (``*_reference`` functions, the
  ground truth the tests check the public kernels against), and
* the frozen CSR snapshot (:class:`~repro.graphs.csr.FrozenGraph`).

Each kernel is a :class:`_util.Case` whose timed outputs must be
*exactly* equal — a speedup that changes answers is a bug, not an
optimization.  The full run checks :data:`FLOORS`: >= 5x median speedup
on the NSF peel and the all-pairs BFS at the largest size.  The
``point-distance`` case (:data:`POINT_PAIRS` seeded pairs, one
reference BFS per pair against one bidirectional
:meth:`~repro.graphs.csr.FrozenGraph.hop_distance` search) is reported
without a floor.

    PYTHONPATH=src python benchmarks/bench_perf_csr.py

writes the top-level ``BENCH_perf-csr.json`` feed;
``tests/test_bench_perf.py`` runs the same harness at toy scale inside
tier-1.
"""

from __future__ import annotations

import os
import sys
import time
from typing import List, Mapping, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import OUT_DIR, TOP_DIR, Case, TableResult, check_floors, emit_table, measure, speedups

EXPERIMENT = "perf-csr"

#: Acceptance floors at the largest size (remaining kernels are
#: measured and reported without a floor).
FLOORS = {"all-pairs-bfs": 5.0, "nsf-levels": 5.0}

#: (reference, CSR) timing-key templates.
KEYS = ("{case}_n{n}_ref", "{case}_n{n}_csr")

#: Seeded node pairs of the ``point-distance`` case.
POINT_PAIRS = 200

#: Requested sizes of the full run.
DEFAULT_SIZES: Tuple[int, ...] = (600, 2000, 5000)

HEADER = ["requested n", "n", "m", "kernel", "ref median s", "csr median s", "speedup"]


def workload(size: int):
    """The Gnutella-like largest SCC measured at ``size``."""
    from repro.datasets.gnutella import gnutella_largest_scc

    return gnutella_largest_scc(size, np.random.default_rng(size))


def cases(size: int, graph) -> List[Case]:
    """One :class:`Case` per measured kernel over ``graph`` and its CSR."""
    from repro.graphs.metrics import (
        average_clustering_reference,
        closeness_centrality_reference,
    )
    from repro.graphs.traversal import (
        bfs_distances_reference,
        connected_components_reference,
    )
    from repro.layering.nsf import nsf_levels_reference

    fg = graph.frozen()

    def ref_all_pairs():
        return {
            node: sum(bfs_distances_reference(graph, node).values())
            for node in graph.nodes()
        }

    def csr_all_pairs():
        sums = fg.all_pairs_distance_sums()
        return {node: int(sums[i]) for i, node in enumerate(fg.node_list)}

    pairs = np.random.default_rng(size).integers(0, fg.n, size=(POINT_PAIRS, 2))
    pairs = pairs.tolist()
    nodes = fg.node_list

    def ref_point_distances():
        return [
            bfs_distances_reference(graph, nodes[u]).get(nodes[v])
            for u, v in pairs
        ]

    def csr_point_distances():
        hops = (fg.hop_distance(u, v) for u, v in pairs)
        return [d if d >= 0 else None for d in hops]

    return [
        Case("all-pairs-bfs", size, ref_all_pairs, csr_all_pairs),
        Case("point-distance", size, ref_point_distances, csr_point_distances),
        Case("nsf-levels", size, lambda: nsf_levels_reference(graph), fg.nsf_levels),
        Case("closeness", size, lambda: closeness_centrality_reference(graph),
             fg.closeness_centrality),
        Case("components", size, lambda: connected_components_reference(graph),
             fg.connected_components),
        Case("avg-clustering", size, lambda: average_clustering_reference(graph),
             fg.average_clustering),
    ]


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
    out_dir: str = OUT_DIR,
    top_dir: str = TOP_DIR,
    floors: Optional[Mapping[str, float]] = None,
) -> TableResult:
    """Benchmark every kernel at every size; assert exact equivalence.

    ``floors`` (the full run passes :data:`FLOORS`) additionally
    asserts each floor at the largest size, and that the frozen
    components kernel never loses to the reference at any size.
    Raises ``AssertionError`` on any CSR/reference output mismatch
    regardless.
    """
    rows: List[Tuple[object, ...]] = []
    timings = {}
    for size in sizes:
        graph = workload(size)
        start = time.perf_counter()
        graph.frozen()
        timings[f"freeze_n{size}_s"] = time.perf_counter() - start
        for case in cases(size, graph):
            measured = measure(case, repeats)
            timings.update(measured.timings(KEYS))
            rows.append(
                (size, graph.num_nodes, graph.num_edges, case.name, *measured.cells())
            )
            # The frozen path must never lose to the reference — at ANY
            # size (the n=552 components regression fixed by the
            # vectorized min-label propagation stays fixed).
            if floors and case.name == "components" and measured.speedup < 1.0:
                raise AssertionError(
                    f"components at n={graph.num_nodes}: frozen path "
                    f"slower than the reference ({measured.speedup:.2f}x < 1x)"
                )
    if floors:
        check_floors(speedups(HEADER, rows), floors)
    return emit_table(
        EXPERIMENT,
        "dict-of-sets reference vs frozen CSR kernels (median of "
        f"{repeats}, exact output equality asserted)",
        HEADER,
        rows,
        notes=(
            "Workload: gnutella_largest_scc(n, rng).  Every row's CSR output "
            "was asserted equal to the pure-Python reference before timing "
            "was recorded; freeze_n*_s timings record the one-off snapshot "
            "build cost the fast path amortizes."
        ),
        timings=timings,
        out_dir=out_dir,
        top_dir=top_dir,
    )


if __name__ == "__main__":
    result = run(floors=FLOORS)
    print(f"\nperf-csr: emitted {result.bench_path}")
