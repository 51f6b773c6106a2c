"""Fig. 4 — link reversal: full vs partial vs binary-label variants.

Regenerates: the figure's (a)-(e) process on the reconstructed fixture,
the O(n²) worst-case reversal growth on adversarial chains, and the
full/partial/binary comparison on random graphs after a link break.
"""

import numpy as np
import pytest

from _util import emit_table
from repro.graphs.generators import path_graph, random_connected_graph
from repro.layering.link_reversal import (
    binary_label_reversal,
    full_link_reversal,
    initial_heights,
    orientation_from_heights,
    paper_fig4_graph,
    partial_link_reversal,
)


def anti_oriented_path(n):
    graph = path_graph(n)
    heights = {i: (i + 1, i) for i in range(n)}
    heights[n - 1] = (0, 0)
    return graph, n - 1, heights


def test_fig4_fixture_process(once):
    graph, destination, heights = paper_fig4_graph()
    result = once(full_link_reversal, graph, destination, heights=heights)
    emit_table(
        "fig4",
        "full link reversal after breaking (A, D)",
        ["metric", "value"],
        [
            ("steps (panels)", result.steps),
            ("node reversal counts", dict(sorted(result.node_reversals.items()))),
            ("link reversals", result.link_reversals),
            ("destination-oriented", result.orientation.is_destination_oriented(destination)),
        ],
        notes="Node A reverses twice — 'involved in multiple rounds', as narrated.",
    )
    assert result.node_reversals["A"] == 2


def _fig4_quadratic_point(n):
    """One adversarial-chain worst-case point."""
    graph, destination, heights = anti_oriented_path(n)
    result = full_link_reversal(graph, destination, heights=heights)
    k = n - 2
    return (n, result.steps, k * (k + 1) // 2)


def test_fig4_quadratic_worst_case(once):
    rows = once(lambda: [_fig4_quadratic_point(n) for n in (8, 16, 32, 64)])
    emit_table(
        "fig4-quadratic",
        "full reversal worst case on adversarial chains",
        ["n", "measured reversals", "k(k+1)/2 prediction"],
        rows,
        notes="'Overall, the number of reversals is O(n^2)' — exactly quadratic here.",
    )
    for _, measured, predicted in rows:
        assert measured == predicted


def _fig4_variant_trial(trial):
    """One random-graph repair trial, independently seeded per trial so
    the sweep parallelizes without changing any row."""
    rng = np.random.default_rng([44, trial])
    graph = random_connected_graph(40, 0.06, rng)
    heights = initial_heights(graph, 0)
    orientation = orientation_from_heights(graph, heights)
    # Break a random out-link of a single-out node, making it a sink.
    candidates = [
        node for node in graph.nodes()
        if node != 0 and len(orientation.out_neighbors(node)) == 1
        and graph.degree(node) > 1
    ]
    if not candidates:
        return None
    victim = candidates[int(rng.integers(len(candidates)))]
    other = next(iter(orientation.out_neighbors(victim)))
    broken = graph.copy()
    broken.remove_edge(victim, other)
    stale = {n: heights[n] for n in broken.nodes()}

    def orient():
        o = orientation_from_heights(broken, stale)
        # Restore the stale pre-break orientation for shared edges.
        for a, b in broken.edges():
            o.orient(a, b, toward=orientation.head(a, b))
        return o

    full = full_link_reversal(broken, 0, orientation=orient(), heights=stale)
    partial = partial_link_reversal(
        broken, 0, orientation=orient(), heights=stale
    )
    binary0 = binary_label_reversal(
        broken, 0, initial_label=0, orientation=orient(), heights=stale
    )
    assert full.orientation.is_destination_oriented(0)
    assert partial.orientation.is_destination_oriented(0)
    assert binary0.orientation.is_destination_oriented(0)
    return (trial, victim, full.steps, partial.steps, binary0.steps)


def test_fig4_variant_comparison(once):
    rows = once(
        lambda: [
            row
            for row in map(_fig4_variant_trial, range(6))
            if row is not None
        ]
    )
    emit_table(
        "fig4-variants",
        "repair cost after one link break (steps)",
        ["trial", "broken at", "full", "partial (GB)", "binary labels (all-0)"],
        rows,
        notes=(
            "Partial/binary typically match or beat full reversal on "
            "single breaks; worst-case complexity is unchanged (the "
            "paper's point about [16] vs [24])."
        ),
    )
    assert rows


@pytest.mark.parametrize("n", [32, 64])
def test_fig4_reversal_speed(benchmark, n):
    graph, destination, heights = anti_oriented_path(n)
    result = benchmark(full_link_reversal, graph, destination, heights=heights)
    assert result.orientation.is_destination_oriented(destination)


def _stale_sink_workload(n):
    """The bench_perf_runtime stale-sink repair workload at size n."""
    import bench_perf_runtime

    return bench_perf_runtime.reversal_workload(n)


def _fig4_vector_scale_point(n):
    """One vector-plane scale point; parity-checked against the scalar
    engine at sizes where the per-node object run is feasible."""
    import time

    from repro.layering.link_reversal_distributed import (
        distributed_full_reversal,
    )
    from repro.runtime.vector import vector_full_reversal

    graph, destination, stale = _stale_sink_workload(n)
    graph.frozen()  # one-off snapshot outside the measured run
    start = time.perf_counter()
    _, heights, reversals, rounds = vector_full_reversal(
        graph, destination, stale
    )
    elapsed = time.perf_counter() - start
    parity = "-"
    if n <= 64:
        _, s_heights, s_reversals, s_rounds = distributed_full_reversal(
            graph, destination, stale
        )
        assert heights == s_heights
        assert reversals == s_reversals
        assert rounds == s_rounds
        parity = "bit-exact"
    return (n, rounds, sum(reversals.values()), round(elapsed, 4), parity)


def test_fig4_vector_scale_axis(once):
    """The Fig. 4 process at three orders of magnitude beyond the
    per-node engine's comfortable range, on the vector plane."""
    rows = once(
        lambda: [_fig4_vector_scale_point(n) for n in (64, 1024, 4096, 20480)]
    )
    emit_table(
        "fig4-vector-scale",
        "stale-sink repair at scale through the vectorized runtime plane",
        ["n", "rounds", "reversals", "vector s", "scalar parity"],
        rows,
        notes=(
            "Full link reversal repairing ~n/100 stale sinks "
            "(bench_perf_runtime workload) on repro.runtime.vector; at "
            "n = 64 — the old scale ceiling — the run is asserted "
            "bit-exact (heights, reversal counts, rounds) against the "
            "scalar Network engine before the row is recorded."
        ),
    )
    assert max(row[0] for row in rows) >= 20_000
    assert any(row[4] == "bit-exact" for row in rows)
