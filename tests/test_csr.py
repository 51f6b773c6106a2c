"""FrozenGraph CSR kernels vs the dict-of-sets references.

The fast path is only allowed to change *cost*, never *output*: every
kernel must be exactly equal — including float results, which the CSR
side computes with the same python-int divisions as the references —
on random Erdős–Rényi and preferential-attachment graphs sized above
``FROZEN_MIN_NODES`` (so the routed entry points actually take the CSR
path).  Plus the snapshot-caching contract: one snapshot per topology
generation, invalidated by structural mutation only.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import FROZEN_MIN_NODES, FrozenGraph, _distinct
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.graph import DiGraph, Graph
from repro.graphs.metrics import (
    average_clustering,
    average_clustering_reference,
    closeness_centrality,
    closeness_centrality_reference,
    clustering_coefficient_reference,
)
from repro.graphs.traversal import (
    bfs_distances,
    bfs_distances_reference,
    connected_components,
    connected_components_reference,
)
from repro.layering.nsf import (
    local_lowest_degree_nodes_reference,
    nested_subgraphs,
    nsf_levels,
    nsf_levels_reference,
    peel_to_fraction,
)


# ----------------------------------------------------------------------
# strategies: random graphs big enough to engage the CSR routing
# ----------------------------------------------------------------------

@st.composite
def random_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=FROZEN_MIN_NODES, max_value=72))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        p = draw(st.floats(min_value=0.02, max_value=0.15))
        return erdos_renyi(n, p, rng)
    m = draw(st.integers(min_value=1, max_value=4))
    return barabasi_albert(n, m, rng)


# ----------------------------------------------------------------------
# kernel equivalence
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(random_graphs())
def test_bfs_distances_matches_reference(graph):
    fg = graph.frozen()
    for source in list(graph.nodes())[:5]:
        assert fg.bfs_distances(source) == bfs_distances_reference(graph, source)
        # The routed public entry point takes the CSR path here.
        assert bfs_distances(graph, source) == bfs_distances_reference(
            graph, source
        )


def _reference_levels(graph, fg, sources):
    """Per-index min over ``bfs_distances_reference`` from each source."""
    level = np.full(fg.n, -1, dtype=np.int64)
    for s in sources:
        for node, d in bfs_distances_reference(graph, fg.node_list[s]).items():
            i = fg.index_of(node)
            if level[i] < 0 or d < level[i]:
                level[i] = d
    return level


@settings(max_examples=30, deadline=None)
@given(random_graphs(), st.data())
def test_bfs_levels_matches_reference_bfs(graph, data):
    fg = graph.frozen()
    node = st.integers(min_value=0, max_value=fg.n - 1)
    single = data.draw(node)
    assert np.array_equal(
        fg.bfs_levels(single), _reference_levels(graph, fg, [single])
    )
    sources = data.draw(st.lists(node, max_size=8))
    sources += sources[: len(sources) // 2]  # repeated sources
    assert np.array_equal(
        fg.bfs_levels(np.array(sources, dtype=np.int64)),
        _reference_levels(graph, fg, sources),
    )
    assert np.array_equal(fg.bfs_levels([]), np.full(fg.n, -1))


@settings(max_examples=30, deadline=None)
@given(random_graphs(), st.data())
def test_hop_distance_matches_bfs_levels(graph, data):
    # Isolated nodes make unreachable pairs even on a connected draw.
    isolated = data.draw(st.integers(min_value=0, max_value=3))
    for i in range(isolated):
        graph.add_node(("isolated", i))
    fg = graph.frozen()
    node = st.integers(min_value=0, max_value=fg.n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=12))
    pairs += [(u, u) for u, _ in pairs[:2]]
    pairs += [(fg.n - 1, v) for _, v in pairs[:2]]
    for u, v in pairs:
        assert fg.hop_distance(u, v) == fg.bfs_levels(u)[v], (u, v)


def test_hop_distance_rejects_directed_snapshots():
    graph = DiGraph([(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        graph.frozen().hop_distance(0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_distinct_returns_each_value_once(n, data):
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=120)
    )
    # Heavy duplicates, the largest value included.
    idx = np.array(values * 3 + [n - 1] * 5, dtype=np.int64)
    rng = np.random.default_rng(n)
    for order in (idx, idx[::-1], rng.permutation(idx)):
        # Stale scratch contents must not matter: only written slots are read.
        for owner in (np.empty(n, dtype=np.int64), np.zeros(n, dtype=np.int64)):
            out = _distinct(order, owner)
            assert out.shape[0] == len(set(values) | {n - 1})
            assert set(out.tolist()) == set(values) | {n - 1}
    empty = np.empty(0, dtype=np.int64)
    assert _distinct(empty, np.empty(n, dtype=np.int64)).size == 0


@settings(max_examples=30, deadline=None)
@given(random_graphs())
def test_components_and_degrees_match_reference(graph):
    fg = graph.frozen()
    assert fg.connected_components() == connected_components_reference(graph)
    assert connected_components(graph) == connected_components_reference(graph)
    for i, node in enumerate(fg.node_list):
        assert int(fg.degrees[i]) == graph.degree(node)
        assert fg.degree(node) == graph.degree(node)


@settings(max_examples=30, deadline=None)
@given(random_graphs())
def test_clustering_matches_reference_exactly(graph):
    fg = graph.frozen()
    values = fg.clustering_array()
    for i, node in enumerate(fg.node_list):
        assert values[i] == clustering_coefficient_reference(graph, node)
    assert fg.average_clustering() == average_clustering_reference(graph)
    assert average_clustering(graph) == average_clustering_reference(graph)


@settings(max_examples=20, deadline=None)
@given(random_graphs())
def test_closeness_matches_reference_exactly(graph):
    fg = graph.frozen()
    assert fg.closeness_centrality() == closeness_centrality_reference(graph)
    assert closeness_centrality(graph) == closeness_centrality_reference(graph)


@settings(max_examples=20, deadline=None)
@given(random_graphs())
def test_all_pairs_sums_match_reference(graph):
    fg = graph.frozen()
    sums = fg.all_pairs_distance_sums()
    for i, node in enumerate(fg.node_list):
        assert int(sums[i]) == sum(
            bfs_distances_reference(graph, node).values()
        )


@settings(max_examples=25, deadline=None)
@given(random_graphs())
def test_nsf_peel_sequence_matches_reference(graph):
    fg = graph.frozen()
    assert fg.nsf_levels() == nsf_levels_reference(graph)
    assert nsf_levels(graph) == nsf_levels_reference(graph)
    # Round-by-round: the batched peel removes exactly the reference's
    # local lowest-degree set of each successive induced subgraph.
    current = graph
    for chosen in fg.peel_rounds():
        removed = {fg.node_list[i] for i in chosen}
        assert removed == local_lowest_degree_nodes_reference(current)
        current = current.subgraph(set(current.nodes()) - removed)


@settings(max_examples=15, deadline=None)
@given(random_graphs())
def test_nested_subgraphs_and_peel_fraction_match_reference(graph):
    # Reference family: repeated reference peel of Graph objects.
    def reference_family(g, min_nodes=2):
        family = [g]
        current = g
        while current.num_nodes >= min_nodes:
            survivors = set(current.nodes()) - local_lowest_degree_nodes_reference(
                current
            )
            if len(survivors) == current.num_nodes or len(survivors) < min_nodes:
                break
            current = current.subgraph(survivors)
            family.append(current)
        return family

    routed = nested_subgraphs(graph)
    expected = reference_family(graph)
    assert [set(g.nodes()) for g in routed] == [set(g.nodes()) for g in expected]
    assert [g.num_edges for g in routed] == [g.num_edges for g in expected]

    half = peel_to_fraction(graph, 0.5)
    target = max(1, int(graph.num_nodes * 0.5))
    current = graph
    while current.num_nodes > target:
        survivors = set(current.nodes()) - local_lowest_degree_nodes_reference(
            current
        )
        if len(survivors) == current.num_nodes or not survivors:
            break
        current = current.subgraph(survivors)
    assert set(half.nodes()) == set(current.nodes())


def test_directed_bfs_uses_out_edges():
    graph = DiGraph()
    for i in range(FROZEN_MIN_NODES):
        graph.add_edge(i, i + 1)
    fg = graph.frozen()
    assert fg.bfs_distances(0)[FROZEN_MIN_NODES] == FROZEN_MIN_NODES
    assert fg.bfs_distances(FROZEN_MIN_NODES) == {FROZEN_MIN_NODES: 0}
    assert bfs_distances(graph, 3) == bfs_distances_reference(graph, 3)


def test_isolated_nodes_and_disconnection():
    graph = Graph()
    for i in range(40):
        graph.add_node(i)
    for i in range(10):
        graph.add_edge(i, i + 1)
    fg = graph.frozen()
    assert not fg.is_connected()
    assert fg.closeness_centrality() == closeness_centrality_reference(graph)
    assert fg.connected_components() == connected_components_reference(graph)
    sums = fg.all_pairs_distance_sums()
    assert int(sums[fg.index_of(39)]) == 0


@pytest.mark.parametrize(
    "indptr, indices",
    [
        pytest.param([0, 3, 5, 7, 8], [3, 2, 1, 0, 2, 0, 1, 0], id="unsorted-row"),
        pytest.param([0, 2, 4], [1, 1, 0, 0], id="repeated-neighbour"),
    ],
)
def test_from_arrays_rejects_rows_that_are_not_strictly_increasing(indptr, indices):
    # edge_slot bisects each row, and degrees count row entries, so a
    # row out of order or with a repeat silently breaks both.
    with pytest.raises(ValueError, match="strictly increasing"):
        FrozenGraph.from_arrays(indptr, indices)


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        pytest.param([], [], "1-D array", id="empty-indptr"),
        pytest.param([[0, 1], [1, 2]], [1, 0], "1-D array", id="2d-indptr"),
        pytest.param([1, 2, 3], [1, 0], "span", id="indptr-not-from-zero"),
        pytest.param([0, 1, 1], [1, 0], "span", id="indptr-short-of-indices"),
        pytest.param([0, 2, 1, 2], [1, 2], "non-decreasing", id="indptr-decreasing"),
        pytest.param([0, 1, 2], [-1, 0], "valid node", id="negative-index"),
        pytest.param([0, 1, 2], [2, 0], "valid node", id="index-out-of-range"),
    ],
)
def test_from_arrays_rejects_broken_csr_invariants(indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        FrozenGraph.from_arrays(indptr, indices)


@pytest.mark.parametrize(
    "indptr, indices",
    [
        # the check is per row: a drop across a row boundary is legal
        pytest.param([0, 1, 2], [1, 0], id="descending-across-rows"),
        pytest.param([0, 0, 2, 2, 4, 4], [1, 3, 1, 3], id="empty-rows"),
        pytest.param([0, 0, 0], [], id="no-edges"),
    ],
)
def test_from_arrays_accepts_strictly_increasing_rows(indptr, indices):
    fg = FrozenGraph.from_arrays(indptr, indices, directed=True)
    assert fg.n == len(indptr) - 1
    assert fg.num_edges == len(indices)
    assert fg.degrees.tolist() == np.diff(indptr).tolist()
    for i in range(fg.n):
        for slot in range(indptr[i], indptr[i + 1]):
            assert fg.edge_slot(i, indices[slot]) == slot


def test_from_arrays_checks_node_list_length():
    with pytest.raises(ValueError, match="node_list has 3 entries"):
        FrozenGraph.from_arrays([0, 1, 2], [1, 0], node_list=["a", "b", "c"])


def test_from_arrays_adopts_arrays_without_copy_or_validation():
    indptr = np.array([0, 2, 4], dtype=np.int64)
    indices = np.array([1, 1, 0, 0], dtype=np.int64)
    # validate=False is the trusted-producer path: nothing is checked
    fg = FrozenGraph.from_arrays(indptr, indices, copy=False, validate=False)
    assert fg.indptr is indptr
    assert fg.indices is indices


def test_from_arrays_counts_its_dispatch_path():
    from repro.observability.metrics import MetricsRegistry, set_registry
    from repro.observability.telemetry import dispatch_counts

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        FrozenGraph.from_arrays([0, 1, 2], [1, 0])
        FrozenGraph.from_arrays([0, 1, 2], [1, 0], dispatch_path="merge")
    finally:
        set_registry(previous)
    assert dispatch_counts(registry)["graphs.freeze"] == {"arrays": 1, "merge": 1}


def test_snapshot_pickle_round_trip_keeps_labels_and_kernels():
    graph = Graph()
    sites = [f"site-{i}" for i in range(FROZEN_MIN_NODES)]
    for a, b in zip(sites, sites[1:]):
        graph.add_edge(a, b)
    graph.add_edge(sites[0], sites[-1])
    fg = graph.frozen()
    restored = pickle.loads(pickle.dumps(fg))
    assert np.array_equal(restored.indptr, fg.indptr)
    assert np.array_equal(restored.indices, fg.indices)
    assert restored.node_list == fg.node_list
    assert restored.index == fg.index
    assert restored.bfs_distances(sites[3]) == fg.bfs_distances(sites[3])
    assert np.array_equal(
        restored.all_pairs_distance_sums(), fg.all_pairs_distance_sums()
    )


# ----------------------------------------------------------------------
# snapshot caching and invalidation
# ----------------------------------------------------------------------

def test_frozen_is_cached_until_topology_changes():
    graph = erdos_renyi(48, 0.1, np.random.default_rng(1))
    first = graph.frozen()
    assert isinstance(first, FrozenGraph)
    assert graph.frozen() is first  # unchanged topology: same snapshot
    # A genuinely new node + edge always invalidates.
    graph.add_node("fresh")
    graph.add_edge("fresh", 0)
    second = graph.frozen()
    assert second is not first
    assert second.generation != first.generation
    assert second.index_of("fresh") >= 0


def test_noop_mutations_do_not_invalidate():
    graph = erdos_renyi(48, 0.1, np.random.default_rng(2))
    graph.add_edge(0, 1)
    snapshot = graph.frozen()
    graph.add_edge(0, 1)          # edge already present
    graph.add_edge(1, 0)          # same undirected edge
    graph.add_node(0)             # node already present
    assert graph.frozen() is snapshot


def test_attribute_changes_do_not_invalidate():
    graph = erdos_renyi(48, 0.1, np.random.default_rng(3))
    graph.add_edge(0, 1)
    snapshot = graph.frozen()
    graph.set_node_attr(0, "color", "red")
    graph.set_edge_attr(0, 1, "weight", 2.5)
    assert graph.frozen() is snapshot


def test_removals_invalidate():
    graph = erdos_renyi(48, 0.15, np.random.default_rng(4))
    graph.add_edge(0, 1)
    snapshot = graph.frozen()
    graph.remove_edge(0, 1)
    after_edge = graph.frozen()
    assert after_edge is not snapshot
    graph.remove_node(2)
    after_node = graph.frozen()
    assert after_node is not after_edge
    assert not after_node.directed
    with pytest.raises(Exception):
        after_node.index_of(2)


def test_snapshot_reflects_state_at_freeze_time():
    graph = Graph()
    for i in range(FROZEN_MIN_NODES + 1):
        graph.add_edge(i, i + 1)
    old = graph.frozen()
    graph.add_edge(0, FROZEN_MIN_NODES + 1)  # shortcut edge
    new = graph.frozen()
    # The stale handle keeps its pre-mutation distances.
    assert old.bfs_distances(0)[FROZEN_MIN_NODES + 1] == FROZEN_MIN_NODES + 1
    assert new.bfs_distances(0)[FROZEN_MIN_NODES + 1] == 1
