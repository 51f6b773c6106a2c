"""Unit tests for the adjacency-set graph containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.graph import DiGraph, Graph


def replay_copy(graph):
    """A clone built by replaying every node and edge through the public
    mutators: the order ``Graph.copy`` must reproduce."""
    clone = Graph()
    for node in graph._adj:
        clone.add_node(node, **graph._node_attrs[node])
    for (u, v), attrs in graph._edge_attrs.items():
        clone.add_edge(u, v, **attrs)
    return clone


def assert_copy_matches_replay(graph):
    clone, replayed = graph.copy(), replay_copy(graph)
    assert list(clone._adj) == list(replayed._adj)
    for node in replayed._adj:
        assert list(clone._adj[node]) == list(replayed._adj[node])
    assert list(clone._node_attrs.items()) == list(replayed._node_attrs.items())
    assert list(clone._edge_attrs.items()) == list(replayed._edge_attrs.items())
    assert clone._generation == replayed._generation
    # Fresh attribute dicts: writes to the clone never reach the source.
    for node in graph._adj:
        assert clone._node_attrs[node] is not graph._node_attrs[node]
        clone.set_node_attr(node, "clone-only", True)
        assert graph.node_attr(node, "clone-only") is None
    for (u, v) in graph._edge_attrs:
        assert clone._edge_attrs[u, v] is not graph._edge_attrs[u, v]
        clone.set_edge_attr(u, v, "clone-only", True)
        assert graph.edge_attr(u, v, "clone-only") is None
    # No shared snapshot; a later mutation of the clone refreezes it
    # and leaves the source's snapshot current.
    source_frozen = graph.frozen()
    assert clone._frozen is None
    clone_frozen = clone.frozen()
    assert clone_frozen is not source_frozen
    fresh = ("fresh", 0), ("fresh", 1)
    clone.add_edge(*fresh)
    refrozen = clone.frozen()
    assert refrozen is not clone_frozen
    assert refrozen.generation == clone._generation
    assert refrozen.num_edges == clone.num_edges
    assert refrozen.degree(fresh[0]) == 1
    assert graph.frozen() is source_frozen
    assert not graph.has_node(fresh[0])


@st.composite
def mutated_graphs(draw):
    """Graphs with attributes and removals behind them: removals leave
    deleted slots in the neighbor sets, where a set copy could iterate
    differently from a replay."""
    n = draw(st.integers(min_value=2, max_value=40))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    graph = Graph()
    for u, v in draw(st.lists(pairs, max_size=120)):
        graph.add_edge(u, v, weight=u * n + v)
    for node in draw(st.lists(st.integers(0, n - 1), max_size=8)):
        graph.add_node(node, color=node % 3)
    for u, v in draw(st.lists(pairs, max_size=60)):
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
    for node in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        if graph.has_node(node):
            graph.remove_node(node)
    for u, v in draw(st.lists(pairs, max_size=20)):
        graph.add_edge(u, v)
    return graph


class TestGraphNodes:
    def test_add_node(self):
        g = Graph()
        g.add_node("a")
        assert g.has_node("a")
        assert g.num_nodes == 1

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1

    def test_add_node_merges_attrs(self):
        g = Graph()
        g.add_node("a", color="red")
        g.add_node("a", size=3)
        assert g.node_attr("a", "color") == "red"
        assert g.node_attr("a", "size") == 3

    def test_node_attr_default(self):
        g = Graph()
        g.add_node("a")
        assert g.node_attr("a", "missing", 42) == 42

    def test_node_attr_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.node_attr("ghost", "x")

    def test_remove_node_drops_incident_edges(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")
        assert not g.has_node("b")
        assert g.num_edges == 0
        assert g.has_node("a") and g.has_node("c")

    def test_remove_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.remove_node("ghost")

    def test_contains_and_iter(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        assert 1 in g
        assert sorted(g) == [1, 2]
        assert len(g) == 2


class TestGraphEdges:
    def test_add_edge_adds_endpoints(self):
        g = Graph()
        g.add_edge("a", "b")
        assert g.has_node("a") and g.has_node("b")
        assert g.has_edge("a", "b") and g.has_edge("b", "a")

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_edge_attrs_symmetric(self):
        g = Graph()
        g.add_edge("a", "b", weight=2.5)
        assert g.edge_attr("a", "b", "weight") == 2.5
        assert g.edge_attr("b", "a", "weight") == 2.5

    def test_set_edge_attr(self):
        g = Graph()
        g.add_edge("a", "b")
        g.set_edge_attr("b", "a", "weight", 7)
        assert g.edge_attr("a", "b", "weight") == 7

    def test_remove_edge(self):
        g = Graph()
        g.add_edge("a", "b")
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.has_node("a")

    def test_remove_missing_edge_raises(self):
        g = Graph()
        g.add_node("a")
        g.add_node("b")
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge("a", "b")

    def test_edges_iterates_once_per_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        assert len(list(g.edges())) == 2
        assert g.num_edges == 2

    def test_parallel_edge_merges(self):
        g = Graph()
        g.add_edge("a", "b", weight=1)
        g.add_edge("b", "a", weight=2)
        assert g.num_edges == 1
        assert g.edge_attr("a", "b", "weight") == 2


class TestGraphNeighborhoods:
    def test_neighbors_returns_copy(self):
        g = Graph()
        g.add_edge("a", "b")
        neighbors = g.neighbors("a")
        neighbors.add("z")
        assert g.neighbors("a") == {"b"}

    def test_closed_neighbors(self):
        g = Graph()
        g.add_edge("a", "b")
        assert g.closed_neighbors("a") == {"a", "b"}

    def test_degree(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.degree("a") == 2
        assert g.degree("c") == 1

    def test_k_hop_neighbors(self):
        g = Graph()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            g.add_edge(u, v)
        assert g.k_hop_neighbors(0, 1) == {1}
        assert g.k_hop_neighbors(0, 2) == {1, 2}
        assert g.k_hop_neighbors(0, 10) == {1, 2, 3, 4}

    def test_k_hop_excludes_self(self):
        g = Graph()
        g.add_edge("a", "b")
        assert "a" not in g.k_hop_neighbors("a", 3)


class TestGraphWholeOps:
    def test_copy_is_independent(self):
        g = Graph()
        g.add_edge("a", "b", weight=1)
        clone = g.copy()
        clone.add_edge("b", "c")
        assert not g.has_node("c")
        assert clone.edge_attr("a", "b", "weight") == 1

    @pytest.mark.parametrize("n", [320, 4000])
    def test_copy_matches_replay_on_gnutella(self, n):
        from repro.datasets.gnutella import gnutella_largest_scc

        assert_copy_matches_replay(gnutella_largest_scc(n, np.random.default_rng(1)))

    @settings(max_examples=60, deadline=None)
    @given(mutated_graphs())
    def test_copy_matches_replay_after_removals(self, graph):
        assert_copy_matches_replay(graph)

    def test_subgraph_induced(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        sub = g.subgraph({1, 2})
        assert sub.num_nodes == 2
        assert sub.has_edge(1, 2)
        assert not sub.has_node(3)

    def test_subgraph_missing_node_raises(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(NodeNotFoundError):
            g.subgraph({1, 99})

    def test_to_directed_doubles_edges(self):
        g = Graph()
        g.add_edge("a", "b")
        dg = g.to_directed()
        assert dg.has_edge("a", "b") and dg.has_edge("b", "a")
        assert dg.num_edges == 2


class TestDiGraph:
    def test_directed_edges_one_way(self):
        g = DiGraph()
        g.add_edge("a", "b")
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_successors_predecessors(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("c", "b")
        assert g.successors("a") == {"b"}
        assert g.predecessors("b") == {"a", "c"}
        assert g.out_degree("a") == 1
        assert g.in_degree("b") == 2

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(ValueError):
            g.add_edge("x", "x")

    def test_remove_node_cleans_both_directions(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")
        assert g.num_edges == 0
        assert g.successors("a") == set()
        assert g.predecessors("c") == set()

    def test_reverse(self):
        g = DiGraph()
        g.add_edge("a", "b", weight=5)
        rev = g.reverse()
        assert rev.has_edge("b", "a")
        assert not rev.has_edge("a", "b")
        assert rev.edge_attr("b", "a", "weight") == 5

    def test_to_undirected_merges_opposing(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        ug = g.to_undirected()
        assert ug.num_edges == 1

    def test_subgraph(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub = g.subgraph({1, 2})
        assert sub.has_edge(1, 2)
        assert sub.num_nodes == 2

    def test_copy_independent(self):
        g = DiGraph()
        g.add_edge(1, 2)
        clone = g.copy()
        clone.remove_edge(1, 2)
        assert g.has_edge(1, 2)
