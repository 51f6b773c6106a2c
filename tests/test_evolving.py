"""Time-evolving graph container (Sec. II-B, Fig. 2)."""

import numpy as np
import pytest

from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.graph import Graph
from repro.temporal.evolving import EvolvingGraph, paper_fig2_evolving_graph


class TestConstruction:
    def test_add_contact(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 2)
        assert eg.has_contact("a", "b", 2)
        assert eg.has_contact("b", "a", 2)
        assert not eg.has_contact("a", "b", 3)

    def test_labels(self):
        eg = EvolvingGraph(horizon=10)
        eg.add_contact("a", "b", 1)
        eg.add_contact("a", "b", 7)
        assert eg.labels("a", "b") == frozenset({1, 7})

    def test_labels_missing_edge_raises(self):
        eg = EvolvingGraph(horizon=3, nodes=["a", "b"])
        with pytest.raises(EdgeNotFoundError):
            eg.labels("a", "b")

    def test_time_out_of_range(self):
        eg = EvolvingGraph(horizon=3)
        with pytest.raises(ValueError):
            eg.add_contact("a", "b", 3)
        with pytest.raises(ValueError):
            eg.add_contact("a", "b", -1)

    def test_self_contact_rejected(self):
        eg = EvolvingGraph(horizon=3)
        with pytest.raises(ValueError):
            eg.add_contact("a", "a", 0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            EvolvingGraph(horizon=0)

    def test_periodic_contact(self):
        eg = EvolvingGraph(horizon=10)
        eg.add_periodic_contact("a", "b", phase=1, period=3)
        assert eg.labels("a", "b") == frozenset({1, 4, 7})

    def test_weights(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1, weight=2.5)
        assert eg.weight("a", "b", 1) == 2.5

    def test_weight_default(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        assert eg.weight("a", "b", 1) == 1.0

    def test_counts(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        eg.add_contact("a", "b", 2)
        eg.add_contact("b", "c", 0)
        assert eg.num_edges == 2
        assert eg.num_contacts == 3


class TestMutation:
    def test_remove_contact_keeps_edge(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        eg.add_contact("a", "b", 3)
        eg.remove_contact("a", "b", 1)
        assert eg.labels("a", "b") == frozenset({3})

    def test_remove_last_contact_drops_edge(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        eg.remove_contact("a", "b", 1)
        assert not eg.has_edge("a", "b")
        assert "b" not in eg.neighbors("a")

    def test_remove_missing_contact_raises(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        with pytest.raises(EdgeNotFoundError):
            eg.remove_contact("a", "b", 2)

    def test_remove_node(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        eg.add_contact("b", "c", 2)
        eg.remove_node("b")
        assert not eg.has_node("b")
        assert eg.num_edges == 0
        assert eg.has_node("a")

    def test_remove_missing_node_raises(self):
        eg = EvolvingGraph(horizon=3)
        with pytest.raises(NodeNotFoundError):
            eg.remove_node("ghost")


class TestViews:
    def test_snapshot(self):
        eg = EvolvingGraph(horizon=4)
        eg.add_contact("a", "b", 1)
        eg.add_contact("b", "c", 2)
        snap1 = eg.snapshot(1)
        assert snap1.has_edge("a", "b")
        assert not snap1.has_edge("b", "c")
        assert snap1.num_nodes == 3  # spanning subgraph keeps all nodes

    def test_footprint(self):
        eg = EvolvingGraph(horizon=4)
        eg.add_contact("a", "b", 1)
        eg.add_contact("b", "c", 2)
        fp = eg.footprint()
        assert fp.has_edge("a", "b") and fp.has_edge("b", "c")

    def test_neighbors_at(self):
        eg = EvolvingGraph(horizon=4)
        eg.add_contact("a", "b", 1)
        eg.add_contact("a", "c", 2)
        assert eg.neighbors_at("a", 1) == {"b"}
        assert eg.neighbors_at("a", 3) == set()

    def test_contacts_from_sorted(self):
        eg = EvolvingGraph(horizon=10)
        eg.add_contact("a", "b", 5)
        eg.add_contact("a", "c", 2)
        eg.add_contact("a", "b", 8)
        contacts = eg.contacts_from("a")
        assert contacts == [(2, "c"), (5, "b"), (8, "b")]
        assert eg.contacts_from("a", not_before=3) == [(5, "b"), (8, "b")]

    def test_all_contacts_sorted(self):
        eg = EvolvingGraph(horizon=10)
        eg.add_contact("x", "y", 7)
        eg.add_contact("a", "b", 2)
        times = [t for t, _, _ in eg.all_contacts()]
        assert times == sorted(times)

    def test_subgraph(self):
        eg = paper_fig2_evolving_graph()
        sub = eg.subgraph({"A", "B", "C"})
        assert sub.num_nodes == 3
        assert sub.labels("A", "B") == eg.labels("A", "B")
        assert not sub.has_node("D")

    def test_copy_independent(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        clone = eg.copy()
        clone.add_contact("a", "b", 2)
        assert eg.labels("a", "b") == frozenset({1})

    @pytest.mark.parametrize("keep", [None, range(0, 12, 2)], ids=["copy", "subgraph"])
    def test_bulk_copy_matches_contact_by_contact_copy(self, keep):
        rng = np.random.default_rng(7)
        eg = EvolvingGraph(horizon=150, nodes=range(12))
        for _ in range(400):
            u, v = (int(x) for x in rng.choice(12, size=2, replace=False))
            weight = float(rng.random()) if rng.random() < 0.3 else None
            eg.add_contact(u, v, int(rng.integers(150)), weight)
        nodes = set(eg.nodes()) if keep is None else set(keep)
        expected = contact_by_contact_subgraph(eg, nodes)
        got = eg.copy() if keep is None else eg.subgraph(nodes)
        assert set(got.nodes()) == set(expected.nodes())
        assert list(got._labels) == list(expected._labels)
        for key, times in expected._labels.items():
            assert list(got._labels[key]) == list(times)
        assert {n: list(s) for n, s in got._adj.items()} == {
            n: list(s) for n, s in expected._adj.items()
        }
        assert list(got._weights.items()) == list(expected._weights.items())
        assert got.all_contacts() == expected.all_contacts()
        # The copy owns its sets, and a later mutation still invalidates.
        before = got.frozen().num_contacts
        generation = got._generation
        a, b = next(iter(got.edges()))
        fresh = min(set(range(150)) - got.labels(a, b))
        got.add_contact(a, b, fresh)
        assert got._generation > generation
        assert got.frozen().num_contacts == before + 1
        assert not eg.has_contact(a, b, fresh)

    def test_contact_index_backs_contacts_from(self):
        eg = paper_fig2_evolving_graph()
        times, pairs = eg.contact_index("B")
        assert pairs == eg.contacts_from("B")
        assert times == [time for time, _ in pairs]
        assert eg.contacts_from("B", not_before=3) == [
            pair for pair in pairs if pair[0] >= 3
        ]


def contact_by_contact_subgraph(eg, keep):
    """The add_contact loop that ``EvolvingGraph.subgraph`` replaces."""
    sub = EvolvingGraph(horizon=eg.horizon, nodes=keep)
    for (u, v), times in eg._labels.items():
        if u in keep and v in keep:
            for time in times:
                sub.add_contact(u, v, time, eg._weights.get(((u, v), time)))
    return sub


class TestConversions:
    def test_from_snapshots_roundtrip(self):
        eg = EvolvingGraph(horizon=3)
        eg.add_contact("a", "b", 0)
        eg.add_contact("b", "c", 2)
        rebuilt = EvolvingGraph.from_snapshots(list(eg.snapshots()))
        assert rebuilt.labels("a", "b") == eg.labels("a", "b")
        assert rebuilt.labels("b", "c") == eg.labels("b", "c")

    def test_from_contacts(self):
        eg = EvolvingGraph.from_contacts([("a", "b", 0), ("b", "c", 4)])
        assert eg.horizon == 5
        assert eg.has_contact("b", "c", 4)

    def test_from_contacts_empty_needs_horizon(self):
        with pytest.raises(ValueError):
            EvolvingGraph.from_contacts([])


class TestPaperFig2:
    def test_label_sets(self):
        eg = paper_fig2_evolving_graph()
        assert eg.labels("A", "D") == frozenset({1, 3})
        assert eg.labels("A", "B") == frozenset({1, 4})
        assert eg.labels("B", "C") == frozenset({2, 5})
        assert eg.labels("B", "D") == frozenset({0, 6})
        assert eg.labels("C", "D") == frozenset({6})

    def test_static_pair_every_unit(self):
        eg = paper_fig2_evolving_graph()
        assert eg.labels("E", "F") == frozenset(range(7))
