"""Structural trimming: replacement rules, topology control, spanners,
forwarding sets (Sec. III-A)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.properties import (
    preserves_completion_times,
    preserves_time_i_connectivity,
)
from repro.datasets.human_contacts import rate_model_trace
from repro.graphs.generators import erdos_renyi
from repro.graphs.traversal import is_connected
from repro.graphs.unit_disk import random_unit_disk_graph
from repro.temporal.evolving import EvolvingGraph, paper_fig2_evolving_graph
from repro.trimming.forwarding_set import (
    TimeVaryingForwardingSets,
    optimal_copy_varying_sets,
    optimal_forwarding_sets,
    simulate_single_copy,
)
from repro.trimming.spanners import greedy_spanner, spanner_stretch
from repro.trimming import static_rules
from repro.trimming.static_rules import (
    betweenness_priority,
    degree_priority,
    id_priority,
    ignorable_links,
    link_ignorable,
    link_ignorable_reference,
    node_trimmable,
    node_trimmable_reference,
    trim_nodes,
)
from repro.trimming.topology_control import (
    gabriel_graph,
    relative_neighborhood_graph,
    stretch_factor,
    xtc,
)


class TestPriorities:
    def test_id_priority_descending_from_a(self):
        eg = paper_fig2_evolving_graph()
        p = id_priority(eg)
        assert p["A"] > p["B"] > p["C"] > p["D"] > p["E"] > p["F"]

    def test_degree_priority_distinct(self):
        eg = paper_fig2_evolving_graph()
        p = degree_priority(eg)
        assert len(set(p.values())) == len(p)

    def test_betweenness_priority_distinct(self):
        eg = paper_fig2_evolving_graph()
        p = betweenness_priority(eg)
        assert len(set(p.values())) == len(p)


class TestReplacementRules:
    def test_paper_claim_a_ignores_d(self):
        """Fig. 2: any A->D->C path is replaced by an A->B->C path."""
        eg = paper_fig2_evolving_graph()
        assert link_ignorable(eg, "A", "D", id_priority(eg))

    def test_link_not_ignorable_without_replacement(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "b", 1)
        eg.add_contact("b", "c", 2)
        # No alternative route from a to c at all.
        assert not link_ignorable(eg, "a", "b", id_priority(eg))

    def test_node_trimmable_with_replacement(self):
        # u relays a->b at (1, 2); direct a-b contact at 1 replaces it
        # (first label 1 >= 1, last label 1 <= 2).
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "u", 1)
        eg.add_contact("u", "b", 2)
        eg.add_contact("a", "b", 1)
        priorities = {"a": 3.0, "b": 2.0, "u": 1.0}
        assert node_trimmable(eg, "u", priorities)

    def test_node_not_trimmable_when_replacement_departs_too_early(self):
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("a", "u", 2)
        eg.add_contact("u", "b", 3)
        eg.add_contact("a", "b", 1)  # too early: i' = 1 < i = 2
        priorities = {"a": 3.0, "b": 2.0, "u": 1.0}
        assert not node_trimmable(eg, "u", priorities)

    def test_node_not_trimmable_when_replacement_arrives_too_late(self):
        eg = EvolvingGraph(horizon=6)
        eg.add_contact("a", "u", 1)
        eg.add_contact("u", "b", 2)
        eg.add_contact("a", "b", 4)  # j' = 4 > j = 2
        priorities = {"a": 3.0, "b": 2.0, "u": 1.0}
        assert not node_trimmable(eg, "u", priorities)

    def test_priority_blocks_low_priority_intermediates(self):
        # Replacement path a -> w -> b exists, but w has lower priority
        # than the node u being trimmed, so u must stay.
        eg = EvolvingGraph(horizon=6)
        eg.add_contact("a", "u", 1)
        eg.add_contact("u", "b", 3)
        eg.add_contact("a", "w", 1)
        eg.add_contact("w", "b", 2)
        high_w = {"a": 4.0, "b": 3.0, "w": 2.0, "u": 1.0}
        low_w = {"a": 4.0, "b": 3.0, "u": 2.0, "w": 1.0}
        assert node_trimmable(eg, "u", high_w)
        assert not node_trimmable(eg, "u", low_w)

    def test_hop_bounded_variant(self):
        # Replacement needs 2 intermediates; rejected when capped at 1.
        eg = EvolvingGraph(horizon=10)
        eg.add_contact("a", "u", 2)
        eg.add_contact("u", "b", 5)
        eg.add_contact("a", "x", 2)
        eg.add_contact("x", "y", 3)
        eg.add_contact("y", "b", 4)
        priorities = {"a": 9, "b": 8, "x": 7, "y": 6, "u": 1}
        assert node_trimmable(eg, "u", priorities)
        assert not node_trimmable(eg, "u", priorities, max_intermediates=1)

    def test_hop_bounded_search_revisits_with_fewer_intermediates(self):
        # x is first reached at time 1 via p (2 intermediates), then at
        # time 2 directly (1 intermediate); only the later, shorter
        # arrival leaves room for y within the bound of 2.
        eg = EvolvingGraph(horizon=5)
        eg.add_contact("w", "u", 1)
        eg.add_contact("u", "v", 3)
        eg.add_contact("w", "p", 1)
        eg.add_contact("p", "x", 1)
        eg.add_contact("w", "x", 2)
        eg.add_contact("x", "y", 3)
        eg.add_contact("y", "v", 3)
        assert node_trimmable_reference(eg, "u", max_intermediates=2)
        assert node_trimmable(eg, "u", max_intermediates=2)
        assert not node_trimmable(eg, "u", max_intermediates=1)

    def test_trim_preserves_completion_times(self, rng):
        for seed in range(3):
            local = np.random.default_rng(seed)
            eg = EvolvingGraph(horizon=8)
            nodes = list(range(8))
            for u in nodes:
                for v in nodes:
                    if u < v and local.random() < 0.5:
                        eg.add_contact(u, v, int(local.integers(8)))
            trimmed, removed = trim_nodes(eg)
            assert preserves_completion_times(eg, trimmed, start=0)
            assert preserves_time_i_connectivity(eg, trimmed, start=0)

    def test_ignorable_links_contains_paper_pair(self):
        eg = paper_fig2_evolving_graph()
        assert ("A", "D") in ignorable_links(eg, id_priority(eg))

    def test_trim_nodes_returns_removal_order(self):
        eg = paper_fig2_evolving_graph()
        trimmed, removed = trim_nodes(eg)
        assert set(removed) | set(trimmed.nodes()) == set(eg.nodes())


# ----------------------------------------------------------------------
# The shared journey search against the per-quadruple reference rules
# ----------------------------------------------------------------------

PRIORITY_RULES = {"id": id_priority, "degree": degree_priority, "none": None}


@st.composite
def small_evolving_graphs(draw):
    """≤ 8 nodes, horizon ≤ 8, edges often carrying several labels."""
    n = draw(st.integers(2, 8))
    horizon = draw(st.integers(1, 8))
    eg = EvolvingGraph(horizon=horizon, nodes=range(n))
    node = st.integers(0, n - 1)
    contacts = draw(
        st.lists(st.tuples(node, node, st.integers(0, horizon - 1)), max_size=4 * n)
    )
    for u, v, time in contacts:
        if u != v:
            eg.add_contact(u, v, time)
    return eg


@settings(max_examples=300, deadline=None)
@given(
    eg=small_evolving_graphs(),
    rule=st.sampled_from(sorted(PRIORITY_RULES)),
    max_intermediates=st.sampled_from([None, 0, 1, 2]),
)
def test_rules_match_reference_on_small_graphs(eg, rule, max_intermediates):
    priority_fn = PRIORITY_RULES[rule]
    priorities = priority_fn(eg) if priority_fn is not None else None
    for u in eg.nodes():
        assert node_trimmable(eg, u, priorities, max_intermediates) == (
            node_trimmable_reference(eg, u, priorities, max_intermediates)
        ), u
        for d in eg.neighbors(u):
            assert link_ignorable(eg, u, d, priorities, max_intermediates) == (
                link_ignorable_reference(eg, u, d, priorities, max_intermediates)
            ), (u, d)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_node_rule_matches_reference_on_contact_trace(k):
    trace, _ = rate_model_trace(
        32, (2, 2, 3), np.random.default_rng([1, k]),
        rate0=0.2, decay=0.5, end_time=150.0,
    )
    eg = trace.to_evolving(1.0)
    priorities = id_priority(eg)
    for u in sorted(eg.nodes()):
        assert node_trimmable(eg, u, priorities) == node_trimmable_reference(
            eg, u, priorities
        ), u


@pytest.mark.parametrize("seed", range(5))
def test_trim_nodes_removal_order_matches_reference(seed, monkeypatch):
    local = np.random.default_rng(seed)
    eg = EvolvingGraph(horizon=10, nodes=range(12))
    for u in range(12):
        for v in range(u + 1, 12):
            if local.random() < 0.3:
                for time in set(int(x) for x in local.integers(0, 10, size=2)):
                    eg.add_contact(u, v, time)
    _, removed = trim_nodes(eg)
    monkeypatch.setattr(static_rules, "node_trimmable", node_trimmable_reference)
    _, expected = trim_nodes(eg)
    assert removed == expected
    assert removed  # these graphs do trim nodes


class TestTopologyControl:
    def test_hierarchy_rng_subset_gabriel_subset_udg(self, medium_udg):
        gabriel = gabriel_graph(medium_udg)
        rng_graph = relative_neighborhood_graph(medium_udg)
        for u, v in rng_graph.edges():
            assert gabriel.has_edge(u, v)
        for u, v in gabriel.edges():
            assert medium_udg.has_edge(u, v)

    def test_all_trimmers_preserve_connectivity(self, medium_udg):
        assert is_connected(medium_udg)
        for trimmer in (gabriel_graph, relative_neighborhood_graph, xtc):
            assert is_connected(trimmer(medium_udg)), trimmer.__name__

    def test_trimmers_actually_trim(self, medium_udg):
        assert gabriel_graph(medium_udg).num_edges < medium_udg.num_edges

    def test_xtc_symmetric_result(self, medium_udg):
        trimmed = xtc(medium_udg)
        for u, v in trimmed.edges():
            assert trimmed.has_edge(v, u)

    def test_stretch_factor_finite(self, medium_udg):
        trimmed = gabriel_graph(medium_udg)
        stretch = stretch_factor(medium_udg, trimmed)
        assert 1.0 <= stretch < math.inf

    def test_gabriel_keeps_isolated_pair(self):
        from repro.graphs.unit_disk import unit_disk_graph

        g = unit_disk_graph({"a": (0, 0), "b": (0.5, 0)}, radius=1.0)
        trimmed = gabriel_graph(g)
        assert trimmed.has_edge("a", "b")


class TestSpanners:
    def test_spanner_stretch_bound_holds(self, rng):
        g = erdos_renyi(40, 0.4, rng)
        for t in (1.5, 2.0, 3.0):
            spanner = greedy_spanner(g, t)
            assert spanner_stretch(g, spanner) <= t + 1e-9

    def test_spanner_sparser_for_larger_t(self, rng):
        g = erdos_renyi(50, 0.5, rng)
        tight = greedy_spanner(g, 1.5)
        loose = greedy_spanner(g, 4.0)
        assert loose.num_edges <= tight.num_edges

    def test_t_below_one_rejected(self, rng):
        g = erdos_renyi(10, 0.5, rng)
        with pytest.raises(ValueError):
            greedy_spanner(g, 0.5)

    def test_t1_spanner_keeps_all_shortest_distances(self, rng):
        g = erdos_renyi(25, 0.4, rng)
        spanner = greedy_spanner(g, 1.0)
        assert spanner_stretch(g, spanner) == 1.0


def _make_rates(n, rng, low=0.05, high=0.5):
    rates = {}
    for i in range(n):
        for j in range(i + 1, n):
            rates[frozenset((i, j))] = float(rng.uniform(low, high))
    return rates


class TestForwardingSets:
    def test_fixed_point_destination_zero(self, rng):
        rates = _make_rates(6, rng)
        policy = optimal_forwarding_sets(rates, 5)
        assert policy.expected_delay[5] == 0.0

    def test_forwarding_sets_point_downhill(self, rng):
        rates = _make_rates(6, rng)
        policy = optimal_forwarding_sets(rates, 5)
        for node, members in policy.forwarding_sets.items():
            for member in members:
                assert policy.expected_delay[member] < policy.expected_delay[node]

    def test_fixed_point_equation_holds(self, rng):
        rates = _make_rates(6, rng)
        policy = optimal_forwarding_sets(rates, 5)
        for node in range(5):
            members = policy.forwarding_sets[node]
            total = sum(rates[frozenset((node, w))] for w in members)
            weighted = sum(
                rates[frozenset((node, w))] * policy.expected_delay[w]
                for w in members
            )
            expected = (1.0 + weighted) / total
            assert policy.expected_delay[node] == pytest.approx(expected)

    def test_unreachable_node_infinite_delay(self):
        rates = {frozenset((0, 1)): 0.5}
        policy = optimal_forwarding_sets(rates, 1)
        # Node 2 has no contacts at all.
        rates2 = {frozenset((0, 1)): 0.5, frozenset((2, 3)): 0.1}
        policy2 = optimal_forwarding_sets(rates2, 1)
        assert math.isinf(policy2.expected_delay[2])
        assert policy2.forwarding_sets[2] == frozenset()

    def test_simulation_matches_analysis(self, rng):
        rates = _make_rates(5, rng, 0.2, 0.6)
        policy = optimal_forwarding_sets(rates, 4)
        times = [
            simulate_single_copy(rates, 0, 4, "forwarding-set", rng, forwarding=policy)
            for _ in range(800)
        ]
        mean = sum(times) / len(times)
        assert mean == pytest.approx(policy.expected_delay[0], rel=0.25)

    def test_forwarding_beats_direct(self, rng):
        rates = _make_rates(6, rng, 0.01, 0.3)
        policy = optimal_forwarding_sets(rates, 5)
        direct = [simulate_single_copy(rates, 0, 5, "direct", rng) for _ in range(300)]
        guided = [
            simulate_single_copy(rates, 0, 5, "forwarding-set", rng, forwarding=policy)
            for _ in range(300)
        ]
        assert sum(guided) / 300 < sum(direct) / 300

    def test_unknown_policy_rejected(self, rng):
        rates = _make_rates(3, rng)
        with pytest.raises(ValueError):
            simulate_single_copy(rates, 0, 2, "teleport", rng)


class TestTimeVaryingSets:
    def test_forwarding_set_shrinks_over_time(self, rng):
        """The paper's claim from [13]: the set at the same intermediate
        node shrinks over time (with a positive forwarding cost)."""
        rates = _make_rates(6, rng)
        tv = TimeVaryingForwardingSets(rates, 5, u0=10.0, beta=1.0, cost=1.0, dt=0.05)
        previous = None
        for t in np.linspace(0.0, 9.5, 12):
            current = tv.forwarding_set(0, float(t))
            if previous is not None:
                assert current <= previous
            previous = current

    def test_value_decreases_in_time(self, rng):
        rates = _make_rates(5, rng)
        tv = TimeVaryingForwardingSets(rates, 4, u0=5.0, beta=1.0, dt=0.05)
        values = [tv.value(0, t) for t in (0.0, 2.0, 4.0, 4.9)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_destination_value_is_utility(self, rng):
        rates = _make_rates(4, rng)
        tv = TimeVaryingForwardingSets(rates, 3, u0=8.0, beta=2.0, dt=0.01)
        assert tv.value(3, 0.0) == pytest.approx(8.0, abs=0.1)
        assert tv.value(3, 4.0) == 0.0

    def test_validation(self, rng):
        rates = _make_rates(3, rng)
        with pytest.raises(ValueError):
            TimeVaryingForwardingSets(rates, 2, u0=0.0, beta=1.0)
        with pytest.raises(ValueError):
            TimeVaryingForwardingSets(rates, 2, u0=1.0, beta=1.0, cost=-1.0)


class TestCopyVaryingSets:
    def test_budget_one_never_replicates(self, rng):
        rates = _make_rates(5, rng)
        policy = optimal_copy_varying_sets(rates, 4, budget=1)
        for holders, accepted in policy.acceptance.items():
            assert accepted == frozenset()

    def test_more_copies_weakly_faster(self, rng):
        rates = _make_rates(6, rng)
        single = optimal_copy_varying_sets(rates, 5, budget=1)
        multi = optimal_copy_varying_sets(rates, 5, budget=3)
        start = frozenset({0})
        assert multi.expected_delay[start] <= single.expected_delay[start] + 1e-9

    def test_acceptance_varies_with_copies(self, rng):
        """The paper: the forwarding set becomes *copy-varying*."""
        rates = _make_rates(6, rng)
        policy = optimal_copy_varying_sets(rates, 5, budget=3)
        fresh = policy.acceptance[frozenset({0})]       # 2 copies to spend
        assert fresh  # with copies left, replication to someone is worth it

    def test_full_budget_stops_accepting(self, rng):
        rates = _make_rates(5, rng)
        policy = optimal_copy_varying_sets(rates, 4, budget=2)
        full = frozenset({0, 1})
        assert policy.acceptance[full] == frozenset()

    def test_too_many_nodes_rejected(self, rng):
        rates = _make_rates(16, rng)
        with pytest.raises(Exception):
            optimal_copy_varying_sets(rates, 0, budget=2, max_nodes=10)
