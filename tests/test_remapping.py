"""Structural remapping: geo routing, hyperbolic, feature space (Sec. III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.gnutella import gnutella_largest_scc
from repro.errors import AlgorithmError, NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.generators import path_graph, random_tree, star_graph
from repro.graphs.traversal import connected_components
from repro.graphs.unit_disk import unit_disk_graph
from repro.mobility.community import random_profiles
from repro.remapping.feature_space import (
    FeatureSpace,
    contact_frequency_by_feature_distance,
    simulate_delivery,
)
from repro.remapping.geo_routing import (
    crescent_hole_positions,
    delivery_rate,
    greedy_route,
    grid_with_holes,
)
from repro.remapping import hyperbolic
from repro.remapping.hyperbolic import (
    HyperbolicEmbedding,
    _greedy_property_holds,
    embed_tree,
    greedy_route_hyperbolic,
    hyperbolic_distance,
)
from repro.temporal.evolving import EvolvingGraph


def holey_deployment(rng, n=350):
    positions = crescent_hole_positions(n, 20, 20, rng)
    graph = unit_disk_graph(positions, 1.8)
    giant = graph.subgraph(connected_components(graph)[0])
    return giant, {node: positions[node] for node in giant.nodes()}


class TestGreedyGeoRouting:
    def test_delivers_on_clear_field(self, rng):
        positions = {i: (float(x), float(y)) for i, (x, y) in enumerate(
            zip(rng.uniform(0, 10, 150), rng.uniform(0, 10, 150)))}
        graph = unit_disk_graph(positions, 2.5)
        giant = graph.subgraph(connected_components(graph)[0])
        nodes = sorted(giant.nodes())
        route = greedy_route(giant, nodes[0], nodes[-1])
        # A dense clear field rarely has local minima between two nodes.
        assert route.delivered or route.stuck_at is not None

    def test_stuck_at_hole(self, rng):
        """Fig. 5(a): greedy gets stuck at a non-convex hole."""
        giant, positions = holey_deployment(rng)
        nodes = sorted(giant.nodes())
        pairs = []
        while len(pairs) < 150:
            s = nodes[int(rng.integers(len(nodes)))]
            t = nodes[int(rng.integers(len(nodes)))]
            if s != t:
                pairs.append((s, t))
        rate = delivery_rate(giant, pairs, positions)
        assert rate < 1.0  # some packets must get stuck

    def test_route_result_shape(self, rng):
        giant, positions = holey_deployment(rng, n=200)
        nodes = sorted(giant.nodes())
        route = greedy_route(giant, nodes[0], nodes[0])
        assert route.delivered and route.hops == 0

    def test_missing_node_raises(self, rng):
        giant, _ = holey_deployment(rng, n=150)
        with pytest.raises(NodeNotFoundError):
            greedy_route(giant, "ghost", sorted(giant.nodes())[0])

    def test_strict_progress_no_loops(self, rng):
        giant, positions = holey_deployment(rng, n=200)
        nodes = sorted(giant.nodes())
        for _ in range(30):
            s = nodes[int(rng.integers(len(nodes)))]
            t = nodes[int(rng.integers(len(nodes)))]
            route = greedy_route(giant, s, t)
            assert len(set(route.path)) == len(route.path)

    def test_grid_with_holes_removes_nodes(self, rng):
        full = grid_with_holes(10, 1.6, holes=[], rng=rng)
        holed = grid_with_holes(10, 1.6, holes=[((5, 5), 2.0)], rng=rng)
        assert holed.num_nodes < full.num_nodes


class TestHyperbolicRemap:
    def test_distance_properties(self):
        a, b = (0.0, 1.0), (2.0, 1.0)
        assert hyperbolic_distance(a, a) == 0.0
        assert hyperbolic_distance(a, b) == hyperbolic_distance(b, a)
        assert hyperbolic_distance(a, b) > 0

    def test_distance_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            hyperbolic_distance((0.0, -1.0), (0.0, 1.0))

    def test_embedding_distance_symmetric(self, rng):
        tree = random_tree(40, rng)
        embedding = embed_tree(tree)
        assert embedding.distance(3, 17) == pytest.approx(
            embedding.distance(17, 3), rel=1e-9
        )

    def test_embedding_tree_edge_length_tau(self, rng):
        tree = path_graph(5)
        embedding = embed_tree(tree, certify=False, tau=3.0)
        assert embedding.distance(0, 1) == pytest.approx(3.0, rel=1e-6)

    def test_certified_trees(self, rng):
        for n in (10, 60, 150):
            tree = random_tree(n, rng)
            embedding = embed_tree(tree)
            # Certification succeeded: greedy delivers on the tree itself.
            nodes = sorted(tree.nodes())
            for _ in range(15):
                s = nodes[int(rng.integers(n))]
                t = nodes[int(rng.integers(n))]
                assert greedy_route_hyperbolic(tree, embedding, s, t).delivered

    def test_spanning_tree_ignores_build_order(self):
        """Equal node and edge sets give equal trees.  8 and 16 share a
        hash slot in 0's small adjacency set, so the set's iteration
        order follows insertion and would pick 24's parent."""
        edges = [(0, 8), (0, 16), (8, 24), (16, 24)]
        built = [Graph(), Graph()]
        for u, v in edges:
            built[0].add_edge(u, v)
        for u, v in reversed(edges):
            built[1].add_edge(v, u)
        first, second = (embed_tree(g).tree_parent for g in built)
        assert first == second
        assert first[24] == 16  # the repr-first of its candidate parents

        scc = gnutella_largest_scc(300, np.random.default_rng(7))
        rebuilt = Graph()
        for u, v in sorted(scc.edges(), reverse=True):
            rebuilt.add_edge(v, u)
        assert embed_tree(rebuilt).tree_parent == embed_tree(scc).tree_parent

    def test_star_embedding(self):
        star = star_graph(8)
        embedding = embed_tree(star)
        assert greedy_route_hyperbolic(star, embedding, 3, 7).delivered

    def test_guaranteed_delivery_where_euclid_fails(self, rng):
        """Fig. 5(b): hyperbolic remap delivers 100% on the holey field."""
        giant, positions = holey_deployment(rng)
        embedding = embed_tree(giant)
        nodes = sorted(giant.nodes())
        euclid_failures = 0
        for _ in range(120):
            s = nodes[int(rng.integers(len(nodes)))]
            t = nodes[int(rng.integers(len(nodes)))]
            if s == t:
                continue
            if not greedy_route(giant, s, t, positions).delivered:
                euclid_failures += 1
            assert greedy_route_hyperbolic(giant, embedding, s, t).delivered
        assert euclid_failures > 0

    def test_distance_table_matches_pairwise(self, rng):
        tree = random_tree(25, rng)
        embedding = embed_tree(tree, certify=False)
        table = embedding.distance_table(7)
        for node in tree.nodes():
            assert table[node] == pytest.approx(embedding.distance(node, 7), rel=1e-6)

    def test_disconnected_graph_rejected(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(AlgorithmError):
            embed_tree(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            embed_tree(Graph())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(certify=False, max_doublings=0),
            dict(tau=0.0),
            dict(tau=float("nan")),
            dict(tau=-2.0),
            dict(tau=float("inf")),
            dict(tau=1500.0, certify=False),
        ],
        ids=[
            "no-doublings", "tau-zero", "tau-nan", "tau-negative", "tau-inf",
            "tau-overflows",
        ],
    )
    def test_invalid_arguments_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            embed_tree(path_graph(5), **kwargs)

    @pytest.mark.parametrize(
        "tau", [1500.0, 0.0, -1.0, float("nan"), float("inf")],
        ids=["overflows", "zero", "negative", "nan", "inf"],
    )
    def test_direct_construction_validates_tau(self, tau):
        # Regression: built directly, an overflowing τ escaped as a bare
        # OverflowError from _translation, and nan or negative τ passed.
        with pytest.raises(ValueError, match="tau"):
            HyperbolicEmbedding(
                root=0, tree_parent={0: None, 1: 0}, edge_angle={1: 0.0}, tau=tau
            )

    def test_largest_representable_tau_still_embeds(self):
        # exp(1400 / 2) is finite: only τ past about 1419 is rejected.
        embedding = embed_tree(path_graph(4), tau=1400.0, certify=False)
        assert embedding.tau == 1400.0

    def test_certification_stops_before_tau_overflows(self, monkeypatch):
        # Doubling from τ = 1 reaches 2048, whose exp(τ / 2) overflows,
        # well before 20 doublings run out.
        monkeypatch.setattr(hyperbolic, "_greedy_property_holds", lambda g, e: False)
        with pytest.raises(AlgorithmError, match="could not certify"):
            embed_tree(path_graph(4), tau=1.0, max_doublings=20)


# ----------------------------------------------------------------------
# distance_table: the depth walk against the per-node reference
# ----------------------------------------------------------------------

# τ = 1e-9 drives log-cosh below 0 by rounding wobble, τ = 1 keeps it
# in [0, 30), and τ = 30 pushes a 40-hop path far past 30.
BRANCH_TAUS = (1e-9, 1.0, 30.0)


def single_node():
    g = Graph()
    g.add_node("only")
    return g


def assert_tables_exact(graph, tau):
    embedding = embed_tree(graph, tau=tau, certify=False)
    for target in graph.nodes():
        assert embedding.distance_table(target) == embedding.distance_table_reference(
            target
        )


@st.composite
def connected_graphs(draw, max_nodes=24):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = Graph()
    g.add_node(0)
    for node in range(1, n):
        g.add_edge(node, draw(st.integers(min_value=0, max_value=node - 1)))
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


def greedy_property_oracle(graph, embedding):
    """The per-node certification loop that _greedy_property_holds replaced."""
    nodes = sorted(graph.nodes(), key=repr)
    tree_neighbors = {node: [] for node in nodes}
    for node, parent in embedding.tree_parent.items():
        if parent is not None:
            tree_neighbors[node].append(parent)
            tree_neighbors[parent].append(node)
    for target in nodes:
        table = embedding.distance_table(target)
        for node in nodes:
            if node == target:
                continue
            own = table[node]
            if not any(table[nb] < own - 1e-9 for nb in tree_neighbors[node]):
                return False
    return True


class TestDistanceTableKernel:
    @pytest.mark.parametrize("tau", BRANCH_TAUS)
    @pytest.mark.parametrize(
        "make_graph",
        [lambda: path_graph(40), lambda: star_graph(30), single_node],
        ids=["path-40", "star-30", "single-node"],
    )
    def test_bit_identical_to_reference(self, make_graph, tau):
        assert_tables_exact(make_graph(), tau)

    def test_every_distance_branch_fires(self, monkeypatch):
        seen = []
        branch = hyperbolic._distance_from_log_cosh

        def recording(log_cosh):
            seen.append(log_cosh)
            return branch(log_cosh)

        monkeypatch.setattr(hyperbolic, "_distance_from_log_cosh", recording)
        for tau in BRANCH_TAUS:
            assert_tables_exact(path_graph(40), tau)
        assert min(seen) < 0.0
        assert any(0.0 <= x < 30.0 for x in seen)
        assert max(seen) >= 30.0

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.sampled_from(BRANCH_TAUS + (0.7, 4.0)))
    def test_bit_identical_on_random_graphs(self, graph, tau):
        assert_tables_exact(graph, tau)

    def test_bit_identical_on_gnutella(self):
        # About 90k entries: enough for numpy's log to differ from math's
        # in the last bit somewhere, were the kernel to use it.
        assert_tables_exact(gnutella_largest_scc(320, np.random.default_rng(101)), None)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.sampled_from(BRANCH_TAUS + (0.7, 4.0)))
    def test_certification_matches_per_node_loop_on_random_graphs(self, graph, tau):
        embedding = embed_tree(graph, tau=tau, certify=False)
        assert _greedy_property_holds(graph, embedding) == greedy_property_oracle(
            graph, embedding
        )

    def test_unknown_target_rejected(self):
        embedding = embed_tree(path_graph(4))
        with pytest.raises(NodeNotFoundError):
            embedding.distance_table(99)
        with pytest.raises(NodeNotFoundError):
            embedding.distance_table_reference(99)

    def test_certification_matches_per_node_loop(self):
        outcomes = set()
        for seed in range(101, 106):
            graph = gnutella_largest_scc(320, np.random.default_rng(seed))
            for tau in (None, 0.5, 1.0, 2.0, 3.0, 40.0):
                embedding = embed_tree(graph, tau=tau, certify=False)
                holds = _greedy_property_holds(graph, embedding)
                assert holds == greedy_property_oracle(graph, embedding), (seed, tau)
                outcomes.add(holds)
        assert outcomes == {True, False}


def synthetic_eg_and_space(rng, n=24, radices=(2, 2, 3)):
    profiles = random_profiles(n, radices, rng)
    space = FeatureSpace(profiles, radices)
    eg = EvolvingGraph(horizon=60, nodes=list(profiles))
    # Dense contacts between feature-close pairs, sparse otherwise.
    nodes = list(profiles)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            distance = space.feature_distance(u, v)
            period = 3 + 6 * distance
            phase = int(rng.integers(period))
            eg.add_periodic_contact(u, v, phase=phase, period=period)
    return eg, space, profiles


class TestFeatureSpace:
    def test_profile_lookup_and_communities(self, rng):
        profiles = {0: (0, 1), 1: (0, 1), 2: (1, 0)}
        space = FeatureSpace(profiles, (2, 2))
        assert space.profile_of(1) == (0, 1)
        assert space.community((0, 1)) == {0, 1}
        assert space.occupied_profiles() == {(0, 1), (1, 0)}

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpace({0: (5, 0)}, (2, 2))

    def test_strong_link_definition(self):
        space = FeatureSpace({0: (0, 0), 1: (0, 1), 2: (1, 1)}, (2, 2))
        assert space.is_strong_link(0, 1)
        assert not space.is_strong_link(0, 2)

    def test_shortest_profile_path(self):
        space = FeatureSpace({0: (0, 0, 0), 1: (1, 1, 2)}, (2, 2, 3))
        path = space.shortest_profile_path(0, 1)
        assert len(path) - 1 == 3

    def test_disjoint_profile_paths(self):
        space = FeatureSpace({0: (0, 0, 0), 1: (1, 1, 2)}, (2, 2, 3))
        paths = space.disjoint_profile_paths(0, 1)
        assert len(paths) == 3

    def test_direct_vs_epidemic_vs_fspace(self, rng):
        eg, space, profiles = synthetic_eg_and_space(rng)
        nodes = list(profiles)
        delivered = {"direct": 0, "epidemic": 0, "fspace-greedy": 0}
        delays = {"direct": [], "epidemic": [], "fspace-greedy": []}
        for t_index in range(1, 13):
            target = nodes[t_index]
            for policy in delivered:
                result = simulate_delivery(eg, space, nodes[0], target, policy)
                if result.delivered:
                    delivered[policy] += 1
                    delays[policy].append(result.delivery_time)
        # Epidemic is the delay lower bound; fspace must beat direct-ish.
        assert delivered["epidemic"] >= delivered["fspace-greedy"]
        assert delivered["fspace-greedy"] >= 1

    def test_epidemic_uses_many_copies_fspace_one(self, rng):
        eg, space, profiles = synthetic_eg_and_space(rng)
        nodes = list(profiles)
        epidemic = simulate_delivery(eg, space, nodes[0], nodes[5], "epidemic")
        greedy = simulate_delivery(eg, space, nodes[0], nodes[5], "fspace-greedy")
        assert greedy.copies == 1
        if epidemic.delivered:
            assert epidemic.copies >= greedy.copies

    def test_multipath_delivers(self, rng):
        eg, space, profiles = synthetic_eg_and_space(rng)
        nodes = list(profiles)
        ok = 0
        for target in nodes[1:8]:
            result = simulate_delivery(eg, space, nodes[0], target, "fspace-multipath")
            ok += result.delivered
        assert ok >= 1

    def test_same_node_trivial(self, rng):
        eg, space, profiles = synthetic_eg_and_space(rng, n=6)
        result = simulate_delivery(eg, space, 0, 0, "direct")
        assert result.delivered and result.delivery_time == 0

    def test_unknown_policy(self, rng):
        eg, space, profiles = synthetic_eg_and_space(rng, n=6)
        with pytest.raises(ValueError):
            simulate_delivery(eg, space, 0, 1, "warp")

    def test_contact_frequency_decays(self, rng):
        eg, space, profiles = synthetic_eg_and_space(rng)
        freq = contact_frequency_by_feature_distance(eg, space)
        distances = sorted(freq)
        assert all(
            freq[a] >= freq[b] for a, b in zip(distances, distances[1:])
        )
