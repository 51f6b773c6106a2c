"""Random-graph generators and structural metrics."""

import numpy as np
import pytest

from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    grid_2d,
    kleinberg_grid,
    manhattan,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    watts_strogatz,
)
from repro.graphs.graph import DiGraph, Graph
from repro.graphs.metrics import (
    average_clustering,
    average_degree,
    betweenness_centrality,
    closeness_centrality,
    clustering_coefficient,
    degree_centrality,
    degree_histogram,
    degree_sequence,
    eigenvector_centrality,
    fit_power_law,
    fit_power_law_auto_kmin,
    is_scale_free,
)
from repro.graphs.traversal import is_connected


class TestGenerators:
    def test_erdos_renyi_bounds(self, rng):
        g = erdos_renyi(50, 0.1, rng)
        assert g.num_nodes == 50
        assert 0 < g.num_edges < 50 * 49 / 2

    def test_erdos_renyi_extremes(self, rng):
        assert erdos_renyi(10, 0.0, rng).num_edges == 0
        assert erdos_renyi(10, 1.0, rng).num_edges == 45

    def test_erdos_renyi_bad_p(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, rng)

    def test_barabasi_albert_edge_count(self, rng):
        g = barabasi_albert(100, 3, rng)
        assert g.num_nodes == 100
        # seed star (m edges) + m per newcomer
        assert g.num_edges == 3 + 3 * (100 - 4)

    def test_barabasi_albert_connected(self, rng):
        assert is_connected(barabasi_albert(200, 2, rng))

    def test_barabasi_albert_validation(self, rng):
        with pytest.raises(ValueError):
            barabasi_albert(3, 3, rng)
        with pytest.raises(ValueError):
            barabasi_albert(10, 0, rng)

    def test_watts_strogatz_ring_degree(self, rng):
        g = watts_strogatz(20, 4, 0.0, rng)
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_watts_strogatz_rewiring_keeps_count(self, rng):
        g = watts_strogatz(30, 4, 0.5, rng)
        assert g.num_edges == 60

    def test_watts_strogatz_validation(self, rng):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1, rng)  # odd k

    def test_grid_structure(self):
        g = grid_2d(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4
        assert g.degree((0, 0)) == 2
        assert g.degree((1, 1)) == 4

    def test_kleinberg_grid_has_long_range(self, rng):
        # One long-range draw per node; draws landing on an existing
        # lattice neighbor are absorbed (Kleinberg's model allows
        # duplicates), so only a fraction materialise on a small grid.
        g = kleinberg_grid(6, 2.0, rng)
        long_range = [e for e in g.edges() if g.edge_attr(*e, "long_range")]
        assert len(long_range) >= 10

    def test_manhattan(self):
        assert manhattan((0, 0), (2, 3)) == 5

    def test_path_star_complete(self):
        assert path_graph(5).num_edges == 4
        assert star_graph(6).num_edges == 6
        assert complete_graph(5).num_edges == 10

    def test_random_tree_is_tree(self, rng):
        t = random_tree(40, rng)
        assert t.num_edges == 39
        assert is_connected(t)

    def test_random_connected_graph_connected(self, rng):
        g = random_connected_graph(60, 0.05, rng)
        assert is_connected(g)


class TestMetrics:
    def test_degree_sequence_sorted(self):
        g = star_graph(4)
        assert degree_sequence(g) == [4, 1, 1, 1, 1]

    def test_degree_histogram(self):
        g = star_graph(3)
        assert degree_histogram(g) == {3: 1, 1: 3}

    def test_average_degree(self):
        g = complete_graph(4)
        assert average_degree(g) == 3.0

    def test_power_law_fit_recovers_exponent(self, rng):
        # Sample from a discrete power law alpha = 2.5 via inverse CDF.
        # The (kmin - 0.5)-shift MLE is accurate for kmin >= 3 (Clauset
        # et al.); at kmin = 1 it is known to be biased, so fit the tail.
        alpha = 2.5
        u = rng.random(40000)
        samples = np.floor((1 - u) ** (-1 / (alpha - 1))).astype(int)
        samples = samples[samples >= 1]
        fit = fit_power_law(samples.tolist(), kmin=3)
        assert abs(fit.alpha - alpha) < 0.2

    def test_power_law_fit_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([3], kmin=1)

    def test_auto_kmin_runs(self, rng):
        g = barabasi_albert(500, 3, rng)
        fit = fit_power_law_auto_kmin(degree_sequence(g))
        assert 1.5 < fit.alpha < 4.5

    def test_ba_is_scale_free(self, rng):
        assert is_scale_free(barabasi_albert(800, 3, rng), kmin=3)

    def test_grid_not_scale_free(self):
        assert not is_scale_free(grid_2d(10, 10))

    def test_degree_centrality(self):
        g = star_graph(4)
        c = degree_centrality(g)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(0.25)

    def test_closeness_center_of_star_max(self):
        g = star_graph(5)
        c = closeness_centrality(g)
        assert c[0] == max(c.values())

    def test_betweenness_path_midpoint(self):
        g = path_graph(3)
        b = betweenness_centrality(g, normalized=True)
        assert b[1] == pytest.approx(1.0)
        assert b[0] == pytest.approx(0.0)

    def test_betweenness_matches_known_star(self):
        g = star_graph(4)
        b = betweenness_centrality(g, normalized=True)
        assert b[0] == pytest.approx(1.0)

    def test_eigenvector_symmetry(self):
        g = complete_graph(4)
        e = eigenvector_centrality(g)
        values = list(e.values())
        assert max(values) - min(values) < 1e-6

    def test_clustering_triangle(self):
        g = complete_graph(3)
        assert clustering_coefficient(g, 0) == 1.0

    def test_clustering_star_zero(self):
        g = star_graph(5)
        assert clustering_coefficient(g, 0) == 0.0
        assert average_clustering(g) == 0.0

    def test_directed_degree_sequence(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        assert degree_sequence(g) == [2, 1, 1]

    def test_undirected_metrics_reject_directed_graphs(self):
        """Betweenness and clustering count undirected pairs; on the
        directed path 0→1→2 they used to return 0.5 and 0.0."""
        d = DiGraph([(0, 1), (1, 2)])
        for metric in (
            lambda: betweenness_centrality(d, normalized=False),
            lambda: clustering_coefficient(d, 1),
            lambda: average_clustering(d),
        ):
            with pytest.raises(TypeError, match="undirected snapshot"):
                metric()
