"""Graph models for complex networks (Sec. II of the paper).

This package is the static substrate: adjacency-set graphs, the
intersection-graph family (unit disk graphs for vicinity in space,
interval graphs for vicinity in time, interval hypergraphs), structured
topologies (binary and generalized hypercubes), random-graph workload
generators, and structural metrics (degree distributions, power-law
fits, centralities).
"""

from repro.graphs.csr import FrozenGraph
from repro.graphs.delta import DEFAULT_PATCH_THRESHOLD, PatchedGraph
from repro.graphs.graph import DiGraph, Graph
from repro.graphs.intersection import (
    common_elements,
    intersection_graph,
    intersection_graph_by_predicate,
)
from repro.graphs.interval import (
    find_asteroidal_triple,
    interval_graph,
    interval_representation,
    is_at_free,
    is_chordal,
    is_interval_graph,
    lex_bfs,
    maximal_cliques_chordal,
    multiple_interval_graph,
    perfect_elimination_ordering,
)
from repro.graphs.interval_hypergraph import (
    Hyperedge,
    IntervalHypergraph,
    interval_hypergraph,
)
from repro.graphs.hypercube import (
    GeneralizedHypercube,
    binary_hypercube,
    flip_bit,
    hamming_distance,
    parse_address,
)
from repro.graphs.unit_disk import (
    random_unit_disk_graph,
    star_k16,
    unit_disk_graph,
)
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    grid_2d,
    kleinberg_grid,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    watts_strogatz,
)
from repro.graphs.multilayer import (
    MultilayerNetwork,
    social_physical_coupling,
)
from repro.graphs.metrics import (
    PowerLawFit,
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
from repro.graphs.traversal import (
    bfs_distances,
    bfs_order,
    bfs_tree,
    connected_components,
    dfs_order,
    diameter,
    dijkstra,
    eccentricity,
    is_connected,
    largest_strongly_connected_component,
    minimum_spanning_tree,
    reconstruct_path,
    shortest_path,
    strongly_connected_components,
)

__all__ = [
    "DEFAULT_PATCH_THRESHOLD",
    "DiGraph",
    "FrozenGraph",
    "Graph",
    "PatchedGraph",
    "GeneralizedHypercube",
    "Hyperedge",
    "MultilayerNetwork",
    "IntervalHypergraph",
    "PowerLawFit",
    "average_clustering",
    "average_degree",
    "barabasi_albert",
    "betweenness_centrality",
    "bfs_distances",
    "bfs_order",
    "bfs_tree",
    "binary_hypercube",
    "closeness_centrality",
    "clustering_coefficient",
    "common_elements",
    "complete_graph",
    "connected_components",
    "degree_centrality",
    "degree_histogram",
    "degree_sequence",
    "dfs_order",
    "diameter",
    "dijkstra",
    "eccentricity",
    "eigenvector_centrality",
    "erdos_renyi",
    "fit_power_law",
    "find_asteroidal_triple",
    "fit_power_law_auto_kmin",
    "flip_bit",
    "grid_2d",
    "hamming_distance",
    "intersection_graph",
    "intersection_graph_by_predicate",
    "interval_graph",
    "interval_hypergraph",
    "interval_representation",
    "is_at_free",
    "is_chordal",
    "is_connected",
    "is_interval_graph",
    "is_scale_free",
    "kleinberg_grid",
    "largest_strongly_connected_component",
    "lex_bfs",
    "maximal_cliques_chordal",
    "minimum_spanning_tree",
    "multiple_interval_graph",
    "parse_address",
    "path_graph",
    "perfect_elimination_ordering",
    "random_connected_graph",
    "random_tree",
    "random_unit_disk_graph",
    "reconstruct_path",
    "shortest_path",
    "social_physical_coupling",
    "star_graph",
    "star_k16",
    "strongly_connected_components",
    "unit_disk_graph",
    "watts_strogatz",
]
