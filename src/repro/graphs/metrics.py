"""Structural metrics: degree distributions, power-law fits, centralities.

Sec. III of the paper opens with the centrality toolbox of the social
network community — degree, closeness, betweenness, eigenvector/PageRank
— and the power-law / heavy-tail degree distributions.  These are the
*per-node* measures the paper contrasts with the *global* structures it
then builds; we implement them both as baselines and as priority
functions for trimming (Sec. III-A suggests degree or betweenness as
node priorities).

The power-law exponent fit is the discrete maximum-likelihood estimator
of Clauset–Shalizi–Newman, which the NSF check of Sec. III-B uses to
measure exponent stability across nested subgraphs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.graph import DiGraph, Graph
from repro.graphs.traversal import bfs_distances_reference

Node = Hashable
AnyGraph = Union[Graph, DiGraph]


def degree_sequence(graph: AnyGraph) -> List[int]:
    """All node degrees (total degree for digraphs), descending."""
    if isinstance(graph, DiGraph):
        degrees = [graph.in_degree(v) + graph.out_degree(v) for v in graph.nodes()]
    else:
        degrees = [graph.degree(v) for v in graph.nodes()]
    return sorted(degrees, reverse=True)


def degree_histogram(graph: AnyGraph) -> Dict[int, int]:
    """degree → number of nodes with that degree."""
    return dict(Counter(degree_sequence(graph)))


def average_degree(graph: AnyGraph) -> float:
    if graph.num_nodes == 0:
        return 0.0
    if isinstance(graph, DiGraph):
        return graph.num_edges / graph.num_nodes
    return 2.0 * graph.num_edges / graph.num_nodes


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law MLE fit P(k) ∝ k^-alpha for k >= kmin."""

    alpha: float
    kmin: int
    n_tail: int
    log_likelihood: float

    def __repr__(self) -> str:
        return (
            f"PowerLawFit(alpha={self.alpha:.3f}, kmin={self.kmin}, "
            f"n_tail={self.n_tail})"
        )


def fit_power_law(
    degrees: Sequence[int],
    kmin: int = 1,
) -> PowerLawFit:
    """Discrete MLE for the power-law exponent (Clauset et al. 2009).

    Uses the standard continuous approximation
    ``alpha = 1 + n / sum(ln(k / (kmin - 0.5)))`` over the tail
    ``k >= kmin``, which is accurate for kmin >= 1 and is the estimator
    the NSF exponent-stability check relies on.
    """
    tail = [k for k in degrees if k >= kmin]
    if len(tail) < 2:
        raise ValueError(
            f"need at least 2 degrees >= kmin={kmin}, got {len(tail)}"
        )
    shift = kmin - 0.5
    log_sum = sum(math.log(k / shift) for k in tail)
    if log_sum <= 0:
        raise ValueError("degenerate degree tail (all degrees equal kmin?)")
    n = len(tail)
    alpha = 1.0 + n / log_sum
    log_likelihood = n * math.log(alpha - 1.0) - n * math.log(shift) - alpha * log_sum
    return PowerLawFit(alpha=alpha, kmin=kmin, n_tail=n, log_likelihood=log_likelihood)


def fit_power_law_auto_kmin(
    degrees: Sequence[int], kmin_candidates: Optional[Sequence[int]] = None
) -> PowerLawFit:
    """Pick kmin minimising the KS distance between tail and fitted CDF."""
    positive = sorted(k for k in degrees if k >= 1)
    if not positive:
        raise ValueError("no positive degrees to fit")
    if kmin_candidates is None:
        kmin_candidates = sorted(set(positive))[:20]
    best: Optional[Tuple[float, PowerLawFit]] = None
    for kmin in kmin_candidates:
        tail = [k for k in positive if k >= kmin]
        if len(tail) < 10 or len(set(tail)) < 2:
            continue
        fit = fit_power_law(tail, kmin=kmin)
        ks = _ks_distance(tail, fit)
        if best is None or ks < best[0]:
            best = (ks, fit)
    if best is None:
        return fit_power_law(positive, kmin=positive[0])
    return best[1]


def _ks_distance(tail: Sequence[int], fit: PowerLawFit) -> float:
    """Kolmogorov–Smirnov distance between empirical and fitted tail CDFs."""
    tail_sorted = np.sort(np.asarray(tail, dtype=float))
    n = len(tail_sorted)
    empirical = np.arange(1, n + 1) / n
    shift = fit.kmin - 0.5
    model = 1.0 - (tail_sorted / shift) ** (1.0 - fit.alpha)
    return float(np.max(np.abs(empirical - model)))


def is_scale_free(
    graph: AnyGraph,
    alpha_range: Tuple[float, float] = (1.5, 4.0),
    kmin: int = 2,
    min_distinct_degrees: int = 6,
    max_ks_distance: float = 0.25,
) -> bool:
    """Heuristic SF test: plausible exponent *and* a heavy-tailed shape.

    The paper treats SF as "node degree distribution follows the
    power-law distribution".  Three conditions guard against spurious
    fits: the MLE exponent lies in ``alpha_range``; the degree support
    has at least ``min_distinct_degrees`` distinct values (a lattice
    with three degree values is not heavy-tailed no matter what the MLE
    says); and the KS distance between the tail and the fitted CDF is
    at most ``max_ks_distance``.
    """
    degrees = degree_sequence(graph)
    tail = [k for k in degrees if k >= kmin]
    if len(set(tail)) < min_distinct_degrees:
        return False
    try:
        fit = fit_power_law(degrees, kmin=kmin)
    except ValueError:
        return False
    if not alpha_range[0] <= fit.alpha <= alpha_range[1]:
        return False
    return _ks_distance(tail, fit) <= max_ks_distance


# ----------------------------------------------------------------------
# Centralities (Sec. III intro)
# ----------------------------------------------------------------------

def degree_centrality(graph: Graph) -> Dict[Node, float]:
    """Degree / (n - 1) for each node."""
    n = graph.num_nodes
    if n <= 1:
        return {node: 0.0 for node in graph.nodes()}
    return {node: graph.degree(node) / (n - 1) for node in graph.nodes()}


def closeness_centrality(graph: Graph) -> Dict[Node, float]:
    """(reachable - 1) / total-distance, scaled by coverage (Wasserman–Faust).

    Nodes reaching nothing score 0.  Matches the paper's "average length
    of the shortest path between a node and all other nodes" inverted so
    larger = more central.
    """
    return graph.frozen().closeness_centrality()


def closeness_centrality_reference(graph: Graph) -> Dict[Node, float]:
    """Closeness via dict-of-sets BFS: ground truth for the CSR path."""
    n = graph.num_nodes
    result: Dict[Node, float] = {}
    for node in graph.nodes():
        dist = bfs_distances_reference(graph, node)
        reachable = len(dist) - 1
        total = sum(dist.values())
        if reachable <= 0 or total == 0:
            result[node] = 0.0
            continue
        closeness = reachable / total
        if n > 1:
            closeness *= reachable / (n - 1)
        result[node] = closeness
    return result


def betweenness_centrality(graph: Graph, normalized: bool = True) -> Dict[Node, float]:
    """Brandes' exact betweenness for unweighted undirected graphs.

    Undirected only: raises ``TypeError`` on a ``DiGraph``.
    """
    return graph.frozen().betweenness_centrality(normalized=normalized)


def betweenness_centrality_reference(
    graph: Graph, normalized: bool = True
) -> Dict[Node, float]:
    """Brandes over dict-of-sets adjacency: ground truth for the CSR path."""
    betweenness: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
    for source in graph.nodes():
        stack: List[Node] = []
        predecessors: Dict[Node, List[Node]] = {node: [] for node in graph.nodes()}
        sigma: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
        sigma[source] = 1.0
        dist: Dict[Node, int] = {source: 0}
        queue: List[Node] = [source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            stack.append(v)
            for w in graph._adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                betweenness[w] += delta[w]
        # undirected: each pair counted twice, corrected below.
    n = graph.num_nodes
    scale = 0.5
    if normalized and n > 2:
        scale = 1.0 / ((n - 1) * (n - 2))
    for node in betweenness:
        betweenness[node] *= scale
    return betweenness


def eigenvector_centrality(
    graph: Graph,
    max_iterations: int = 1000,
    tolerance: float = 1e-9,
) -> Dict[Node, float]:
    """Power iteration on the adjacency matrix, L2-normalised."""
    nodes = sorted(graph.nodes(), key=repr)
    if not nodes:
        return {}
    score = {node: 1.0 / math.sqrt(len(nodes)) for node in nodes}
    for _ in range(max_iterations):
        new_score = {
            node: sum(score[neighbor] for neighbor in graph.neighbors(node))
            for node in nodes
        }
        norm = math.sqrt(sum(value * value for value in new_score.values()))
        if norm == 0:
            return {node: 0.0 for node in nodes}
        new_score = {node: value / norm for node, value in new_score.items()}
        drift = max(abs(new_score[node] - score[node]) for node in nodes)
        score = new_score
        if drift < tolerance:
            break
    return score


def clustering_coefficient(graph: Graph, node: Node) -> float:
    """Fraction of a node's neighbor pairs that are themselves adjacent.

    Undirected only: raises ``TypeError`` on a ``DiGraph``.
    """
    return graph.frozen().clustering_coefficient(node)


def clustering_coefficient_reference(graph: Graph, node: Node) -> float:
    """Pairwise-scan clustering: ground truth for the CSR path."""
    neighbors = sorted(graph.neighbors(node), key=repr)
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    for i, u in enumerate(neighbors):
        for v in neighbors[i + 1 :]:
            if graph.has_edge(u, v):
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient over all nodes."""
    return graph.frozen().average_clustering()


def average_clustering_reference(graph: Graph) -> float:
    """Mean local clustering via the pairwise scan (CSR ground truth)."""
    if graph.num_nodes == 0:
        return 0.0
    total = sum(
        clustering_coefficient_reference(graph, node) for node in graph.nodes()
    )
    return total / graph.num_nodes
