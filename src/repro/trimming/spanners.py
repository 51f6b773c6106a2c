"""Greedy t-spanners: distance-preserving structural trimming (Sec. III-A).

"Subgraph distances closely resemble the distances in the original
graph for designing the approximation algorithms" [8] — the classical
construction with that guarantee is the greedy t-spanner: scan edges by
increasing weight and keep an edge only when the current spanner's
distance between its endpoints exceeds t × its weight.  The result
satisfies d_spanner(u, v) <= t · d_graph(u, v) for *all* pairs, while
dropping most edges of dense graphs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Set, Tuple

from repro.observability.telemetry import record_dispatch
from repro.graphs.graph import Graph
from repro.graphs.traversal import dijkstra
from repro.observability.tracing import traced

Node = Hashable


def _is_unit_weighted(graph: Graph, weight: str, default_weight: float) -> bool:
    """True when every edge resolves to weight 1.0 (the hop-metric case)."""
    if default_weight != 1.0:
        return False
    return all(
        attrs.get(weight, 1.0) == 1.0 for attrs in graph._edge_attrs.values()
    )


@traced("repro.trimming.greedy_spanner")
def greedy_spanner(
    graph: Graph,
    t: float,
    weight: str = "weight",
    default_weight: float = 1.0,
) -> Graph:
    """The greedy t-spanner of a weighted undirected graph.

    Guarantee: for every edge (u, v) of the input — and hence every
    pair — the spanner distance is at most ``t`` times the graph
    distance.  ``t`` must be >= 1.
    """
    if t < 1.0:
        raise ValueError(f"stretch t must be >= 1, got {t}")
    spanner = Graph()
    for node in graph.nodes():
        spanner.add_node(node)

    def weight_of(u: Node, v: Node) -> float:
        return float(graph.edge_attr(u, v, weight, default_weight))

    def spanner_weight(u: Node, v: Node) -> float:
        return float(spanner.edge_attr(u, v, weight, default_weight))

    edges = sorted(
        graph.edges(), key=lambda e: (weight_of(e[0], e[1]), repr(e))
    )
    if _is_unit_weighted(graph, weight, default_weight):
        # Hop metric: the bounded Dijkstra reduces to a depth-limited
        # BFS over the growing spanner (exact — all distances are
        # integers), which drops the heap and float bookkeeping.
        max_hops = int(t)
        for u, v in edges:
            if _within_hops(spanner._adj, u, v, max_hops):
                continue
            spanner.add_edge(u, v, **{weight: 1.0})
        return spanner
    for u, v in edges:
        w = weight_of(u, v)
        distance = _bounded_distance(spanner, u, v, t * w, spanner_weight)
        if distance is None or distance > t * w:
            spanner.add_edge(u, v, **{weight: w})
    return spanner


def _within_hops(
    adjacency: Dict[Node, Set[Node]], source: Node, target: Node, max_hops: int
) -> bool:
    """Depth-limited BFS: is ``target`` within ``max_hops`` of ``source``?"""
    if max_hops <= 0:
        return source == target
    seen = {source}
    frontier = [source]
    for _ in range(max_hops):
        next_frontier = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor == target:
                    return True
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            return False
        frontier = next_frontier
    return False


def _bounded_distance(
    graph: Graph,
    source: Node,
    target: Node,
    bound: float,
    weight_of: Callable[[Node, Node], float],
) -> Optional[float]:
    """Dijkstra distance source→target, early-exiting past ``bound``."""
    import heapq

    dist: Dict[Node, float] = {source: 0.0}
    heap = [(0.0, 0, source)]
    counter = 1
    done = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == target:
            return d
        if d > bound:
            return None
        done.add(node)
        # Read the adjacency set live — graph.neighbors() would copy it
        # on every heap pop.
        for neighbor in graph._adj[node]:
            candidate = d + weight_of(node, neighbor)
            if candidate <= bound and (neighbor not in dist or candidate < dist[neighbor]):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return None


def spanner_stretch(
    graph: Graph,
    spanner: Graph,
    weight: str = "weight",
    default_weight: float = 1.0,
) -> float:
    """Measured worst-case stretch of the spanner over all pairs.

    Exact verification of the t-spanner property (used in tests and in
    the trimming ablation benchmark); returns inf if the spanner
    disconnects a connected pair.
    """
    if (
        _is_unit_weighted(graph, weight, default_weight)
        and _is_unit_weighted(spanner, weight, default_weight)
        and all(spanner.has_node(node) for node in graph.nodes())
    ):
        record_dispatch("trimming.spanner_stretch", "fast")
        return _hop_stretch(graph, spanner)
    record_dispatch("trimming.spanner_stretch", "reference")

    def graph_weight(u: Node, v: Node) -> float:
        return float(graph.edge_attr(u, v, weight, default_weight))

    def spanner_w(u: Node, v: Node) -> float:
        return float(spanner.edge_attr(u, v, weight, default_weight))

    worst = 1.0
    for source in graph.nodes():
        base, _ = dijkstra(graph, source, weight=graph_weight)
        new, _ = dijkstra(spanner, source, weight=spanner_w)
        for target, base_distance in base.items():
            if target == source or base_distance == 0:
                continue
            if target not in new:
                return float("inf")
            worst = max(worst, new[target] / base_distance)
    return worst


def _hop_stretch(graph: Graph, spanner: Graph) -> float:
    """Unit-weight stretch via per-source vectorized BFS on both graphs."""
    import numpy as np

    base_fg = graph.frozen()
    spanner_fg = spanner.frozen()
    # Align the spanner's index space with the base graph's.
    remap = np.array(
        [spanner_fg.index[node] for node in base_fg.node_list], dtype=np.int64
    )
    worst = 1.0
    for i in range(base_fg.n):
        base_levels = base_fg.bfs_levels(i)
        spanner_levels = spanner_fg.bfs_levels(int(remap[i]))[remap]
        reachable = base_levels > 0
        if not reachable.any():
            continue
        if (spanner_levels[reachable] < 0).any():
            return float("inf")
        ratios = spanner_levels[reachable] / base_levels[reachable]
        worst = max(worst, float(ratios.max()))
    return worst
