"""Localized topology control on unit disk graphs (Sec. III-A, [10]).

Static trimming "is usually conducted through topology control":
localized processes that drop links from a UDG using only neighbor
locations (or neighbor connectivity), keeping the topology sparse while
preserving connectivity.  Sparsity reduces bandwidth contention in
simultaneous wireless transmissions.

Implemented trimmers — each computable by every node from purely local
information:

* **Gabriel graph** — keep edge (u, v) iff the disk with diameter uv is
  empty; connectivity-preserving, planar, contains the MST.
* **Relative neighborhood graph (RNG)** — keep (u, v) iff no witness w
  is closer to both endpoints; a subgraph of the Gabriel graph, still
  connected and MST-containing.
* **XTC** — Wattenhofer's ranking-based trimming that needs no
  positions at all, only neighbor orderings by link quality/distance.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.graphs.graph import Graph
from repro.graphs.unit_disk import POSITION_ATTR, euclidean, positions_of
from repro.observability.tracing import traced

Node = Hashable
Point = Tuple[float, float]


def _positions(graph: Graph, positions: Optional[Mapping[Node, Point]]) -> Mapping[Node, Point]:
    if positions is not None:
        return positions
    return positions_of(graph)


@traced("repro.trimming.gabriel_graph")
def gabriel_graph(
    graph: Graph, positions: Optional[Mapping[Node, Point]] = None
) -> Graph:
    """The Gabriel subgraph: (u, v) survives iff no common neighbor lies
    inside the closed disk whose diameter is the segment uv.

    Localized: node u decides about (u, v) from the positions of its
    1-hop neighbors only (any blocking witness w is within range of
    both endpoints, hence a neighbor of u in the UDG).
    """
    pos = _positions(graph, positions)
    trimmed = Graph()
    for node in graph.nodes():
        trimmed.add_node(node, **{POSITION_ATTR: pos[node]})
    for u, v in graph.edges():
        mid = ((pos[u][0] + pos[v][0]) / 2.0, (pos[u][1] + pos[v][1]) / 2.0)
        radius = euclidean(pos[u], pos[v]) / 2.0
        witnesses = graph.neighbors(u) & graph.neighbors(v)
        blocked = any(
            euclidean(pos[w], mid) < radius - 1e-12 for w in witnesses
        )
        if not blocked:
            trimmed.add_edge(u, v)
    return trimmed


@traced("repro.trimming.rng")
def relative_neighborhood_graph(
    graph: Graph, positions: Optional[Mapping[Node, Point]] = None
) -> Graph:
    """The RNG subgraph: (u, v) survives iff no witness w has
    max(d(u, w), d(v, w)) < d(u, v).

    RNG ⊆ Gabriel ⊆ UDG, and the RNG still contains the Euclidean MST,
    so connectivity is preserved (property-tested).
    """
    pos = _positions(graph, positions)
    trimmed = Graph()
    for node in graph.nodes():
        trimmed.add_node(node, **{POSITION_ATTR: pos[node]})
    for u, v in graph.edges():
        duv = euclidean(pos[u], pos[v])
        witnesses = graph.neighbors(u) & graph.neighbors(v)
        blocked = any(
            max(euclidean(pos[u], pos[w]), euclidean(pos[v], pos[w])) < duv - 1e-12
            for w in witnesses
        )
        if not blocked:
            trimmed.add_edge(u, v)
    return trimmed


@traced("repro.trimming.xtc")
def xtc(
    graph: Graph,
    rank: Optional[Callable[[Node, Node], float]] = None,
    positions: Optional[Mapping[Node, Point]] = None,
) -> Graph:
    """XTC topology control: position-free trimming by link ranking.

    Each node u orders its neighbors by ``rank(u, v)`` (default:
    Euclidean distance with an ID tie-break, the canonical
    instantiation).  Edge (u, v) is dropped iff some common neighbor w
    is better-ranked than v from *both* u's and v's point of view —
    decided purely from exchanged neighbor orderings.  The result is
    symmetric, connected whenever the input is, and ⊆ RNG for distance
    ranks in general position.
    """
    if rank is None:
        pos = _positions(graph, positions)

        def rank(u: Node, v: Node) -> float:
            return euclidean(pos[u], pos[v])

    def order(u: Node, v: Node) -> Tuple[float, str]:
        return (rank(u, v), repr(sorted((repr(u), repr(v)))))

    trimmed = Graph()
    for node in graph.nodes():
        attrs = {}
        stored = graph.node_attr(node, POSITION_ATTR)
        if stored is not None:
            attrs[POSITION_ATTR] = stored
        trimmed.add_node(node, **attrs)
    for u, v in graph.edges():
        witnesses = graph.neighbors(u) & graph.neighbors(v)
        # order(v, u) == order(u, v) because the rank is symmetric.
        blocked = any(
            order(u, w) < order(u, v) and order(v, w) < order(u, v)
            for w in witnesses
        )
        if not blocked:
            trimmed.add_edge(u, v)
    return trimmed


def stretch_factor(
    original: Graph,
    trimmed: Graph,
    positions: Optional[Mapping[Node, Point]] = None,
    sample_pairs: Optional[int] = None,
    rng=None,
) -> float:
    """Worst-case Euclidean-length stretch of trimmed vs original paths.

    For each (sampled) connected pair, the ratio of weighted shortest
    path lengths trimmed/original; the maximum over pairs.  Sec. III-A:
    "subgraph distances closely resemble the distances in the original
    graph".
    """
    from repro.graphs.traversal import dijkstra

    pos = _positions(original, positions)

    def weight(graph: Graph) -> Callable[[Node, Node], float]:
        def w(u: Node, v: Node) -> float:
            return euclidean(pos[u], pos[v])

        return w

    nodes = sorted(original.nodes(), key=repr)
    if sample_pairs is not None and rng is not None and len(nodes) > 1:
        sources = [nodes[int(rng.integers(len(nodes)))] for _ in range(sample_pairs)]
    else:
        sources = nodes

    worst = 1.0
    for source in sources:
        base, _ = dijkstra(original, source, weight=weight(original))
        new, _ = dijkstra(trimmed, source, weight=weight(trimmed))
        for target, base_distance in base.items():
            if target == source or base_distance == 0:
                continue
            if target not in new:
                return math.inf
            worst = max(worst, new[target] / base_distance)
    return worst
