"""Landmark distance + gateway labels via multi-source sweeps (Sec. III/IV).

The paper's structural labels — NSF levels, safety levels,
dominating-set gateways — all answer the same two questions per node:
*how far* is the nearest labeled structure, and *through which member*
(the gateway) is it reached.  This module computes that (distance,
gateway) pair for an arbitrary landmark set, in hops or under
non-negative edge weights.

The reference bodies run one BFS / Dijkstra per landmark in repr order,
keeping strictly smaller distances — so ties go to the repr-smallest
landmark.  Both public label maps run as single multi-source sweeps
on the frozen CSR snapshot (:meth:`FrozenGraph.multi_source_labels` /
:meth:`FrozenGraph.weighted_multi_source_labels`), which reproduce the
reference output exactly: hop distances are integers, and the weighted
Bellman–Ford fixpoint reaches the same left-fold float sums as
per-landmark Dijkstra, so float distances are bit-identical too.  (The
weighted *gateway* tie-break could in principle diverge if two distinct
path sums collide after rounding; with continuous random weights that
never occurs, and the differential tests assert full equality.)
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from repro.errors import AlgorithmError, NodeNotFoundError
from repro.observability.tracing import traced

Node = Hashable
HopLabel = Tuple[int, Node]
WeightedLabel = Tuple[float, Node]


def select_landmarks(graph, count: int) -> List[Node]:
    """Deterministic landmark pick: highest degree first, repr tie-break."""
    if count <= 0:
        raise ValueError(f"landmark count must be positive, got {count}")
    ordered = sorted(graph.nodes(), key=lambda node: (-graph.degree(node), repr(node)))
    return ordered[: min(count, graph.num_nodes)]


@traced("repro.labeling.distance_gateway_labels")
def distance_gateway_labels(graph, landmarks: Iterable[Node]) -> Dict[Node, HopLabel]:
    """(hop distance, nearest landmark) per reachable node.

    Ties between equally near landmarks resolve to the repr-smallest
    one.  Runs one multi-source BFS on the frozen snapshot, exactly
    equal to :func:`distance_gateway_labels_reference`.
    """
    lms = list(landmarks)
    if not lms:
        raise ValueError("need at least one landmark")
    fg = graph.frozen()
    sources = np.array([fg.index_of(lm) for lm in lms], dtype=np.int64)
    level, landmark = fg.multi_source_labels(sources)
    nodes = fg.node_list
    return {
        nodes[i]: (int(level[i]), nodes[int(landmark[i])])
        for i in np.flatnonzero(level >= 0)
    }


def distance_gateway_labels_reference(
    graph, landmarks: Iterable[Node]
) -> Dict[Node, HopLabel]:
    """Per-landmark BFS in repr order: ground truth for the fast sweep."""
    lms = sorted(set(landmarks), key=repr)
    if not lms:
        raise ValueError("need at least one landmark")
    best: Dict[Node, HopLabel] = {}
    for lm in lms:
        if not graph.has_node(lm):
            raise NodeNotFoundError(lm)
        dist = {lm: 0}
        frontier = [lm]
        depth = 0
        while frontier:
            depth += 1
            nxt: List[Node] = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if v not in dist:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
        for node, d in dist.items():
            if node not in best or d < best[node][0]:
                best[node] = (d, lm)
    return best


@traced("repro.labeling.weighted_distance_gateway_labels")
def weighted_distance_gateway_labels(
    graph,
    landmarks: Iterable[Node],
    weight: str = "weight",
    default: float = 1.0,
) -> Dict[Node, WeightedLabel]:
    """(weighted distance, nearest landmark) under non-negative weights.

    Same tie rule as the hop variant.  Runs one multi-source
    Bellman–Ford sweep (bit-identical distances, see the module
    docstring).
    """
    lms = list(landmarks)
    if not lms:
        raise ValueError("need at least one landmark")
    fg = graph.frozen()
    sources = np.array([fg.index_of(lm) for lm in lms], dtype=np.int64)
    weights = fg.edge_weights(graph, weight, default)
    dist, landmark = fg.weighted_multi_source_labels(sources, weights)
    nodes = fg.node_list
    reach = np.isfinite(dist)
    return {
        nodes[i]: (float(dist[i]), nodes[int(landmark[i])])
        for i in np.flatnonzero(reach)
    }


def weighted_distance_gateway_labels_reference(
    graph,
    landmarks: Iterable[Node],
    weight: str = "weight",
    default: float = 1.0,
) -> Dict[Node, WeightedLabel]:
    """Per-landmark Dijkstra in repr order: ground truth for the sweep."""
    lms = sorted(set(landmarks), key=repr)
    if not lms:
        raise ValueError("need at least one landmark")
    best: Dict[Node, WeightedLabel] = {}
    for lm in lms:
        if not graph.has_node(lm):
            raise NodeNotFoundError(lm)
        dist: Dict[Node, float] = {lm: 0.0}
        heap: List[Tuple[float, str, Node]] = [(0.0, repr(lm), lm)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for v in sorted(graph.neighbors(u), key=repr):
                w = float(graph.edge_attr(u, v, weight, default))
                if w < 0.0:
                    raise AlgorithmError(
                        "negative edge weights are not supported"
                    )
                candidate = d + w
                if candidate < dist.get(v, float("inf")):
                    dist[v] = candidate
                    heapq.heappush(heap, (candidate, repr(v), v))
        for node, d in dist.items():
            current = best.get(node)
            if current is None or d < current[0]:
                best[node] = (d, lm)
    return best
