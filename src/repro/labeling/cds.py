"""Localized connected dominating set by marking + trimming (Sec. IV-A, [22]).

The Wu–Dai marking process for a virtual backbone in sensor networks
and MANETs uses two colors:

* marking rule — a node colors itself **black** if it has two
  unconnected neighbors (decidable from 2-hop information alone);
  all black nodes form a CDS of a connected graph;
* trimming rule (Rule k) — a black node reverts to **white** if its
  closed neighborhood is covered by a *connected* set of black
  neighbors, each with higher priority.

Both phases are localized: the marking needs one exchange of neighbor
lists, the trimming needs only the 2-hop neighborhood, and both are
also provided as :class:`~repro.runtime.engine.NodeAlgorithm`\\ s that
run on the distributed engine with round counting.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.observability.telemetry import record_dispatch
from repro.graphs.graph import Graph
from repro.runtime.engine import Network, NodeAlgorithm, NodeContext

Node = Hashable
Priority = Dict[Node, float]


def default_priorities(graph: Graph) -> Priority:
    """Distinct priorities: (degree, ID-rank) flattened to floats.

    Higher degree = higher priority (strategically important nodes stay
    black), ID breaks ties.
    """
    ordered = sorted(graph.nodes(), key=repr)
    n = len(ordered)
    return {
        node: graph.degree(node) + (n - index) / (n + 1.0)
        for index, node in enumerate(ordered)
    }


def marking_process(graph: Graph) -> Set[Node]:
    """The marking rule: black iff two neighbors are unconnected.

    Equivalent local statement: the node's neighborhood is not a
    clique.  Returns the set of black nodes.  The bit-packed
    neighbor-pair count (:meth:`FrozenGraph.marking_mask`, exact
    equality) scans n/64 words per neighbor, so it only pays off when
    the graph is dense enough; very sparse graphs keep the
    short-circuiting reference scan (empirical crossover n^2 ~ 512 m —
    the perf-labeling bench records both regimes).
    :func:`marking_process_reference` below.
    """
    n = graph.num_nodes
    if n * n <= 512 * graph.num_edges:
        record_dispatch("labeling.marking_process", "fast")
        fg = graph.frozen()
        nodes = fg.node_list
        return {nodes[i] for i in np.flatnonzero(fg.marking_mask())}
    record_dispatch("labeling.marking_process", "reference")
    return marking_process_reference(graph)


def marking_process_reference(graph: Graph) -> Set[Node]:
    """The pairwise neighbor scan: ground truth for :func:`marking_process`."""
    black: Set[Node] = set()
    for node in graph.nodes():
        neighbors = sorted(graph.neighbors(node), key=repr)
        is_black = False
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1 :]:
                if not graph.has_edge(u, v):
                    is_black = True
                    break
            if is_black:
                break
        if is_black:
            black.add(node)
    return black


def _covered_by(
    graph: Graph,
    node: Node,
    coverers: Set[Node],
) -> bool:
    """Is N[node] ⊆ ∪ N[coverers] with G[coverers] connected?

    The generalised Rule k coverage condition.
    """
    if not coverers:
        return False
    # Connectivity of the coverer set (within the induced subgraph).
    coverer_list = sorted(coverers, key=repr)
    seen = {coverer_list[0]}
    frontier = [coverer_list[0]]
    while frontier:
        current = frontier.pop()
        for other in graph.neighbors(current):
            if other in coverers and other not in seen:
                seen.add(other)
                frontier.append(other)
    if seen != coverers:
        return False
    covered: Set[Node] = set()
    for coverer in coverers:
        covered |= graph.closed_neighbors(coverer)
    return graph.closed_neighbors(node) <= covered


def rule_k_trimming(
    graph: Graph,
    black: Set[Node],
    priorities: Optional[Priority] = None,
) -> Set[Node]:
    """Restricted Rule k: unmark black nodes covered by higher-priority
    connected black neighbors.

    Evaluated against the *original* marking (not the shrinking set),
    which is the standard restricted rule guaranteeing that the result
    remains a CDS.
    """
    if priorities is None:
        priorities = default_priorities(graph)
    result = set(black)
    for node in sorted(black, key=repr):
        higher = {
            other
            for other in graph.neighbors(node)
            if other in black and priorities[other] > priorities[node]
        }
        # Try the full higher-priority neighbor set (the strongest
        # connected subset that could cover); restrict to its connected
        # components containing coverage.
        if _covered_by(graph, node, higher):
            result.discard(node)
    return result


def wu_dai_cds(
    graph: Graph, priorities: Optional[Priority] = None
) -> Tuple[Set[Node], Set[Node]]:
    """Marking + Rule-k trimming; returns (marked, trimmed CDS)."""
    black = marking_process(graph)
    return black, rule_k_trimming(graph, black, priorities)


def is_dominating_set(graph: Graph, candidate: Set[Node]) -> bool:
    """Every node outside ``candidate`` has a neighbor inside it."""
    for node in graph.nodes():
        if node in candidate:
            continue
        if not graph.neighbors(node) & candidate:
            return False
    return True


def is_connected_dominating_set(graph: Graph, candidate: Set[Node]) -> bool:
    """Dominating and inducing a connected subgraph."""
    if not is_dominating_set(graph, candidate):
        return False
    if not candidate:
        return graph.num_nodes <= 1
    members = sorted(candidate, key=repr)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        current = frontier.pop()
        for other in graph.neighbors(current):
            if other in candidate and other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen == candidate


class MarkingAlgorithm(NodeAlgorithm):
    """Distributed marking: exchange neighbor lists, then decide.

    Localized (a constant two rounds on the synchronous engine) and
    *delay-tolerant*: the decision is made once the neighbor list of
    every neighbor has arrived, whatever order and delay the messages
    suffered — so the same code also runs unchanged on the
    asynchronous engine (Sec. IV-C).
    """

    def init(self, ctx: NodeContext) -> None:
        ctx.state["color"] = "white"
        ctx.state["reports"] = {}
        ctx.broadcast(("neighbors", set(ctx.neighbors)))
        if not ctx.neighbors:
            ctx.halt()

    def step(self, ctx: NodeContext) -> None:
        reports: Dict[Node, Set[Node]] = ctx.state["reports"]
        for message in ctx.inbox:
            kind, payload = message.payload
            if kind == "neighbors":
                reports[message.sender] = payload
        if not all(neighbor in reports for neighbor in ctx.neighbors):
            return  # keep waiting for slow neighbors
        neighbors = list(ctx.neighbors)
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1 :]:
                if v not in reports[u]:
                    ctx.state["color"] = "black"
                    break
            if ctx.state["color"] == "black":
                break
        ctx.halt()


def distributed_marking(graph: Graph) -> Tuple[Set[Node], int]:
    """Run :class:`MarkingAlgorithm` on the engine; (black set, rounds)."""
    network = Network(graph, lambda node: MarkingAlgorithm())
    stats = network.run()
    black = {
        node for node, color in network.states("color").items() if color == "black"
    }
    return black, stats.rounds


def paper_fig8_graph() -> Graph:
    """A Fig. 8-style fixture (DS / CDS / MIS static-labeling example).

    The original figure is only available as an image, so this is a
    reconstructed 5-node example exhibiting the same phenomena, with
    outcomes verified in tests:

    * marking: A and E stay white (their neighborhoods are cliques),
      B, C, D are black and form a CDS;
    * Rule-k trimming: C is covered by the higher-priority B
      (N[C] ⊆ N[B]) and reverts to white — the backbone shrinks to
      the smaller CDS {B, D};
    * the MIS and one-round neighbor-designated DS computed on this
      graph are valid, and the DS is neither connected nor independent
      in general — the paper's "(but not a CDS or an IS)" remark.
    """
    graph = Graph()
    for u, v in (
        ("A", "B"), ("A", "C"), ("B", "C"),
        ("B", "D"), ("C", "D"), ("D", "E"),
    ):
        graph.add_edge(u, v)
    return graph
