"""Neighbor-designated dominating set in one round (Sec. IV-A).

The paper's third labeling flavor — neither self-determined (marking)
nor iterative (MIS), but *neighbor-designated*: "each node selects one
winner (say, the one with the highest priority) from its 1-hop
neighborhood including itself.  A node is colored black if it is
selected by at least one node.  This process terminates in one round."

The result is always a dominating set (every node's own winner
dominates it), but in general neither connected nor independent — the
paper's "(but not a CDS or an IS)" remark, which tests exhibit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.runtime.engine import Network, NodeAlgorithm, NodeContext

Node = Hashable
Priority = Dict[Node, float]


def _default_priorities(graph: Graph) -> Priority:
    ordered = sorted(graph.nodes(), key=repr)
    n = len(ordered)
    return {node: float(n - index) for index, node in enumerate(ordered)}


def neighbor_designated_ds(
    graph: Graph, priorities: Optional[Priority] = None
) -> Tuple[Set[Node], Dict[Node, Node]]:
    """One-round neighbor-designated dominating set.

    Returns (black set, who-selected-whom).  Priorities default to
    ID-based distinct values (earlier IDs higher), matching the paper's
    convention p(A) > p(B) > ...  The designation runs as one
    segmented argmax over the CSR rows
    (:meth:`FrozenGraph.neighbor_designated_winners`), exactly equal to
    :func:`neighbor_designated_ds_reference`.
    """
    if priorities is None:
        priorities = _default_priorities(graph)
    fg = graph.frozen()
    prio = np.array([priorities[node] for node in fg.node_list], dtype=np.float64)
    winners = fg.neighbor_designated_winners(prio)
    nodes = fg.node_list
    selected_by = {nodes[i]: nodes[int(winners[i])] for i in range(fg.n)}
    return set(selected_by.values()), selected_by


def neighbor_designated_ds_reference(
    graph: Graph, priorities: Optional[Priority] = None
) -> Tuple[Set[Node], Dict[Node, Node]]:
    """The per-node max loop: ground truth for :func:`neighbor_designated_ds`."""
    if priorities is None:
        priorities = _default_priorities(graph)
    selected_by: Dict[Node, Node] = {}
    black: Set[Node] = set()
    for node in graph.nodes():
        candidates = graph.closed_neighbors(node)
        winner = max(candidates, key=lambda c: (priorities[c], repr(c)))
        selected_by[node] = winner
        black.add(winner)
    return black, selected_by


class NeighborDesignationAlgorithm(NodeAlgorithm):
    """The same process on the distributed engine: one exchange, done.

    Round 0 broadcasts priorities; round 1 every node designates its
    winner; round 2 winners learn they were selected.  Local halting
    after a constant number of rounds certifies the "localized" claim.
    """

    def __init__(self, priority: float) -> None:
        self.priority = priority

    def init(self, ctx: NodeContext) -> None:
        ctx.state["selected"] = False
        ctx.state["priority"] = self.priority
        ctx.broadcast(("priority", self.priority))

    def step(self, ctx: NodeContext) -> None:
        if ctx.round_number == 1:
            best_node = ctx.node
            best_priority = self.priority
            for message in ctx.inbox:
                kind, value = message.payload
                if kind != "priority":
                    continue
                if (value, repr(message.sender)) > (best_priority, repr(best_node)):
                    best_node = message.sender
                    best_priority = value
            if best_node == ctx.node:
                ctx.state["selected"] = True
                ctx.halt()
            else:
                ctx.send(best_node, ("designate", None))
                ctx.halt()
            return
        for message in ctx.inbox:
            if message.payload[0] == "designate":
                ctx.state["selected"] = True
        ctx.halt()


def distributed_neighbor_designated_ds(graph: Graph) -> Tuple[Set[Node], int]:
    """Run the designation algorithm on the engine; (black set, rounds)."""
    priorities = _default_priorities(graph)
    network = Network(
        graph, lambda node: NeighborDesignationAlgorithm(priorities[node])
    )
    stats = network.run()
    black = {
        node
        for node, selected in network.states("selected").items()
        if selected
    }
    return black, stats.rounds
