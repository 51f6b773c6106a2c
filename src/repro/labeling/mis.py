"""Distributed maximal independent set in O(log n) rounds (Sec. IV-A).

The paper's three-color clusterhead calculation: initially all nodes
are **white**; a node that is the local 1-hop maximum (by priority)
among *white* neighbors colors itself **black** (clusterhead); a white
node with a black neighbor becomes **gray** and leaves the competition;
repeat until no white node remains.  With random priorities this is
Luby's algorithm and finishes in O(log n) rounds with high probability.

Also implemented, per Sec. IV-C ([30]): **dynamic MIS** — when the MIS
was built with *random* priorities, inserting or deleting a node only
requires adjusting a small neighborhood in expectation (O(1) expected
adjustments), instead of recomputing; the update cost is returned so
the benchmark can verify the constant-vs-log gap.

The UDG bound footnoted by the paper — no MIS exceeds 5 × the minimum
CDS, because a unit-disk node cannot have six mutually independent
neighbors — is exercised in tests via :func:`independent_neighbors_bound`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graphs.csr import FrozenGraph
from repro.graphs.graph import Graph
from repro.runtime.engine import Network, NodeAlgorithm, NodeContext

Node = Hashable
Priority = Dict[Node, float]


def id_priorities(graph: Graph) -> Priority:
    """Deterministic distinct priorities by node ID."""
    ordered = sorted(graph.nodes(), key=repr)
    return {node: float(index) for index, node in enumerate(ordered)}


def frozen_id_priorities(fg: "FrozenGraph") -> np.ndarray:
    """Index-aligned :func:`id_priorities` over a frozen snapshot.

    Each node's priority is its dense rank in repr order — identical
    values to ``id_priorities`` on the equivalent dict graph — returned
    as the float64 array :meth:`FrozenGraph.mis_rounds` consumes.
    """
    return fg._repr_ranks().astype(np.float64)


def random_priorities(graph: Graph, rng: np.random.Generator) -> Priority:
    """Uniform random distinct priorities (Luby / dynamic-MIS setting)."""
    nodes = sorted(graph.nodes(), key=repr)
    values = rng.permutation(len(nodes))
    return {node: float(values[index]) for index, node in enumerate(nodes)}


def compute_mis(
    graph: Graph, priorities: Optional[Priority] = None
) -> Tuple[Set[Node], int]:
    """The three-color MIS process; returns (MIS, rounds used).

    One round = one synchronous wave of local-maximum tests.  The rounds
    run as edge-compacted numpy waves (:meth:`FrozenGraph.mis_rounds`),
    with the same black set and round count as
    :func:`compute_mis_reference`, given the distinct priorities both
    assume.
    """
    if priorities is None:
        priorities = id_priorities(graph)
    fg = graph.frozen()
    prio = np.array([priorities[node] for node in fg.node_list], dtype=np.float64)
    mask, rounds = fg.mis_rounds(prio)
    nodes = fg.node_list
    return {nodes[i] for i in np.flatnonzero(mask)}, rounds


def compute_mis_reference(
    graph: Graph, priorities: Optional[Priority] = None
) -> Tuple[Set[Node], int]:
    """The dict-of-sets three-color loop: ground truth for :func:`compute_mis`."""
    if priorities is None:
        priorities = id_priorities(graph)
    white: Set[Node] = set(graph.nodes())
    black: Set[Node] = set()
    rounds = 0
    while white:
        rounds += 1
        new_black = {
            node
            for node in white
            if all(
                priorities[node] > priorities[other]
                for other in graph.neighbors(node)
                if other in white
            )
        }
        black |= new_black
        gray = {
            node
            for node in white
            if graph.neighbors(node) & new_black
        }
        white -= new_black | gray
    return black, rounds


def is_independent_set(graph: Graph, candidate: Set[Node]) -> bool:
    members = sorted(candidate, key=repr)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if graph.has_edge(u, v):
                return False
    return True


def is_maximal_independent_set(graph: Graph, candidate: Set[Node]) -> bool:
    """Independent, and no outside node can be added."""
    if not is_independent_set(graph, candidate):
        return False
    for node in graph.nodes():
        if node in candidate:
            continue
        if not graph.neighbors(node) & candidate:
            return False
    return True


def independent_neighbors_bound(graph: Graph, node: Node) -> int:
    """Max number of mutually independent neighbors of ``node``.

    In a unit disk graph this is at most 5 (the paper's footnote), which
    bounds |MIS| ≤ 5 |minimum CDS| + ... ; exact via brute force on the
    (small) neighborhood.
    """
    neighbors = sorted(graph.neighbors(node), key=repr)
    best = 0
    chosen: List[Node] = []

    def extend(start: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for index in range(start, len(neighbors)):
            candidate = neighbors[index]
            if all(not graph.has_edge(candidate, kept) for kept in chosen):
                chosen.append(candidate)
                extend(index + 1)
                chosen.pop()

    extend(0)
    return best


class MISAlgorithm(NodeAlgorithm):
    """The three-color process on the distributed engine.

    States: "white" → competing; "black" → clusterhead; "gray" → ruled
    out.  Each round, white nodes exchange (priority, still-white) and
    the local maxima self-color black; their neighbors turn gray.
    """

    def __init__(self, priority: float) -> None:
        self.priority = priority

    def init(self, ctx: NodeContext) -> None:
        ctx.state["color"] = "white"
        ctx.broadcast(("white", self.priority))

    def step(self, ctx: NodeContext) -> None:
        color = ctx.state["color"]
        if color != "white":
            ctx.halt()
            return
        white_neighbors = {
            message.sender: message.payload[1]
            for message in ctx.inbox
            if message.payload[0] == "white"
        }
        black_neighbors = [
            message.sender for message in ctx.inbox if message.payload[0] == "black"
        ]
        if black_neighbors:
            ctx.state["color"] = "gray"
            ctx.broadcast(("gray", self.priority))
            ctx.halt()
            return
        if all(self.priority > p for p in white_neighbors.values()):
            ctx.state["color"] = "black"
            ctx.broadcast(("black", self.priority))
            ctx.halt()
            return
        ctx.broadcast(("white", self.priority))


def distributed_mis(
    graph: Graph, priorities: Optional[Priority] = None
) -> Tuple[Set[Node], int]:
    """Run :class:`MISAlgorithm` on the engine; (MIS, rounds)."""
    if priorities is None:
        priorities = id_priorities(graph)
    network = Network(graph, lambda node: MISAlgorithm(priorities[node]))
    stats = network.run()
    black = {
        node for node, color in network.states("color").items() if color == "black"
    }
    return black, stats.rounds


class DynamicMIS:
    """Incrementally maintained MIS under node insertions/deletions ([30]).

    Built greedily by increasing random priority; maintained with the
    deterministic invariant "node ∈ MIS iff no higher-priority neighbor
    is in the MIS".  An update triggers a cascade only through nodes
    whose membership actually flips — with random priorities the
    expected cascade size is O(1) per update (Censor-Hillel et al.),
    and :attr:`last_update_cost` exposes the measured size.
    """

    def __init__(self, graph: Graph, rng: np.random.Generator) -> None:
        self.graph = graph.copy()
        self._rng = rng
        self.priorities: Priority = {}
        for node in sorted(self.graph.nodes(), key=repr):
            self.priorities[node] = float(rng.random())
        self.in_mis: Dict[Node, bool] = {}
        self.last_update_cost = 0
        self._rebuild_all()

    def _rebuild_all(self) -> None:
        self.in_mis = {}
        for node in sorted(self.graph.nodes(), key=lambda n: self.priorities[n], reverse=True):
            self.in_mis[node] = not any(
                self.in_mis.get(other, False) for other in self.graph.neighbors(node)
            )

    def mis(self) -> Set[Node]:
        return {node for node, member in self.in_mis.items() if member}

    def _settle(self, dirty: Iterable[Node]) -> int:
        """Re-evaluate nodes in priority order until the invariant holds.

        Returns the number of membership flips (the update cost).
        """
        cost = 0
        pending = set(dirty)
        while pending:
            node = max(pending, key=lambda n: (self.priorities[n], repr(n)))
            pending.discard(node)
            should_be = not any(
                self.in_mis.get(other, False)
                and self.priorities[other] > self.priorities[node]
                for other in self.graph.neighbors(node)
            )
            if self.in_mis.get(node, False) != should_be:
                self.in_mis[node] = should_be
                cost += 1
                for other in self.graph.neighbors(node):
                    if self.priorities[other] < self.priorities[node]:
                        pending.add(other)
        return cost

    def add_node(self, node: Node, neighbors: Iterable[Node]) -> int:
        """Insert ``node`` with edges to ``neighbors``; returns flips."""
        if self.graph.has_node(node):
            raise ValueError(f"node {node!r} already present")
        self.graph.add_node(node)
        for other in neighbors:
            if not self.graph.has_node(other):
                raise NodeNotFoundError(other)
            self.graph.add_edge(node, other)
        self.priorities[node] = float(self._rng.random())
        self.in_mis[node] = False
        self.last_update_cost = self._settle(
            {node} | self.graph.neighbors(node)
        )
        return self.last_update_cost

    def remove_node(self, node: Node) -> int:
        """Delete ``node``; returns the number of membership flips."""
        if not self.graph.has_node(node):
            raise NodeNotFoundError(node)
        neighbors = self.graph.neighbors(node)
        self.graph.remove_node(node)
        was_member = self.in_mis.pop(node, False)
        del self.priorities[node]
        if not was_member:
            self.last_update_cost = 0
            return 0
        self.last_update_cost = self._settle(neighbors)
        return self.last_update_cost

    def check_invariant(self) -> bool:
        """MIS validity: independent and maximal."""
        return is_maximal_independent_set(self.graph, self.mis())
