"""Distributed full link reversal on the message-passing engine.

The centralized implementations in :mod:`repro.layering.link_reversal`
drive one sink at a time; the *actual* protocol of Gafni–Bertsekas is
distributed: every node knows only its own height and its neighbors'
heights (exchanged via messages), detects locally that it has become a
sink, raises its height, and announces the new height.  Concurrent
reversals in one round are allowed — exactly the setting in which the
O(n²) work bound is usually stated.

:class:`LinkReversalAlgorithm` runs on
:class:`~repro.runtime.engine.Network`; the run ends when no
non-destination sink remains, and tests verify the resulting
orientation is destination-oriented and agrees with the centralized
variant's *fixpoint* (heights may differ, the DAG property may not).

:class:`PartialReversalAlgorithm` is the triple-height (a, b, id)
variant of the same protocol: a sink raises ``a`` to
``min(neighbor a) + 1`` and adjusts ``b`` below the neighbors sharing
the new ``a``, so only the links not recently reversed toward it flip.
Triples rise lexicographically on every reversal (``a`` strictly
increases), so the same max-merge belief rule keeps the protocol
monotone under duplicated or reordered deliveries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.graphs.graph import Graph
from repro.layering.link_reversal import Orientation, orientation_from_heights
from repro.observability import tracing
from repro.observability.metrics import get_registry
from repro.runtime.engine import Network, NodeAlgorithm, NodeContext

Node = Hashable
Height = Tuple


class LinkReversalAlgorithm(NodeAlgorithm):
    """Height-based full reversal, one node's view.

    State: ``height`` (pair (level, id-rank)) and the believed heights
    of the neighbors.  Each round: if every neighbor's believed height
    is above mine and I am not the destination, raise my height to
    1 + max(neighbor levels) and broadcast it.
    """

    def __init__(self, is_destination: bool, height: Height) -> None:
        self.is_destination = is_destination
        self.initial_height = height

    def init(self, ctx: NodeContext) -> None:
        ctx.state["height"] = self.initial_height
        ctx.state["neighbor_heights"] = {}
        ctx.state["reversals"] = 0
        ctx.broadcast(("height", self.initial_height))

    def step(self, ctx: NodeContext) -> None:
        beliefs: Dict[Node, Height] = ctx.state["neighbor_heights"]
        for message in ctx.inbox:
            kind, value = message.payload
            if kind == "height":
                # Heights only ever rise, so merge with max: duplicated
                # or reordered deliveries (fault injection) can never
                # regress a belief below the freshest value seen.
                incoming = tuple(value)
                current = beliefs.get(message.sender)
                if current is None or incoming > current:
                    beliefs[message.sender] = incoming
        if self.is_destination or not ctx.neighbors:
            ctx.halt()
            return
        known = list(map(beliefs.get, ctx.neighbors))
        if None in known:
            return  # still waiting for first exchange
        own: Height = ctx.state["height"]
        # Heights are totally ordered, so the lowest neighbor decides.
        if min(known) > own:  # I am a sink
            top_level = max(known)[0]
            own = (top_level + 1, own[-1])
            ctx.state["height"] = own
            ctx.state["reversals"] += 1
            ctx.broadcast(("height", own))
            return
        ctx.halt()


def distributed_full_reversal(
    graph: Graph,
    destination: Node,
    heights: Dict[Node, Height],
    max_rounds: int = 100_000,
    fault_plan=None,
) -> Tuple[Orientation, Dict[Node, Height], Dict[Node, int], int]:
    """Run the distributed protocol to quiescence.

    Returns (final orientation, final heights, per-node reversal
    counts, rounds used).  ``fault_plan`` (a
    :class:`repro.faults.FaultPlan`) subjects the run to seeded
    message/node/link faults; pair drops with a
    :class:`repro.faults.RetryPolicy` so every height announcement is
    still eventually delivered.
    """
    return _run_reversal(
        graph, LinkReversalAlgorithm, destination, heights,
        "distributed-full", max_rounds, fault_plan,
    )


def _run_reversal(
    graph: Graph,
    algorithm_type,
    destination: Node,
    heights: Dict[Node, Height],
    algorithm: str,
    max_rounds: int,
    fault_plan,
) -> Tuple[Orientation, Dict[Node, Height], Dict[Node, int], int]:
    """Run one reversal protocol on :class:`Network` and fold the
    distributed wrappers' result."""
    network = Network(
        graph,
        lambda node: algorithm_type(
            is_destination=node == destination, height=heights[node]
        ),
        fault_plan=fault_plan,
    )
    with tracing.span("layering.distributed_reversal"):
        stats = network.run(max_rounds=max_rounds)
    heights_now = network.states("height")
    reversals_now = network.states("reversals", 0)
    final_heights: Dict[Node, Height] = {
        node: tuple(heights_now[node]) for node in graph.nodes()
    }
    orientation = orientation_from_heights(graph, final_heights)
    reversals = {node: reversals_now[node] for node in graph.nodes()}
    labels = {"algorithm": algorithm}
    registry = get_registry()
    registry.counter("repro.layering.node_reversals", labels).inc(
        sum(reversals.values())
    )
    registry.histogram("repro.layering.steps", labels).observe(stats.rounds)
    return orientation, final_heights, reversals, stats.rounds


class PartialReversalAlgorithm(NodeAlgorithm):
    """Triple-height partial reversal, one node's view.

    State: ``height`` (triple (a, b, id)) and the believed heights of
    the neighbors.  Each round: if every neighbor's believed triple is
    above mine and I am not the destination, apply the Gafni–Bertsekas
    partial rule — ``a := min(neighbor a) + 1``; if some neighbor now
    shares that ``a``, ``b := min{b_j : a_j = a} − 1`` — and broadcast.
    """

    def __init__(self, is_destination: bool, height: Height) -> None:
        self.is_destination = is_destination
        self.initial_height = height

    def init(self, ctx: NodeContext) -> None:
        ctx.state["height"] = self.initial_height
        ctx.state["neighbor_heights"] = {}
        ctx.state["reversals"] = 0
        ctx.broadcast(("height", self.initial_height))

    def step(self, ctx: NodeContext) -> None:
        beliefs: Dict[Node, Height] = ctx.state["neighbor_heights"]
        for message in ctx.inbox:
            kind, value = message.payload
            if kind == "height":
                # Triples only ever rise (a strictly increases per
                # reversal), so max-merge is fault-safe here too.
                incoming = tuple(value)
                current = beliefs.get(message.sender)
                if current is None or incoming > current:
                    beliefs[message.sender] = incoming
        if self.is_destination or not ctx.neighbors:
            ctx.halt()
            return
        known = list(map(beliefs.get, ctx.neighbors))
        if None in known:
            return  # still waiting for first exchange
        own: Height = ctx.state["height"]
        lowest = min(known)
        if lowest > own:  # I am a sink
            new_a = lowest[0] + 1
            same_a = [height[1] for height in known if height[0] == new_a]
            new_b = (min(same_a) - 1) if same_a else own[1]
            own = (new_a, new_b, own[-1])
            ctx.state["height"] = own
            ctx.state["reversals"] += 1
            ctx.broadcast(("height", own))
            return
        ctx.halt()


def lift_partial_heights(heights: Dict[Node, Height]) -> Dict[Node, Height]:
    """Lift scalar pair heights ``(h, id)`` to triples ``(h, 0, id)``.

    The same lifting :func:`repro.layering.link_reversal.partial_link_reversal`
    applies, shared so the distributed and vector engines start every
    run from byte-identical state.
    """
    lifted: Dict[Node, Height] = {}
    for node, height in heights.items():
        if len(height) == 2:
            lifted[node] = (height[0], 0, height[1])
        else:
            lifted[node] = tuple(height)
    return lifted


def distributed_partial_reversal(
    graph: Graph,
    destination: Node,
    heights: Dict[Node, Height],
    max_rounds: int = 100_000,
    fault_plan=None,
) -> Tuple[Orientation, Dict[Node, Height], Dict[Node, int], int]:
    """Run the distributed partial-reversal protocol to quiescence.

    Same contract as :func:`distributed_full_reversal`; ``heights``
    may be pairs ``(h, id)`` (lifted to ``(h, 0, id)``) or triples.
    """
    return _run_reversal(
        graph, PartialReversalAlgorithm, destination, lift_partial_heights(heights),
        "distributed-partial", max_rounds, fault_plan,
    )
