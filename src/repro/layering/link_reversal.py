"""Link reversal routing: man-made layering by heights (Sec. III-B/IV-B).

A *destination-oriented DAG* gives every node a loop-free route to the
destination without routing tables: just follow any outgoing link.
When a link break leaves a non-destination node with no outgoing link
(a sink), link reversal repairs the DAG locally:

* **full link reversal** ([16], Fig. 4) — the sink raises its height
  just above its highest neighbor, reversing *all* incident links;
* **partial link reversal** ([16]) — Gafni–Bertsekas pair heights:
  the sink reverses only links not recently reversed toward it;
* **binary-label link reversal** ([24]) — one bit per link;
  Rule 1: if some incident link is labeled 0, reverse exactly the
  0-labeled links and flip the labels of all incident links;
  Rule 2: if all incident links are labeled 1, reverse all and leave
  labels unchanged.  All-1 initial labels reproduce full reversal,
  all-0 reproduce partial reversal — the unification the paper cites.

Every algorithm counts node reversal events and per-link reversals so
the O(n²) worst case ("this high cost in a slow convergence") is a
measurable output (Fig. 4 benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.errors import AlgorithmError, ConvergenceError, GraphClassError, NodeNotFoundError
from repro.graphs.graph import Graph
from repro.observability import tracing
from repro.observability.metrics import get_registry

Node = Hashable
Height = Tuple
Link = FrozenSet


class Orientation:
    """An orientation of an undirected graph's edges.

    ``direction(u, v)`` is the node the link currently points *to*
    (the lower end in height terms).
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._points_to: Dict[Link, Node] = {}

    def orient(self, u: Node, v: Node, toward: Node) -> None:
        if toward not in (u, v):
            raise ValueError(f"toward={toward!r} is not an endpoint of ({u!r}, {v!r})")
        if not self.graph.has_edge(u, v):
            raise ValueError(f"({u!r}, {v!r}) is not an edge")
        self._points_to[frozenset((u, v))] = toward

    def head(self, u: Node, v: Node) -> Node:
        return self._points_to[frozenset((u, v))]

    def out_neighbors(self, node: Node) -> Set[Node]:
        return {
            other
            for other in self.graph.neighbors(node)
            if self._points_to.get(frozenset((node, other))) == other
        }

    def in_neighbors(self, node: Node) -> Set[Node]:
        return {
            other
            for other in self.graph.neighbors(node)
            if self._points_to.get(frozenset((node, other))) == node
        }

    def is_sink(self, node: Node) -> bool:
        return not self.out_neighbors(node) and bool(self.graph.neighbors(node))

    def sinks(self, excluding: Optional[Set[Node]] = None) -> Set[Node]:
        excluded = excluding or set()
        return {
            node
            for node in self.graph.nodes()
            if node not in excluded and self.is_sink(node)
        }

    def reverse(self, u: Node, v: Node) -> None:
        """Flip the direction of one link."""
        key = frozenset((u, v))
        self._points_to[key] = u if self._points_to[key] == v else v

    def is_destination_oriented(self, destination: Node) -> bool:
        """Acyclic and every node has a directed path to ``destination``."""
        # Kahn's algorithm on the oriented graph (acyclicity), then
        # reverse reachability from the destination.
        if not self.graph.has_node(destination):
            raise NodeNotFoundError(destination)
        in_degree: Dict[Node, int] = {
            node: len(self.in_neighbors(node)) for node in self.graph.nodes()
        }
        queue = [node for node, deg in in_degree.items() if deg == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for other in self.out_neighbors(node):
                in_degree[other] -= 1
                if in_degree[other] == 0:
                    queue.append(other)
        if seen != self.graph.num_nodes:
            return False
        # Every node must reach the destination: walk the reversed orientation.
        reached = {destination}
        frontier = [destination]
        while frontier:
            node = frontier.pop()
            for other in self.in_neighbors(node):
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        non_isolated = {
            node for node in self.graph.nodes() if self.graph.neighbors(node)
        }
        return non_isolated <= reached | {destination}

    def copy(self) -> "Orientation":
        clone = Orientation(self.graph)
        clone._points_to = dict(self._points_to)
        return clone


def orientation_from_heights(graph: Graph, heights: Dict[Node, Height]) -> Orientation:
    """Each link points from the higher to the lower endpoint."""
    orientation = Orientation(graph)
    # One fold over the graph's own links, which ``orient`` would only
    # re-validate one by one.
    orientation._points_to = {
        frozenset((u, v)): v if heights[u] > heights[v] else u for u, v in graph.edges()
    }
    return orientation


def initial_heights(graph: Graph, destination: Node) -> Dict[Node, Height]:
    """Distinct scalar heights: BFS distance with ID tie-break.

    The destination gets the unique minimum (0, 0); the result is a
    destination-oriented DAG (every node's BFS parent is lower).
    """
    from repro.graphs.traversal import bfs_distances

    if not graph.has_node(destination):
        raise NodeNotFoundError(destination)
    dist = bfs_distances(graph, destination)
    missing = set(graph.nodes()) - set(dist)
    isolated = {node for node in missing if not graph.neighbors(node)}
    if missing - isolated:
        raise GraphClassError(
            "graph must be connected (up to isolated nodes) to build a "
            "destination-oriented DAG"
        )
    order = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=repr))}
    heights: Dict[Node, Height] = {}
    for node in graph.nodes():
        if node == destination:
            heights[node] = (0, 0)
        else:
            heights[node] = (dist.get(node, 0), order[node])
    return heights


@dataclass
class ReversalResult:
    """Outcome and cost accounting of a reversal run."""

    orientation: Orientation
    heights: Dict[Node, Height]
    node_reversals: Dict[Node, int] = field(default_factory=dict)
    link_reversals: int = 0
    steps: int = 0

    @property
    def total_node_reversals(self) -> int:
        return sum(self.node_reversals.values())


def _run_reversal(
    graph: Graph,
    destination: Node,
    orientation: Orientation,
    heights: Dict[Node, Height],
    act_on_sink: Callable[[Node], None],
    max_steps: int,
    algorithm: str = "full",
) -> ReversalResult:
    """Drive sinks one at a time (deterministic ID order) until done."""
    result = ReversalResult(orientation=orientation, heights=heights)
    with tracing.span("layering.link_reversal"):
        for _ in range(max_steps):
            sinks = orientation.sinks(excluding={destination})
            if not sinks:
                _record_reversal_metrics(algorithm, result)
                return result
            sink = min(sinks, key=repr)
            before = orientation.out_neighbors(sink)
            act_on_sink(sink)
            after = orientation.out_neighbors(sink)
            reversed_links = len(after - before)
            result.node_reversals[sink] = result.node_reversals.get(sink, 0) + 1
            result.link_reversals += reversed_links
            result.steps += 1
    raise ConvergenceError(
        "link reversal", max_steps, rounds_completed=result.steps
    )


def _record_reversal_metrics(algorithm: str, result: ReversalResult) -> None:
    """Fold one completed run into the global ``repro.layering.*`` series."""
    registry = get_registry()
    labels = {"algorithm": algorithm}
    registry.counter("repro.layering.node_reversals", labels).inc(
        result.total_node_reversals
    )
    registry.counter("repro.layering.link_reversals", labels).inc(result.link_reversals)
    registry.histogram("repro.layering.steps", labels).observe(result.steps)


def full_link_reversal(
    graph: Graph,
    destination: Node,
    orientation: Optional[Orientation] = None,
    heights: Optional[Dict[Node, Height]] = None,
    max_steps: int = 1_000_000,
) -> ReversalResult:
    """Full link reversal by raising heights (Fig. 4, Sec. IV-B).

    A sink raises its height so it exceeds its highest neighbor by 1
    (keeping the ID tie-break), which reverses all its incident links.
    """
    if heights is None:
        heights = initial_heights(graph, destination)
    heights = dict(heights)
    if orientation is None:
        orientation = orientation_from_heights(graph, heights)
    else:
        orientation = orientation.copy()

    def act(sink: Node) -> None:
        neighbors = graph.neighbors(sink)
        top = max(heights[n][0] for n in neighbors)
        heights[sink] = (top + 1, heights[sink][-1])
        for neighbor in neighbors:
            if heights[sink] > heights[neighbor]:
                orientation.orient(sink, neighbor, toward=neighbor)

    return _run_reversal(
        graph, destination, orientation, heights, act, max_steps, algorithm="full"
    )


def partial_link_reversal(
    graph: Graph,
    destination: Node,
    orientation: Optional[Orientation] = None,
    heights: Optional[Dict[Node, Height]] = None,
    max_steps: int = 1_000_000,
) -> ReversalResult:
    """Gafni–Bertsekas partial reversal with pair heights ([16]).

    Heights are triples (a, b, id).  A sink s sets
    a_s = min_{j∈N(s)} a_j + 1, and if some neighbor now shares that a,
    b_s = min{b_j : a_j = a_s} − 1; links reverse toward lower triples.
    Only the links *not* recently reversed toward the sink flip, so the
    ripple is narrower than full reversal.

    ``heights`` may be scalar pairs ``(h, id)`` (e.g. from a stale
    pre-break DAG); they are lifted to triples ``(h, 0, id)``.
    """
    order = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=repr))}
    if heights is None:
        from repro.graphs.traversal import bfs_distances

        dist = bfs_distances(graph, destination)
        heights = {}
        for node in graph.nodes():
            if node == destination:
                heights[node] = (0, 0, 0)
            else:
                heights[node] = (dist.get(node, 0), 0, order[node])
    else:
        lifted: Dict[Node, Height] = {}
        for node, height in heights.items():
            if len(height) == 2:
                lifted[node] = (height[0], 0, height[1])
            else:
                lifted[node] = tuple(height)
        heights = lifted
    heights = dict(heights)
    if orientation is None:
        orientation = orientation_from_heights(graph, heights)
    else:
        orientation = orientation.copy()

    def act(sink: Node) -> None:
        neighbors = graph.neighbors(sink)
        a_values = [heights[n][0] for n in neighbors]
        new_a = min(a_values) + 1
        same_a = [heights[n][1] for n in neighbors if heights[n][0] == new_a]
        new_b = (min(same_a) - 1) if same_a else heights[sink][1]
        heights[sink] = (new_a, new_b, heights[sink][-1])
        for neighbor in neighbors:
            orientation.orient(
                sink,
                neighbor,
                toward=neighbor if heights[sink] > heights[neighbor] else sink,
            )

    return _run_reversal(
        graph, destination, orientation, heights, act, max_steps, algorithm="partial"
    )


def binary_label_reversal(
    graph: Graph,
    destination: Node,
    initial_label: int = 1,
    orientation: Optional[Orientation] = None,
    heights: Optional[Dict[Node, Height]] = None,
    max_steps: int = 1_000_000,
) -> ReversalResult:
    """The binary-label link reversal of Charron-Bost et al. ([24]).

    Every link carries one bit.  At a non-destination sink i:

    * **Rule 1** — if at least one incident link is labeled 0, reverse
      exactly the 0-labeled links and flip the labels of *all* links
      incident on i;
    * **Rule 2** — if all incident links are labeled 1, reverse all of
      them; labels unchanged.

    ``initial_label=1`` makes every step a Rule-2 full reversal;
    ``initial_label=0`` reproduces partial reversal.  The returned
    ``heights`` are untouched (labels, not heights, drive this variant).
    """
    if initial_label not in (0, 1):
        raise ValueError(f"initial_label must be 0 or 1, got {initial_label}")
    if heights is None:
        heights = initial_heights(graph, destination)
    if orientation is None:
        orientation = orientation_from_heights(graph, heights)
    else:
        orientation = orientation.copy()
    labels: Dict[Link, int] = {
        frozenset((u, v)): initial_label for u, v in graph.edges()
    }

    def act(sink: Node) -> None:
        incident = [frozenset((sink, n)) for n in graph.neighbors(sink)]
        zeros = [link for link in incident if labels[link] == 0]
        if zeros:
            for link in zeros:
                u, v = tuple(link)
                orientation.reverse(u, v)
            for link in incident:
                labels[link] ^= 1
        else:
            for link in incident:
                u, v = tuple(link)
                orientation.reverse(u, v)

    return _run_reversal(
        graph, destination, orientation, heights, act, max_steps, algorithm="binary"
    )


def break_link(orientation: Orientation, u: Node, v: Node) -> Orientation:
    """Remove link (u, v) from the underlying graph, keeping orientation.

    This is the paper's triggering event: after the break, some node
    may become a sink and reversal must repair the DAG.
    """
    graph = orientation.graph.copy()
    graph.remove_edge(u, v)
    repaired = Orientation(graph)
    for a, b in graph.edges():
        repaired.orient(a, b, toward=orientation.head(a, b))
    return repaired


def paper_fig4_graph() -> Tuple[Graph, Node, Dict[Node, Height]]:
    """A Fig. 4-style fixture: destination-oriented DAG, then (A, D) breaks.

    Returns (graph-after-break, destination D, initial heights).  Before
    the break, A --> D was A's only outgoing link (B outranks A), so the
    break makes A a sink.  Full reversal then proceeds through panels
    (a)-(e): A reverses, which makes B a sink; B's reversal makes A a
    sink *again*; A reverses a second time and the process terminates in
    a new destination-oriented DAG A -> B -> C -> D.  Node A being
    "involved in multiple rounds of reversals, like node A in Fig. 4"
    is exactly the behaviour the test asserts.
    """
    graph = Graph()
    for u, v in (("A", "B"), ("B", "C"), ("C", "D")):
        graph.add_edge(u, v)
    heights: Dict[Node, Height] = {
        "D": (0, 0), "A": (1, 1), "B": (2, 2), "C": (3, 3),
    }
    return graph, "D", heights
