"""Classical traversals and path algorithms on the static graph substrate.

These are the centralized baselines the paper contrasts with distributed
and localized solutions (Sec. IV): BFS/DFS, Dijkstra, connected and
strongly-connected components, and diameter.  The temporal analogues
(journeys, temporal distance, dynamic diameter) live in
:mod:`repro.temporal.journeys`.

Whole-graph sweeps (``bfs_distances``, ``connected_components``,
``is_connected``, ``eccentricity``, ``diameter``) run on the frozen CSR
snapshot (:mod:`repro.graphs.csr`) at every size; the dict-of-sets
``*_reference`` functions below remain the ground truth and are
output-equivalent (tests/test_csr.py).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import AlgorithmError, NodeNotFoundError
from repro.graphs.graph import DiGraph, Graph

Node = Hashable
AnyGraph = Union[Graph, DiGraph]


def _out_neighbors(graph: AnyGraph, node: Node) -> Set[Node]:
    """The *live* out-neighbor set — read-only; callers must not mutate."""
    adjacency = graph._succ if isinstance(graph, DiGraph) else graph._adj
    try:
        return adjacency[node]
    except KeyError:
        raise NodeNotFoundError(node) from None


def bfs_order(graph: AnyGraph, source: Node) -> List[Node]:
    """Nodes in breadth-first order from ``source``."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    order: List[Node] = []
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor in sorted(_out_neighbors(graph, node), key=repr):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return order


def bfs_distances(graph: AnyGraph, source: Node) -> Dict[Node, int]:
    """Hop distance from ``source`` to every reachable node."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    return graph.frozen().bfs_distances(source)


def bfs_distances_reference(graph: AnyGraph, source: Node) -> Dict[Node, int]:
    """The dict-of-sets BFS: ground truth for the CSR fast path."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in _out_neighbors(graph, node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def bfs_tree(graph: AnyGraph, source: Node) -> Dict[Node, Optional[Node]]:
    """Parent pointers of a BFS tree rooted at ``source``.

    The root maps to ``None``.  Unreachable nodes are absent.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    parent: Dict[Node, Optional[Node]] = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in _out_neighbors(graph, node):
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    return parent


def shortest_path(graph: AnyGraph, source: Node, target: Node) -> Optional[List[Node]]:
    """A minimum-hop path from ``source`` to ``target``, or ``None``."""
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    parent = bfs_tree(graph, source)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[index]
    path.reverse()
    return path


def dfs_order(graph: AnyGraph, source: Node) -> List[Node]:
    """Nodes in (iterative) depth-first preorder from ``source``."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    order: List[Node] = []
    seen: Set[Node] = set()
    stack = [source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        for neighbor in sorted(_out_neighbors(graph, node), key=repr, reverse=True):
            if neighbor not in seen:
                stack.append(neighbor)
    return order


def dijkstra(
    graph: AnyGraph,
    source: Node,
    weight: Union[str, Callable[[Node, Node], float]] = "weight",
    default_weight: float = 1.0,
) -> Tuple[Dict[Node, float], Dict[Node, Optional[Node]]]:
    """Weighted shortest-path distances and parents from ``source``.

    ``weight`` is either an edge-attribute name (missing attributes fall
    back to ``default_weight``) or a callable ``(u, v) -> float``.
    Negative weights are rejected.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)

    if callable(weight):
        weight_of = weight
    else:
        def weight_of(u: Node, v: Node) -> float:
            return float(graph.edge_attr(u, v, weight, default_weight))

    dist: Dict[Node, float] = {source: 0.0}
    parent: Dict[Node, Optional[Node]] = {source: None}
    done: Set[Node] = set()
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for neighbor in _out_neighbors(graph, node):
            w = weight_of(node, neighbor)
            if w < 0:
                raise AlgorithmError(
                    f"dijkstra requires non-negative weights, got {w} on "
                    f"({node!r}, {neighbor!r})"
                )
            candidate = d + w
            if neighbor not in dist or candidate < dist[neighbor]:
                dist[neighbor] = candidate
                parent[neighbor] = node
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return dist, parent


def reconstruct_path(
    parent: Dict[Node, Optional[Node]], target: Node
) -> Optional[List[Node]]:
    """Rebuild the path to ``target`` from a parent map, or ``None``."""
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[index]
    path.reverse()
    return path


def connected_components(graph: Graph) -> List[Set[Node]]:
    """Connected components of an undirected graph, largest first."""
    if isinstance(graph, DiGraph):
        raise TypeError("connected_components expects an undirected Graph")
    return graph.frozen().connected_components()


def connected_components_reference(graph: Graph) -> List[Set[Node]]:
    """Components via dict-of-sets BFS: ground truth for the CSR path."""
    if isinstance(graph, DiGraph):
        raise TypeError("connected_components expects an undirected Graph")
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        component = set(bfs_distances_reference(graph, start))
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    """True iff the undirected graph is connected (empty graph counts)."""
    return graph.frozen().is_connected()


def strongly_connected_components(graph: DiGraph) -> List[Set[Node]]:
    """Tarjan's SCC algorithm (iterative), components largest first."""
    if not isinstance(graph, DiGraph):
        raise TypeError("strongly_connected_components expects a DiGraph")
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[Set[Node]] = []
    counter = [0]

    for root in list(graph.nodes()):
        if root in index:
            continue
        # Iterative Tarjan with an explicit work stack of (node, iterator).
        work: List[Tuple[Node, Iterable[Node]]] = [(root, iter(sorted(graph.successors(root), key=repr)))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.successors(succ), key=repr))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node], lowlink[node])
            if lowlink[node] == index[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    components.sort(key=len, reverse=True)
    return components


def largest_strongly_connected_component(graph: DiGraph) -> DiGraph:
    """Induced subgraph on the largest SCC (the paper's Fig. 3 preprocessing)."""
    components = strongly_connected_components(graph)
    if not components:
        return DiGraph()
    return graph.subgraph(components[0])


def eccentricity(graph: AnyGraph, node: Node) -> int:
    """Max hop distance from ``node`` to any reachable node."""
    fg = graph.frozen()
    return fg.eccentricity_of(fg.index_of(node))


def diameter(graph: Graph) -> int:
    """Hop diameter of a connected undirected graph.

    Raises :class:`AlgorithmError` on a disconnected graph, because the
    diameter is then undefined (conventionally infinite).
    """
    return graph.frozen().diameter()


def minimum_spanning_tree(graph: Graph, weight: str = "weight") -> Graph:
    """Kruskal MST (per connected component: a minimum spanning forest).

    Edge weights default to 1.0 when the attribute is missing, matching
    the trimming discussion in Sec. III-A where "inclusion of a minimum
    spanning tree" is a basic property a trimmed subgraph preserves.
    """
    parent: Dict[Node, Node] = {node: node for node in graph.nodes()}

    def find(x: Node) -> Node:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    tree = Graph()
    for node in graph.nodes():
        tree.add_node(node)
    weighted_edges = sorted(
        graph.edges(),
        key=lambda edge: (float(graph.edge_attr(edge[0], edge[1], weight, 1.0)), repr(edge)),
    )
    for u, v in weighted_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add_edge(u, v, **{weight: graph.edge_attr(u, v, weight, 1.0)})
    return tree
