"""Greedy routing via hyperbolic remapping (Sec. III-C, Fig. 5b, [19]).

"By mapping the Euclidean space to the hyperbolic space, [19] shows
that carefully assigning each node a virtual coordinate in the
hyperbolic plane allows the greedy algorithm to succeed in finding a
route to the destination."

Construction (R. Kleinberg INFOCOM 2007 / Sarkar's scaled tree
embedding): embed a BFS spanning tree into the hyperbolic plane H² by
composing isometries of the upper half-plane along tree edges — every
edge is a geodesic segment of length τ, and at each node the incident
edges (parent + children) leave in evenly separated directions.  For a
sufficiently large τ the embedding is *quasi-isometric* to τ times the
tree metric (additive error bounded by a constant depending only on the
minimum angular separation), so every hop along the tree path toward a
target strictly decreases hyperbolic distance: a **greedy embedding**.
Greedy forwarding over the full link set then always makes progress,
cannot loop, and can only terminate at the target — guaranteed
delivery, exactly where Euclidean greedy routing dies at hole
boundaries (Fig. 5a vs 5b).

:func:`embed_tree` *certifies* the greedy property exhaustively
(all-pairs check) and doubles τ until it holds, so the guarantee is
verified per instance rather than assumed.

Numerics.  A node's global Möbius transform has entries of order
e^{τ·depth/2}, and subtracting shared path prefixes loses precision.
We therefore never form global transforms: the relative transform
between two nodes is accumulated by walking the tree path between
them (entries grow only with the *path* length) with projective
renormalisation at every step, and distances between all nodes and a
fixed target are computed by one BFS over the tree from that target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import AlgorithmError, NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_tree
from repro.remapping.geo_routing import RouteResult
from repro.observability.tracing import traced

Node = Hashable

# A projectively normalised real 2x2 matrix (a, b, c, d) plus the log of
# its true determinant.  Entries stay O(1) under repeated products while
# the determinant — which the Im-part of the Möbius action needs and
# which *cannot* be recovered as ad − bc without catastrophic
# cancellation — is carried analytically in log space.
Matrix = Tuple[float, float, float, float, float]

_IDENTITY: Matrix = (1.0, 0.0, 0.0, 1.0, 0.0)


def _mul(m: Matrix, n: Matrix) -> Matrix:
    a, b, c, d, ld_m = m
    e, f, g, h, ld_n = n
    out = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    scale = max(abs(x) for x in out)
    if scale == 0.0:
        raise AlgorithmError("degenerate Möbius transform")
    log_det = ld_m + ld_n - 2.0 * math.log(scale)
    a2, b2, c2, d2 = (x / scale for x in out)
    return (a2, b2, c2, d2, log_det)


def _rotation(phi: float) -> Matrix:
    """Elliptic isometry fixing i: rotation by ``phi`` about i."""
    half = phi / 2.0
    return (math.cos(half), math.sin(half), -math.sin(half), math.cos(half), 0.0)


def _translation(tau: float) -> Matrix:
    """Hyperbolic translation by distance ``tau`` along the imaginary axis."""
    half = math.exp(tau / 2.0)
    return (half, 0.0, 0.0, 1.0 / half, 0.0)


def _edge_matrix(phi: float, tau: float) -> Matrix:
    """Relative transform parent-frame → child-frame: R(phi) · T(tau)."""
    return _mul(_rotation(phi), _translation(tau))


def _inverse(m: Matrix) -> Matrix:
    a, b, c, d, ld = m
    out = (d, -b, -c, a)
    scale = max(abs(x) for x in out)
    a2, b2, c2, d2 = (x / scale for x in out)
    return (a2, b2, c2, d2, ld - 2.0 * math.log(scale))


def _distance_from_matrix(m: Matrix) -> float:
    """d(i, m(i)) in the upper half-plane, stable at any magnitude.

    Uses the matrix-norm identity for orientation-preserving Möbius
    transforms M (det M > 0):

        cosh d(i, M·i) = ‖M‖²_F / (2 · det M).

    The normalised entries are O(1), so the Frobenius norm never
    overflows, and det comes from the tracked log-determinant — the
    whole computation lives in log space and survives distances far
    beyond float-cosh range.
    """
    a, b, c, d, ld = m
    frobenius_sq = a * a + b * b + c * c + d * d
    log_cosh = math.log(frobenius_sq / 2.0) - ld
    if log_cosh < 0.0:
        # Numerical wobble below cosh = 1 means distance 0.
        return 0.0
    if log_cosh < 30.0:
        return math.acosh(math.exp(log_cosh))
    # acosh(x) ~ ln(2x) for large x.
    return log_cosh + math.log(2.0)


@dataclass
class HyperbolicEmbedding:
    """A certified greedy tree embedding (Möbius form).

    Each non-root node stores the direction angle ``phi`` its edge
    leaves its parent at; all edges have hyperbolic length ``tau``.
    """

    root: Node
    tree_parent: Dict[Node, Optional[Node]]
    edge_angle: Dict[Node, float]
    tau: float
    _children: Dict[Node, List[Node]] = field(default_factory=dict)
    _depth: Dict[Node, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._children:
            self._children = {node: [] for node in self.tree_parent}
            for node, parent in self.tree_parent.items():
                if parent is not None:
                    self._children[parent].append(node)
            for node in self._children:
                self._children[node].sort(key=repr)
        if not self._depth:
            self._depth = {self.root: 0}
            stack = [self.root]
            while stack:
                node = stack.pop()
                for child in self._children[node]:
                    self._depth[child] = self._depth[node] + 1
                    stack.append(child)

    # ------------------------------------------------------------------
    # relative transforms
    # ------------------------------------------------------------------
    def _step_up(self, node: Node) -> Matrix:
        """Transform node-frame → parent-frame: inv(R(phi) T(tau))."""
        return _inverse(_edge_matrix(self.edge_angle[node], self.tau))

    def _step_down(self, child: Node) -> Matrix:
        """Transform parent-frame → child-frame: R(phi) T(tau)."""
        return _edge_matrix(self.edge_angle[child], self.tau)

    def _tree_path(self, u: Node, v: Node) -> Tuple[List[Node], List[Node]]:
        """(ascent from u to lca, descent from lca to v), inclusive ends."""
        up: List[Node] = [u]
        down: List[Node] = [v]
        a, b = u, v
        while self._depth[a] > self._depth[b]:
            a = self.tree_parent[a]  # type: ignore[assignment]
            up.append(a)
        while self._depth[b] > self._depth[a]:
            b = self.tree_parent[b]  # type: ignore[assignment]
            down.append(b)
        while a != b:
            a = self.tree_parent[a]  # type: ignore[assignment]
            b = self.tree_parent[b]  # type: ignore[assignment]
            up.append(a)
            down.append(b)
        down.reverse()
        return up, down

    def relative_transform(self, u: Node, v: Node) -> Matrix:
        """inv(μ_u)·μ_v accumulated along the tree path u → v."""
        up, down = self._tree_path(u, v)
        m = _IDENTITY
        for node in up[:-1]:  # each step towards the lca
            m = _mul(m, self._step_up(node))
        for child in down[1:]:  # each step away from the lca
            m = _mul(m, self._step_down(child))
        return m

    def distance(self, u: Node, v: Node) -> float:
        """Hyperbolic distance between the embedded points of u and v."""
        if u not in self._depth or v not in self._depth:
            raise NodeNotFoundError(u if u not in self._depth else v)
        if u == v:
            return 0.0
        return _distance_from_matrix(self.relative_transform(u, v))

    def distance_table(self, target: Node) -> Dict[Node, float]:
        """d(x, target) for every node x, via one BFS over the tree.

        The relative transform of a node is its tree-neighbor-towards-
        target's transform composed with one edge step, so the whole
        table costs O(n) matrix products.
        """
        if target not in self._depth:
            raise NodeNotFoundError(target)
        transforms: Dict[Node, Matrix] = {target: _IDENTITY}
        table: Dict[Node, float] = {target: 0.0}
        queue: List[Node] = [target]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            neighbors = list(self._children[node])
            parent = self.tree_parent[node]
            if parent is not None:
                neighbors.append(parent)
            for neighbor in neighbors:
                if neighbor in transforms:
                    continue
                if neighbor == parent:
                    # inv(mu_parent)·mu_node = E_node, prepended to node's
                    # accumulated transform toward the target.
                    transforms[neighbor] = _mul(self._step_down(node), transforms[node])
                else:
                    transforms[neighbor] = _mul(self._step_up(neighbor), transforms[node])
                table[neighbor] = _distance_from_matrix(transforms[neighbor])
                queue.append(neighbor)
        return table


def _assign_angles(
    graph: Graph, root: Node
) -> Tuple[Dict[Node, Optional[Node]], Dict[Node, float]]:
    parent = bfs_tree(graph, root)
    if len(parent) != graph.num_nodes:
        raise AlgorithmError("hyperbolic embedding requires a connected graph")
    children: Dict[Node, List[Node]] = {node: [] for node in parent}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)
    for node in children:
        children[node].sort(key=repr)

    angle: Dict[Node, float] = {}
    for node, kids in children.items():
        k = len(kids)
        if k == 0:
            continue
        if parent[node] is None:
            # Root: spread children over the full circle.
            for index, child in enumerate(kids):
                angle[child] = -math.pi + (index + 0.5) * (2.0 * math.pi / k)
        else:
            # The parent occupies direction pi; children take the other
            # k slots of an even (k + 1)-fan.
            for index, child in enumerate(kids):
                angle[child] = -math.pi + (index + 1) * (2.0 * math.pi / (k + 1))
    return parent, angle


def _greedy_property_holds(graph: Graph, embedding: HyperbolicEmbedding) -> bool:
    """Every node needs a tree neighbor strictly closer to every target."""
    nodes = sorted(graph.nodes(), key=repr)
    tree_neighbors: Dict[Node, List[Node]] = {node: [] for node in nodes}
    for node, parent in embedding.tree_parent.items():
        if parent is not None:
            tree_neighbors[node].append(parent)
            tree_neighbors[parent].append(node)
    for target in nodes:
        table = embedding.distance_table(target)
        for node in nodes:
            if node == target:
                continue
            own = table[node]
            if not any(table[nb] < own - 1e-9 for nb in tree_neighbors[node]):
                return False
    return True


@traced("repro.remapping.embed_tree")
def embed_tree(
    graph: Graph,
    root: Optional[Node] = None,
    tau: Optional[float] = None,
    certify: bool = True,
    max_doublings: int = 8,
) -> HyperbolicEmbedding:
    """Embed a BFS spanning tree of ``graph`` into H².

    When ``certify`` is set (default), the greedy property is verified
    exhaustively and τ is doubled until it holds, so the returned
    embedding carries a per-instance delivery guarantee.
    """
    if graph.num_nodes == 0:
        raise ValueError("cannot embed an empty graph")
    if root is None:
        root = min(graph.nodes(), key=repr)
    if not graph.has_node(root):
        raise NodeNotFoundError(root)
    max_degree = max((graph.degree(node) for node in graph.nodes()), default=1)
    # Sarkar: tau grows with the log of the fan-out (minimum angle).
    step = tau if tau is not None else 2.0 * math.log(max_degree + 2.0)
    parent, angle = _assign_angles(graph, root)
    for _ in range(max_doublings):
        embedding = HyperbolicEmbedding(
            root=root, tree_parent=parent, edge_angle=angle, tau=step
        )
        if not certify or _greedy_property_holds(graph, embedding):
            return embedding
        step *= 2.0
    raise AlgorithmError(
        f"could not certify a greedy embedding within {max_doublings} doublings"
    )


def hyperbolic_distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Distance between two upper-half-plane points (x + yi)."""
    (x1, y1), (x2, y2) = a, b
    if y1 <= 0 or y2 <= 0:
        raise ValueError("points must lie in the upper half-plane (y > 0)")
    chord = (x1 - x2) ** 2 + (y1 - y2) ** 2
    return math.acosh(1.0 + chord / (2.0 * y1 * y2))


def greedy_route_hyperbolic(
    graph: Graph,
    embedding: HyperbolicEmbedding,
    source: Node,
    target: Node,
    max_hops: Optional[int] = None,
) -> RouteResult:
    """Greedy forwarding on hyperbolic distance over *all* graph links.

    With a certified embedding this always delivers: some tree neighbor
    is strictly closer at every step, strict progress forbids loops,
    and the only terminal node is the target itself.
    """
    for node in (source, target):
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    if max_hops is None:
        max_hops = graph.num_nodes
    table = embedding.distance_table(target)
    path: List[Node] = [source]
    current = source
    for _ in range(max_hops):
        if current == target:
            return RouteResult(delivered=True, path=tuple(path))
        own = table[current]
        best: Optional[Node] = None
        best_distance = own
        for neighbor in sorted(graph.neighbors(current), key=repr):
            candidate = table[neighbor]
            if candidate < best_distance - 1e-12:
                best = neighbor
                best_distance = candidate
        if best is None:
            return RouteResult(delivered=False, path=tuple(path), stuck_at=current)
        current = best
        path.append(current)
    if current == target:
        return RouteResult(delivered=True, path=tuple(path))
    return RouteResult(delivered=False, path=tuple(path), stuck_at=current)
