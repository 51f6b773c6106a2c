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
renormalisation at every step.

Distances from every node to one target come from a depth walk.  Every
node off the target's ancestor chain is reached from its parent, so
after a scalar walk up the chain, :meth:`HyperbolicEmbedding.distance_table`
fills the tree one depth at a time with ``_mul``'s elementwise formula
over numpy arrays: the same IEEE products, sums and quotients in the
same operand order as the per-node reference.  Only the transcendental
calls (the renormalisation ``log``, and the ``log``/``exp``/``acosh``
of the distance) stay scalar ``math`` calls, because numpy's SIMD
``log`` and ``exp`` differ from ``math``'s in the last bit on a small
share of inputs.  The table is therefore bit-identical to
:meth:`~HyperbolicEmbedding.distance_table_reference`, and certification
decides exactly as the per-node loop did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import AlgorithmError, NodeNotFoundError
from repro.graphs.graph import Graph
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


def _translation_finite(tau: float) -> bool:
    """Is exp(tau / 2), the entry of :func:`_translation`, a finite float?"""
    try:
        return math.isfinite(math.exp(tau / 2.0))
    except OverflowError:
        return False


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
    return _distance_from_log_cosh(math.log(frobenius_sq / 2.0) - ld)


def _distance_from_log_cosh(log_cosh: float) -> float:
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
    leaves its parent at; all edges have hyperbolic length ``tau``,
    which must be finite and positive with exp(tau / 2) finite (below
    about 1419), or construction raises ``ValueError``.
    """

    root: Node
    tree_parent: Dict[Node, Optional[Node]]
    edge_angle: Dict[Node, float]
    tau: float
    _children: Dict[Node, List[Node]] = field(default_factory=dict)
    _depth: Dict[Node, int] = field(default_factory=dict)
    # The depth walk of distance_table: nodes in breadth-first order from
    # the root, each depth >= 1 one contiguous [start, stop) bucket, with
    # parent positions and the stacked _step_up rows (5 x n).
    _order: List[Node] = field(init=False, repr=False, compare=False)
    _index: Dict[Node, int] = field(init=False, repr=False, compare=False)
    _buckets: List[Tuple[int, int]] = field(init=False, repr=False, compare=False)
    _parent_index: np.ndarray = field(init=False, repr=False, compare=False)
    _up: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if not _translation_finite(self.tau):
            raise ValueError(f"tau {self.tau!r} is too large: exp(tau / 2) overflows")
        if not self._children:
            self._children = {node: [] for node in self.tree_parent}
            for node, parent in self.tree_parent.items():
                if parent is not None:
                    self._children[parent].append(node)
            for node in self._children:
                self._children[node].sort(key=repr)
        order = [self.root]
        depth = {self.root: 0}
        for node in order:  # grows while it is walked: a BFS queue
            for child in self._children[node]:
                depth[child] = depth[node] + 1
                order.append(child)
        if not self._depth:
            self._depth = depth
        self._order = order
        self._index = {node: i for i, node in enumerate(order)}
        levels = [depth[node] for node in order]
        starts = [i for i in range(1, len(order)) if levels[i] != levels[i - 1]]
        self._buckets = list(zip(starts, starts[1:] + [len(order)]))
        self._parent_index = np.array(
            [0] + [self._index[self.tree_parent[node]] for node in order[1:]]
        )
        self._up = np.array(
            [_IDENTITY] + [self._step_up(node) for node in order[1:]], dtype=np.float64
        ).T.copy()

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
        """d(x, target) for every node x, via one walk down the depths.

        The target's ancestors are reached from below, each by one
        ``_step_down`` product up the chain.  Every other node is
        reached from its parent, by its own ``_step_up``, so once the
        chain is known each depth is one vectorized ``_mul`` over the
        bucket — top-down, with the chain's node of that depth written
        back over its slot before the next depth reads it.  Bit-identical
        to :meth:`distance_table_reference` (see the module's Numerics).
        """
        if target not in self._depth:
            raise NodeNotFoundError(target)
        chain: List[Tuple[int, Matrix]] = [(self._index[target], _IDENTITY)]
        node = target
        while (parent := self.tree_parent[node]) is not None:
            m = _mul(self._step_down(node), chain[-1][1])
            chain.append((self._index[parent], m))
            node = parent
        chain.reverse()  # chain[k] is the ancestor at depth k
        t = np.empty_like(self._up)
        t[:, 0] = chain[0][1]
        for level, (start, stop) in enumerate(self._buckets, start=1):
            a, b, c, d, ld_m = self._up[:, start:stop]
            e, f, g, h, ld_n = t[:, self._parent_index[start:stop]]
            out = np.stack((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
            scale = np.abs(out).max(axis=0)
            if not scale.all():
                raise AlgorithmError("degenerate Möbius transform")
            log_scale = np.array(list(map(math.log, scale.tolist())))
            t[:4, start:stop] = out / scale
            t[4, start:stop] = ld_m + ld_n - 2.0 * log_scale
            if level < len(chain):
                slot, m = chain[level]
                t[:, slot] = m
        a, b, c, d, ld = t
        half_frobenius_sq = (a * a + b * b + c * c + d * d) / 2.0
        log_cosh = np.array(list(map(math.log, half_frobenius_sq.tolist()))) - ld
        values = list(map(_distance_from_log_cosh, log_cosh.tolist()))
        values[self._index[target]] = 0.0
        return dict(zip(self._order, values))

    def distance_table_reference(self, target: Node) -> Dict[Node, float]:
        """Per-node BFS over the tree from ``target``: ground truth.

        The relative transform of a node is its tree-neighbor-towards-
        target's transform composed with one edge step, so the whole
        table costs O(n) scalar matrix products.
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
    # A BFS tree that visits each node's neighbours in repr order, so it
    # depends only on the node and edge sets, not on the order the
    # adjacency sets were built in; children come out in repr order.
    rank = {node: i for i, node in enumerate(sorted(graph.nodes(), key=repr))}
    parent: Dict[Node, Optional[Node]] = {root: None}
    children: Dict[Node, List[Node]] = {root: []}
    order = [root]
    for node in order:  # grows while it is walked: a BFS queue
        for neighbor in sorted(graph.neighbors(node), key=rank.__getitem__):
            if neighbor not in parent:
                parent[neighbor] = node
                children[node].append(neighbor)
                children[neighbor] = []
                order.append(neighbor)
    if len(parent) != graph.num_nodes:
        raise AlgorithmError("hyperbolic embedding requires a connected graph")

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
    """Every node needs a tree neighbor strictly closer to every target.

    Per target, one compare over the whole table: each node's distance
    against the minimum over its tree neighbors (a CSR in the
    embedding's breadth-first order).
    """
    order = embedding._order
    n = len(order)
    if n < 2:
        return True
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for child, parent in enumerate(embedding._parent_index[1:].tolist(), start=1):
        neighbors[child].append(parent)
        neighbors[parent].append(child)
    starts = np.cumsum([0] + [len(row) for row in neighbors[:-1]])
    flat = np.array([nb for row in neighbors for nb in row])
    for target in sorted(graph.nodes(), key=repr):
        table = embedding.distance_table(target)
        row = np.fromiter(map(table.__getitem__, order), np.float64, n)
        closer = np.minimum.reduceat(row[flat], starts) < row - 1e-9
        closer[embedding._index[target]] = True
        if not closer.all():
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
    embedding carries a per-instance delivery guarantee.  ``tau``, when
    given, must be valid for :class:`HyperbolicEmbedding` (``ValueError``
    otherwise), and ``max_doublings`` at least 1.
    """
    if max_doublings < 1:
        raise ValueError(f"max_doublings must be at least 1, got {max_doublings!r}")
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
    for doubling in range(max_doublings):
        try:
            embedding = HyperbolicEmbedding(
                root=root, tree_parent=parent, edge_angle=angle, tau=step
            )
        except ValueError as error:
            if not doubling:
                raise
            raise AlgorithmError(
                f"could not certify a greedy embedding before tau {step!r} "
                "overflows exp(tau / 2)"
            ) from error
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
