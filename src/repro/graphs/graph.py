"""Adjacency-set graphs: the static-graph substrate of the library.

The paper models a complex network as a traditional graph ``G = (V, E)``
(Sec. II).  This module provides the two workhorse containers used by
every other subsystem:

:class:`Graph`
    an undirected simple graph with optional node and edge attributes,

:class:`DiGraph`
    a directed simple graph with the same attribute model plus
    predecessor bookkeeping.

Both are deliberately small, explicit, dictionary-of-sets structures —
no magic, O(1) amortised node/edge updates, and cheap iteration — so the
distributed algorithms layered on top (Sec. IV) can treat them as the
"ground-truth topology" while maintaining their own local views.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
)

from repro.errors import EdgeNotFoundError, NodeNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.csr import FrozenGraph

Node = Hashable


def _edge_key(u: Node, v: Node) -> Tuple[Node, Node]:
    """Canonical undirected edge key: order the endpoints deterministically."""
    # Sort by repr to stay deterministic for mixed / non-orderable types.
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """An undirected simple graph with node and edge attributes.

    >>> g = Graph()
    >>> g.add_edge("A", "B", weight=2.0)
    >>> g.degree("A")
    1
    >>> sorted(g.neighbors("B"))
    ['A']
    """

    directed = False

    def __init__(self, edges: Optional[Iterable[Tuple[Node, Node]]] = None) -> None:
        self._adj: Dict[Node, Set[Node]] = {}
        self._node_attrs: Dict[Node, Dict[str, Any]] = {}
        self._edge_attrs: Dict[Tuple[Node, Node], Dict[str, Any]] = {}
        self._generation = 0
        self._frozen: Optional["FrozenGraph"] = None
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        """Add ``node``; merging ``attrs`` into its attribute dict.

        Re-adding an existing node is a no-op for the topology and does
        not bump the mutation generation (attribute merges never
        invalidate — snapshots capture adjacency only).
        """
        if node not in self._adj:
            self._adj[node] = set()
            self._node_attrs[node] = {}
            self._generation += 1
        if attrs:
            self._node_attrs[node].update(attrs)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]
        del self._node_attrs[node]
        self._generation += 1

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        return iter(self._adj)

    def node_attr(self, node: Node, key: str, default: Any = None) -> Any:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return self._node_attrs[node].get(key, default)

    def set_node_attr(self, node: Node, key: str, value: Any) -> None:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        self._node_attrs[node][key] = value

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node, **attrs: Any) -> None:
        """Add the undirected edge ``(u, v)``; endpoints are auto-added.

        Self-loops are rejected: the paper's networks are simple graphs.
        Adding an edge that already exists is a topology no-op (attrs
        still merge) and must not bump ``_generation`` — every mutation
        path in this class guards the bump on an actual change, so
        cached frozen snapshots survive no-op mutations
        (``tests/test_generation_noop.py`` pins this by counting
        ``repro.cache.frozen`` refreeze events).
        """
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed in a simple graph")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._generation += 1
        key = _edge_key(u, v)
        if key not in self._edge_attrs:
            self._edge_attrs[key] = {}
        if attrs:
            self._edge_attrs[key].update(attrs)

    def remove_edge(self, u: Node, v: Node) -> None:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_attrs.pop(_edge_key(u, v), None)
        self._generation += 1

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate each undirected edge exactly once (canonical order)."""
        return iter(self._edge_attrs)

    def edge_attr(self, u: Node, v: Node, key: str, default: Any = None) -> Any:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._edge_attrs[_edge_key(u, v)].get(key, default)

    def set_edge_attr(self, u: Node, v: Node, key: str, value: Any) -> None:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._edge_attrs[_edge_key(u, v)][key] = value

    @property
    def num_edges(self) -> int:
        return len(self._edge_attrs)

    # ------------------------------------------------------------------
    # neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> Set[Node]:
        """The open neighborhood N(node) as a *copy* (safe to mutate)."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return set(self._adj[node])

    def closed_neighbors(self, node: Node) -> Set[Node]:
        """The closed neighborhood N[node] = N(node) ∪ {node}."""
        result = self.neighbors(node)
        result.add(node)
        return result

    def degree(self, node: Node) -> int:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def k_hop_neighbors(self, node: Node, k: int) -> Set[Node]:
        """All nodes within ``k`` hops of ``node`` (excluding ``node``).

        This is the "local horizon" of Sec. IV: localized algorithms are
        only allowed to read this set for a small constant ``k``.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        seen = {node}
        frontier = {node}
        for _ in range(k):
            next_frontier: Set[Node] = set()
            for u in frontier:
                next_frontier |= self._adj[u] - seen
            seen |= next_frontier
            frontier = next_frontier
            if not frontier:
                break
        seen.discard(node)
        return seen

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def frozen(self) -> "FrozenGraph":
        """A cached CSR snapshot for the vectorized kernels.

        The snapshot is rebuilt lazily whenever the *topology* has
        mutated since the last call (nodes or edges added/removed —
        attribute updates do not invalidate, because the snapshot
        captures adjacency only).  Repeated sweeps over an unchanged
        graph therefore pay the O(n + m) freeze cost once.
        """
        from repro.graphs.csr import FrozenGraph, generation_cached

        return generation_cached(self, FrozenGraph)

    def copy(self) -> "Graph":
        """An independent clone with fresh attribute dicts and no snapshot.

        Built directly rather than by replaying ``add_node``/``add_edge``,
        but in the replay's order: nodes in insertion order, then each
        edge's endpoints added to each other's neighbor sets in edge
        order, so every set iterates exactly as a replayed one would.
        """
        clone = Graph()
        adj: Dict[Node, Set[Node]] = {node: set() for node in self._adj}
        for u, v in self._edge_attrs:
            adj[u].add(v)
            adj[v].add(u)
        clone._adj = adj
        clone._node_attrs = {node: dict(self._node_attrs[node]) for node in self._adj}
        clone._edge_attrs = {
            key: dict(attrs) for key, attrs in self._edge_attrs.items()
        }
        clone._generation = len(adj) + len(self._edge_attrs)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes`` (attributes are copied)."""
        keep = set(nodes)
        missing = keep - set(self._adj)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = Graph()
        for node in keep:
            sub.add_node(node, **self._node_attrs[node])
        for (u, v), attrs in self._edge_attrs.items():
            if u in keep and v in keep:
                sub.add_edge(u, v, **attrs)
        return sub

    def to_directed(self) -> "DiGraph":
        """Each undirected edge becomes a pair of opposing arcs."""
        dg = DiGraph()
        for node in self._adj:
            dg.add_node(node, **self._node_attrs[node])
        for (u, v), attrs in self._edge_attrs.items():
            dg.add_edge(u, v, **attrs)
            dg.add_edge(v, u, **attrs)
        return dg

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.num_nodes}, m={self.num_edges})"


class DiGraph:
    """A directed simple graph with node and edge attributes.

    Arcs ``(u, v)`` and ``(v, u)`` are distinct; at most one arc per
    ordered pair; no self-loops.
    """

    directed = True

    def __init__(self, edges: Optional[Iterable[Tuple[Node, Node]]] = None) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._node_attrs: Dict[Node, Dict[str, Any]] = {}
        self._edge_attrs: Dict[Tuple[Node, Node], Dict[str, Any]] = {}
        self._generation = 0
        self._frozen: Optional["FrozenGraph"] = None
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self._node_attrs[node] = {}
            self._generation += 1
        if attrs:
            self._node_attrs[node].update(attrs)

    def remove_node(self, node: Node) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for u in list(self._pred[node]):
            self.remove_edge(u, node)
        del self._succ[node]
        del self._pred[node]
        del self._node_attrs[node]
        self._generation += 1

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def node_attr(self, node: Node, key: str, default: Any = None) -> Any:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return self._node_attrs[node].get(key, default)

    def set_node_attr(self, node: Node, key: str, value: Any) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        self._node_attrs[node][key] = value

    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node, **attrs: Any) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed in a simple graph")
        self.add_node(u)
        self.add_node(v)
        if v not in self._succ[u]:
            self._succ[u].add(v)
            self._pred[v].add(u)
            self._generation += 1
        if (u, v) not in self._edge_attrs:
            self._edge_attrs[(u, v)] = {}
        if attrs:
            self._edge_attrs[(u, v)].update(attrs)

    def remove_edge(self, u: Node, v: Node) -> None:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._edge_attrs.pop((u, v), None)
        self._generation += 1

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        return iter(self._edge_attrs)

    def edge_attr(self, u: Node, v: Node, key: str, default: Any = None) -> Any:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._edge_attrs[(u, v)].get(key, default)

    def set_edge_attr(self, u: Node, v: Node, key: str, value: Any) -> None:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._edge_attrs[(u, v)][key] = value

    @property
    def num_edges(self) -> int:
        return len(self._edge_attrs)

    # ------------------------------------------------------------------
    # neighborhood queries
    # ------------------------------------------------------------------
    def successors(self, node: Node) -> Set[Node]:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return set(self._succ[node])

    def predecessors(self, node: Node) -> Set[Node]:
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return set(self._pred[node])

    def out_degree(self, node: Node) -> int:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return len(self._pred[node])

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def frozen(self) -> "FrozenGraph":
        """A cached CSR snapshot over the *successor* adjacency.

        Same invalidation semantics as :meth:`Graph.frozen`: rebuilt
        when the topology mutates, reused otherwise.
        """
        from repro.graphs.csr import FrozenGraph, generation_cached

        return generation_cached(self, FrozenGraph)

    def copy(self) -> "DiGraph":
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node, **self._node_attrs[node])
        for (u, v), attrs in self._edge_attrs.items():
            clone.add_edge(u, v, **attrs)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        keep = set(nodes)
        missing = keep - set(self._succ)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = DiGraph()
        for node in keep:
            sub.add_node(node, **self._node_attrs[node])
        for (u, v), attrs in self._edge_attrs.items():
            if u in keep and v in keep:
                sub.add_edge(u, v, **attrs)
        return sub

    def reverse(self) -> "DiGraph":
        """A new digraph with every arc reversed."""
        rev = DiGraph()
        for node in self._succ:
            rev.add_node(node, **self._node_attrs[node])
        for (u, v), attrs in self._edge_attrs.items():
            rev.add_edge(v, u, **attrs)
        return rev

    def to_undirected(self) -> Graph:
        """Forget orientations; parallel opposing arcs merge into one edge."""
        g = Graph()
        for node in self._succ:
            g.add_node(node, **self._node_attrs[node])
        for (u, v), attrs in self._edge_attrs.items():
            g.add_edge(u, v, **attrs)
        return g

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.num_nodes}, m={self.num_edges})"
