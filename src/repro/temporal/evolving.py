"""Time-evolving graphs (Sec. II-B, Fig. 2).

A time-evolving graph ``EG`` over a node set V is a collection of
spanning subgraphs ``G_0, G_1, ..., G_k`` for consecutive time units, in
which each edge (u, v) carries an *edge label set* — the set of time
units ``{i | (u, v) ∈ E_i}`` during which the edge (contact) exists.
Message transmission over a contact is instantaneous; storage between
contacts is free (carry-store-forward).

The class supports both views:

* label view — ``labels(u, v)`` returns the time units of the contact;
* snapshot view — ``snapshot(i)`` materialises G_i as a static graph.

A weighted variant attaches a per-(edge, time) weight, interpreted by
the application (bandwidth, delay, reliability).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.graph import Graph, _edge_key

Node = Hashable
EdgeKey = Tuple[Node, Node]


class EvolvingGraph:
    """An undirected time-evolving graph with integer time-unit labels.

    >>> eg = EvolvingGraph(horizon=6)
    >>> eg.add_contact("A", "B", 1)
    >>> eg.add_contact("A", "B", 4)
    >>> sorted(eg.labels("A", "B"))
    [1, 4]
    """

    def __init__(self, horizon: int, nodes: Optional[Iterable[Node]] = None) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)
        self._nodes: Set[Node] = set()
        self._adj: Dict[Node, Set[Node]] = {}
        self._labels: Dict[EdgeKey, Set[int]] = {}
        self._weights: Dict[Tuple[EdgeKey, int], float] = {}
        # Mutation generation: bumped by any contact/node/weight change;
        # keys the frozen snapshot and the sorted-contact caches below
        # (same invalidation scheme as Graph._generation).
        self._generation = 0
        self._frozen = None
        self._contacts_cache: Dict[Node, Tuple[List[int], List[Tuple[int, Node]]]] = {}
        self._contacts_cache_generation = -1
        self._all_contacts_cache: Optional[List[Tuple[int, Node, Node]]] = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            self._adj[node] = set()
            self._generation += 1

    def add_contact(self, u: Node, v: Node, time: int, weight: Optional[float] = None) -> None:
        """Declare that edge (u, v) exists during time unit ``time``.

        Re-adding an existing contact (same time label, and the same —
        or no — weight) is a no-op and does *not* bump the mutation
        generation, so cached frozen snapshots stay valid; a changed
        weight does invalidate (``FrozenContacts`` captures weights).
        """
        if u == v:
            raise ValueError(f"self-contact on {u!r} not allowed")
        self._check_time(time)
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        key = _edge_key(u, v)
        times = self._labels.setdefault(key, set())
        changed = time not in times
        if changed:
            times.add(time)
        if weight is not None:
            weight_key = (key, time)
            if self._weights.get(weight_key) != float(weight):
                self._weights[weight_key] = float(weight)
                changed = True
        if changed:
            self._generation += 1

    def _bulk_add_contacts(self, items: Iterable[Tuple[Node, Node, int]]) -> None:
        """Insert many (u, v, time) contacts with per-call checks hoisted.

        Used by the trace-discretisation fast path
        (:meth:`repro.temporal.contacts.ContactTrace.to_evolving`):
        times must already be validated against the horizon.  Produces
        exactly the state a loop of :meth:`add_contact` calls would
        (label sets, first-touch edge-key order and endpoints the graph
        did not hold yet included) at a fraction of the interpreter cost.
        """
        adj = self._adj
        labels = self._labels
        changed = False
        for u, v, time in items:
            try:
                adj[u].add(v)
                adj[v].add(u)
            except KeyError:  # an endpoint the graph does not hold yet
                self.add_node(u)
                self.add_node(v)
                adj[u].add(v)
                adj[v].add(u)
            key = _edge_key(u, v)
            times = labels.get(key)
            if times is None:
                labels[key] = {time}
                changed = True
            elif time not in times:
                times.add(time)
                changed = True
        # One bump for the whole batch — and none at all when every
        # item was a duplicate (no-op bulk loads keep snapshots valid).
        if changed:
            self._generation += 1

    def add_periodic_contact(
        self, u: Node, v: Node, phase: int, period: int, weight: Optional[float] = None
    ) -> None:
        """Contacts at phase, phase+period, ... up to the horizon.

        Models the paper's VANET example where mobile nodes meet on
        movement cycles (Fig. 2: (B, D) and (C, D) have cycle 6, ...).
        """
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        time = phase
        while time < self.horizon:
            self.add_contact(u, v, time, weight)
            time += period

    def remove_contact(self, u: Node, v: Node, time: int) -> None:
        """Remove one time label; drops the edge entirely when none remain."""
        key = _edge_key(u, v)
        if key not in self._labels or time not in self._labels[key]:
            raise EdgeNotFoundError(u, v)
        self._labels[key].discard(time)
        self._weights.pop((key, time), None)
        if not self._labels[key]:
            del self._labels[key]
            self._adj[u].discard(v)
            self._adj[v].discard(u)
        self._generation += 1

    def remove_node(self, node: Node) -> None:
        """Remove a node and all its contacts (used by trimming)."""
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            key = _edge_key(node, neighbor)
            for time in list(self._labels.get(key, ())):
                self._weights.pop((key, time), None)
            self._labels.pop(key, None)
            self._adj[neighbor].discard(node)
        del self._adj[node]
        self._nodes.discard(node)
        self._generation += 1

    def _check_time(self, time: int) -> None:
        if not 0 <= time < self.horizon:
            raise ValueError(
                f"time {time} out of range [0, {self.horizon})"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def has_node(self, node: Node) -> bool:
        return node in self._nodes

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    def edges(self) -> Iterator[EdgeKey]:
        """Each footprint edge (edge with ≥ 1 label) exactly once."""
        return iter(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._labels)

    @property
    def num_contacts(self) -> int:
        return sum(len(times) for times in self._labels.values())

    def has_edge(self, u: Node, v: Node) -> bool:
        return _edge_key(u, v) in self._labels

    def has_contact(self, u: Node, v: Node, time: int) -> bool:
        labels = self._labels.get(_edge_key(u, v))
        return labels is not None and time in labels

    def labels(self, u: Node, v: Node) -> FrozenSet[int]:
        """The edge label set {i | (u, v) ∈ E_i}."""
        labels = self._labels.get(_edge_key(u, v))
        if labels is None:
            raise EdgeNotFoundError(u, v)
        return frozenset(labels)

    def weight(self, u: Node, v: Node, time: int, default: float = 1.0) -> float:
        """The weight w_i of the contact, or ``default`` when unset."""
        if not self.has_contact(u, v, time):
            raise EdgeNotFoundError(u, v)
        return self._weights.get((_edge_key(u, v), time), default)

    def neighbors(self, node: Node) -> Set[Node]:
        """Footprint neighbors: contacted at *some* time (copy)."""
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        return set(self._adj[node])

    def neighbors_at(self, node: Node, time: int) -> Set[Node]:
        """Neighbors with a contact exactly at time unit ``time``."""
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        self._check_time(time)
        return {
            other
            for other in self._adj[node]
            if time in self._labels[_edge_key(node, other)]
        }

    def _contact_caches(self) -> Dict[Node, Tuple[List[int], List[Tuple[int, Node]]]]:
        """The per-node sorted-contact cache, generation-invalidated."""
        if self._contacts_cache_generation != self._generation:
            self._contacts_cache = {}
            self._all_contacts_cache = None
            self._contacts_cache_generation = self._generation
        return self._contacts_cache

    def contact_index(self, node: Node) -> Tuple[List[int], List[Tuple[int, Node]]]:
        """The cached (times, (time, neighbor) pairs) of ``node``, sorted by time.

        The lists are the cache itself (invalidated by the mutation
        generation counter): callers bisect ``times`` and must not
        mutate either list.  :meth:`contacts_from` returns copies.
        """
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        cache = self._contact_caches()
        cached = cache.get(node)
        if cached is None:
            pairs: List[Tuple[int, Node]] = []
            for other in self._adj[node]:
                for time in self._labels[_edge_key(node, other)]:
                    pairs.append((time, other))
            pairs.sort(key=lambda pair: (pair[0], repr(pair[1])))
            cached = ([pair[0] for pair in pairs], pairs)
            cache[node] = cached
        return cached

    def contacts_from(self, node: Node, not_before: int = 0) -> List[Tuple[int, Node]]:
        """(time, neighbor) pairs with time >= not_before, sorted by time.

        The sorted list is cached per node (see :meth:`contact_index`),
        so repeated queries bisect instead of re-scanning and re-sorting
        the label sets.
        """
        times, pairs = self.contact_index(node)
        if not_before <= 0:
            return list(pairs)
        return pairs[bisect_left(times, not_before):]

    def all_contacts(self) -> List[Tuple[int, Node, Node]]:
        """Every (time, u, v) contact, sorted by time (cached)."""
        self._contact_caches()
        if self._all_contacts_cache is None:
            result: List[Tuple[int, Node, Node]] = []
            for (u, v), times in self._labels.items():
                for time in times:
                    result.append((time, u, v))
            result.sort(key=lambda c: (c[0], repr(c[1]), repr(c[2])))
            self._all_contacts_cache = result
        return list(self._all_contacts_cache)

    # ------------------------------------------------------------------
    # views and conversions
    # ------------------------------------------------------------------
    def frozen(self) -> "FrozenContacts":
        """A cached time-sorted contact index for the vectorized kernels.

        Mirrors ``Graph.frozen()``: the snapshot is rebuilt lazily
        whenever contacts, nodes, or weights have mutated since the
        last call (tracked by the generation counter); repeated
        temporal sweeps over an unchanged graph pay the O(C log C)
        sort cost once.  See :mod:`repro.temporal.frozen`.
        """
        from repro.graphs.csr import generation_cached
        from repro.temporal.frozen import FrozenContacts

        return generation_cached(self, FrozenContacts)

    def snapshot(self, time: int) -> Graph:
        """G_i: the spanning subgraph during time unit ``time``."""
        self._check_time(time)
        graph = Graph()
        for node in self._nodes:
            graph.add_node(node)
        for (u, v), times in self._labels.items():
            if time in times:
                graph.add_edge(u, v)
        return graph

    def snapshots(self) -> Iterator[Graph]:
        for time in range(self.horizon):
            yield self.snapshot(time)

    def footprint(self) -> Graph:
        """The union graph: edge present iff it has any label.

        This is the static-graph abstraction the paper says "cannot
        sufficiently capture the dynamic nature" — useful exactly as the
        lossy baseline.
        """
        graph = Graph()
        for node in self._nodes:
            graph.add_node(node)
        for u, v in self._labels:
            graph.add_edge(u, v)
        return graph

    def subgraph(self, nodes: Iterable[Node]) -> "EvolvingGraph":
        """Induced time-evolving subgraph on ``nodes``."""
        keep = set(nodes)
        missing = keep - self._nodes
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = EvolvingGraph(horizon=self.horizon, nodes=keep)
        # Copy the kept label sets, adjacency and weights directly, in
        # the order a loop of add_contact calls would insert them
        # (set(iter(...)) adds one label at a time, as add_contact does,
        # so each copied set also iterates in that order).
        adj = sub._adj
        labels = sub._labels
        for key, times in self._labels.items():
            u, v = key
            if u in keep and v in keep:
                labels[key] = set(iter(times))
                adj[u].add(v)
                adj[v].add(u)
        weights = self._weights
        if weights:
            sub._weights = {
                (key, time): weights[key, time]
                for key in labels
                for time in self._labels[key]
                if (key, time) in weights
            }
        if labels:
            sub._generation += 1
        return sub

    def copy(self) -> "EvolvingGraph":
        return self.subgraph(self._nodes)

    @classmethod
    def from_snapshots(cls, snapshots: Sequence[Graph]) -> "EvolvingGraph":
        """Build an EG from an ordered sequence of spanning subgraphs."""
        if not snapshots:
            raise ValueError("at least one snapshot is required")
        eg = cls(horizon=len(snapshots))
        for graph in snapshots:
            for node in graph.nodes():
                eg.add_node(node)
        for time, graph in enumerate(snapshots):
            for u, v in graph.edges():
                eg.add_contact(u, v, time)
        return eg

    @classmethod
    def from_contacts(
        cls,
        contacts: Iterable[Tuple[Node, Node, int]],
        horizon: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> "EvolvingGraph":
        """Build an EG from (u, v, time) triples (e.g. a contact trace)."""
        contact_list = list(contacts)
        if horizon is None:
            if not contact_list:
                raise ValueError("horizon is required when contacts are empty")
            horizon = max(time for _, _, time in contact_list) + 1
        eg = cls(horizon=horizon, nodes=nodes)
        for u, v, time in contact_list:
            eg.add_contact(u, v, time)
        return eg

    def __repr__(self) -> str:
        return (
            f"EvolvingGraph(n={self.num_nodes}, edges={self.num_edges}, "
            f"contacts={self.num_contacts}, horizon={self.horizon})"
        )


def paper_fig2_evolving_graph() -> EvolvingGraph:
    """The Fig. 2 time-evolving graph of the paper.

    Six nodes: mobile B, C, D (moving cycles 3, 3, 2) and three static
    nodes A, E, F.  Edge label sets over horizon 7, following the
    caption — (B, D) and (C, D) have cycle 6, (A, D) has cycle 2, and
    (A, B) and (B, C) have cycle 3:

    * (A, D): {1, 3}      * (A, B): {1, 4}     * (B, C): {2, 5}
    * (B, D): {0, 6}      * (C, D): {6}        * (E, F): every unit

    The facts the paper states about this figure, all verified in
    tests: path A --4--> B --5--> C exists, so A is connected to C at
    starting times 0..4 (and not 5 or 6); A and C are not connected in
    any single snapshot; every path A -> D -> C (e.g. A --3--> D --6--> C)
    can be replaced by a path A -> B -> C (e.g. A --4--> B --5--> C), so
    A may trim neighbor D under the Sec. III-A rule.
    """
    eg = EvolvingGraph(horizon=7, nodes=["A", "B", "C", "D", "E", "F"])
    eg.add_periodic_contact("A", "D", phase=1, period=2)   # labels 1, 3 (5 off: D out of range)
    eg.remove_contact("A", "D", 5)
    eg.add_periodic_contact("A", "B", phase=1, period=3)   # labels 1, 4
    eg.add_periodic_contact("B", "C", phase=2, period=3)   # labels 2, 5
    eg.add_periodic_contact("B", "D", phase=0, period=6)   # labels 0, 6
    eg.add_periodic_contact("C", "D", phase=6, period=6)   # label 6
    eg.add_periodic_contact("E", "F", phase=0, period=1)   # static pair
    return eg
