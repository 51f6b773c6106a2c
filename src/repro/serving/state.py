"""Mutable serving state: a patched snapshot plus hot incremental indexes.

:class:`GraphService` is the synchronous core the async gateway wraps.
It owns a :class:`~repro.graphs.delta.PatchedGraph` — the CSR base plus
the pending edge patches, rebased above ``threshold`` pending entries —
and the incremental indexes of the :data:`INDEXES` table, kept
consistent with it: NSF peel levels, landmark (distance, gateway)
labels, PageRank, the MIS and the Wu–Dai CDS, each repaired as its
class documents.

Mutations are applied eagerly (O(degree) into the patch buffer; whole
batches in one vectorized :meth:`PatchedGraph.apply_batch` pass) while
index repair is *lazy*: touched edge pairs accumulate in one dirty set
per index and each index repairs on its first query after a mutation —
so a pure distance/PageRank workload never pays for label repair.  A
build or repair that raises discards its index (a half-applied repair
is not trusted), and the next query rebuilds it from the current
snapshot.

Distance queries go to :class:`HotSources`, which holds the level
arrays of up to :data:`HOT_SOURCES` most-queried sources.  A held
array is repaired by the same two-phase kernel as the landmark labels,
on that source's next query, from the pairs touched since.  A source
is admitted only while a slot is free or once its query count passes
the fewest among held sources; until then :meth:`GraphService.distance`
answers it with one :meth:`FrozenGraph.hop_distance` point search over
the merged snapshot (merged at most once per version, shared with the
index repairs), which costs the balls around the two endpoints instead
of a whole-graph sweep.  The store is not an :data:`INDEXES` entry:
that table repairs a whole index on its first query after a write,
which here would repair every held source once per version, most of
them never asked about again.

Nothing in the steady state goes through the dict-graph refreeze path:
the constructor freezes the seed topology once via the plain
:class:`~repro.graphs.csr.FrozenGraph` constructor (no cache events),
and every later snapshot is a vectorized patch merge.  Each table entry
also names its full-rebuild oracle; the differential harness
(``tests/test_incremental_differential.py``) holds a mirror dict graph
and asserts every index's bulk view against its oracle at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.csr import FrozenGraph
from repro.graphs.delta import (
    DEFAULT_PATCH_THRESHOLD,
    PatchBatchResult,
    PatchedGraph,
)
from repro.labeling.cds import wu_dai_cds
from repro.labeling.incremental import (
    IncrementalCDS,
    IncrementalLandmarkLabels,
    IncrementalMIS,
    IncrementalPageRank,
    repair_bfs_levels,
)
from repro.labeling.landmarks import (
    distance_gateway_labels_reference,
    select_landmarks,
)
from repro.labeling.mis import compute_mis
from repro.layering.incremental import IncrementalNSF
from repro.layering.nsf import nsf_levels_reference
from repro.observability.telemetry import (
    record_repair,
    record_serving_point_search,
    record_serving_sweep,
)

Node = Hashable


@dataclass(frozen=True)
class IndexSpec:
    """One incremental index: how to build, view and check it.

    ``build(fg, landmarks)`` returns an object with the duck-typed
    index contract: ``update(fg, pairs)`` repairs it for a new snapshot
    given the touched index pairs.  ``query`` names the index's
    :class:`GraphService` point query, ``view(service)`` its
    node-facing bulk view, and ``oracle(graph, landmarks)`` the
    full-rebuild reference that view must equal on the same dict
    graph: exactly, or for a node → score map within ``atol`` per node.
    """

    build: Callable[[FrozenGraph, Sequence[Node]], Any]
    query: str
    view: Callable[["GraphService"], Any]
    oracle: Callable[[Any, Sequence[Node]], Any]
    atol: Optional[float] = None

    def agrees(self, live: Any, reference: Any) -> bool:
        """Whether a bulk view equals its oracle's answer."""
        if self.atol is None:
            return live == reference
        return live.keys() == reference.keys() and all(
            abs(live[node] - reference[node]) <= self.atol for node in live
        )


def _pagerank_reference(graph, landmarks: Sequence[Node]) -> Dict[Node, float]:
    """Cold-start PageRank over a fresh snapshot, keyed by node."""
    fg = FrozenGraph(graph)
    return dict(zip(fg.node_list, fg.pagerank_scores()[0].tolist()))


#: The incremental indexes behind :class:`GraphService`, by name.
INDEXES: Dict[str, IndexSpec] = {
    "nsf": IndexSpec(
        build=lambda fg, landmarks: IncrementalNSF(fg),
        query="nsf_level",
        view=lambda service: service.nsf_levels_map(),
        oracle=lambda graph, landmarks: nsf_levels_reference(graph),
    ),
    "labels": IndexSpec(
        build=IncrementalLandmarkLabels,
        query="gateway_label",
        view=lambda service: service.gateway_labels_map(),
        oracle=distance_gateway_labels_reference,
    ),
    "pagerank": IndexSpec(
        build=lambda fg, landmarks: IncrementalPageRank(fg),
        query="pagerank_score",
        view=lambda service: service.pagerank_map(),
        oracle=_pagerank_reference,
        atol=1e-8,
    ),
    "mis": IndexSpec(
        build=lambda fg, landmarks: IncrementalMIS(fg),
        query="mis_member",
        view=lambda service: service.mis_set(),
        oracle=lambda graph, landmarks: compute_mis(graph)[0],
    ),
    "cds": IndexSpec(
        build=lambda fg, landmarks: IncrementalCDS(fg),
        query="cds_member",
        view=lambda service: (service.cds_marked_set(), service.cds_set()),
        oracle=lambda graph, landmarks: wu_dai_cds(graph),
    ),
}


#: How many sources :class:`HotSources` holds level arrays for.
HOT_SOURCES = 64


class HotSources:
    """BFS level arrays of the most-queried sources, repaired on demand.

    Holds one read-only level array for each of up to
    :data:`HOT_SOURCES` sources, plus one set per held source of the
    edge pairs touched since that array was swept or repaired, and a
    query count per source, held or not.  A query for a held source
    repairs its array with
    :func:`~repro.labeling.incremental.repair_bfs_levels` if its set is
    non-empty, into a fresh read-only copy.  Any other source is
    :meth:`admits`-checked: while a slot is free, or once its query
    count passes the fewest among held sources, its sweep is held and
    evicts that least-queried source; otherwise the sweep is returned
    without being held.  So a source asked about once never displaces
    a source asked about twice.  Repairs are per source and on demand:
    a write costs one set update per held source, and a source nobody
    asks about again is never repaired.  A repair that raises drops its
    source, so the next query for it sweeps afresh.
    """

    def __init__(self) -> None:
        #: Held level arrays (read-only), by source index.
        self._levels: Dict[int, np.ndarray] = {}
        #: Pairs touched since each held array was swept or repaired.
        self._pending: Dict[int, Set[Tuple[int, int]]] = {}
        #: Queries per source index, held or not (the admission order).
        self._queries: Dict[int, int] = {}

    def __contains__(self, source: int) -> bool:
        return source in self._levels

    def __len__(self) -> int:
        return len(self._levels)

    def touch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Record touched canonical index pairs against every held source."""
        for pending in self._pending.values():
            pending.update(pairs)

    def admits(self, source: int) -> bool:
        """Whether the next query for ``source`` leaves its array held.

        True for a held source, while a slot is free, or when the
        source's query count, that next query included, is greater
        than the fewest queries among held sources.
        """
        if source in self._levels or len(self._levels) < HOT_SOURCES:
            return True
        fewest = min(self._queries[held] for held in self._levels)
        return self._queries.get(source, 0) + 1 > fewest

    def count(self, source: int) -> None:
        """Count one query for ``source``."""
        self._queries[source] = self._queries.get(source, 0) + 1

    def levels(self, patched: PatchedGraph, source: int) -> np.ndarray:
        """Current hop levels from node index ``source`` (read-only)."""
        admit = self.admits(source)
        self.count(source)
        levels = self._levels.get(source)
        if levels is None:
            levels = patched.bfs_levels(source)
            record_serving_sweep()
            levels.flags.writeable = False
            if admit:
                if len(self._levels) >= HOT_SOURCES:
                    self._drop(min(self._levels, key=self._queries.__getitem__))
                self._levels[source] = levels
                self._pending[source] = set()
            return levels
        pending = self._pending[source]
        if pending:
            try:
                levels = repair_bfs_levels(
                    patched.snapshot(), levels, source, pending
                )
            except BaseException:
                self._drop(source)
                raise
            levels.flags.writeable = False
            record_repair("distances", "relax")
            self._levels[source] = levels
            pending.clear()
        return levels

    def _drop(self, source: int) -> None:
        del self._levels[source]
        del self._pending[source]


class GraphService:
    """Delta-aware graph state behind point-query methods.

    >>> from repro.graphs.graph import Graph
    >>> svc = GraphService(Graph([("a", "b"), ("b", "c")]), landmarks=["a"])
    >>> svc.insert_edge("a", "c")
    True
    >>> svc.distance("a", "c")
    1
    >>> svc.nsf_level("b") >= 1
    True
    """

    #: The single-answer queries; the gateway serves each under the
    #: same name.
    POINT_QUERIES: Tuple[str, ...] = ("distance",) + tuple(
        spec.query for spec in INDEXES.values()
    )

    def __init__(
        self,
        graph,
        landmarks: Optional[Sequence[Node]] = None,
        landmark_count: int = 4,
        threshold: int = DEFAULT_PATCH_THRESHOLD,
    ) -> None:
        if landmarks is None:
            landmarks = select_landmarks(graph, landmark_count)
        self.landmarks: List[Node] = list(landmarks)
        base = FrozenGraph(graph)
        self._patched = PatchedGraph(base, threshold=threshold)
        #: Canonical index pairs mutated since each index's last repair.
        #: Node indices are append-only, so pairs recorded at mutation
        #: time stay valid in every later snapshot.
        self._dirty: Dict[str, Set[Tuple[int, int]]] = {
            name: set() for name in INDEXES
        }
        #: The built indexes, by :data:`INDEXES` name.
        self._indexes: Dict[str, Any] = {}
        #: Level arrays of the hot distance-query sources.
        self._hot = HotSources()

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter (the patch buffer's version)."""
        return self._patched.version

    @property
    def patched(self) -> PatchedGraph:
        return self._patched

    @property
    def node_list(self) -> List[Node]:
        return self._patched.node_list

    def snapshot(self) -> FrozenGraph:
        """The current merged CSR snapshot (lazy, never a refreeze)."""
        return self._patched.snapshot()

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _touch(self, u: Node, v: Node) -> None:
        iu = self._patched.index_of(u)
        iv = self._patched.index_of(v)
        key = (iu, iv) if iu < iv else (iv, iu)
        for dirty in self._dirty.values():
            dirty.add(key)
        self._hot.touch((key,))

    def insert_edge(self, u: Node, v: Node) -> bool:
        """Add undirected edge (u, v); True if the topology changed."""
        changed = self._patched.insert_edge(u, v)
        if changed:
            self._touch(u, v)
        return changed

    def delete_edge(self, u: Node, v: Node) -> None:
        """Remove undirected edge (u, v); absent edges raise."""
        self._patched.delete_edge(u, v)
        self._touch(u, v)

    def apply_batch(
        self,
        inserts: Sequence[Tuple[Node, Node]] = (),
        deletes: Sequence[Tuple[Node, Node]] = (),
    ) -> PatchBatchResult:
        """Apply a mutation batch in one vectorized pass (the write path).

        Semantics of :meth:`PatchedGraph.apply_batch` (inserts first,
        then deletes; atomic — an invalid operation raises and leaves
        the service as it was); the batch's touched pairs feed every
        index's dirty set in one bulk union instead of a per-edge
        bookkeeping round-trip.
        """
        result = self._patched.apply_batch(inserts, deletes)
        if result.touched:
            for dirty in self._dirty.values():
                dirty.update(result.touched)
            self._hot.touch(result.touched)
        return result

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._patched.has_edge(u, v)

    # ------------------------------------------------------------------
    # lazy index repair
    # ------------------------------------------------------------------
    def _index(self, name: str) -> Tuple[Any, FrozenGraph]:
        """The named index, current with the snapshot, and the snapshot.

        Builds the index on first use; repairs it when its dirty set is
        non-empty (every mutation that interns a node also touches an
        edge at it, and a rejected one interns none).  If the build or the
        repair raises, the index is discarded before the error
        propagates, so the next query rebuilds it from scratch.
        """
        fg = self._patched.snapshot()
        dirty = self._dirty[name]
        index = self._indexes.get(name)
        try:
            if index is None:
                index = INDEXES[name].build(fg, self.landmarks)
                self._indexes[name] = index
            elif dirty:
                index.update(fg, sorted(dirty))
        except BaseException:
            self._indexes.pop(name, None)
            raise
        dirty.clear()
        return index, fg

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def distances_from(self, source: Node) -> np.ndarray:
        """Hop levels from ``source`` over the current topology.

        Answered by the :class:`HotSources` store: a held source's
        array, repaired first if an edge changed since, or one
        :meth:`PatchedGraph.bfs_levels` sweep for any other source,
        held only if the store admits it.  Indexed by node position
        (-1 unreachable), aligned with :attr:`node_list`; the array is
        read-only.
        """
        return self._hot.levels(self._patched, self._patched.index_of(source))

    def distance(self, u: Node, v: Node) -> Optional[int]:
        """Hop distance between ``u`` and ``v``; None if disconnected.

        A source the hot-source store holds, or would admit on this
        query, is answered from its level array via
        :meth:`distances_from`.  Any other source is counted and
        answered by one :meth:`FrozenGraph.hop_distance` point search,
        with no sweep and no admission.
        """
        iu = self._patched.index_of(u)
        iv = self._patched.index_of(v)
        if self._hot.admits(iu):
            level = int(self.distances_from(u)[iv])
        else:
            self._hot.count(iu)
            level = self.snapshot().hop_distance(iu, iv)
            record_serving_point_search()
        return None if level < 0 else level

    def nsf_level(self, node: Node) -> int:
        """The node's NSF peel level (1-based), repaired incrementally."""
        nsf, fg = self._index("nsf")
        return nsf.level_of(fg.index_of(node))

    def gateway_label(self, node: Node) -> Optional[Tuple[int, Node]]:
        """(distance, gateway landmark) label; None if unreachable."""
        labels, fg = self._index("labels")
        return labels.label_of(fg.index_of(node))

    def pagerank_score(self, node: Node) -> float:
        """The node's PageRank score, re-converged incrementally."""
        pagerank, fg = self._index("pagerank")
        return float(pagerank.scores[fg.index_of(node)])

    def mis_member(self, node: Node) -> bool:
        """Whether ``node`` is a clusterhead in the maintained MIS."""
        mis, fg = self._index("mis")
        return bool(mis.member_mask()[fg.index_of(node)])

    def cds_member(self, node: Node) -> bool:
        """Whether ``node`` is on the maintained Wu–Dai backbone."""
        cds, fg = self._index("cds")
        return bool(cds.member_mask()[fg.index_of(node)])

    # ------------------------------------------------------------------
    # bulk views (each index's :data:`INDEXES` view)
    # ------------------------------------------------------------------
    def nsf_levels_map(self) -> Dict[Node, int]:
        """All NSF levels by node, comparable with the batch reference."""
        nsf, fg = self._index("nsf")
        return nsf.levels_map(fg)

    def gateway_labels_map(self) -> Dict[Node, Tuple[int, Node]]:
        """All landmark labels by node, comparable with the reference."""
        labels, fg = self._index("labels")
        return labels.labels_map(fg)

    def pagerank_map(self) -> Dict[Node, float]:
        """Node-facing PageRank view, comparable with the batch kernel."""
        pagerank, fg = self._index("pagerank")
        scores = pagerank.scores
        nodes = fg.node_list
        return {nodes[i]: float(scores[i]) for i in range(fg.n)}

    def mis_set(self) -> Set[Node]:
        """The maintained MIS as a node set, comparable with the batch kernel."""
        mis, fg = self._index("mis")
        return mis.members(fg)

    def cds_set(self) -> Set[Node]:
        """The maintained trimmed CDS, comparable with ``wu_dai_cds``."""
        cds, fg = self._index("cds")
        return cds.members(fg)

    def cds_marked_set(self) -> Set[Node]:
        """The pre-trimming marked (black) set of the maintained CDS."""
        cds, fg = self._index("cds")
        return cds.marked(fg)

    def __repr__(self) -> str:
        return (
            f"GraphService(n={self._patched.n}, version={self.version}, "
            f"pending={self._patched.pending}, "
            f"landmarks={len(self.landmarks)})"
        )
