"""Frozen CSR snapshots: the vectorized fast path for whole-graph sweeps.

Every structure-uncovering strategy of the paper (trimming, layering,
remapping; Sec. III) is built from repeated whole-graph sweeps — BFS
per node for diameter/closeness/betweenness, neighbor-pair scans for
clustering, and the iterative local-lowest-degree peel behind the NSF
check (Sec. III-B).  On the dict-of-sets substrate each of those sweeps
pays Python interpreter cost per edge *and* a set copy per neighborhood
access.

:class:`FrozenGraph` is an immutable compressed-sparse-row (CSR)
snapshot of a :class:`~repro.graphs.graph.Graph` or
:class:`~repro.graphs.graph.DiGraph`: node↔index interning plus two
NumPy arrays (``indptr``/``indices``, neighbor indices sorted per row),
so degrees are O(1) array reads and frontier expansion is a handful of
vectorized gathers.  Obtain one through ``graph.frozen()`` — the
snapshot is cached on the graph and reused until the topology mutates
(see the generation counter in :mod:`repro.graphs.graph`) — and the
dict-of-sets API remains the ground truth: every kernel here is
output-equivalent to its pure-Python reference (asserted by
``tests/test_csr.py`` and the ``perf-csr`` benchmark).

Determinism caveat: the peel kernels reproduce the library's
repr-order tie-break, which assumes distinct nodes have distinct
``repr`` strings (the same assumption ``bfs_order``'s
``sorted(key=repr)`` already makes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import AlgorithmError, ConvergenceError, NodeNotFoundError
from repro.observability.tracing import get_tracer, traced
from repro.observability.telemetry import (
    record_cache_event,
    record_dispatch,
    record_shard,
)

Node = Hashable

#: Below this node count the constant costs of freezing outweigh the
#: vectorization win; routed entry points fall back to the dict-of-sets
#: reference path.
FROZEN_MIN_NODES = 32

_UNREACHABLE = -1
_INT64_MAX = np.iinfo(np.int64).max

#: Sources per bit-parallel BFS batch (multiples of 64 pack evenly into
#: uint64 frontier words).
_BITSET_BATCH = 256


@dataclass(frozen=True)
class ShardPlan:
    """A bounded-memory streaming plan for one source-sharded sweep.

    Planned by :func:`shard_sources` for the bit-parallel sum,
    eccentricity, closeness and label kernels and for batched routing.
    ``batch`` sources advance together per shard; ``est_shard_bytes``
    is the planner's estimate of one shard's transient working set
    (frontier/visited/next bit planes, the flat edge gather, and the
    per-level unpack).  ``feasible`` is False when even the smallest
    shard exceeds ``budget_bytes`` — the sweep still runs (clamped to
    the minimum batch), it just cannot honor the budget, and callers
    that must hard-bound memory should treat that as an error.
    """

    n_sources: int
    batch: int
    shards: int
    est_shard_bytes: int
    budget_bytes: Optional[int]
    feasible: bool = True

    def batches(self, sources: np.ndarray):
        """Yield ``sources`` in consecutive ``batch``-sized shards."""
        for start in range(0, sources.shape[0], self.batch):
            yield sources[start : start + self.batch]


def shard_sources(
    n_sources: int,
    memory_budget: Optional[int] = None,
    n: int = 0,
    edges: int = 0,
    max_batch: int = _BITSET_BATCH,
    align: int = 64,
) -> ShardPlan:
    """Plan source shards whose sweep working set fits ``memory_budget``.

    The bit-parallel kernels materialize, per shard of ``b`` sources
    over a graph with ``n`` nodes and ``edges`` CSR entries, roughly
    ``ceil(b / 64) * 8 * (4n + edges)`` bytes of uint64 bit planes and
    edge gathers plus ``n * b`` bytes of per-level unpack.  The planner
    returns the largest batch (a multiple of ``align``, at most
    ``max_batch``) whose estimate fits the budget; with no budget the
    historical :data:`_BITSET_BATCH` default stands.
    """
    if align < 1:
        raise ValueError(f"align must be >= 1, got {align}")
    if memory_budget is not None and memory_budget <= 0:
        raise ValueError(f"memory_budget must be positive, got {memory_budget}")

    def estimate(b: int) -> int:
        words = (b + 63) // 64
        return words * 8 * (4 * n + edges) + n * b

    batch = max(align, (max_batch // align) * align)
    feasible = True
    if memory_budget is not None:
        while batch > align and estimate(batch) > memory_budget:
            batch -= align
        feasible = estimate(batch) <= memory_budget
    shards = -(-n_sources // batch) if n_sources else 0
    return ShardPlan(
        n_sources=int(n_sources),
        batch=int(batch),
        shards=int(shards),
        est_shard_bytes=int(estimate(batch)),
        budget_bytes=memory_budget,
        feasible=feasible,
    )


def _distinct(idx: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The distinct values of ``idx``, each once, unsorted, in O(len(idx)).

    ``owner`` is caller-owned int64 scratch from ``np.empty`` with room
    for every value of ``idx``; it needs no fill, because only the slots
    written here are read back.  The repeated-index store leaves one
    winning position per value, whichever order numpy stores in, and
    only that position passes the equality test.  Use it where an
    ``np.unique`` result would only serve as a set of indices.
    """
    pos = np.arange(idx.shape[0], dtype=np.int64)
    owner[idx] = pos
    return idx[owner[idx] == pos]


def generation_cached(owner, factory):
    """Return ``owner._frozen``, rebuilding through ``factory`` when stale.

    The one shared implementation of the library's generation-counter
    cache idiom: a snapshot stored on ``owner._frozen`` stays valid
    while its ``generation`` attribute equals ``owner._generation``
    (bumped by every topology mutation).  Used by ``Graph.frozen``,
    ``DiGraph.frozen`` and ``EvolvingGraph.frozen`` so the invalidation
    rule cannot drift between substrates.

    Every call emits one ``repro.cache.frozen`` counter event labeled
    with the owner's type: ``miss`` (first freeze), ``refreeze``
    (rebuild after a topology mutation), or ``hit`` (snapshot reused).
    """
    cached = owner._frozen
    if cached is None:
        record_cache_event(owner, "miss")
    elif cached.generation != owner._generation:
        record_cache_event(owner, "refreeze")
    else:
        record_cache_event(owner, "hit")
        return cached
    cached = factory(owner)
    owner._frozen = cached
    return cached


class FrozenGraph:
    """An immutable CSR snapshot of a graph, with vectorized kernels.

    Build via ``graph.frozen()`` (cached) rather than directly.  The
    snapshot captures topology only — node and edge *attributes* stay
    on the source graph and are not invalidation-relevant.

    >>> from repro.graphs.graph import Graph
    >>> g = Graph([("a", "b"), ("b", "c")])
    >>> fg = g.frozen()
    >>> fg.degree("b")
    2
    >>> fg.bfs_distances("a")["c"]
    2
    """

    def __init__(self, graph) -> None:
        directed = bool(getattr(graph, "directed", False))
        adj = graph._succ if directed else graph._adj
        nodes: List[Node] = list(adj)
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(nodes):
            indptr[i + 1] = indptr[i] + len(adj[node])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for i, node in enumerate(nodes):
            row = sorted(index[v] for v in adj[node])
            indices[int(indptr[i]) : int(indptr[i + 1])] = row
        self.directed = directed
        self._nodes: Optional[List[Node]] = nodes
        self._index: Optional[Dict[Node, int]] = index
        self.indptr = indptr
        self.indices = indices
        self.n = n
        self.degrees = np.diff(indptr)
        self.generation = getattr(graph, "_generation", -1)
        self._edge_src: Optional[np.ndarray] = None
        self._repr_rank: Optional[np.ndarray] = None
        self._segments: Optional[Tuple[np.ndarray, np.ndarray]] = None
        record_dispatch("graphs.freeze", path="build")

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        node_list: Optional[Sequence[Node]] = None,
        directed: bool = False,
        generation: int = -1,
        copy: bool = True,
        validate: bool = True,
        dispatch_path: str = "arrays",
    ) -> "FrozenGraph":
        """Build a snapshot directly from CSR arrays — no dict graph.

        For producers that build CSR columns natively (the degree-ordered
        generator, the hypercube builder, the patch merge), where routing
        through a dict-of-sets :class:`Graph` would cost O(n + m) Python
        objects.  ``node_list=None`` means the identity labeling
        ``0..n-1`` (materialized lazily).  ``copy=False`` adopts the
        arrays as-is (they must be int64 and, for ``edge_slot`` and the
        kernels' tie-break guarantees, row-sorted); ``validate`` checks
        the CSR invariants and that every row is strictly increasing
        (sorted, no repeated neighbour).  ``dispatch_path`` labels the
        ``graphs.freeze`` dispatch count.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if copy:
            indptr = indptr.copy()
            indices = indices.copy()
        if indptr.ndim != 1 or indptr.shape[0] < 1:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        n = int(indptr.shape[0]) - 1
        if validate:
            if int(indptr[0]) != 0 or int(indptr[-1]) != indices.shape[0]:
                raise ValueError("indptr must span [0, len(indices)]")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if indices.shape[0] and (
                int(indices.min()) < 0 or int(indices.max()) >= n
            ):
                raise ValueError("indices must be valid node positions")
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            if np.any(np.diff(rows * n + indices) <= 0):
                raise ValueError("each row of indices must be strictly increasing")
        fg = cls.__new__(cls)
        fg.directed = bool(directed)
        fg._nodes = list(node_list) if node_list is not None else None
        if fg._nodes is not None and len(fg._nodes) != n:
            raise ValueError(
                f"node_list has {len(fg._nodes)} entries for n={n}"
            )
        fg._index = None
        fg.indptr = indptr
        fg.indices = indices
        fg.n = n
        fg.degrees = np.diff(indptr)
        fg.generation = int(generation)
        fg._edge_src = None
        fg._repr_rank = None
        fg._segments = None
        record_dispatch("graphs.freeze", path=dispatch_path)
        return fg

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def node_list(self) -> List[Node]:
        """Node objects in index order (identity lists materialize lazily)."""
        if self._nodes is None:
            self._nodes = list(range(self.n))
        return self._nodes

    @property
    def index(self) -> Dict[Node, int]:
        """Node → index interning map (built lazily for array snapshots)."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.node_list)}
        return self._index

    @property
    def num_edges(self) -> int:
        m = int(self.indices.shape[0])
        return m if self.directed else m // 2

    def index_of(self, node: Node) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        return int(self.degrees[self.index_of(node)])

    def neighbor_indices(self, i: int) -> np.ndarray:
        """The (sorted, read-only) neighbor-index row of node index ``i``."""
        return self.indices[int(self.indptr[i]) : int(self.indptr[i + 1])]

    def edge_slot(self, i: int, j: int) -> int:
        """CSR position of entry (i -> j), or -1 if absent.

        One binary search over the sorted row of ``i`` — the primitive
        the patch buffer (:mod:`repro.graphs.delta`) uses to maintain
        its per-entry aliveness mask in O(log degree) per mutation.
        """
        lo = int(self.indptr[i])
        hi = int(self.indptr[i + 1])
        pos = lo + int(np.searchsorted(self.indices[lo:hi], j))
        if pos < hi and int(self.indices[pos]) == j:
            return pos
        return -1

    def __repr__(self) -> str:
        return (
            f"FrozenGraph(n={self.n}, m={self.num_edges}, "
            f"directed={self.directed}, generation={self.generation})"
        )

    # ------------------------------------------------------------------
    # internal vector helpers
    # ------------------------------------------------------------------
    def _edge_sources(self) -> np.ndarray:
        """Row (source) index of every CSR entry, cached."""
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.n, dtype=np.int64), self.degrees
            )
        return self._edge_src

    def _repr_ranks(self) -> np.ndarray:
        """Dense rank of each node in repr order (the peel tie-break)."""
        if self._repr_rank is None:
            order = sorted(range(self.n), key=lambda i: repr(self.node_list[i]))
            rank = np.empty(self.n, dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                self.n, dtype=np.int64
            )
            self._repr_rank = rank
        return self._repr_rank

    def _neighbors_flat(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor indices of every frontier node."""
        starts = self.indptr[frontier]
        counts = self.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        cum = np.cumsum(counts)
        bases = np.repeat(starts - (cum - counts), counts)
        return self.indices[bases + np.arange(total, dtype=np.int64)]

    def _row_segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows with degree > 0, their CSR segment starts), cached.

        ``np.*.reduceat`` over these starts folds the flat edge array
        back into per-row aggregates in one call.
        """
        if self._segments is None:
            nonzero = np.flatnonzero(self.degrees)
            self._segments = (nonzero, self.indptr[nonzero])
        return self._segments

    # ------------------------------------------------------------------
    # BFS family
    # ------------------------------------------------------------------
    def bfs_levels(self, sources: Union[int, Sequence[int], np.ndarray]) -> np.ndarray:
        """Multi-source BFS: hop level per node index, -1 if unreachable."""
        level = np.full(self.n, _UNREACHABLE, dtype=np.int64)
        owner = np.empty(self.n, dtype=np.int64)
        frontier = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        level[frontier] = 0
        depth = 0
        while frontier.size:
            nbrs = self._neighbors_flat(frontier)
            if nbrs.size == 0:
                break
            fresh = nbrs[level[nbrs] < 0]
            if fresh.size == 0:
                break
            depth += 1
            frontier = _distinct(fresh, owner)
            level[frontier] = depth
        return level

    def bfs_distances(self, source: Node) -> Dict[Node, int]:
        """Hop distances from ``source`` (reachable nodes only), by node."""
        level = self.bfs_levels(self.index_of(source))
        nodes = self.node_list
        return {nodes[i]: int(level[i]) for i in np.flatnonzero(level >= 0)}

    def hop_distance(self, u: int, v: int) -> int:
        """Hop distance between node indices ``u`` and ``v`` (-1: no path).

        Exact bidirectional BFS (undirected only): each step expands the
        side whose frontier has the smaller degree sum by one whole
        level, and the first level whose neighbours reach the other
        side's visited set closes the shortest path.  The two visited
        sets stay disjoint until then, so every met node lies on a
        shortest path.  Costs the two balls around the endpoints, not a
        sweep of the whole graph — the single-pair counterpart of
        :meth:`bfs_levels`.
        """
        if self.directed:
            raise TypeError("hop_distance expects an undirected snapshot")
        if u == v:
            return 0
        owner = np.empty(self.n, dtype=np.int64)
        levels = (
            np.full(self.n, _UNREACHABLE, dtype=np.int64),
            np.full(self.n, _UNREACHABLE, dtype=np.int64),
        )
        levels[0][u] = 0
        levels[1][v] = 0
        frontiers = [np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)]
        depths = [0, 0]
        costs = [int(self.degrees[u]), int(self.degrees[v])]
        while True:
            side = 0 if costs[0] <= costs[1] else 1
            mine, other = levels[side], levels[1 - side]
            nbrs = self._neighbors_flat(frontiers[side])
            met = other[nbrs]
            met = met[met >= 0]
            if met.size:
                return depths[side] + 1 + int(met.min())
            fresh = nbrs[mine[nbrs] < 0]
            if fresh.size == 0:
                return _UNREACHABLE
            depths[side] += 1
            frontier = _distinct(fresh, owner)
            mine[frontier] = depths[side]
            frontiers[side] = frontier
            costs[side] = int(self.degrees[frontier].sum())

    def eccentricity_of(self, i: int) -> int:
        """Max hop distance from node index ``i`` to any reachable node."""
        return int(self.bfs_levels(i).max())

    def _bitset_sweep(
        self, sources: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bit-parallel BFS from a batch of (distinct) source indices.

        One frontier bit per source, packed into uint64 words: each
        level costs one gather of the frontier rows over the flat edge
        array plus one segment-OR (``bitwise_or.reduceat``) fold back
        per node — all 64·words sources advance together, so the
        per-level NumPy call overhead is amortized across the batch.
        Undirected snapshots only (the segment-OR walks edges backwards,
        which is only equivalent when edges are symmetric).

        Returns per-source ``(distance sums, reached counts including
        the source, eccentricities over the reachable set)``.
        """
        batch = sources.shape[0]
        words = (batch + 63) // 64
        n = self.n
        cols = np.arange(batch, dtype=np.int64)
        frontier = np.zeros((n, words), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (cols % 64).astype(np.uint64))
        np.bitwise_or.at(frontier, (sources, cols // 64), bits)
        visited = frontier.copy()
        sums = np.zeros(batch, dtype=np.int64)
        reached = np.ones(batch, dtype=np.int64)
        ecc = np.zeros(batch, dtype=np.int64)
        rows, starts = self._row_segments()
        indices = self.indices
        depth = 0
        while True:
            nxt = np.zeros((n, words), dtype=np.uint64)
            if rows.size:
                nxt[rows] = np.bitwise_or.reduceat(
                    frontier[indices], starts, axis=0
                )
            np.bitwise_and(nxt, ~visited, out=nxt)
            if not nxt.any():
                break
            depth += 1
            visited |= nxt
            # Per-source count of newly reached nodes: unpack the bit
            # columns and sum down the node axis.
            fresh = np.unpackbits(nxt.view(np.uint8), axis=1, bitorder="little")[
                :, :batch
            ].sum(axis=0, dtype=np.int64)
            sums += depth * fresh
            reached += fresh
            ecc[fresh > 0] = depth
            frontier = nxt
        return sums, reached, ecc

    def _sweep_plan(
        self,
        n_sources: int,
        memory_budget: Optional[int],
    ) -> ShardPlan:
        """The shard plan for a bitset sweep over this snapshot."""
        return shard_sources(
            n_sources,
            memory_budget=memory_budget,
            n=self.n,
            edges=int(self.indices.shape[0]),
        )

    def _source_array(
        self, sources: Optional[Union[Sequence[int], np.ndarray]]
    ) -> np.ndarray:
        """``sources`` as an int64 index array (default: every node)."""
        if sources is None:
            return np.arange(self.n, dtype=np.int64)
        return np.atleast_1d(np.asarray(sources, dtype=np.int64))

    def _streamed_sweep(
        self,
        kernel: str,
        sources: Optional[Union[Sequence[int], np.ndarray]],
        memory_budget: Optional[int],
    ):
        """Yield ``(slice, sums, reached, ecc)`` per shard of sources.

        The one streaming loop under the sum/eccentricity/closeness
        family: shards are planned by :func:`shard_sources`, each shard
        is traced (``repro.graphs.csr.shard`` spans carry the memory
        peaks into the ledger) and counted into the shard telemetry, and
        per-shard results are folded by the caller as they arrive — the
        full O(sources x n) intermediate never exists.
        """
        srcs = self._source_array(sources)
        plan = self._sweep_plan(srcs.shape[0], memory_budget)
        offset = 0
        for shard in plan.batches(srcs):
            with get_tracer().span(
                "repro.graphs.csr.shard", kernel=kernel, sources=int(shard.shape[0])
            ):
                sums, reached, ecc = self._bitset_sweep(shard)
            record_shard(kernel)
            yield slice(offset, offset + shard.shape[0]), sums, reached, ecc
            offset += shard.shape[0]

    @traced("repro.graphs.csr.eccentricities")
    def eccentricities(
        self,
        sources: Optional[Union[Sequence[int], np.ndarray]] = None,
        memory_budget: Optional[int] = None,
    ) -> np.ndarray:
        """Eccentricity over the reachable set, per requested source.

        Default: every node, index order.  ``sources`` restricts the
        sweep (the result aligns with the given order);
        ``memory_budget`` bounds the per-shard working set via
        :func:`shard_sources`.
        """
        srcs = self._source_array(sources)
        ecc = np.empty(srcs.shape[0], dtype=np.int64)
        if self.directed:
            for j, i in enumerate(srcs):
                ecc[j] = self.bfs_levels(int(i)).max()
            return ecc
        for out, _sums, _reached, shard_ecc in self._streamed_sweep(
            "eccentricities", srcs, memory_budget
        ):
            ecc[out] = shard_ecc
        return ecc

    @traced("repro.graphs.csr.all_pairs_distance_sums")
    def all_pairs_distance_sums(
        self,
        sources: Optional[Union[Sequence[int], np.ndarray]] = None,
        memory_budget: Optional[int] = None,
    ) -> np.ndarray:
        """Sum of hop distances from each source to its reachable set.

        The all-pairs BFS sweep behind closeness and the Wiener index;
        undirected snapshots stream the bit-parallel shards (bounded by
        ``memory_budget`` when given), one vectorized BFS per source
        otherwise.  ``sources=None`` sweeps every node in index order.
        """
        srcs = self._source_array(sources)
        sums = np.zeros(srcs.shape[0], dtype=np.int64)
        if self.directed:
            for j, i in enumerate(srcs):
                level = self.bfs_levels(int(i))
                sums[j] = level[level > 0].sum()
            return sums
        for out, shard_sums, _reached, _ecc in self._streamed_sweep(
            "all_pairs_distance_sums", srcs, memory_budget
        ):
            sums[out] = shard_sums
        return sums

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def component_labels(self) -> Tuple[np.ndarray, int]:
        """(label per node index, number of components); undirected only.

        Pointer-jumping min-label propagation: each round every node
        pulls the minimum label of its neighborhood (one segment-min
        ``reduceat``) and then compresses one hop (``labels[labels]``),
        so labels converge in O(log n) vectorized rounds instead of one
        Python-level BFS per component — the fix for the fast path
        losing to the dict BFS at small n.  At the fixpoint every edge
        joins equal labels, so a component's label is its minimum node
        index; densifying by ascending root index reproduces the seed-
        scan discovery order of the old per-seed loop exactly.
        """
        if self.directed:
            raise TypeError("component_labels expects an undirected snapshot")
        n = self.n
        if n == 0:
            return np.empty(0, dtype=np.int64), 0
        labels = np.arange(n, dtype=np.int64)
        rows, starts = self._row_segments()
        indices = self.indices
        while True:
            pulled = labels
            if rows.size:
                seg = np.minimum.reduceat(labels[indices], starts)
                np.minimum(labels[rows], seg, out=seg)
                pulled = labels.copy()
                pulled[rows] = seg
            jumped = np.minimum(pulled, pulled[pulled])
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        roots, dense = np.unique(labels, return_inverse=True)
        return dense.astype(np.int64, copy=False), int(roots.shape[0])

    def connected_components(self) -> List[Set[Node]]:
        """Components as node sets, largest first (discovery-order stable)."""
        labels, count = self.component_labels()
        nodes = self.node_list
        if count <= 1:
            return [set(nodes)] if self.n else []
        order = np.argsort(labels, kind="stable")
        boundaries = np.flatnonzero(np.diff(labels[order])) + 1
        components = [
            {nodes[i] for i in group.tolist()}
            for group in np.split(order, boundaries)
        ]
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return int((self.bfs_levels(0) >= 0).sum()) == self.n

    def diameter(self) -> int:
        """Hop diameter; raises on a disconnected snapshot."""
        if self.n == 0:
            return 0
        if not self.is_connected():
            raise AlgorithmError("diameter is undefined on a disconnected graph")
        return int(self.eccentricities().max())

    # ------------------------------------------------------------------
    # centralities and clustering
    # ------------------------------------------------------------------
    @traced("repro.graphs.csr.closeness_centrality")
    def closeness_centrality(
        self, memory_budget: Optional[int] = None
    ) -> Dict[Node, float]:
        """Wasserman–Faust closeness, identical to the reference formula.

        ``memory_budget`` bounds the per-shard working set of the
        underlying bit-parallel sweep (see :func:`shard_sources`); the
        per-node fold happens shard by shard, so the result dict is the
        only O(n) output ever held.
        """
        n = self.n
        result: Dict[Node, float] = {}
        nodes = self.node_list
        if not self.directed:
            srcs = np.arange(n, dtype=np.int64)
            for out, sums, reached, _ecc in self._streamed_sweep(
                "closeness_centrality", srcs, memory_budget
            ):
                for j, i in enumerate(srcs[out]):
                    result[nodes[i]] = self._closeness_value(
                        int(reached[j]) - 1, int(sums[j])
                    )
            return result
        for i in range(n):
            level = self.bfs_levels(i)
            reached_mask = level >= 0
            result[nodes[i]] = self._closeness_value(
                int(reached_mask.sum()) - 1, int(level[reached_mask].sum())
            )
        return result

    def _closeness_value(self, reachable: int, total: int) -> float:
        """The reference closeness formula over python ints (exact)."""
        if reachable <= 0 or total == 0:
            return 0.0
        closeness = reachable / total
        if self.n > 1:
            closeness *= reachable / (self.n - 1)
        return closeness

    def _neighbor_pair_hits(self) -> np.ndarray:
        """Ordered adjacent neighbor pairs per node (undirected only).

        ``hits[i]`` counts pairs (u, v) with u ≠ v, both adjacent to i,
        and u ~ v — the quantity behind both the clustering coefficient
        numerator and the Wu–Dai marking rule.  Computed by triangle
        counting over a bit-packed adjacency matrix: for every edge
        (u, v), ``popcount(bits[u] & bits[v])`` is the number of common
        neighbors, and summing those per source folds the count back per
        node in a few array passes.  Edge rows are processed in chunks
        so the (E_chunk × words) intermediates stay bounded.
        """
        if self.directed:
            raise TypeError("neighbor-pair counting expects an undirected snapshot")
        n = self.n
        hits = np.zeros(n, dtype=np.int64)
        if n == 0 or self.indices.shape[0] == 0:
            return hits
        words = (n + 63) // 64
        bits = np.zeros((n, words), dtype=np.uint64)
        rows = self._edge_sources()
        cols = self.indices
        np.bitwise_or.at(
            bits,
            (rows, cols // 64),
            np.left_shift(np.uint64(1), (cols % 64).astype(np.uint64)),
        )
        chunk = max(1, (1 << 22) // words)
        for start in range(0, rows.shape[0], chunk):
            ru = rows[start : start + chunk]
            rv = cols[start : start + chunk]
            common = np.bitwise_count(bits[ru] & bits[rv]).sum(
                axis=1, dtype=np.int64
            )
            hits += np.bincount(ru, weights=common, minlength=n).astype(np.int64)
        return hits

    def clustering_array(self) -> np.ndarray:
        """Local clustering coefficient per node index (undirected only)."""
        if self.directed:
            raise TypeError("clustering expects an undirected snapshot")
        result = np.zeros(self.n, dtype=np.float64)
        if self.n == 0 or self.indices.shape[0] == 0:
            return result
        hits = self._neighbor_pair_hits()
        degrees = self.degrees
        for i in np.flatnonzero(degrees >= 2):
            k = int(degrees[i])
            # Python-int division: bit-identical to the reference formula.
            result[i] = int(hits[i]) / (k * (k - 1))
        return result

    def clustering_coefficient(self, node: Node) -> float:
        i = self.index_of(node)
        k = int(self.degrees[i])
        if k < 2:
            return 0.0
        nbrs = self.neighbor_indices(i)
        flat = self._neighbors_flat(nbrs)
        pos = np.searchsorted(nbrs, flat)
        inside = pos < k
        hits = np.zeros(flat.shape[0], dtype=bool)
        hits[inside] = nbrs[pos[inside]] == flat[inside]
        return int(hits.sum()) / (k * (k - 1))

    def average_clustering(self) -> float:
        """Mean local clustering, accumulated in node order like the reference."""
        if self.n == 0:
            return 0.0
        total = 0.0
        for value in self.clustering_array():
            total += float(value)
        return total / self.n

    def degree_centrality(self) -> Dict[Node, float]:
        n = self.n
        if n <= 1:
            return {node: 0.0 for node in self.node_list}
        return {
            node: int(self.degrees[i]) / (n - 1)
            for i, node in enumerate(self.node_list)
        }

    @traced("repro.graphs.csr.betweenness_centrality")
    def betweenness_centrality(self, normalized: bool = True) -> Dict[Node, float]:
        """Brandes' exact betweenness over interned indices.

        Same algorithm as the reference, but BFS and accumulation run
        over dense int indices and flat lists instead of dicts keyed by
        arbitrary node objects.
        """
        n = self.n
        betweenness = np.zeros(n, dtype=np.float64)
        adjacency = [self.neighbor_indices(i).tolist() for i in range(n)]
        for source in range(n):
            stack: List[int] = []
            predecessors: List[List[int]] = [[] for _ in range(n)]
            sigma = [0.0] * n
            sigma[source] = 1.0
            dist = [-1] * n
            dist[source] = 0
            queue = [source]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                stack.append(v)
                next_d = dist[v] + 1
                sigma_v = sigma[v]
                for w in adjacency[v]:
                    if dist[w] < 0:
                        dist[w] = next_d
                        queue.append(w)
                    if dist[w] == next_d:
                        sigma[w] += sigma_v
                        predecessors[w].append(v)
            delta = [0.0] * n
            while stack:
                w = stack.pop()
                coefficient = (1.0 + delta[w]) / sigma[w]
                for v in predecessors[w]:
                    delta[v] += sigma[v] * coefficient
                if w != source:
                    betweenness[w] += delta[w]
        scale = 0.5
        if normalized and n > 2:
            scale = 1.0 / ((n - 1) * (n - 2))
        betweenness *= scale
        return {node: float(betweenness[i]) for i, node in enumerate(self.node_list)}

    # ------------------------------------------------------------------
    # batched local-lowest-degree peel (the NSF hot loop, Sec. III-B)
    # ------------------------------------------------------------------
    def alive_degrees(self, alive: np.ndarray) -> np.ndarray:
        """Degree of each node within the ``alive``-induced subgraph."""
        src = self._edge_sources()
        live = alive[src] & alive[self.indices]
        return np.bincount(src[live], minlength=self.n)

    def local_minimum_mask(
        self,
        alive: Optional[np.ndarray] = None,
        degrees: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask of alive nodes that are local lowest-degree.

        A node is chosen iff for every alive neighbor its (degree,
        repr-rank) key is strictly smaller — exactly the reference rule
        of :func:`repro.layering.nsf.local_lowest_degree_nodes` applied
        to the alive-induced subgraph.  Isolated alive nodes are always
        chosen.
        """
        if alive is None:
            alive = np.ones(self.n, dtype=bool)
        if degrees is None:
            degrees = self.alive_degrees(alive)
        rank = self._repr_ranks()
        # Lexicographic (degree, rank) packed into one int64 key; ranks
        # are distinct so keys are distinct and ties resolve by repr.
        key = degrees.astype(np.int64) * np.int64(self.n + 1) + rank
        neighbor_min = np.full(self.n, _INT64_MAX, dtype=np.int64)
        src = self._edge_sources()
        live = alive[src] & alive[self.indices]
        live_src = src[live]
        if live_src.size:
            live_keys = key[self.indices[live]]
            # live_src is sorted (CSR row order): segment-min per source.
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(live_src)) + 1)
            )
            neighbor_min[live_src[starts]] = np.minimum.reduceat(live_keys, starts)
        return alive & (key < neighbor_min)

    def local_lowest_degree_nodes(self) -> Set[Node]:
        """Node-facing wrapper over one whole-graph peel round."""
        chosen = self.local_minimum_mask()
        nodes = self.node_list
        return {nodes[i] for i in np.flatnonzero(chosen)}

    def peel_round_masks(self, fallback: bool = True):
        """Yield the boolean chosen-mask of each successive peel round.

        The flat (source, target) edge arrays are compacted as nodes
        die, so round r costs O(edges still alive at round r) instead
        of O(m) — across a whole peel the total work tracks the
        (shrinking) alive edge counts.  With ``fallback`` a stalled
        round (unreachable with distinct repr ranks) peels the single
        smallest-rank alive node, mirroring the reference guard;
        without it the generator simply stops, matching the
        ``peel_once``-based loops that break when nothing is removed.
        """
        n = self.n
        rank = self._repr_ranks()
        src = self._edge_sources()
        dst = self.indices
        alive = np.ones(n, dtype=bool)
        span = np.int64(n + 1)
        alive_count = n
        while alive_count:
            live = alive[src]
            live &= alive[dst]
            src = src[live]
            dst = dst[live]
            degrees = np.bincount(src, minlength=n)
            key = degrees * span + rank
            neighbor_min = np.full(n, _INT64_MAX, dtype=np.int64)
            if src.size:
                # src stays sorted under compaction: segment-min per row.
                starts = np.concatenate(
                    ([0], np.flatnonzero(np.diff(src)) + 1)
                )
                neighbor_min[src[starts]] = np.minimum.reduceat(key[dst], starts)
            chosen = alive & (key < neighbor_min)
            removed = int(chosen.sum())
            if not removed:
                if not fallback:
                    return
                stalled = np.flatnonzero(alive)
                chosen = np.zeros(n, dtype=bool)
                chosen[stalled[np.argmin(rank[stalled])]] = True
                removed = 1
            yield chosen
            alive &= ~chosen
            alive_count -= removed

    def peel_rounds(self) -> List[np.ndarray]:
        """Index arrays of the nodes removed in each peel round.

        Round r removes the local minima of the adjusted (alive-induced)
        degree; runs until every node is assigned, so the concatenation
        is a partition of all node indices — the NSF level structure.
        """
        return [np.flatnonzero(chosen) for chosen in self.peel_round_masks()]

    @traced("repro.graphs.csr.nsf_levels")
    def nsf_levels(self) -> Dict[Node, int]:
        """NSF level labeling (Fig. 7(b)), batched round by round."""
        nodes = self.node_list
        level: Dict[Node, int] = {}
        for round_index, chosen in enumerate(self.peel_rounds(), start=1):
            for i in chosen:
                level[nodes[i]] = round_index
        return level

    # ------------------------------------------------------------------
    # static labels: marking / dominating sets / MIS (Sec. IV-A)
    # ------------------------------------------------------------------
    def marking_mask(self) -> np.ndarray:
        """Wu–Dai marking rule, vectorized (undirected only).

        A node is marked iff it has two neighbors that are not adjacent
        to each other — equivalently, with k = degree ≥ 2, iff its
        ordered adjacent neighbor-pair count is below k·(k−1).  Exactly
        the reference rule of ``repro.labeling.cds.marking_process``.
        """
        if self.directed:
            raise TypeError("marking expects an undirected snapshot")
        k = self.degrees.astype(np.int64)
        return (k >= 2) & (self._neighbor_pair_hits() < k * (k - 1))

    def neighbor_designated_winners(self, priorities: np.ndarray) -> np.ndarray:
        """Index of the (priority, repr)-maximum of each closed neighborhood.

        ``winners[i]`` is the node every ``i`` designates: the member of
        N[i] with the highest priority, ties broken toward the *larger*
        repr — exactly ``max(closed, key=(priority, repr))`` in the
        neighbor-designated dominating-set reference.  Distinct
        (priority, repr) keys are guaranteed because repr ranks are
        distinct.
        """
        if self.directed:
            raise TypeError("neighbor designation expects an undirected snapshot")
        order = np.lexsort((self._repr_ranks(), np.asarray(priorities, dtype=np.float64)))
        power = np.empty(self.n, dtype=np.int64)
        power[order] = np.arange(self.n, dtype=np.int64)
        best = power.copy()
        rows, starts = self._row_segments()
        if rows.size:
            seg = np.maximum.reduceat(power[self.indices], starts)
            best[rows] = np.maximum(best[rows], seg)
        return order[best]

    def mis_round_masks(self, priorities: np.ndarray):
        """Yield ``(new_black, new_gray)`` masks of each MIS round.

        The three-color process round by round: white local priority
        maxima (strictly greater than every white neighbor; isolated
        whites vacuously) turn black, their white neighbors turn gray,
        and the flat edge arrays are compacted to the surviving
        white–white edges.  Each round is a deterministic function of
        (current white set, white–white edges, priorities) — the
        property the incremental MIS repair's round replay with early
        exit relies on.  Requires distinct priorities: a stalled round
        (where the reference would spin forever on a priority tie)
        raises :class:`~repro.errors.AlgorithmError`.
        """
        if self.directed:
            raise TypeError("MIS expects an undirected snapshot")
        n = self.n
        prio = np.asarray(priorities, dtype=np.float64)
        src = self._edge_sources()
        dst = self.indices
        white = np.ones(n, dtype=bool)
        while white.any():
            live = white[src] & white[dst]
            src = src[live]
            dst = dst[live]
            nbr_max = np.full(n, -np.inf)
            if src.size:
                # src stays sorted under compaction: segment-max per row.
                starts = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1))
                nbr_max[src[starts]] = np.maximum.reduceat(prio[dst], starts)
            new_black = white & (prio > nbr_max)
            if not new_black.any():
                raise AlgorithmError(
                    "MIS round stalled: priorities must be distinct"
                )
            gray = np.zeros(n, dtype=bool)
            if src.size:
                touched = new_black[dst]
                gray[src[touched]] = True
            white &= ~(new_black | gray)
            yield new_black, gray

    def mis_rounds(self, priorities: np.ndarray) -> Tuple[np.ndarray, int]:
        """The three-color MIS process over edge-compacted rounds.

        Returns (black mask, rounds), matching ``compute_mis``'s
        reference loop — the batch fold of :meth:`mis_round_masks`.
        """
        black = np.zeros(self.n, dtype=bool)
        rounds = 0
        for new_black, _gray in self.mis_round_masks(priorities):
            black |= new_black
            rounds += 1
        return black, rounds

    # ------------------------------------------------------------------
    # landmark labels: multi-source distance + gateway (Sec. III/IV)
    # ------------------------------------------------------------------
    def _label_sweep(self, srcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One multi-source BFS over (sorted, distinct) source indices.

        Returns per-node ``(hop level, repr rank of the nearest
        source)`` — the raw (distance, rank) key the public label
        kernels fold and convert.  Unreachable nodes get
        ``(-1, _INT64_MAX)``.
        """
        n = self.n
        rank = self._repr_ranks()
        level = np.full(n, _UNREACHABLE, dtype=np.int64)
        lab_rank = np.full(n, _INT64_MAX, dtype=np.int64)
        owner = np.empty(n, dtype=np.int64)
        level[srcs] = 0
        lab_rank[srcs] = rank[srcs]
        frontier = srcs
        depth = 0
        while frontier.size:
            starts = self.indptr[frontier]
            counts = self.degrees[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.cumsum(counts)
            bases = np.repeat(starts - (cum - counts), counts)
            flat_dst = self.indices[bases + np.arange(total, dtype=np.int64)]
            flat_src = np.repeat(frontier, counts)
            new = level[flat_dst] < 0
            nd = flat_dst[new]
            if nd.size == 0:
                break
            depth += 1
            # Frontier labels are final, so the min over incoming
            # frontier labels is the nearest-landmark label at depth d.
            np.minimum.at(lab_rank, nd, lab_rank[flat_src[new]])
            frontier = _distinct(nd, owner)
            level[frontier] = depth
        return level, lab_rank

    def multi_source_labels(
        self,
        sources: Union[Sequence[int], np.ndarray],
        memory_budget: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hop distance to, and index of, the nearest source per node.

        Level-synchronous multi-source BFS: every node gets the hop
        distance to its closest source and the source index achieving
        it, ties resolved toward the smallest repr rank — exactly the
        per-landmark-BFS-in-repr-order reference (which keeps only
        strictly smaller distances).  Unreachable nodes get (-1, -1).

        With ``memory_budget`` the sources are streamed in
        :func:`shard_sources` shards and the per-shard (distance, rank)
        keys folded by lexicographic minimum — associativity makes the
        fold bit-identical to the single whole-set sweep while the
        working set stays at one shard's frontier.
        """
        n = self.n
        rank = self._repr_ranks()
        srcs = np.unique(np.atleast_1d(np.asarray(sources, dtype=np.int64)))
        plan = self._sweep_plan(srcs.shape[0], memory_budget)
        if memory_budget is None or plan.shards <= 1:
            level, lab_rank = self._label_sweep(srcs)
        else:
            level = np.full(n, _UNREACHABLE, dtype=np.int64)
            lab_rank = np.full(n, _INT64_MAX, dtype=np.int64)
            for shard in plan.batches(srcs):
                with get_tracer().span(
                    "repro.graphs.csr.shard",
                    kernel="multi_source_labels",
                    sources=int(shard.shape[0]),
                ):
                    s_level, s_rank = self._label_sweep(shard)
                record_shard("multi_source_labels")
                better = (s_level >= 0) & (
                    (level < 0)
                    | (s_level < level)
                    | ((s_level == level) & (s_rank < lab_rank))
                )
                level[better] = s_level[better]
                lab_rank[better] = s_rank[better]
        landmark = np.full(n, -1, dtype=np.int64)
        reach = level >= 0
        if reach.any():
            inv = np.empty(n, dtype=np.int64)
            inv[rank] = np.arange(n, dtype=np.int64)
            landmark[reach] = inv[lab_rank[reach]]
        return level, landmark

    def edge_weights(
        self, graph, attr: str = "weight", default: float = 1.0
    ) -> np.ndarray:
        """Per-CSR-entry weights gathered from ``graph``'s edge attributes.

        One O(m) Python gather (attributes live on the source graph, not
        the snapshot); the result aligns with ``self.indices`` so the
        weighted kernels can stay fully vectorized.
        """
        from repro.graphs.graph import _edge_key

        nodes = self.node_list
        attrs = graph._edge_attrs
        src = self._edge_sources()
        out = np.empty(self.indices.shape[0], dtype=np.float64)
        for e in range(out.shape[0]):
            u = nodes[int(src[e])]
            v = nodes[int(self.indices[e])]
            key = (u, v) if self.directed else _edge_key(u, v)
            data = attrs.get(key)
            value = default if data is None else data.get(attr, default)
            out[e] = float(value)
        return out

    def weighted_multi_source_labels(
        self,
        sources: Union[Sequence[int], np.ndarray],
        weights: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted distance to, and index of, the nearest source per node.

        Multi-source Bellman–Ford: rounds of vectorized relaxation to a
        fixpoint, then nearest-source labels propagated over the tight
        edges (dist[src] + w == dist[dst], exact float equality), again
        ties toward the smallest repr rank.  With non-negative weights
        the fixpoint distances are bit-identical to per-landmark
        Dijkstra (both compute the same left-fold float sums along
        shortest paths), so the tight-edge labels match the reference's
        strictly-smaller-distance updates exactly.  Unreachable nodes
        get (inf, -1).
        """
        n = self.n
        w = np.asarray(weights, dtype=np.float64)
        if w.shape[0] != self.indices.shape[0]:
            raise ValueError("weights must align with the CSR entries")
        if w.size and float(w.min()) < 0.0:
            raise AlgorithmError("negative edge weights are not supported")
        rank = self._repr_ranks()
        srcs = np.unique(np.atleast_1d(np.asarray(sources, dtype=np.int64)))
        dist = np.full(n, np.inf)
        dist[srcs] = 0.0
        src = self._edge_sources()
        dst = self.indices
        for _ in range(n + 1):
            relaxed = np.full(n, np.inf)
            np.minimum.at(relaxed, dst, dist[src] + w)
            improved = relaxed < dist
            if not improved.any():
                break
            dist[improved] = relaxed[improved]
        else:  # pragma: no cover - unreachable with non-negative weights
            raise AlgorithmError("Bellman-Ford failed to reach a fixpoint")
        lab_rank = np.full(n, _INT64_MAX, dtype=np.int64)
        lab_rank[srcs] = rank[srcs]
        tight = np.isfinite(dist[src]) & (dist[src] + w == dist[dst])
        ts = src[tight]
        td = dst[tight]
        for _ in range(n + 1):
            new = lab_rank.copy()
            np.minimum.at(new, td, lab_rank[ts])
            if np.array_equal(new, lab_rank):
                break
            lab_rank = new
        landmark = np.full(n, -1, dtype=np.int64)
        reach = np.isfinite(dist) & (lab_rank < _INT64_MAX)
        if reach.any():
            inv = np.empty(n, dtype=np.int64)
            inv[rank] = np.arange(n, dtype=np.int64)
            landmark[reach] = inv[lab_rank[reach]]
        return dist, landmark

    # ------------------------------------------------------------------
    # ranking labels: PageRank / HITS power iteration (Sec. IV-B)
    # ------------------------------------------------------------------
    def pagerank_scores(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-10,
        max_iterations: int = 10_000,
        initial: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Power iteration over the successor CSR; (scores, iterations).

        Same update rule, dangling-mass redistribution, and max-drift
        stopping criterion as the ``pagerank_reference`` loop; float
        sums associate differently (bincount vs dict-order adds), so
        equality with the reference is tolerance-bounded and iteration
        counts may differ by one.

        ``initial`` warm-starts the iteration from a prior score vector
        (length ``n``, non-negative) instead of the uniform 1/n start —
        the incremental serving repair seeds with the pre-mutation
        scores, so the drift to the new fixpoint (and therefore the
        iteration count) tracks the changed mass, not the graph size.
        The contraction is the same either way, so the converged vector
        still matches the cold start within tolerance.
        """
        n = self.n
        if n == 0:
            return np.zeros(0, dtype=np.float64), 0
        out_degree = self.degrees.astype(np.float64)
        dangling = out_degree == 0.0
        inv_out = np.zeros(n, dtype=np.float64)
        spread = ~dangling
        inv_out[spread] = 1.0 / out_degree[spread]
        src = self._edge_sources()
        dst = self.indices
        if initial is None:
            score = np.full(n, 1.0 / n)
        else:
            score = np.asarray(initial, dtype=np.float64)
            if score.shape != (n,):
                raise ValueError(
                    f"initial scores must have shape ({n},), got {score.shape}"
                )
            total = float(score.sum())
            if total <= 0.0 or not np.isfinite(total):
                raise ValueError("initial scores must sum to a positive value")
            score = score / total
        base = (1.0 - damping) / n
        for iteration in range(1, max_iterations + 1):
            dangling_mass = float(score[dangling].sum())
            incoming = np.bincount(
                dst, weights=(score * inv_out)[src], minlength=n
            )
            new_score = base + damping * (incoming + dangling_mass / n)
            drift = float(np.max(np.abs(new_score - score)))
            score = new_score
            if drift < tolerance:
                return score, iteration
        raise ConvergenceError("pagerank", max_iterations)

    def hits_scores(
        self,
        tolerance: float = 1e-10,
        max_iterations: int = 10_000,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """HITS power iteration; (hub, authority, iterations).

        Authority via one bincount over arc targets, hub via one
        segment-sum over successor rows, L2-normalised each round like
        the reference (tolerance-bounded equality).
        """
        n = self.n
        if n == 0:
            return np.zeros(0), np.zeros(0), 0
        src = self._edge_sources()
        dst = self.indices
        rows, starts = self._row_segments()
        hub = np.ones(n, dtype=np.float64)
        authority = np.ones(n, dtype=np.float64)
        for iteration in range(1, max_iterations + 1):
            new_authority = np.bincount(dst, weights=hub[src], minlength=n)
            norm = float(np.sqrt((new_authority * new_authority).sum()))
            if norm != 0.0:
                new_authority /= norm
            new_hub = np.zeros(n, dtype=np.float64)
            if rows.size:
                new_hub[rows] = np.add.reduceat(new_authority[dst], starts)
            norm = float(np.sqrt((new_hub * new_hub).sum()))
            if norm != 0.0:
                new_hub /= norm
            drift = max(
                float(np.max(np.abs(new_hub - hub))),
                float(np.max(np.abs(new_authority - authority))),
            )
            hub, authority = new_hub, new_authority
            if drift < tolerance:
                return hub, authority, iteration
        raise ConvergenceError("hits", max_iterations)
