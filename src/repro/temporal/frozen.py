"""Frozen temporal contact index: the vectorized fast path for journeys.

Every temporal workload of the paper (Sec. II-B journeys, time-i
connectivity, the DTN sweeps behind Fig. 9) is, at bottom, one scan of
the contact set in time order — Casteigts et al. (arXiv:1807.07801)
frame foremost/fastest/shortest temporal reachability exactly this way.
On the dict-of-sets :class:`~repro.temporal.evolving.EvolvingGraph`
each scan re-derives that order per call: ``all_contacts`` re-sorts
every contact, ``contacts_from`` re-sorts per node, and the per-time
BFS pays Python interpreter cost per contact.

:class:`FrozenContacts` is an immutable snapshot of an EvolvingGraph —
node↔index interning plus NumPy columns (time, u, v, weight) in the
canonical ``all_contacts`` order, per-time group offsets, and a
per-node CSR of outgoing contacts in ``contacts_from`` order.  Obtain
one through ``eg.frozen()``; the snapshot is cached on the graph and
keyed to a mutation *generation* counter, mirroring
``Graph.frozen()``/:class:`~repro.graphs.csr.FrozenGraph`.

The kernels are output-equivalent to their pure-Python references
(``*_reference`` functions in :mod:`repro.temporal.journeys`,
:mod:`repro.temporal.weighted_journeys`,
:mod:`repro.temporal.connectivity`) — including parent-hop tie-breaks
for foremost trees — enforced by ``tests/test_frozen_temporal.py`` and
the ``perf-temporal`` benchmark.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graphs.csr import _distinct
from repro.observability.tracing import traced

Node = Hashable
Hop = Tuple[Node, Node, int]

_NO_ARRIVAL = -1
_INT64_MAX = np.iinfo(np.int64).max

#: Sources per bit-parallel flooding batch (multiples of 64 pack evenly
#: into uint64 frontier words).
_BITSET_BATCH = 256


class FrozenContacts:
    """An immutable time-sorted contact index with vectorized kernels.

    Build via ``eg.frozen()`` (cached) rather than directly.  The
    snapshot captures contacts and weights at freeze time; later
    mutations of the source graph bump its generation and the next
    ``eg.frozen()`` call rebuilds.

    >>> from repro.temporal.evolving import EvolvingGraph
    >>> eg = EvolvingGraph(horizon=5)
    >>> eg.add_contact("a", "b", 1)
    >>> eg.add_contact("b", "c", 3)
    >>> fc = eg.frozen()
    >>> fc.earliest_arrival("a")
    {'a': 0, 'b': 1, 'c': 3}
    """

    def __init__(self, eg) -> None:
        # Node interning: dict insertion order (deterministic), ranks by
        # repr for the library-wide tie-break convention.
        nodes: List[Node] = list(eg._adj)
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        self.node_list = nodes
        self.index = index
        self.n = n
        self.horizon = int(eg.horizon)
        self.generation = getattr(eg, "_generation", -1)

        order = sorted(range(n), key=lambda i: repr(nodes[i]))
        rank = np.empty(n, dtype=np.int64)
        rank[np.asarray(order, dtype=np.int64) if n else []] = np.arange(
            n, dtype=np.int64
        )
        self.repr_rank = rank

        # Contacts in the exact ``all_contacts`` order: sorted by
        # (time, repr(u), repr(v)) over canonical edge keys.
        triples: List[Tuple[int, Node, Node]] = []
        for (u, v), times in eg._labels.items():
            for time in times:
                triples.append((time, u, v))
        triples.sort(key=lambda c: (c[0], repr(c[1]), repr(c[2])))
        count = len(triples)
        self.num_contacts = count
        self.times = np.fromiter(
            (c[0] for c in triples), dtype=np.int64, count=count
        )
        self.ua = np.fromiter(
            (index[c[1]] for c in triples), dtype=np.int64, count=count
        )
        self.va = np.fromiter(
            (index[c[2]] for c in triples), dtype=np.int64, count=count
        )
        weights = eg._weights
        self.weights = np.fromiter(
            (
                weights.get(((c[1], c[2]), c[0]), 1.0)
                for c in triples
            ),
            dtype=np.float64,
            count=count,
        )

        # Time groups over the sorted columns.
        if count:
            boundaries = np.flatnonzero(np.diff(self.times)) + 1
            self.group_times = self.times[
                np.concatenate(([0], boundaries))
            ]
            self.group_ptr = np.concatenate(
                ([0], boundaries, [count])
            ).astype(np.int64)
        else:
            self.group_times = np.empty(0, dtype=np.int64)
            self.group_ptr = np.zeros(1, dtype=np.int64)

        # Both-direction edge columns, grouped by time (src sorted
        # within each group so segment folds can reduceat per row).
        src2 = np.concatenate((self.ua, self.va))
        dst2 = np.concatenate((self.va, self.ua))
        t2 = np.concatenate((self.times, self.times))
        w2 = np.concatenate((self.weights, self.weights))
        sort2 = np.lexsort((src2, t2))
        self.g_src = src2[sort2]
        self.g_dst = dst2[sort2]
        self.g_w = w2[sort2]
        if count:
            # Group g spans [2 * group_ptr[g], 2 * group_ptr[g + 1]).
            self.g_ptr = self.group_ptr * 2
        else:
            self.g_ptr = np.zeros(1, dtype=np.int64)

        # Per-node directed contact CSR in ``contacts_from`` order:
        # each row sorted by (time, repr-rank of neighbor).
        nbr_sort = np.lexsort((rank[dst2], t2, src2)) if count else sort2
        self.nbr_src_sorted = src2[nbr_sort]
        self.nbr_time = t2[nbr_sort]
        self.nbr_idx = dst2[nbr_sort]
        self.nbr_w = w2[nbr_sort]
        counts = np.bincount(self.nbr_src_sorted, minlength=n) if count else np.zeros(n, dtype=np.int64)
        self.nbr_indptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)

        self._weighted_from_cache: Dict[int, List[Tuple[int, Node, float]]] = {}
        self._weighted_list: Optional[List[Tuple[int, Node, Node, float]]] = None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def index_of(self, node: Node) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def __repr__(self) -> str:
        return (
            f"FrozenContacts(n={self.n}, contacts={self.num_contacts}, "
            f"horizon={self.horizon}, generation={self.generation})"
        )

    def _group_range(self, start: int) -> range:
        """Indices of time groups with label >= start, ascending."""
        first = int(np.searchsorted(self.group_times, start, side="left"))
        return range(first, self.group_times.shape[0])

    def _group_edges(self, g: int) -> Tuple[np.ndarray, np.ndarray]:
        a, b = int(self.g_ptr[g]), int(self.g_ptr[g + 1])
        return self.g_src[a:b], self.g_dst[a:b]

    def weighted_contacts_from(
        self, node_idx: int
    ) -> List[Tuple[int, Node, float]]:
        """(time, neighbor, weight) of a node in ``contacts_from`` order.

        Cached per node; the min-delay Dijkstra relaxes over these
        pre-sorted rows instead of re-sorting and re-resolving weights
        on every heap pop.
        """
        cached = self._weighted_from_cache.get(node_idx)
        if cached is None:
            a = int(self.nbr_indptr[node_idx])
            b = int(self.nbr_indptr[node_idx + 1])
            nodes = self.node_list
            cached = [
                (t, nodes[j], w)
                for t, j, w in zip(
                    self.nbr_time[a:b].tolist(),
                    self.nbr_idx[a:b].tolist(),
                    self.nbr_w[a:b].tolist(),
                )
            ]
            self._weighted_from_cache[node_idx] = cached
        return cached

    def weighted_contacts(self) -> List[Tuple[int, Node, Node, float]]:
        """All (time, u, v, weight) in ``all_contacts`` order, cached."""
        if self._weighted_list is None:
            nodes = self.node_list
            self._weighted_list = [
                (int(t), nodes[u], nodes[v], float(w))
                for t, u, v, w in zip(
                    self.times.tolist(),
                    self.ua.tolist(),
                    self.va.tolist(),
                    self.weights.tolist(),
                )
            ]
        return self._weighted_list

    # ------------------------------------------------------------------
    # single-source earliest arrival
    # ------------------------------------------------------------------
    @traced("repro.temporal.frozen.earliest_arrival_times")
    def earliest_arrival_times(self, source_idx: int, start: int = 0) -> np.ndarray:
        """Earliest arrival per node index; -1 for unreachable.

        One ascending scan of the time groups; within a time unit the
        informed set closes transitively (non-decreasing labels), via a
        fixpoint over that group's edges.  ``arrival[source] = start``.
        """
        n = self.n
        arrival = np.full(n, _NO_ARRIVAL, dtype=np.int64)
        arrival[source_idx] = start
        informed = np.zeros(n, dtype=bool)
        informed[source_idx] = True
        owner = np.empty(n, dtype=np.int64)
        remaining = n - 1
        for g in self._group_range(start):
            if remaining == 0:
                break
            src, dst = self._group_edges(g)
            t = int(self.group_times[g])
            while True:
                sel = informed[src] & ~informed[dst]
                if not sel.any():
                    break
                fresh = _distinct(dst[sel], owner)
                informed[fresh] = True
                arrival[fresh] = t
                remaining -= int(fresh.shape[0])
        return arrival

    def earliest_arrival(self, source: Node, start: int = 0) -> Dict[Node, int]:
        """Node-facing wrapper: reachable nodes → earliest arrival."""
        arrival = self.earliest_arrival_times(self.index_of(source), start)
        nodes = self.node_list
        return {
            nodes[i]: int(arrival[i]) for i in np.flatnonzero(arrival >= 0)
        }

    def reaches(
        self, source_idx: int, target_idx: int, start: int, min_weight: float
    ) -> bool:
        """Temporal reachability using only contacts of weight >= min_weight.

        The inner loop of the max-bandwidth threshold search: one masked
        arrival scan per candidate bottleneck, with early exit the
        moment the target is informed.
        """
        if source_idx == target_idx:
            return True
        n = self.n
        informed = np.zeros(n, dtype=bool)
        informed[source_idx] = True
        for g in self._group_range(start):
            a, b = int(self.g_ptr[g]), int(self.g_ptr[g + 1])
            keep = self.g_w[a:b] >= min_weight
            src = self.g_src[a:b][keep]
            dst = self.g_dst[a:b][keep]
            while True:
                sel = informed[src] & ~informed[dst]
                if not sel.any():
                    break
                informed[dst[sel]] = True
                if informed[target_idx]:
                    return True
        return False

    # ------------------------------------------------------------------
    # exact foremost tree (reference tie-breaks reproduced)
    # ------------------------------------------------------------------
    @traced("repro.temporal.frozen.foremost_tree_arrays")
    def foremost_tree_arrays(
        self, source_idx: int, start: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(arrival, parent node index, parent time) per node index.

        Reproduces :func:`repro.temporal.journeys.foremost_tree_reference`
        exactly, parents included.  The reference runs, per time unit, a
        FIFO BFS seeded with the informed endpoints in repr order and
        expanding neighbor lists in repr order; in such a BFS a node's
        parent is the queued neighbor with the smallest dequeue index,
        and dequeue order within a level is (parent's dequeue index,
        repr rank).  The kernel replays that ordering level-
        synchronously: a segment scatter-min of dequeue indices picks
        each discovery's parent, and a lexsort assigns the next level's
        dequeue indices.
        """
        n = self.n
        rank = self.repr_rank
        arrival = np.full(n, _NO_ARRIVAL, dtype=np.int64)
        parent_node = np.full(n, -1, dtype=np.int64)
        parent_time = np.full(n, _NO_ARRIVAL, dtype=np.int64)
        arrival[source_idx] = start
        informed = np.zeros(n, dtype=bool)
        informed[source_idx] = True
        remaining = n - 1
        deq = np.empty(n, dtype=np.int64)
        for g in self._group_range(start):
            if remaining == 0:
                break
            src, dst = self._group_edges(g)
            t = int(self.group_times[g])
            touched_informed = np.unique(src[informed[src]])
            if touched_informed.shape[0] == 0:
                continue
            # Dequeue indices: level 0 is the informed endpoints in
            # repr order; later levels extend the counter.
            deq.fill(_INT64_MAX)
            deq_order = touched_informed[np.argsort(rank[touched_informed])]
            deq[deq_order] = np.arange(deq_order.shape[0], dtype=np.int64)
            queue = [deq_order]
            next_deq = int(deq_order.shape[0])
            while True:
                sel = (deq[src] < _INT64_MAX) & ~informed[dst]
                if not sel.any():
                    break
                best = np.full(n, _INT64_MAX, dtype=np.int64)
                np.minimum.at(best, dst[sel], deq[src[sel]])
                new = np.flatnonzero(best < _INT64_MAX)
                # FIFO dequeue order of the new level.
                new = new[np.lexsort((rank[new], best[new]))]
                all_order = np.concatenate(queue)
                parent_node[new] = all_order[best[new]]
                parent_time[new] = t
                arrival[new] = t
                informed[new] = True
                deq[new] = next_deq + np.arange(new.shape[0], dtype=np.int64)
                next_deq += int(new.shape[0])
                queue.append(new)
                remaining -= int(new.shape[0])
        return arrival, parent_node, parent_time

    def foremost_tree(
        self, source: Node, start: int = 0
    ) -> Dict[Node, Optional[Hop]]:
        """Node-facing wrapper, equal to the reference parent map."""
        source_idx = self.index_of(source)
        arrival, parent_node, parent_time = self.foremost_tree_arrays(
            source_idx, start
        )
        nodes = self.node_list
        parent: Dict[Node, Optional[Hop]] = {source: None}
        for i in np.flatnonzero(parent_node >= 0):
            parent[nodes[i]] = (
                nodes[int(parent_node[i])], nodes[i], int(parent_time[i])
            )
        return parent

    # ------------------------------------------------------------------
    # reverse scan: latest departure
    # ------------------------------------------------------------------
    @traced("repro.temporal.frozen.latest_departure_times")
    def latest_departure_times(
        self, target_idx: int, deadline: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(latest departure per node index, reachability mask).

        Time-reversed dual of :meth:`earliest_arrival_times`: descending
        scan over groups with label < deadline.  The mask distinguishes
        genuinely unreachable nodes from negative departure values.
        """
        n = self.n
        departure = np.full(n, _NO_ARRIVAL, dtype=np.int64)
        departure[target_idx] = deadline
        informed = np.zeros(n, dtype=bool)
        informed[target_idx] = True
        owner = np.empty(n, dtype=np.int64)
        last = int(
            np.searchsorted(self.group_times, deadline, side="left")
        )
        for g in range(last - 1, -1, -1):
            src, dst = self._group_edges(g)
            t = int(self.group_times[g])
            while True:
                sel = informed[src] & ~informed[dst]
                if not sel.any():
                    break
                fresh = _distinct(dst[sel], owner)
                informed[fresh] = True
                departure[fresh] = t
        return np.where(informed, departure, _NO_ARRIVAL), informed

    def latest_departure(self, target: Node, deadline: int) -> Dict[Node, int]:
        """Node-facing wrapper, equal to the reference departure map."""
        departure, informed = self.latest_departure_times(
            self.index_of(target), deadline
        )
        nodes = self.node_list
        return {
            nodes[i]: int(departure[i]) for i in np.flatnonzero(informed)
        }

    # ------------------------------------------------------------------
    # batched multi-source flooding (dynamic diameter and friends)
    # ------------------------------------------------------------------
    @traced("repro.temporal.frozen.flooding_stats")
    def flooding_stats(
        self, start: int = 0, sources: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(latest arrival, reached count) per source index.

        ``sources`` defaults to every node; batches of
        :data:`_BITSET_BATCH` keep the bit matrices bounded.
        """
        if sources is None:
            sources = np.arange(self.n, dtype=np.int64)
        latest = np.full(sources.shape[0], start, dtype=np.int64)
        reached = np.ones(sources.shape[0], dtype=np.int64)
        for lo in range(0, sources.shape[0], _BITSET_BATCH):
            batch = sources[lo : lo + _BITSET_BATCH]
            b_latest, b_reached = self._flood_batch_tracked(batch, start)
            latest[lo : lo + batch.shape[0]] = b_latest
            reached[lo : lo + batch.shape[0]] = b_reached
        return latest, reached

    def _flood_batch_tracked(
        self, sources: np.ndarray, start: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bit-parallel flood recording per-source latest arrival/counts."""
        n = self.n
        batch = int(sources.shape[0])
        words = (batch + 63) // 64
        cols = np.arange(batch, dtype=np.int64)
        reach = np.zeros((n, words), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (cols % 64).astype(np.uint64))
        np.bitwise_or.at(reach, (sources, cols // 64), bits)
        latest = np.full(batch, start, dtype=np.int64)
        reached = np.ones(batch, dtype=np.int64)
        done = n * batch
        for g in self._group_range(start):
            if int(reached.sum()) == done:
                break
            src, dst = self._group_edges(g)
            t = int(self.group_times[g])
            while True:
                cand = reach[src] & ~reach[dst]
                hit = cand.any(axis=1)
                if not hit.any():
                    break
                rows = dst[hit]
                add = cand[hit]
                # Rows repeat when several edges enter one node; fold
                # the additions per row first so the per-source count
                # sees each new bit exactly once.
                uniq, inverse = np.unique(rows, return_inverse=True)
                folded = np.zeros((uniq.shape[0], words), dtype=np.uint64)
                np.bitwise_or.at(folded, inverse, add)
                folded &= ~reach[uniq]
                reach[uniq] |= folded
                fresh = np.unpackbits(
                    folded.view(np.uint8), axis=1, bitorder="little"
                )[:, :batch].sum(axis=0, dtype=np.int64)
                grew = fresh > 0
                reached += fresh
                latest[grew] = t
        return latest, reached
