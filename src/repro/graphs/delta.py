"""CSR patch buffers: delta-aware maintenance for frozen snapshots.

The frozen-index plane (PRs 2/4/5) is batch-rebuild: any topology
mutation bumps the owner's generation and the next ``frozen()`` call
pays a full O(n + m) refreeze.  That is the wrong shape for a *served*
graph where updates and queries interleave (ROADMAP item 1) — one edge
flip should not cost a whole snapshot.

:class:`PatchedGraph` wraps a base :class:`~repro.graphs.csr.FrozenGraph`
with two pending-edge sets (inserts and deletes, kept as canonical
index pairs) plus an aliveness mask over the base CSR entries:

* **mutations** are O(degree) — interning a possibly-new endpoint,
  flipping two mask entries, or recording an index pair;
* **point reads** (``has_edge`` / ``degree`` / ``neighbor_row``) merge
  the base row with the patch overlay on the fly;
* **sweeps** go through :meth:`snapshot`, which *lazily* merges the
  pending arrays into a fresh CSR via one vectorized
  ``np.lexsort`` + :meth:`FrozenGraph.from_arrays` — never through the
  dict-graph refreeze path, so ``repro.cache.frozen`` records zero
  refreezes while a service is in steady state.  Above
  ``threshold`` pending patches the merged snapshot *rebases* (becomes
  the new base and the patch arrays clear); ``threshold=0`` rebases on
  every snapshot, forcing the merge path at every step.

Invariants (asserted by ``tests/test_incremental_differential.py`` and
the property tests):

* ``merge()`` is bit-exact with freezing the equivalently mutated
  dict graph: same node order (first-touch append order — deletes keep
  nodes, matching ``Graph.remove_edge``), same row-sorted ``indptr`` /
  ``indices`` arrays;
* validation parity with :class:`~repro.graphs.graph.Graph`:
  self-loops raise ``ValueError``, duplicate inserts are no-ops,
  deleting an absent edge raises
  :class:`~repro.errors.EdgeNotFoundError`;
* a delete of a pending insert *cancels* it (and vice versa: inserting
  a pending-deleted base edge restores the mask) — the patch sets never
  disagree about an edge.

Directed snapshots are not supported: the serving indexes built on top
(NSF peel, landmark labels) are undirected, like the paper's networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.csr import FrozenGraph
from repro.observability.telemetry import record_dispatch, record_patch_event

Node = Hashable

_UNREACHABLE = -1

#: Default pending-patch count above which :meth:`PatchedGraph.snapshot`
#: rebases (folds the patches into a new base CSR and clears them).
DEFAULT_PATCH_THRESHOLD = 64


@dataclass
class PatchBatchResult:
    """Outcome of one :meth:`PatchedGraph.apply_batch` application.

    ``touched`` holds the canonical (i, j) index pairs whose topology was
    acted on (including self-cancelled pairs, whose net effect is nil but
    whose endpoints were interned); ``changed`` counts the
    state-changing operations — the number of per-edge ``version`` bumps
    the same sequence would have produced.
    """

    touched: List[Tuple[int, int]]
    changed: int


class PatchedGraph:
    """A frozen CSR snapshot plus a bounded buffer of edge patches.

    >>> from repro.graphs.graph import Graph
    >>> g = Graph([("a", "b"), ("b", "c")])
    >>> pg = PatchedGraph(g.frozen())
    >>> pg.insert_edge("a", "c")
    True
    >>> pg.delete_edge("b", "c")
    >>> sorted(pg.neighbors("a")), pg.pending
    (['b', 'c'], 2)
    >>> pg.snapshot().bfs_distances("c")["b"]
    2
    """

    def __init__(
        self, base: FrozenGraph, threshold: int = DEFAULT_PATCH_THRESHOLD
    ) -> None:
        if base.directed:
            raise TypeError("PatchedGraph expects an undirected snapshot")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = int(threshold)
        self.base = base
        self._nodes: List[Node] = list(base.node_list)
        self._index: Dict[Node, int] = dict(base.index)
        #: Canonical (i, j) index pairs, i < j.  ``_adds`` are edges not
        #: in the base CSR; ``_dels`` are base edges masked dead.
        self._adds: Set[Tuple[int, int]] = set()
        self._dels: Set[Tuple[int, int]] = set()
        #: Aliveness of each base CSR entry (lazily allocated on the
        #: first delete; ``None`` means "all alive").
        self._alive: Optional[np.ndarray] = None
        #: Per-node patch degree adjustment (adds minus dels) — an int64
        #: buffer so the batch path can apply one ``np.add.at`` — and
        #: the add-overlay adjacency for merged point reads.
        self._degree_delta: np.ndarray = np.zeros(base.n, dtype=np.int64)
        self._add_adj: Dict[int, Set[int]] = {}
        #: Flat (source * n + target) keys of the base CSR entries,
        #: built lazily for the batch path's vectorized slot lookups.
        self._flat_keys: Optional[np.ndarray] = None
        #: Monotone mutation counter; keys the cached merged snapshot.
        self.version = 0
        self._merged: Optional[FrozenGraph] = None
        self._merged_version = -1

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def node_list(self) -> List[Node]:
        return self._nodes

    @property
    def pending(self) -> int:
        """Number of pending patches (inserts + deletes)."""
        return len(self._adds) + len(self._dels)

    def index_of(self, node: Node) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def has_node(self, node: Node) -> bool:
        return node in self._index

    def _intern(self, node: Node) -> int:
        """Index of ``node``, appending it (first-touch order) if new."""
        i = self._index.get(node)
        if i is None:
            i = len(self._nodes)
            self._nodes.append(node)
            self._index[node] = i
        return i

    def _ensure_degree_capacity(self) -> None:
        """Grow the degree-delta buffer (geometrically) to cover ``n``."""
        need = len(self._nodes)
        cap = int(self._degree_delta.shape[0])
        if need > cap:
            grown = np.zeros(max(need, 2 * cap), dtype=np.int64)
            grown[:cap] = self._degree_delta
            self._degree_delta = grown

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _base_slot(self, i: int, j: int) -> int:
        """Position of entry (i -> j) in the base CSR, or -1 if absent."""
        base = self.base
        if i >= base.n or j >= base.n:
            return -1
        return base.edge_slot(i, j)

    def _base_flat_keys(self) -> np.ndarray:
        """Flat ``source * n + target`` keys of the base CSR entries.

        CSR order makes these strictly increasing, so bulk slot lookups
        are one ``np.searchsorted`` over the whole batch.  Depends only
        on the base, so the cache survives patches and clears on rebase.
        """
        if self._flat_keys is None:
            base = self.base
            self._flat_keys = (
                base._edge_sources() * np.int64(base.n) + base.indices
            )
        return self._flat_keys

    def _base_slots_bulk(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_base_slot`: entry positions, -1 if absent."""
        base = self.base
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        slots = np.full(ii.shape[0], -1, dtype=np.int64)
        flat = self._base_flat_keys()
        if flat.shape[0] == 0 or ii.shape[0] == 0:
            return slots
        in_range = (ii < base.n) & (jj < base.n)
        # Out-of-range pairs get key -1, below every real (>= 0) key.
        keys = np.where(in_range, ii * np.int64(base.n) + jj, np.int64(-1))
        pos = np.searchsorted(flat, keys)
        safe = np.minimum(pos, flat.shape[0] - 1)
        found = in_range & (flat[safe] == keys)
        slots[found] = pos[found]
        return slots

    def _base_has_edge(self, i: int, j: int) -> bool:
        return self._base_slot(i, j) >= 0

    def _set_alive(self, i: int, j: int, alive: bool) -> None:
        """Flip both directed base CSR entries of undirected edge (i, j)."""
        if self._alive is None:
            self._alive = np.ones(self.base.indices.shape[0], dtype=bool)
        self._alive[self._base_slot(i, j)] = alive
        self._alive[self._base_slot(j, i)] = alive

    def _bump_degrees(self, i: int, j: int, amount: int) -> None:
        self._ensure_degree_capacity()
        self._degree_delta[i] += amount
        self._degree_delta[j] += amount

    def insert_edge(self, u: Node, v: Node) -> bool:
        """Add undirected edge (u, v); endpoints are auto-added.

        Returns True if the topology changed, False for a duplicate
        insert (a no-op, like ``Graph.add_edge`` on an existing edge —
        in particular ``version`` does not bump).  Self-loops raise
        ``ValueError`` with the same message as ``Graph.add_edge``.
        """
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed in a simple graph")
        iu = self._intern(u)
        iv = self._intern(v)
        key = (iu, iv) if iu < iv else (iv, iu)
        if key in self._dels:
            # Re-inserting a pending-deleted base edge restores the mask.
            self._dels.discard(key)
            self._set_alive(key[0], key[1], True)
            self._bump_degrees(key[0], key[1], 1)
            record_patch_event("cancel")
        elif key in self._adds or self._base_has_edge(key[0], key[1]):
            return False
        else:
            self._adds.add(key)
            self._add_adj.setdefault(iu, set()).add(iv)
            self._add_adj.setdefault(iv, set()).add(iu)
            self._bump_degrees(key[0], key[1], 1)
            record_patch_event("insert")
        self.version += 1
        return True

    def delete_edge(self, u: Node, v: Node) -> None:
        """Remove undirected edge (u, v); absent edges raise.

        Parity with ``Graph.remove_edge``: deleting an edge that is not
        currently present (never existed, or already pending-deleted)
        raises :class:`~repro.errors.EdgeNotFoundError`.  Deleting a
        *pending insert* cancels it instead of recording a new patch.
        """
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            raise EdgeNotFoundError(u, v)
        key = (iu, iv) if iu < iv else (iv, iu)
        if key in self._adds:
            self._adds.discard(key)
            self._add_adj[iu].discard(iv)
            self._add_adj[iv].discard(iu)
            self._bump_degrees(key[0], key[1], -1)
            record_patch_event("cancel")
        elif key not in self._dels and self._base_has_edge(key[0], key[1]):
            self._dels.add(key)
            self._set_alive(key[0], key[1], False)
            self._bump_degrees(key[0], key[1], -1)
            record_patch_event("delete")
        else:
            raise EdgeNotFoundError(u, v)
        self.version += 1

    # ------------------------------------------------------------------
    # batched mutations (the serving write fast path)
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        inserts: Sequence[Tuple[Node, Node]] = (),
        deletes: Sequence[Tuple[Node, Node]] = (),
    ) -> PatchBatchResult:
        """Apply a batch of edge mutations in one vectorized pass.

        Semantics match applying every insert (in order, duplicates
        no-ops) and *then* every delete (in order, validated against the
        post-insert state) through :meth:`insert_edge` /
        :meth:`delete_edge`, except the work is coalesced: one
        canonicalization/dedup pass over the edge lists, one
        ``searchsorted`` slot lookup per direction over the sorted base
        keys, two vectorized aliveness-mask assignments, one
        ``np.add.at`` degree update, and at most **one** ``version``
        bump for the whole batch (the merged-snapshot cache therefore
        invalidates once, not per edge).

        The batch is atomic: a self-loop (``ValueError``) or an absent
        delete (:class:`~repro.errors.EdgeNotFoundError`) raises before
        any patch mutates, and the nodes the batch interned are
        released again, so a rejected batch leaves no trace.
        """
        mark = len(self._nodes)
        try:
            plan = self._plan_batch(inserts, deletes)
        except BaseException:
            for node in self._nodes[mark:]:
                del self._index[node]
            del self._nodes[mark:]
            raise
        restores, adds, rekills, cancels_new, cancels_old, new_dels = plan

        # Commit — net per-key effects.  A restore-then-delete (rekill)
        # never leaves ``_dels``; an add-then-cancel (self-cancellation)
        # never enters ``_adds``; neither flips masks or degrees.
        rekill_set = set(rekills)
        cancel_new_set = set(cancels_new)
        restore_commit = [k for k in restores if k not in rekill_set]
        add_commit = [k for k in adds if k not in cancel_new_set]

        if restore_commit or new_dels:
            if self._alive is None:
                self._alive = np.ones(self.base.indices.shape[0], dtype=bool)
            for group, value in ((restore_commit, True), (new_dels, False)):
                if group:
                    arr = np.asarray(group, dtype=np.int64)
                    ii = np.concatenate([arr[:, 0], arr[:, 1]])
                    jj = np.concatenate([arr[:, 1], arr[:, 0]])
                    self._alive[self._base_slots_bulk(ii, jj)] = value

        endpoints: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        for group, w in (
            (restore_commit, 1),
            (add_commit, 1),
            (new_dels, -1),
            (cancels_old, -1),
        ):
            if group:
                arr = np.asarray(group, dtype=np.int64)
                endpoints.append(arr.reshape(-1))
                weights.append(np.full(arr.size, w, dtype=np.int64))
        if endpoints:
            self._ensure_degree_capacity()
            np.add.at(
                self._degree_delta,
                np.concatenate(endpoints),
                np.concatenate(weights),
            )

        self._dels.difference_update(restore_commit)
        self._dels.update(new_dels)
        for key in add_commit:
            self._adds.add(key)
            self._add_adj.setdefault(key[0], set()).add(key[1])
            self._add_adj.setdefault(key[1], set()).add(key[0])
        for key in cancels_old:
            self._adds.discard(key)
            self._add_adj[key[0]].discard(key[1])
            self._add_adj[key[1]].discard(key[0])

        touched: Set[Tuple[int, int]] = set(restores)
        touched.update(adds)
        touched.update(new_dels)
        touched.update(cancels_old)
        result = PatchBatchResult(
            touched=sorted(touched),
            changed=len(restores) + len(adds) + len(rekills)
            + len(cancels_new) + len(cancels_old) + len(new_dels),
        )

        # Event parity with the per-edge path: restores and cancels both
        # record "cancel"; a rekill records the "delete" its per-edge
        # twin would have.
        n_cancel = len(restores) + len(cancels_old) + len(cancels_new)
        if adds:
            record_patch_event("insert", len(adds))
        if new_dels or rekills:
            record_patch_event("delete", len(new_dels) + len(rekills))
        if n_cancel:
            record_patch_event("cancel", n_cancel)
        record_dispatch("graphs.apply_batch", path="patch-batch")
        if result.changed:
            self.version += 1
        return result

    def _plan_batch(
        self,
        inserts: Sequence[Tuple[Node, Node]],
        deletes: Sequence[Tuple[Node, Node]],
    ) -> Tuple[List[Tuple[int, int]], ...]:
        """Resolve a batch against the current patch state, reads only.

        Interns the insert endpoints and raises on the first invalid
        operation; otherwise returns the canonical pairs by arm:
        ``(restores, adds, rekills, cancels_new, cancels_old,
        new_dels)``.
        """
        # Inserts — canonicalize + dedup (interning endpoints), then
        # split into pending-delete restores, already-present no-ops
        # and genuinely new adds.
        ins_keys: Dict[Tuple[int, int], None] = {}
        for u, v in inserts:
            if u == v:
                raise ValueError(
                    f"self-loop on {u!r} not allowed in a simple graph"
                )
            iu = self._intern(u)
            iv = self._intern(v)
            ins_keys[(iu, iv) if iu < iv else (iv, iu)] = None
        restores: List[Tuple[int, int]] = []
        maybe_new: List[Tuple[int, int]] = []
        for key in ins_keys:
            if key in self._dels:
                restores.append(key)
            elif key not in self._adds:
                maybe_new.append(key)
        adds: List[Tuple[int, int]] = []
        if maybe_new:
            arr = np.asarray(maybe_new, dtype=np.int64)
            slots = self._base_slots_bulk(arr[:, 0], arr[:, 1])
            adds = [key for key, slot in zip(maybe_new, slots) if slot < 0]
        add_set = set(adds)
        restore_set = set(restores)

        # Deletes — validated against the post-insert state.
        seen_del: Set[Tuple[int, int]] = set()
        cancels_new: List[Tuple[int, int]] = []  # cancel this batch's add
        cancels_old: List[Tuple[int, int]] = []  # cancel a pending add
        rekills: List[Tuple[int, int]] = []  # delete a just-restored edge
        maybe_base: List[Tuple[Tuple[int, int], Tuple[Node, Node]]] = []
        for u, v in deletes:
            iu = self._index.get(u)
            iv = self._index.get(v)
            if iu is None or iv is None or iu == iv:
                raise EdgeNotFoundError(u, v)
            key = (iu, iv) if iu < iv else (iv, iu)
            if key in seen_del:
                # The first occurrence consumed the edge.
                raise EdgeNotFoundError(u, v)
            seen_del.add(key)
            if key in add_set:
                cancels_new.append(key)
            elif key in self._adds:
                cancels_old.append(key)
            elif key in restore_set:
                rekills.append(key)
            elif key in self._dels:
                raise EdgeNotFoundError(u, v)
            else:
                maybe_base.append((key, (u, v)))
        new_dels: List[Tuple[int, int]] = []
        if maybe_base:
            arr = np.asarray([key for key, _ in maybe_base], dtype=np.int64)
            slots = self._base_slots_bulk(arr[:, 0], arr[:, 1])
            for (key, uv), slot in zip(maybe_base, slots):
                if slot < 0:
                    raise EdgeNotFoundError(*uv)
                new_dels.append(key)
        return restores, adds, rekills, cancels_new, cancels_old, new_dels

    # ------------------------------------------------------------------
    # merged point reads
    # ------------------------------------------------------------------
    def has_edge(self, u: Node, v: Node) -> bool:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None or iu == iv:
            return False
        key = (iu, iv) if iu < iv else (iv, iu)
        if key in self._adds:
            return True
        if key in self._dels:
            return False
        return self._base_has_edge(key[0], key[1])

    def degree(self, node: Node) -> int:
        i = self.index_of(node)
        base_deg = int(self.base.degrees[i]) if i < self.base.n else 0
        if i < self._degree_delta.shape[0]:
            base_deg += int(self._degree_delta[i])
        return base_deg

    def neighbor_row(self, i: int) -> np.ndarray:
        """Merged (sorted) neighbor-index row of node index ``i``."""
        base = self.base
        if i < base.n:
            row = base.neighbor_indices(i)
            if self._alive is not None:
                lo = int(base.indptr[i])
                hi = int(base.indptr[i + 1])
                row = row[self._alive[lo:hi]]
        else:
            row = np.empty(0, dtype=np.int64)
        extra = self._add_adj.get(i)
        if extra:
            row = np.sort(
                np.concatenate(
                    [row, np.fromiter(extra, dtype=np.int64, count=len(extra))]
                )
            )
        return row

    def neighbors(self, node: Node) -> Set[Node]:
        nodes = self._nodes
        return {nodes[int(j)] for j in self.neighbor_row(self.index_of(node))}

    # ------------------------------------------------------------------
    # patch-aware BFS (the point-query kernel below the gateway)
    # ------------------------------------------------------------------
    def bfs_levels(
        self, sources: Union[int, Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Multi-source BFS over base + patches, without merging.

        Same contract as :meth:`FrozenGraph.bfs_levels` (hop level per
        node index, -1 unreachable) over the patched topology: frontier
        expansion gathers the base CSR rows through the aliveness mask
        and unions the add-overlay rows.  Bit-exact with running the
        same BFS on :meth:`snapshot` (asserted differentially).
        """
        base = self.base
        # Patch-free (or already-merged) states delegate to the plain
        # frozen kernel — same contract, lower constant factors.
        if self.pending == 0 and self.n == base.n:
            return base.bfs_levels(sources)
        if self._merged is not None and self._merged_version == self.version:
            return self._merged.bfs_levels(sources)
        n = self.n
        level = np.full(n, _UNREACHABLE, dtype=np.int64)
        frontier = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        level[frontier] = 0
        depth = 0
        while frontier.size:
            in_base = frontier[frontier < base.n]
            parts: List[np.ndarray] = []
            if in_base.size:
                starts = base.indptr[in_base]
                counts = base.indptr[in_base + 1] - starts
                total = int(counts.sum())
                if total:
                    cum = np.cumsum(counts)
                    bases = np.repeat(starts - (cum - counts), counts)
                    positions = bases + np.arange(total, dtype=np.int64)
                    if self._alive is not None:
                        positions = positions[self._alive[positions]]
                    parts.append(base.indices[positions])
            if self._add_adj:
                for i in frontier:
                    extra = self._add_adj.get(int(i))
                    if extra:
                        parts.append(
                            np.fromiter(extra, dtype=np.int64, count=len(extra))
                        )
            if not parts:
                break
            nbrs = np.concatenate(parts) if len(parts) > 1 else parts[0]
            fresh = nbrs[level[nbrs] < 0]
            if fresh.size == 0:
                break
            depth += 1
            frontier = np.unique(fresh)
            level[frontier] = depth
        return level

    # ------------------------------------------------------------------
    # merge / snapshot
    # ------------------------------------------------------------------
    def merge(self) -> FrozenGraph:
        """Fold base + patches into a fresh CSR snapshot (vectorized).

        The alive-masked base arrays are already in CSR (source, target)
        order, so no full sort is needed: the pending inserts (both
        directions, lexsorted — a tiny array) are spliced in at their
        ``searchsorted`` positions with one ``np.insert``.  Never a
        dict-graph refreeze, so no ``repro.cache.frozen`` events.  The
        result is bit-exact with freezing the equivalently mutated dict
        graph (same node order, same sorted rows).
        """
        base = self.base
        n = self.n
        src = base._edge_sources()
        dst = base.indices
        if self._alive is not None:
            src = src[self._alive]
            dst = dst[self._alive]
        if self._adds:
            pairs = np.fromiter(
                (i for pair in self._adds for i in pair),
                dtype=np.int64,
                count=2 * len(self._adds),
            ).reshape(-1, 2)
            add_src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            add_dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.lexsort((add_dst, add_src))
            add_src = add_src[order]
            add_dst = add_dst[order]
            # Flat (source, target) keys are strictly increasing in CSR
            # order and the added edges are absent from the base, so
            # every insertion position is unambiguous.
            positions = np.searchsorted(src * n + dst, add_src * n + add_dst)
            dst = np.insert(dst, positions, add_dst)
            counts = np.bincount(src, minlength=n) + np.bincount(
                add_src, minlength=n
            )
        else:
            counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        merged = FrozenGraph.from_arrays(
            indptr,
            dst,
            node_list=list(self._nodes),
            directed=False,
            generation=self.version,
            copy=False,
            validate=False,
            dispatch_path="patch-merge",
        )
        # Repr ranks (the peel tie-break) depend only on the node list,
        # which merging never reorders — carry any cached ranks over so
        # every merged snapshot doesn't re-sort 2000 reprs.  With lazy
        # repairs the first peel often runs on a *merged* snapshot, so
        # the previous merged instance (not the base) holds the cache.
        previous = self._merged
        for donor in (base, previous):
            if donor is None or donor.n != self.n:
                continue
            if merged._repr_rank is None and donor._repr_rank is not None:
                merged._repr_rank = donor._repr_rank
            if merged._index is None and donor._index is not None:
                merged._index = donor._index
        record_patch_event("merge")
        return merged

    def snapshot(self) -> FrozenGraph:
        """The current merged snapshot, lazily built and cached.

        With no pending patches *and* no nodes interned past the base
        this is the base itself.  A cancelled insert can drain
        ``pending`` to zero while leaving a newly interned endpoint
        behind (deletes keep nodes, matching ``Graph.remove_edge``), so
        the node count must match too — otherwise the merge runs, which
        with no pending adds still emits the grown ``indptr`` with
        isolated-node rows.  The merge runs at most once per mutation
        ``version``; above ``threshold`` pending patches the merged
        snapshot *rebases* — it becomes the new base and the patch
        buffer clears, bounding both the overlay size point reads pay
        and the dead-entry mass the masked gathers carry.
        """
        if self.pending == 0 and self.n == self.base.n:
            return self.base
        if self._merged is not None and self._merged_version == self.version:
            return self._merged
        merged = self.merge()
        if self.pending > self.threshold:
            self._rebase(merged)
        else:
            self._merged = merged
            self._merged_version = self.version
        return merged

    def _rebase(self, merged: FrozenGraph) -> None:
        self.base = merged
        self._adds.clear()
        self._dels.clear()
        self._alive = None
        self._degree_delta = np.zeros(merged.n, dtype=np.int64)
        self._add_adj.clear()
        self._flat_keys = None
        self._merged = None
        self._merged_version = -1
        record_patch_event("rebase")

    def __repr__(self) -> str:
        return (
            f"PatchedGraph(n={self.n}, base_m={self.base.num_edges}, "
            f"pending={self.pending}, threshold={self.threshold}, "
            f"version={self.version})"
        )
