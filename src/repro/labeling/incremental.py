"""Incremental index repair for the serving plane's labeling indexes.

Four indexes and one shared repair kernel live here.  The indexes
are all behind the same contract — build from a snapshot, then
``update(fg_new, touched)`` repairs against the next snapshot given
the touched edge pairs, bit-exact (or tolerance-equal, for PageRank)
with a cold rebuild, and ``n`` is the node count of the snapshot last
built or repaired for:

* :class:`IncrementalLandmarkLabels` — Ramalingam–Reps two-phase
  (distance, gateway) label repair by :func:`repair_bfs_keys` (details
  below);
* :class:`IncrementalPageRank` — warm-start power iteration seeded
  from the previous score vector, so the iteration count tracks the
  changed probability mass rather than the graph size;
* :class:`IncrementalMIS` — the three-color process of
  :meth:`~repro.graphs.csr.FrozenGraph.mis_round_masks`, rerun on the
  new snapshot;
* :class:`IncrementalCDS` — Wu–Dai marking and Rule-k trimming
  replayed on the touched pairs' bounded-radius regions.

Incremental BFS key repair (:func:`repair_bfs_keys`).

:func:`repro.labeling.landmarks.distance_gateway_labels` assigns every
reachable node the lexicographically minimal key ``(hop distance to a
landmark, landmark repr-rank)`` — the unique fixpoint of

    key(x) = (0, rank_x)                        if x is a landmark
    key(x) = min over neighbors y of key(y) + (1, 0)   otherwise

under lexicographic order.  Because the edge "weight" (1, 0) strictly
increases the key, this is a shortest-path semiring and the classical
Ramalingam–Reps two-phase repair applies on edge deletion, while edge
insertion needs only monotone decrease-only relaxation:

Each touched pair is looked at once.  Its keys say which endpoint
``u`` is the far one; only when ``key[u] - key[v] >= stride`` can the
pair matter, and only then is its presence in the new snapshot read,
from ``u``'s row.  The work thus follows what a change can reach, not
the degrees of the nodes it touches:

* **Phase 1 (invalidate):** seeded only by the far endpoint ``u`` of
  each deleted pair with ``key[u] == key[v] + stride`` — the only node
  that edge can have supported, since support needs the same gateway
  rank and one edge closer.  A present pair seeds nothing here.  A
  queued node whose key has no remaining *valid* supporting neighbor
  (a non-invalidated ``y`` with ``key[y] + stride == key[x]``) is
  invalidated and queues only its neighbors with ``key[x] + stride``,
  the only nodes it can have supported.  Support chains strictly
  decrease the distance, so they terminate at a landmark
  (self-supported, never invalidated) — a surviving label is
  therefore genuinely achievable in the new graph, and support cycles
  of stale labels are impossible.
* **Phase 2 (re-relax):** a lex-ordered Dijkstra seeded from (a) the
  best boundary key of each invalidated node, and (b) each present
  pair whose near endpoint now shortens the far one (an insertion).
  Keys only decrease, so the pass restores the unique fixpoint.

The kernel holds each (distance, rank) key as one integer,
``distance * stride + rank``, and takes its seeds as a set.  The
landmark labels are its multi-seed client (one rank per landmark); the
serving plane's hot-source store
(:class:`repro.serving.state.HotSources`) is its single-seed client
through :func:`repair_bfs_levels`, where a key is a plain BFS level.

The full-rebuild path stays the ground truth:
``distance_gateway_labels_reference`` (per-landmark BFS in repr order)
is asserted bit-exact against the repaired labels at every step of the
differential harness.  Landmarks are fixed at construction; removing a
landmark from the graph is not supported (the serving layer never
removes nodes).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Container, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graphs.csr import FrozenGraph
from repro.labeling.mis import frozen_id_priorities
from repro.observability.telemetry import record_repair

Node = Hashable

_INF = np.iinfo(np.int64).max


def repair_bfs_keys(
    fg: FrozenGraph,
    key: np.ndarray,
    seeds: Container[int],
    touched: Iterable[Tuple[int, int]],
    stride: int = 1,
) -> None:
    """Ramalingam–Reps two-phase repair of BFS keys, in place.

    ``key[x]`` encodes the lexicographic (hop distance, seed rank) key
    of node index ``x`` as ``stride * distance + rank`` with
    ``0 <= rank < stride`` (``_INF`` if no seed reaches it), so an
    edge adds exactly ``stride`` and lexicographic order is integer
    order.  ``key`` must be the fixpoint for the graph before the
    ``touched`` pairs changed, sized for ``fg``; on return it is the
    fixpoint for ``fg``.  ``seeds`` are the self-supported indices
    (keys ``0 * stride + rank``), never invalidated.  With one seed and
    ``stride=1`` the keys are plain BFS levels; the landmark labels use
    one rank per landmark.  A repair that raises leaves ``key`` partly
    repaired, so a caller must then discard it.
    """
    nbrs = fg.neighbor_indices

    # Read each touched pair's presence once.  Only a pair whose far
    # endpoint ``u`` sits at least one edge beyond ``v`` can have
    # supported ``u`` (deleted, keys exactly one edge apart) or now
    # shorten it (present), so only those rows are read.  A deleted
    # edge supported nothing else: support needs the same rank and one
    # edge closer.
    present: List[Tuple[int, int]] = []
    queue: deque = deque()
    for u, v in touched:
        ku, kv = int(key[u]), int(key[v])
        if ku < kv:
            u, v, ku, kv = v, u, kv, ku
        if ku - kv < stride:
            continue
        row = nbrs(u)
        pos = row.searchsorted(v)
        if pos < row.shape[0] and row[pos] == v:
            present.append((u, v))
        elif ku == kv + stride:
            queue.append(u)

    # Phase 1: cascade unsupported nodes from the deleted supports.  A
    # node is supported by a valid neighbour exactly one edge closer, so
    # an invalidated node can only have supported the neighbours exactly
    # one edge farther.  Each invalidated node keeps its row for phase 2.
    invalid: Dict[int, List[int]] = {}
    while queue:
        x = queue.popleft()
        if x in invalid or x in seeds:
            continue
        row = nbrs(x).tolist()
        kx = int(key[x])
        closer = kx - stride
        if any(key[y] == closer and y not in invalid for y in row):
            continue
        invalid[x] = row
        farther = kx + stride
        queue.extend(y for y in row if key[y] == farther)

    # Phase 2: decrease-only relaxation, seeded by the best boundary key
    # of each invalidated node and by every present pair whose near
    # endpoint now shortens the far one (an insertion).
    for x in invalid:
        key[x] = _INF
    heap: List[Tuple[int, int]] = []
    for x, row in invalid.items():
        best = min((int(key[y]) for y in row), default=_INF)
        if best != _INF:
            heap.append((best + stride, x))
    for u, v in present:
        k = int(key[v]) + stride
        if k < int(key[u]):
            heap.append((k, u))
    heapq.heapify(heap)
    while heap:
        k, x = heapq.heappop(heap)
        if k >= key[x]:
            continue
        key[x] = k
        k += stride
        row = invalid.get(x)
        for y in nbrs(x).tolist() if row is None else row:
            if k < key[y]:
                heapq.heappush(heap, (k, y))


def repair_bfs_levels(
    fg: FrozenGraph,
    levels: np.ndarray,
    source: int,
    touched: Iterable[Tuple[int, int]],
) -> np.ndarray:
    """A repaired copy of one source's BFS ``levels`` (-1 unreachable).

    The single-seed case of :func:`repair_bfs_keys`: ``levels`` is the
    sweep from node index ``source`` before the ``touched`` pairs
    changed, possibly shorter than ``fg.n`` (new nodes start
    unreachable); the result is the sweep over ``fg``.  ``levels``
    itself is never written, even when the repair raises.
    """
    key = np.full(fg.n, _INF, dtype=np.int64)
    key[: levels.shape[0]] = levels
    key[key < 0] = _INF
    repair_bfs_keys(fg, key, (source,), touched)
    key[key == _INF] = -1
    return key


class IncrementalLandmarkLabels:
    """(distance, gateway) labels kept current across edge mutations.

    ``landmarks`` are node objects; their repr-sorted order defines the
    gateway ranks, matching the reference tie-break (nearest landmark,
    ties to the repr-smallest one).  Each node's label is held as one
    :func:`repair_bfs_keys` key, ``distance * len(landmarks) + rank``.
    """

    def __init__(self, fg: FrozenGraph, landmarks: Sequence[Node]) -> None:
        lms = sorted(set(landmarks), key=repr)
        if not lms:
            raise ValueError("need at least one landmark")
        for lm in lms:
            if lm not in fg.index:
                raise NodeNotFoundError(lm)
        self.landmarks: List[Node] = lms
        self._lm_indices = np.array(
            [fg.index[lm] for lm in lms], dtype=np.int64
        )
        self._seeds = frozenset(self._lm_indices.tolist())
        self.n = fg.n
        # One multi-source sweep (the batch path) builds the keys.
        level, landmark = fg.multi_source_labels(self._lm_indices)
        rank_at = np.zeros(fg.n, dtype=np.int64)
        rank_at[self._lm_indices] = np.arange(len(lms), dtype=np.int64)
        self._key = np.full(fg.n, _INF, dtype=np.int64)
        reach = level >= 0
        self._key[reach] = level[reach] * len(lms) + rank_at[landmark[reach]]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _label(self, key: int) -> Tuple[int, Node]:
        distance, rank = divmod(key, len(self.landmarks))
        return distance, self.landmarks[rank]

    def label_of(self, i: int) -> Optional[Tuple[int, Node]]:
        """(distance, gateway landmark) of node index ``i``; None if
        no landmark reaches it."""
        key = int(self._key[i])
        return None if key == _INF else self._label(key)

    def labels_map(self, fg: FrozenGraph) -> Dict[Node, Tuple[int, Node]]:
        """Node-facing view, comparable with the reference labels."""
        nodes = fg.node_list
        return {
            nodes[i]: self._label(int(self._key[i]))
            for i in np.flatnonzero(self._key != _INF)
        }

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def update(
        self,
        fg_new: FrozenGraph,
        touched: Iterable[Tuple[int, int]],
    ) -> str:
        """Repair the labels for ``fg_new``; returns the repair mode.

        ``touched`` must cover (as index pairs valid in ``fg_new``)
        every edge inserted or deleted since the last repair; pairs that
        were touched but ended up unchanged are harmless.  New nodes
        (indices beyond the previous ``n``) extend the keys as
        unreachable and are picked up by the insert relaxation.
        """
        pairs = list(touched)
        if fg_new.n > self.n:
            pad = np.full(fg_new.n - self.n, _INF, dtype=np.int64)
            self._key = np.concatenate([self._key, pad])
            self.n = fg_new.n
        if not pairs:
            record_repair("labels", "noop")
            return "noop"
        repair_bfs_keys(
            fg_new, self._key, self._seeds, pairs, stride=len(self.landmarks)
        )
        record_repair("labels", "relax")
        return "relax"


class IncrementalPageRank:
    """PageRank scores kept current by warm-started power iteration.

    The power iteration is a contraction with factor ``damping``
    regardless of the starting vector, so seeding it with the previous
    fixpoint converges in O(log(drift)/log(1/damping)) iterations — a
    handful when only a few edges moved — while the converged vector
    matches the cold uniform start within the same tolerance.  New
    nodes enter at the uniform mass 1/n before renormalization.
    """

    def __init__(
        self,
        fg: FrozenGraph,
        damping: float = 0.85,
        tolerance: float = 1e-10,
    ) -> None:
        self.damping = float(damping)
        self.tolerance = float(tolerance)
        self.n = fg.n
        self.scores, self.iterations = fg.pagerank_scores(
            damping=self.damping, tolerance=self.tolerance
        )

    def update(
        self,
        fg_new: FrozenGraph,
        touched: Iterable[Tuple[int, int]],
    ) -> str:
        """Re-converge the scores for ``fg_new``; returns the mode."""
        pairs = list(touched)
        if fg_new.n == self.n and not pairs:
            record_repair("pagerank", "noop")
            return "noop"
        warm = self.scores
        if fg_new.n > self.n:
            pad = np.full(fg_new.n - self.n, 1.0 / fg_new.n, dtype=np.float64)
            warm = np.concatenate([warm, pad])
            self.n = fg_new.n
        self.scores, self.iterations = fg_new.pagerank_scores(
            damping=self.damping, tolerance=self.tolerance, initial=warm
        )
        record_repair("pagerank", "warm")
        return "warm"


class IncrementalMIS:
    """Three-color MIS membership, rebuilt on every dirty repair.

    A repair reruns :meth:`FrozenGraph.mis_round_masks` on the new
    snapshot with the id priorities of its node list (mode ``"full"``).
    Replaying rounds with an early exit onto the previous trajectory
    re-ran most rounds on the serve-write stream and cost more than
    this rebuild.  Bit-exact with ``mis_rounds`` at every step
    (asserted differentially).
    """

    def __init__(self, fg: FrozenGraph) -> None:
        self._build(fg)

    def _build(self, fg: FrozenGraph) -> None:
        self.n = fg.n
        self._black = fg.mis_rounds(frozen_id_priorities(fg))[0]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def member_mask(self) -> np.ndarray:
        return self._black

    def members(self, fg: FrozenGraph) -> set:
        nodes = fg.node_list
        return {nodes[int(i)] for i in np.flatnonzero(self._black)}

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def update(
        self,
        fg_new: FrozenGraph,
        touched: Iterable[Tuple[int, int]],
    ) -> str:
        """Rebuild the membership for ``fg_new``; returns the mode."""
        if fg_new.n == self.n and not list(touched):
            record_repair("mis", "noop")
            return "noop"
        self._build(fg_new)
        record_repair("mis", "full")
        return "full"


class IncrementalCDS:
    """Wu–Dai marked/trimmed CDS repaired by touched-region replay.

    Both CDS phases are per-node pure rules over a bounded radius: the
    marking of a node reads only its neighborhood and the adjacency
    inside it (radius 1), and the restricted Rule-k trimming reads the
    marking, the degree priorities, and the closed neighborhoods of the
    node's neighbors (radius 2) — always against the *original* black
    set, never the shrinking one.  An edge flip (u, v) can therefore
    change the marking only on ``{u, v} ∪ (N(u) ∩ N(v))`` and the
    trimming only inside the closed neighborhood of that set, so a
    repair re-evaluates exactly those regions (the degree priorities
    are refreshed wholesale — they are one vectorized line) and carries
    every other decision over.  Node growth re-ranks the repr
    priorities, so it rebuilds.  Bit-exact with
    :func:`repro.labeling.cds.wu_dai_cds` at every step (asserted
    differentially).
    """

    def __init__(self, fg: FrozenGraph) -> None:
        self._build(fg)

    def _build(self, fg: FrozenGraph) -> None:
        self.n = fg.n
        self._prio = self._priorities(fg)
        self._marked = fg.marking_mask().copy()
        member = np.zeros(fg.n, dtype=bool)
        for i in np.flatnonzero(self._marked):
            member[i] = self._keeps_membership(fg, int(i))
        self._member = member

    @staticmethod
    def _priorities(fg: FrozenGraph) -> np.ndarray:
        """Index-aligned ``default_priorities``: degree + repr-rank tail.

        Same IEEE-double expression as the dict reference — integer
        degree plus ``(n - rank) / (n + 1.0)`` — so comparisons agree
        bit-for-bit.
        """
        ranks = fg._repr_ranks()
        return fg.degrees.astype(np.float64) + (fg.n - ranks) / (fg.n + 1.0)

    def _is_marked(self, fg: FrozenGraph, i: int) -> bool:
        """Marking rule at one node: is N(i) *not* a clique?

        A neighborhood of size d is a clique iff every neighbor is
        adjacent to the d−1 others.
        """
        nb = fg.neighbor_indices(i)
        d = nb.size
        if d < 2:
            return False
        for a in nb:
            row = fg.neighbor_indices(int(a))
            if np.isin(row, nb, assume_unique=True).sum() < d - 1:
                return True
        return False

    def _keeps_membership(self, fg: FrozenGraph, i: int) -> bool:
        """Restricted Rule k at one node, vs the current marked mask."""
        if not self._marked[i]:
            return False
        nb = fg.neighbor_indices(i)
        prio = self._prio
        higher = nb[self._marked[nb] & (prio[nb] > prio[i])]
        if higher.size == 0:
            return True
        coverers = {int(x) for x in higher}
        # Connectivity of the coverer set (start choice is immaterial).
        start = int(higher[0])
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for other in fg.neighbor_indices(current):
                o = int(other)
                if o in coverers and o not in seen:
                    seen.add(o)
                    frontier.append(o)
        if seen != coverers:
            return True
        covered = set(coverers)
        for coverer in coverers:
            covered.update(int(x) for x in fg.neighbor_indices(coverer))
        closed = {int(x) for x in nb}
        closed.add(i)
        return not closed <= covered

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def member_mask(self) -> np.ndarray:
        return self._member

    def marked(self, fg: FrozenGraph) -> set:
        nodes = fg.node_list
        return {nodes[int(i)] for i in np.flatnonzero(self._marked)}

    def members(self, fg: FrozenGraph) -> set:
        nodes = fg.node_list
        return {nodes[int(i)] for i in np.flatnonzero(self._member)}

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def update(
        self,
        fg_new: FrozenGraph,
        touched: Iterable[Tuple[int, int]],
    ) -> str:
        """Repair the CDS for ``fg_new``; returns the mode."""
        pairs = [(int(u), int(v)) for u, v in touched]
        if fg_new.n != self.n:
            self._build(fg_new)
            record_repair("cds", "full")
            return "full"
        if not pairs:
            record_repair("cds", "noop")
            return "noop"
        # Degrees moved at the endpoints; the priority vector is one
        # vectorized line, so refresh it wholesale rather than patching.
        self._prio = self._priorities(fg_new)
        mark_region: set = set()
        for u, v in pairs:
            mark_region.add(u)
            mark_region.add(v)
            common = np.intersect1d(
                fg_new.neighbor_indices(u),
                fg_new.neighbor_indices(v),
                assume_unique=True,
            )
            mark_region.update(int(w) for w in common)
        # A deleted endpoint's former neighbors are still its (new)
        # neighbors except across the deleted pair itself, so the new
        # snapshot's neighborhoods already cover every affected node.
        for w in mark_region:
            self._marked[w] = self._is_marked(fg_new, w)
        trim_region = set(mark_region)
        for w in mark_region:
            trim_region.update(int(x) for x in fg_new.neighbor_indices(w))
        for x in trim_region:
            self._member[x] = self._keeps_membership(fg_new, x)
        record_repair("cds", "replay")
        return "replay"
