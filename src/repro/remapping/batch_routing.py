"""Batched greedy-routing evaluation over frozen CSR snapshots.

The Fig. 5/8/9-style experiments all score greedy routing the same
way: run thousands of source–destination pairs, report success rate and
stretch.  Each single-pair router costs interpreter time per hop per
neighbor; this module advances *every pair at once* — one vectorized
sweep per greedy hop, scanning each active pair's neighborhood with the
same running-best fold as its reference router.

Exactness.  Per outer hop, the inner loop runs over neighbor positions
j = 0..maxdeg−1 of a rank-permuted CSR (rows preserved, entries sorted
by the reference's scan order), applying the reference's strict
acceptance test ``candidate < best − eps`` pairwise across all active
routes.  Distances come from per-distinct-target tables holding the
very values the references use — geographic rows from the same
``math.hypot``, hyperbolic rows from the embedding's own
``distance_table`` (one per distinct target instead of one per pair:
the batching win), grid and F-space rows as exact integers.  The
batched results therefore equal the per-pair loops bit for bit, which
the differential tests and the ``perf-labeling`` bench assert before
timing.

Stretch denominators (optimal hop counts) are computed once by the same
vectorized BFS helper on both the batched and the reference evaluators,
so the measured difference between the two is the routing itself.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import FrozenGraph
from repro.observability.tracing import traced
from repro.graphs.unit_disk import positions_of
from repro.labeling.kleinberg_routing import greedy_grid_route
from repro.remapping.feature_space import FeatureSpace, greedy_profile_route
from repro.remapping.geo_routing import greedy_route
from repro.remapping.hyperbolic import HyperbolicEmbedding, greedy_route_hyperbolic

Node = Hashable
Pair = Tuple[Node, Node]
Point = Tuple[float, float]


@dataclass(frozen=True)
class RoutingBatchResult:
    """Vectorized outcome of one batched greedy-routing sweep."""

    pairs: Tuple[Pair, ...]
    delivered: np.ndarray  # bool, one per pair
    hops: np.ndarray  # int64, moves made (delivered or not)
    optimal_hops: np.ndarray  # int64, -1 when the target is unreachable

    @property
    def success_rate(self) -> float:
        if not self.pairs:
            return 1.0
        return float(self.delivered.sum()) / len(self.pairs)

    @property
    def mean_hops(self) -> float:
        """Mean hop count over delivered pairs (nan if none delivered)."""
        if not self.delivered.any():
            return float("nan")
        return float(self.hops[self.delivered].mean())

    @property
    def mean_stretch(self) -> float:
        """Mean hops/optimal over delivered pairs with optimal > 0."""
        usable = self.delivered & (self.optimal_hops > 0)
        if not usable.any():
            return float("nan")
        return float((self.hops[usable] / self.optimal_hops[usable]).mean())

    def rows(self) -> List[Tuple[Node, Node, bool, int, int]]:
        """(source, target, delivered, hops, optimal) per pair — plain
        Python values, the equality surface for the differential tests."""
        return [
            (
                s,
                t,
                bool(self.delivered[i]),
                int(self.hops[i]),
                int(self.optimal_hops[i]),
            )
            for i, (s, t) in enumerate(self.pairs)
        ]


# ----------------------------------------------------------------------
# the shared batched fold
# ----------------------------------------------------------------------
def _natural_rank(fg: FrozenGraph) -> np.ndarray:
    """Rank of each node under plain ``sorted()`` (the Kleinberg scan)."""
    order = sorted(range(fg.n), key=lambda i: fg.node_list[i])
    rank = np.empty(fg.n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(fg.n, dtype=np.int64)
    return rank


#: Per-snapshot cache of the scan-order-permuted neighbor array, keyed
#: by the snapshot itself (weakly — a dropped snapshot drops its entry).
#: The snapshot is immutable, so the permutation is a pure function of
#: (snapshot, scan mode); repeated evaluations on the same snapshot skip
#: the lexsort.
_NBR_CACHE: "weakref.WeakKeyDictionary[FrozenGraph, Dict[str, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def _scan_neighbors(fg: FrozenGraph, scan: str) -> np.ndarray:
    """CSR ``indices`` with each row permuted into the reference's scan
    order: ``"repr"`` for the repr-sorted routers, ``"natural"`` for the
    Kleinberg plain-``sorted()`` scan."""
    per_fg = _NBR_CACHE.setdefault(fg, {})
    nbr = per_fg.get(scan)
    if nbr is None:
        rank = fg._repr_ranks() if scan == "repr" else _natural_rank(fg)
        perm = np.lexsort((rank[fg.indices], fg._edge_sources()))
        nbr = fg.indices[perm]
        per_fg[scan] = nbr
    return nbr


#: Below this many still-active pairs, the sweep hands the tail to the
#: per-pair walk (same fold, same scan order — purely a constant-factor
#: choice, never a semantic one).
_TAIL_MAX_ACTIVE = 96

#: Targets per :func:`_optimal_for_pairs` chunk: the bits of one int64
#: mask, sign bit excluded.
_TARGET_CHUNK = 63


def _finish_tail(
    fg: FrozenGraph,
    nbr: np.ndarray,
    dist_rows: np.ndarray,
    slot: np.ndarray,
    act: np.ndarray,
    current: np.ndarray,
    targets: np.ndarray,
    delivered: np.ndarray,
    hops: np.ndarray,
    eps,
    max_hops: int,
) -> None:
    """Walk the remaining active pairs to completion, one at a time.

    Identical fold over the identical permuted rows as the vectorized
    sweep (plain-Python lists of the same float64/int64 values, so the
    ``d < best − eps`` comparisons are bit-for-bit the same); each pair
    keeps its already-spent hop budget.
    """
    nbr_list = nbr.tolist()
    indptr_list = fg.indptr.tolist()
    row_cache: Dict[int, list] = {}
    for p in act.tolist():
        s = int(slot[p])
        row = row_cache.get(s)
        if row is None:
            row = dist_rows[s].tolist()
            row_cache[s] = row
        cur = int(current[p])
        tgt = int(targets[p])
        h = int(hops[p])
        while h < max_hops:
            best = -1
            best_d = row[cur]
            for idx in range(indptr_list[cur], indptr_list[cur + 1]):
                candidate = nbr_list[idx]
                d = row[candidate]
                if d < best_d - eps:
                    best_d = d
                    best = candidate
            if best < 0:
                break
            cur = best
            h += 1
            if cur == tgt:
                delivered[p] = True
                break
        current[p] = cur
        hops[p] = h


def _batched_greedy(
    fg: FrozenGraph,
    dist_rows: np.ndarray,
    slot: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    eps,
    max_hops: int,
    scan: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance every pair one greedy hop per sweep; exact fold semantics.

    ``dist_rows[slot[p], v]`` is the distance from node v to pair p's
    target.  Each hop scans the j-th neighbor (in ``scan`` order) of
    every active pair's current node simultaneously and keeps the
    reference's running best (accept iff ``d < best − eps``), so tie
    behaviour matches the per-pair routers exactly.  ``eps`` must be an
    int 0 for integer distance rows (keeps the comparison exact).

    The active pairs are processed sorted by descending degree of their
    current node, so position j concerns exactly the first k_j entries —
    the j-loop works on contiguous prefixes instead of re-masking the
    whole active set each round.

    Once few pairs remain active (the long-route tail), they are walked
    to completion one at a time with the identical fold over the same
    permuted rows — per-sweep array overhead would otherwise dominate
    the tail, where one sweep advances a handful of pairs by one hop.
    """
    nbr = _scan_neighbors(fg, scan)
    n_pairs = sources.shape[0]
    current = sources.copy()
    delivered = current == targets
    hops = np.zeros(n_pairs, dtype=np.int64)
    active = ~delivered
    for _ in range(max_hops):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        if act.size <= _TAIL_MAX_ACTIVE:
            _finish_tail(
                fg, nbr, dist_rows, slot, act, current, targets, delivered,
                hops, eps, max_hops,
            )
            break
        counts = fg.degrees[current[act]]
        order = np.argsort(-counts, kind="stable")
        act = act[order]
        counts = counts[order]
        cur = current[act]
        sl = slot[act]
        best_d = dist_rows[sl, cur]  # advanced indexing: already a copy
        best_node = np.full(act.size, -1, dtype=np.int64)
        starts = fg.indptr[cur]
        top = int(counts[0]) if counts.size else 0
        # k_j = how many actives have degree > j (descending counts).
        k_by_j = np.searchsorted(-counts, -np.arange(top), side="left")
        for j in range(top):
            k = int(k_by_j[j])
            cand = nbr[starts[:k] + j]
            d = dist_rows[sl[:k], cand]
            upd = np.flatnonzero(d < best_d[:k] - eps)
            if upd.size:
                best_d[upd] = d[upd]
                best_node[upd] = cand[upd]
        stuck = best_node < 0
        active[act[stuck]] = False
        moved = act[~stuck]
        current[moved] = best_node[~stuck]
        hops[moved] += 1
        arrived = moved[current[moved] == targets[moved]]
        delivered[arrived] = True
        active[arrived] = False
    return delivered, hops


def _pair_indices(
    fg: FrozenGraph, pairs: Sequence[Pair]
) -> Tuple[np.ndarray, np.ndarray]:
    sources = np.array(
        [fg.index_of(s) for s, _ in pairs] or [], dtype=np.int64
    )
    targets = np.array(
        [fg.index_of(t) for _, t in pairs] or [], dtype=np.int64
    )
    return sources, targets


def _optimal_for_pairs(
    fg: FrozenGraph, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Shortest-path hops source → target per pair (-1 if unreachable).

    Bitset BFS from every *distinct* target at once: each node carries
    an int64 mask of the targets it can reach so far, and one
    ``bitwise_or.reduceat`` pull per round spreads masks backwards —
    a node reaches a target in d+1 hops iff some out-neighbor (forward
    arcs; plain neighbor when undirected) reaches it in d.  A pair is
    resolved the round its source first holds its target's bit, so no
    full level matrix is ever built.  Targets go in chunks of
    :data:`_TARGET_CHUNK`, the bits one int64 mask holds.
    """
    distinct, slot = np.unique(targets, return_inverse=True)
    optimal = np.full(sources.shape[0], -1, dtype=np.int64)
    if distinct.size == 0:
        return optimal
    rows, seg_starts = fg._row_segments()
    for base in range(0, int(distinct.size), _TARGET_CHUNK):
        chunk = distinct[base : base + _TARGET_CHUNK]
        k = chunk.size
        state = np.zeros(fg.n, dtype=np.int64)
        state[chunk] |= np.int64(1) << np.arange(k, dtype=np.int64)
        pending = np.flatnonzero((slot >= base) & (slot < base + k))
        bit = np.int64(1) << (slot[pending] - base)
        done = (state[sources[pending]] & bit) != 0
        optimal[pending[done]] = 0
        pending, bit = pending[~done], bit[~done]
        depth = 0
        while pending.size and depth <= fg.n:
            depth += 1
            merged = state[rows] | np.bitwise_or.reduceat(
                state[fg.indices], seg_starts
            )
            if np.array_equal(merged, state[rows]):
                break  # masks stable: the rest is unreachable
            state[rows] = merged
            hit = (state[sources[pending]] & bit) != 0
            if hit.any():
                optimal[pending[hit]] = depth
                pending, bit = pending[~hit], bit[~hit]
    return optimal


def _result_from_routes(
    fg: FrozenGraph,
    pairs: Sequence[Pair],
    routes,
) -> RoutingBatchResult:
    """Assemble a RoutingBatchResult from per-pair reference routes."""
    sources, targets = _pair_indices(fg, pairs)
    delivered = np.array([r.delivered for r in routes], dtype=bool)
    hops = np.array(
        [len(r.path) - 1 if hasattr(r, "path") else r.hops for r in routes],
        dtype=np.int64,
    )
    optimal = _optimal_for_pairs(fg, sources, targets)
    return RoutingBatchResult(tuple(pairs), delivered, hops, optimal)


# ----------------------------------------------------------------------
# geographic routing (Fig. 5a)
# ----------------------------------------------------------------------
@traced("repro.remapping.evaluate_geo_routing")
def evaluate_geo_routing(
    graph,
    pairs: Sequence[Pair],
    positions: Optional[Mapping[Node, Point]] = None,
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Score many greedy geographic routes in one vectorized sweep.

    Exactly equal to the per-pair loop
    :func:`evaluate_geo_routing_reference`.
    """
    pos = positions if positions is not None else positions_of(graph)
    fg = graph.frozen()
    sources, targets = _pair_indices(fg, pairs)
    distinct, slot = np.unique(targets, return_inverse=True)
    nodes = fg.node_list
    coords = [pos[node] for node in nodes]
    dist_rows = np.empty((max(distinct.size, 1), fg.n), dtype=np.float64)
    for row, t in enumerate(distinct):
        tx, ty = coords[int(t)]
        # The reference's own euclidean(): math.hypot, bit-identical.
        dist_rows[row] = [math.hypot(x - tx, y - ty) for x, y in coords]
    cap = max_hops if max_hops is not None else graph.num_nodes
    delivered, hops = _batched_greedy(
        fg, dist_rows, slot, sources, targets, 1e-15, cap, "repr"
    )
    optimal = _optimal_for_pairs(fg, sources, targets)
    return RoutingBatchResult(tuple(pairs), delivered, hops, optimal)


def evaluate_geo_routing_reference(
    graph,
    pairs: Sequence[Pair],
    positions: Optional[Mapping[Node, Point]] = None,
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Per-pair :func:`greedy_route` loop: ground truth for the batch."""
    pos = positions if positions is not None else positions_of(graph)
    routes = [greedy_route(graph, s, t, pos, max_hops) for s, t in pairs]
    return _result_from_routes(graph.frozen(), pairs, routes)


# ----------------------------------------------------------------------
# hyperbolic routing (Fig. 5b)
# ----------------------------------------------------------------------
@traced("repro.remapping.evaluate_hyperbolic_routing")
def evaluate_hyperbolic_routing(
    graph,
    embedding: HyperbolicEmbedding,
    pairs: Sequence[Pair],
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Score many hyperbolic greedy routes in one vectorized sweep.

    Builds one ``embedding.distance_table`` per *distinct* target
    (the reference pays one per pair), then runs the batched fold with
    the reference's 1e-12 strict-progress threshold.
    """
    fg = graph.frozen()
    sources, targets = _pair_indices(fg, pairs)
    distinct, slot = np.unique(targets, return_inverse=True)
    nodes = fg.node_list
    dist_rows = np.empty((max(distinct.size, 1), fg.n), dtype=np.float64)
    for row, t in enumerate(distinct):
        table = embedding.distance_table(nodes[int(t)])
        dist_rows[row] = [table[node] for node in nodes]
    cap = max_hops if max_hops is not None else graph.num_nodes
    delivered, hops = _batched_greedy(
        fg, dist_rows, slot, sources, targets, 1e-12, cap, "repr"
    )
    optimal = _optimal_for_pairs(fg, sources, targets)
    return RoutingBatchResult(tuple(pairs), delivered, hops, optimal)


def evaluate_hyperbolic_routing_reference(
    graph,
    embedding: HyperbolicEmbedding,
    pairs: Sequence[Pair],
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Per-pair :func:`greedy_route_hyperbolic` loop: ground truth."""
    routes = [
        greedy_route_hyperbolic(graph, embedding, s, t, max_hops)
        for s, t in pairs
    ]
    return _result_from_routes(graph.frozen(), pairs, routes)


# ----------------------------------------------------------------------
# Kleinberg grid routing (Sec. I)
# ----------------------------------------------------------------------
@traced("repro.remapping.evaluate_kleinberg_routing")
def evaluate_kleinberg_routing(
    graph,
    pairs: Sequence[Pair],
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Score many Kleinberg greedy grid routes in one vectorized sweep.

    Integer Manhattan rows, plain strict improvement (eps = 0), and the
    reference's ``sorted(successors)`` scan order (tuple order, not
    repr); optimal hops via BFS over the reversed arcs.
    """
    fg = graph.frozen()
    sources, targets = _pair_indices(fg, pairs)
    distinct, slot = np.unique(targets, return_inverse=True)
    nodes = fg.node_list
    row_coord = np.array([node[0] for node in nodes], dtype=np.int64)
    col_coord = np.array([node[1] for node in nodes], dtype=np.int64)
    dist_rows = np.empty((max(distinct.size, 1), fg.n), dtype=np.int64)
    for row, t in enumerate(distinct):
        tr, tc = nodes[int(t)]
        dist_rows[row] = np.abs(row_coord - tr) + np.abs(col_coord - tc)
    cap = max_hops if max_hops is not None else 4 * graph.num_nodes
    delivered, hops = _batched_greedy(
        fg, dist_rows, slot, sources, targets, 0, cap, "natural"
    )
    optimal = _optimal_for_pairs(fg, sources, targets)
    return RoutingBatchResult(tuple(pairs), delivered, hops, optimal)


def evaluate_kleinberg_routing_reference(
    graph,
    pairs: Sequence[Pair],
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Per-pair :func:`greedy_grid_route` loop: ground truth."""
    routes = [greedy_grid_route(graph, s, t, max_hops) for s, t in pairs]
    return _result_from_routes(graph.frozen(), pairs, routes)


# ----------------------------------------------------------------------
# F-space hypercube routing (Sec. III-C)
# ----------------------------------------------------------------------
@traced("repro.remapping.evaluate_fspace_routing")
def evaluate_fspace_routing(
    space: FeatureSpace,
    pairs: Sequence[Pair],
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Score many greedy F-space profile routes in one vectorized sweep.

    Pairs are (source profile, target profile) over the occupied-profile
    hypercube (:meth:`FeatureSpace.strong_link_graph`); integer Hamming
    rows, repr scan order, exact equality with the per-pair
    :func:`~repro.remapping.feature_space.greedy_profile_route`.
    """
    normalized = [
        (tuple(int(x) for x in s), tuple(int(x) for x in t)) for s, t in pairs
    ]
    graph = space.strong_link_graph()
    fg = graph.frozen()
    sources, targets = _pair_indices(fg, normalized)
    distinct, slot = np.unique(targets, return_inverse=True)
    profiles = np.array(fg.node_list, dtype=np.int64)
    dist_rows = np.empty((max(distinct.size, 1), fg.n), dtype=np.int64)
    for row, t in enumerate(distinct):
        dist_rows[row] = (profiles != profiles[int(t)]).sum(axis=1)
    cap = max_hops if max_hops is not None else graph.num_nodes
    delivered, hops = _batched_greedy(
        fg, dist_rows, slot, sources, targets, 0, cap, "repr"
    )
    optimal = _optimal_for_pairs(fg, sources, targets)
    return RoutingBatchResult(tuple(normalized), delivered, hops, optimal)


def evaluate_fspace_routing_reference(
    space: FeatureSpace,
    pairs: Sequence[Pair],
    max_hops: Optional[int] = None,
) -> RoutingBatchResult:
    """Per-pair :func:`greedy_profile_route` loop: ground truth."""
    normalized = [
        (tuple(int(x) for x in s), tuple(int(x) for x in t)) for s, t in pairs
    ]
    routes = [
        greedy_profile_route(space, s, t, max_hops) for s, t in normalized
    ]
    return _result_from_routes(
        space.strong_link_graph().frozen(), normalized, routes
    )
