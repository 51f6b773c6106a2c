"""Interval hypergraphs (Sec. II-A, Fig. 1).

When three or more users are online simultaneously, a pairwise edge
understates the event: the paper proposes a *hyperedge* connecting all
vertices whose intervals share a common time point.  This module builds
the interval hypergraph, exposes the hyperedge-cardinality distribution
the paper asks about ("what type of distribution of hyperedge
cardinality will follow?"), and computes edge-density profiles over
time — the quantities behind social influencing / recommendation
behaviour of online social networks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.interval import Interval, _validate_interval

Node = Hashable


@dataclass(frozen=True)
class Hyperedge:
    """A maximal set of vertices simultaneously online over a window.

    ``members`` is the vertex set; ``window`` is a (closed) maximal time
    window during which exactly this set is online together.
    """

    members: FrozenSet[Node]
    window: Interval

    @property
    def cardinality(self) -> int:
        return len(self.members)


@dataclass
class IntervalHypergraph:
    """The interval hypergraph of a family of (multi-)intervals."""

    hyperedges: List[Hyperedge] = field(default_factory=list)

    def cardinality_distribution(self) -> Dict[int, int]:
        """Histogram: hyperedge cardinality → count (Fig. 1's question)."""
        return dict(Counter(edge.cardinality for edge in self.hyperedges))

    def max_cardinality(self) -> int:
        return max((edge.cardinality for edge in self.hyperedges), default=0)

    def edges_containing(self, node: Node) -> List[Hyperedge]:
        return [edge for edge in self.hyperedges if node in edge.members]

    def two_section(self) -> Graph:
        """The 2-section: pairwise graph obtained by expanding hyperedges.

        Equals the ordinary interval graph of the same intervals, which
        tests verify (the hypergraph refines, never contradicts, the
        graph).
        """
        graph = Graph()
        for edge in self.hyperedges:
            members = sorted(edge.members, key=repr)
            for member in members:
                graph.add_node(member)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if not graph.has_edge(u, v):
                        graph.add_edge(u, v)
        return graph


def interval_hypergraph(
    intervals: Mapping[Node, Iterable[Interval]],
) -> IntervalHypergraph:
    """Build the interval hypergraph of per-vertex interval families.

    A sweep over endpoint events tracks the active set; whenever the
    active set is about to change, the current set (if ≥ 2 members and
    maximal, i.e. not a subset of a neighbouring window's set that we
    also emit) is recorded over its window.  Redundant sub-windows whose
    member set is contained in an adjacent emitted set are dropped, so
    each hyperedge is a *maximal* co-online group.
    """
    events: List[Tuple[float, int, Node]] = []
    for node, node_intervals in intervals.items():
        for interval in node_intervals:
            left, right = _validate_interval(interval)
            events.append((left, 0, node))
            events.append((right, 1, node))
    # Starts before ends at equal coordinates: closed-interval touching counts.
    events.sort(key=lambda e: (e[0], e[1], repr(e[2])))

    windows: List[Tuple[FrozenSet[Node], Interval]] = []
    active: Dict[Node, int] = {}
    previous_time: float = 0.0
    have_time = False
    for time, kind, node in events:
        if have_time and active and time >= previous_time:
            members = frozenset(active)
            if len(members) >= 2:
                windows.append((members, (previous_time, time)))
        if kind == 0:
            active[node] = active.get(node, 0) + 1
        else:
            active[node] -= 1
            if active[node] == 0:
                del active[node]
        previous_time = time
        have_time = True

    # Merge equal consecutive member sets, then keep only maximal sets
    # (drop windows whose set is a strict subset of another window's).
    merged: List[Tuple[FrozenSet[Node], Interval]] = []
    for members, window in windows:
        if merged and merged[-1][0] == members and merged[-1][1][1] >= window[0]:
            merged[-1] = (members, (merged[-1][1][0], window[1]))
        else:
            merged.append((members, window))

    hyperedges: List[Hyperedge] = []
    for members, window in merged:
        if any(members < other for other, _ in merged):
            continue
        edge = Hyperedge(members=members, window=window)
        if all(edge.members != existing.members or edge.window != existing.window
               for existing in hyperedges):
            hyperedges.append(edge)
    return IntervalHypergraph(hyperedges=hyperedges)


def edge_density_profile(
    intervals: Mapping[Node, Iterable[Interval]],
    times: Iterable[float],
) -> Dict[float, float]:
    """Active edge density over all vertex pairs at each sample time.

    Density at time t = (pairs simultaneously online at t) / C(n, 2)
    where n is the total number of vertices; 0.0 for a single vertex.
    This is the "edge density distribution" the paper links to social
    influencing and recommendation: spikes mark moments when large
    co-online groups (large hyperedges) form.
    """
    n = len(intervals)
    total_pairs = n * (n - 1) / 2
    profile: Dict[float, float] = {}
    for t in times:
        online = sum(
            1
            for node_intervals in intervals.values()
            if any(left <= t <= right for left, right in node_intervals)
        )
        active_pairs = online * (online - 1) / 2
        profile[t] = active_pairs / total_pairs if total_pairs else 0.0
    return profile
