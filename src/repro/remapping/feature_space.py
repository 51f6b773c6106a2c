"""Social-feature remapping: M-space → F-space (Sec. III-C, Fig. 6, [21]).

The remapping-domain idea: routing in a highly mobile, unstructured
*contact space* (M-space) is converted to routing in a static,
structured *feature space* (F-space).  Every person carries a social
feature profile (gender, occupation, nationality, ...).  Grouping all
individuals with the same profile into one node and connecting nodes
that differ in exactly one feature yields a **generalized hypercube** —
which supports shortest-path and node-disjoint multipath routing out of
the box.  Links of the hypercube are *strong* links (one feature
difference, frequent contacts); remaining contacts are weak links.

Implementation:

* :class:`FeatureSpace` — profile bookkeeping, the induced generalized
  hypercube, community membership, strong/weak link classification;
* F-space routing plans (shortest path and node-disjoint multipath over
  profiles);
* :func:`simulate_delivery` — executes a routing policy over an actual
  contact trace (an :class:`~repro.temporal.evolving.EvolvingGraph`),
  so the F-space plan is evaluated in the M-space it abstracts:
  ``fspace-greedy`` forwards only on contacts that reduce the feature
  distance to the destination profile, ``epidemic`` floods, ``direct``
  waits for the destination, ``fspace-multipath`` spreads one copy per
  disjoint F-space path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import AlgorithmError, NodeNotFoundError
from repro.graphs.hypercube import GeneralizedHypercube, hamming_distance
from repro.observability.tracing import traced
from repro.temporal.evolving import EvolvingGraph

Node = Hashable
Profile = Tuple[int, ...]


class FeatureSpace:
    """The F-space of a population of feature profiles."""

    def __init__(
        self,
        profiles: Mapping[Node, Profile],
        radices: Sequence[int],
        feature_names: Optional[Sequence[str]] = None,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one profile")
        self.hypercube = GeneralizedHypercube(radices)
        self.profiles: Dict[Node, Profile] = {}
        for node, profile in profiles.items():
            profile = tuple(int(x) for x in profile)
            if not self.hypercube.contains(profile):
                raise ValueError(f"profile {profile} of {node!r} out of range")
            self.profiles[node] = profile
        self.feature_names = (
            list(feature_names)
            if feature_names is not None
            else [f"feature{i}" for i in range(self.hypercube.dimension)]
        )
        if len(self.feature_names) != self.hypercube.dimension:
            raise ValueError("feature_names length must match radices")
        self._communities: Dict[Profile, Set[Node]] = {}
        for node, profile in self.profiles.items():
            self._communities.setdefault(profile, set()).add(node)
        self._strong_graph: Optional["Graph"] = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def profile_of(self, node: Node) -> Profile:
        if node not in self.profiles:
            raise NodeNotFoundError(node)
        return self.profiles[node]

    def community(self, profile: Profile) -> Set[Node]:
        """All individuals sharing ``profile`` (one F-space node)."""
        return set(self._communities.get(tuple(profile), set()))

    def occupied_profiles(self) -> Set[Profile]:
        return set(self._communities)

    def strong_link_graph(self) -> "Graph":
        """The occupied-profile hypercube: one node per occupied profile,
        edges between profiles at Hamming distance one (strong links).

        Unoccupied profiles are *holes* — greedy F-space routing can get
        stuck at them, the hypercube analogue of Fig. 5(a)'s geographic
        local minima.  Built once per space (profiles are immutable) by
        mutating each coordinate and looking the result up in the
        occupancy map: O(occupied · Σ radices) instead of all profile
        pairs.
        """
        if self._strong_graph is not None:
            return self._strong_graph
        from repro.graphs.graph import Graph

        graph = Graph()
        occupied = self._communities
        radices = self.hypercube.radices
        for profile in occupied:
            graph.add_node(profile)
            for axis, radix in enumerate(radices):
                for value in range(radix):
                    if value == profile[axis]:
                        continue
                    other = profile[:axis] + (value,) + profile[axis + 1 :]
                    if other in occupied:
                        graph.add_edge(profile, other)
        self._strong_graph = graph
        return graph

    def feature_distance(self, u: Node, v: Node) -> int:
        """Hamming distance between two individuals' profiles."""
        return hamming_distance(self.profile_of(u), self.profile_of(v))

    def is_strong_link(self, u: Node, v: Node) -> bool:
        """Strong link: profiles differ in exactly one feature.

        (Same-profile pairs are community-internal, not hypercube links.)
        """
        return self.feature_distance(u, v) == 1

    # ------------------------------------------------------------------
    # F-space routing plans
    # ------------------------------------------------------------------
    def shortest_profile_path(self, source: Node, target: Node) -> List[Profile]:
        """The F-space shortest path between two individuals' profiles."""
        return self.hypercube.shortest_path(
            self.profile_of(source), self.profile_of(target)
        )

    def disjoint_profile_paths(self, source: Node, target: Node) -> List[List[Profile]]:
        """Node-disjoint F-space paths (the multipath plan of [21])."""
        return self.hypercube.disjoint_paths(
            self.profile_of(source), self.profile_of(target)
        )


@dataclass(frozen=True)
class DeliveryResult:
    """Outcome of one message delivery simulation."""

    delivered: bool
    delivery_time: Optional[int]
    hops: int
    copies: int


@traced("repro.remapping.simulate_delivery")
def simulate_delivery(
    eg: EvolvingGraph,
    space: FeatureSpace,
    source: Node,
    destination: Node,
    policy: str = "fspace-greedy",
) -> DeliveryResult:
    """Run one message through the contact trace under a policy.

    Policies
    --------
    ``direct``
        only the source carries the message; delivery on first
        source–destination contact.
    ``epidemic``
        every contact copies the message (delay lower bound, copy
        upper bound).
    ``fspace-greedy``
        single copy; on contact (holder, other) forward iff the other
        individual's profile is strictly closer (Hamming) to the
        destination profile — greedy descent in the F-space hypercube.
    ``fspace-multipath``
        one copy per node-disjoint F-space path; each copy may only
        move to profiles on its own path, in order; delivery when any
        copy meets the destination.
    """
    if not eg.has_node(source) or not eg.has_node(destination):
        raise NodeNotFoundError(source if not eg.has_node(source) else destination)
    if source == destination:
        return DeliveryResult(delivered=True, delivery_time=0, hops=0, copies=1)

    target_profile = space.profile_of(destination)

    if policy == "fspace-multipath":
        return _simulate_multipath(eg, space, source, destination)

    holders: Set[Node] = {source}
    hops = 0
    for time, u, v in eg.all_contacts():
        for a, b in ((u, v), (v, u)):
            if a not in holders or b in holders:
                continue
            if b == destination:
                return DeliveryResult(
                    delivered=True,
                    delivery_time=time,
                    hops=hops + 1,
                    copies=len(holders),
                )
            if policy == "direct":
                continue
            if policy == "epidemic":
                holders.add(b)
                hops += 1
            elif policy == "fspace-greedy":
                gain = hamming_distance(space.profile_of(b), target_profile) < (
                    hamming_distance(space.profile_of(a), target_profile)
                )
                if gain:
                    holders.discard(a)
                    holders.add(b)
                    hops += 1
                    break
            else:
                raise ValueError(f"unknown policy {policy!r}")
    return DeliveryResult(
        delivered=False, delivery_time=None, hops=hops, copies=len(holders)
    )


def _simulate_multipath(
    eg: EvolvingGraph,
    space: FeatureSpace,
    source: Node,
    destination: Node,
) -> DeliveryResult:
    paths = space.disjoint_profile_paths(source, destination)
    # Copy state: for each path, (current holder, index into path).
    copies: List[Tuple[Node, int]] = [(source, 0) for _ in paths]
    hops = 0
    for time, u, v in eg.all_contacts():
        for copy_index, (holder, position) in enumerate(copies):
            path = paths[copy_index]
            for a, b in ((u, v), (v, u)):
                if a != holder or b == holder:
                    continue
                if b == destination:
                    return DeliveryResult(
                        delivered=True,
                        delivery_time=time,
                        hops=hops + 1,
                        copies=len(copies),
                    )
                # Advance along this copy's own profile path only.
                b_profile = space.profile_of(b)
                remaining = path[position + 1 :]
                if b_profile in remaining:
                    copies[copy_index] = (b, position + 1 + remaining.index(b_profile))
                    hops += 1
                    break
    return DeliveryResult(
        delivered=False, delivery_time=None, hops=hops, copies=len(copies)
    )


def greedy_profile_route(
    space: FeatureSpace,
    source_profile: Profile,
    target_profile: Profile,
    max_hops: Optional[int] = None,
) -> "RouteResult":
    """Greedy Hamming descent over the occupied-profile hypercube.

    The F-space analogue of geographic greedy routing: from the current
    profile, move to the strong-link neighbor (occupied profile at
    Hamming distance one) strictly closer to the target, scanning
    neighbors in repr order; stop when no neighbor improves (stuck at an
    occupancy hole) or the target profile is reached.  Both endpoints
    must be occupied.
    """
    from repro.remapping.geo_routing import RouteResult

    graph = space.strong_link_graph()
    source = tuple(int(x) for x in source_profile)
    target = tuple(int(x) for x in target_profile)
    for profile in (source, target):
        if not graph.has_node(profile):
            raise NodeNotFoundError(profile)
    if max_hops is None:
        max_hops = graph.num_nodes
    current = source
    path: List[Profile] = [current]
    for _ in range(max_hops):
        if current == target:
            return RouteResult(delivered=True, path=tuple(path))
        best = None
        best_distance = hamming_distance(current, target)
        for neighbor in sorted(graph.neighbors(current), key=repr):
            candidate = hamming_distance(neighbor, target)
            if candidate < best_distance:
                best = neighbor
                best_distance = candidate
        if best is None:
            return RouteResult(delivered=False, path=tuple(path), stuck_at=current)
        current = best
        path.append(current)
    if current == target:
        return RouteResult(delivered=True, path=tuple(path))
    return RouteResult(delivered=False, path=tuple(path), stuck_at=current)


def contact_frequency_by_feature_distance(
    eg: EvolvingGraph, space: FeatureSpace
) -> Dict[int, float]:
    """Mean number of contacts per pair, bucketed by feature distance.

    The empirical law of [21]: this should decrease monotonically in
    the feature distance for socially-driven traces (verified in the
    Fig. 6 benchmark against :mod:`repro.mobility.community` traces).
    """
    totals: Dict[int, int] = {}
    pairs: Dict[int, int] = {}
    nodes = sorted(eg.nodes(), key=repr)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            distance = space.feature_distance(u, v)
            count = len(eg.labels(u, v)) if eg.has_edge(u, v) else 0
            totals[distance] = totals.get(distance, 0) + count
            pairs[distance] = pairs.get(distance, 0) + 1
    return {
        distance: totals[distance] / pairs[distance]
        for distance in totals
        if pairs[distance] > 0
    }
