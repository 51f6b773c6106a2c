"""Journeys: paths over time in a time-evolving graph (Sec. II-B).

A *journey* (temporal path) is an alternating sequence of vertices and
contacts with non-decreasing edge labels; transmission at a contact is
instantaneous and intermediate nodes store the message between contacts
(carry-store-forward).  The paper lists three optimization problems,
"extensions of the traditional shortest path problem, but still solvable
using variations of the classical Dijkstra's shortest path algorithm":

1. **earliest completion time** — minimise the label of the last contact;
2. **minimum hop** — minimise the number of contacts used;
3. **fastest** — minimise the span between first and last contact.

All three are implemented here, plus journey validation and foremost
(earliest-arrival) trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import NodeNotFoundError
from repro.temporal.evolving import EvolvingGraph

Node = Hashable
Hop = Tuple[Node, Node, int]  # (from, to, contact time)


@dataclass(frozen=True)
class Journey:
    """A temporal path: hops with non-decreasing contact labels."""

    source: Node
    hops: Tuple[Hop, ...]

    @property
    def target(self) -> Node:
        return self.hops[-1][1] if self.hops else self.source

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def departure(self) -> Optional[int]:
        """Label of the first contact (None for the empty journey)."""
        return self.hops[0][2] if self.hops else None

    @property
    def completion(self) -> Optional[int]:
        """Label of the last contact — the completion time."""
        return self.hops[-1][2] if self.hops else None

    @property
    def span(self) -> int:
        """Elapsed time between first and last contact (0 if trivial)."""
        if not self.hops:
            return 0
        return self.hops[-1][2] - self.hops[0][2]

    def nodes(self) -> List[Node]:
        result = [self.source]
        result.extend(hop[1] for hop in self.hops)
        return result

    def __len__(self) -> int:
        return len(self.hops)


def is_valid_journey(eg: EvolvingGraph, journey: Journey, start: int = 0) -> bool:
    """Check contiguity, contact existence and non-decreasing labels.

    ``start`` enforces the paper's connectivity convention: the first
    edge label must be >= the starting time unit.
    """
    current = journey.source
    previous_time = start
    for u, v, time in journey.hops:
        if u != current:
            return False
        if not eg.has_contact(u, v, time):
            return False
        if time < previous_time:
            return False
        current = v
        previous_time = time
    return True


def _contacts_by_time(eg: EvolvingGraph, start: int) -> List[Tuple[int, List[Tuple[Node, Node]]]]:
    """Contacts grouped by time unit, ascending, labels >= start."""
    groups: Dict[int, List[Tuple[Node, Node]]] = {}
    for time, u, v in eg.all_contacts():
        if time >= start:
            groups.setdefault(time, []).append((u, v))
    return sorted(groups.items())


def foremost_tree(
    eg: EvolvingGraph, source: Node, start: int = 0
) -> Dict[Node, Optional[Hop]]:
    """Parent hops of an earliest-arrival (foremost) tree from ``source``.

    Maps each reachable node to the hop that first delivered to it
    (``None`` for the source).  Runs on the frozen contact index
    (parent tie-breaks reproduced exactly); the reference below is the
    ground truth.
    """
    if not eg.has_node(source):
        raise NodeNotFoundError(source)
    return eg.frozen().foremost_tree(source, start)


def foremost_tree_reference(
    eg: EvolvingGraph, source: Node, start: int = 0
) -> Dict[Node, Optional[Hop]]:
    """The per-time-unit BFS foremost tree: ground truth for the kernel.

    Labels along a journey are *non-decreasing*, so several hops may
    share one time unit (transmission is instantaneous); each time unit
    is therefore processed as a BFS over that unit's contacts from all
    already-informed nodes.
    """
    if not eg.has_node(source):
        raise NodeNotFoundError(source)
    arrival: Dict[Node, int] = {source: start}
    parent: Dict[Node, Optional[Hop]] = {source: None}
    for time, contacts in _contacts_by_time(eg, start):
        adjacency: Dict[Node, List[Node]] = {}
        for u, v in contacts:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        frontier = [
            node for node in adjacency
            if node in arrival and arrival[node] <= time
        ]
        frontier.sort(key=repr)
        head = 0
        while head < len(frontier):
            node = frontier[head]
            head += 1
            for neighbor in sorted(adjacency.get(node, ()), key=repr):
                if neighbor not in arrival or arrival[neighbor] > time:
                    arrival[neighbor] = time
                    parent[neighbor] = (node, neighbor, time)
                    frontier.append(neighbor)
    return parent


def earliest_arrival(
    eg: EvolvingGraph, source: Node, start: int = 0
) -> Dict[Node, int]:
    """Earliest time each node can hold a message originating at ``source``.

    ``arrival[source] = start``; a contact (u, v, t) with t >= arrival[u]
    delivers to v at time t, and the message may traverse several
    contacts within the same time unit (non-decreasing labels).
    Unreachable nodes are absent from the result.  Arrival times (unlike
    tree parents) are canonical, so the frozen path uses the cheaper
    parent-free single-scan kernel.
    """
    if not eg.has_node(source):
        raise NodeNotFoundError(source)
    return eg.frozen().earliest_arrival(source, start)


def earliest_arrival_reference(
    eg: EvolvingGraph, source: Node, start: int = 0
) -> Dict[Node, int]:
    """Arrival times read off the reference foremost tree."""
    parent = foremost_tree_reference(eg, source, start)
    arrival: Dict[Node, int] = {}
    for node, hop in parent.items():
        arrival[node] = start if hop is None else hop[2]
    return arrival


def _journey_from_parents(
    parent: Dict[Node, Optional[Hop]], source: Node, target: Node
) -> Optional[Journey]:
    if target not in parent:
        return None
    hops: List[Hop] = []
    node = target
    while node != source:
        hop = parent[node]
        if hop is None:
            break
        hops.append(hop)
        node = hop[0]
    hops.reverse()
    return Journey(source=source, hops=tuple(hops))


def earliest_completion_journey(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Journey]:
    """A journey minimising the completion time at ``target``, or ``None``."""
    if not eg.has_node(target):
        raise NodeNotFoundError(target)
    parent = foremost_tree(eg, source, start)
    return _journey_from_parents(parent, source, target)


def minimum_hop_journey(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Journey]:
    """A journey with the fewest contacts from ``source`` to ``target``.

    Level-by-level dynamic programming: after h hops each node keeps its
    *minimum achievable arrival time* using exactly ≤ h hops; a smaller
    arrival time can never hurt later hops, so the per-level minimum is
    a sufficient state and the DP is exact.  At most n levels.

    Each level keeps its own parents: a node that improves at level h
    must not overwrite the hop it got at level h − 1, which an earlier
    level's frontier still extends.  The journey is rebuilt from the
    level where the target first appears, one level per hop.
    """
    if not eg.has_node(source):
        raise NodeNotFoundError(source)
    if not eg.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return Journey(source=source, hops=())

    best_arrival: Dict[Node, int] = {source: start}
    # levels[h - 1][v]: the hop that brought v into frontier h.
    levels: List[Dict[Node, Hop]] = []
    frontier: Dict[Node, int] = {source: start}
    for _ in range(eg.num_nodes):
        next_frontier: Dict[Node, int] = {}
        parent: Dict[Node, Hop] = {}
        for u, ready_time in frontier.items():
            for time, v in eg.contacts_from(u, not_before=ready_time):
                known = best_arrival.get(v)
                if known is not None and known <= time:
                    continue
                pending = next_frontier.get(v)
                if pending is not None and pending <= time:
                    continue
                next_frontier[v] = time
                parent[v] = (u, v, time)
        if not next_frontier:
            return None
        levels.append(parent)
        for node, time in next_frontier.items():
            previous = best_arrival.get(node)
            if previous is None or time < previous:
                best_arrival[node] = time
        if target in next_frontier:
            hops: List[Hop] = []
            node = target
            for parent in reversed(levels):
                hop = parent[node]
                hops.append(hop)
                node = hop[0]
            hops.reverse()
            return Journey(source=source, hops=tuple(hops))
        frontier = next_frontier
    return None


def fastest_journey(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Journey]:
    """A journey minimising the span between first and last contact.

    Classic reduction: for every candidate departure time d (a label of
    some contact incident to the source, d >= start), run the
    earliest-arrival scan restricted to labels >= d and take the journey
    with the smallest ``completion - departure``.
    """
    if not eg.has_node(source):
        raise NodeNotFoundError(source)
    if not eg.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return Journey(source=source, hops=())

    departures = sorted({time for time, _ in eg.contacts_from(source, not_before=start)})
    best: Optional[Journey] = None
    for depart in departures:
        parent = foremost_tree(eg, source, depart)
        journey = _journey_from_parents(parent, source, target)
        if journey is None or not journey.hops:
            continue
        if best is None or journey.span < best.span:
            best = journey
        if best is not None and best.span == 0:
            break
    return best


def latest_departure(
    eg: EvolvingGraph, target: Node, deadline: Optional[int] = None
) -> Dict[Node, int]:
    """Latest time each node may *depart* and still reach ``target``.

    The time-reversed dual of :func:`earliest_arrival`: scanning
    contacts in non-increasing label order.  ``departure[target]`` is
    the deadline (default: the horizon).  Useful for reverse routing
    tables in DTNs.
    """
    if not eg.has_node(target):
        raise NodeNotFoundError(target)
    if deadline is None:
        deadline = eg.horizon
    return eg.frozen().latest_departure(target, deadline)


def latest_departure_reference(
    eg: EvolvingGraph, target: Node, deadline: Optional[int] = None
) -> Dict[Node, int]:
    """The per-time-unit reverse BFS: ground truth for the kernel."""
    if not eg.has_node(target):
        raise NodeNotFoundError(target)
    if deadline is None:
        deadline = eg.horizon
    departure: Dict[Node, int] = {target: deadline}
    groups: Dict[int, List[Tuple[Node, Node]]] = {}
    for time, u, v in eg.all_contacts():
        if time < deadline:
            groups.setdefault(time, []).append((u, v))
    for time in sorted(groups, reverse=True):
        adjacency: Dict[Node, List[Node]] = {}
        for u, v in groups[time]:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        frontier = [
            node for node in adjacency
            if node in departure and departure[node] >= time
        ]
        frontier.sort(key=repr)
        head = 0
        while head < len(frontier):
            node = frontier[head]
            head += 1
            for neighbor in sorted(adjacency.get(node, ()), key=repr):
                if neighbor not in departure or departure[neighbor] < time:
                    departure[neighbor] = time
                    frontier.append(neighbor)
    return departure


def temporal_distance(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[int]:
    """Earliest completion time minus ``start``, or ``None`` if unreachable.

    The paper's "distance extended to temporal distance".
    """
    arrival = earliest_arrival(eg, source, start)
    if target not in arrival:
        return None
    if source == target:
        return 0
    return arrival[target] - start
