"""Journeys in *weighted* time-evolving graphs (Sec. II-B).

"A weighted time-evolving graph has a definition similar to the
time-evolving graph except that each edge at time unit i is associated
with a weight w_i, which [has] different interpretations based on the
application.  For example, a weight can be the bandwidth, transmission
delay, or reliability."

One path problem per interpretation:

* **transmission delay** — :func:`min_delay_journey`: a contact at
  label t with weight w occupies [t, t + w); the message leaves the
  receiving node no earlier than t + w.  Minimise the arrival time
  (the weighted generalisation of earliest completion, solved by a
  time-ordered Dijkstra);
* **reliability** — :func:`most_reliable_journey`: each contact
  succeeds independently with probability w ∈ (0, 1]; maximise the
  product of weights (Viterbi-style DP over labels);
* **bandwidth** — :func:`max_bandwidth_journey`: the journey's
  bandwidth is the minimum weight along it; maximise that bottleneck
  (binary search over thresholds + temporal reachability).

The entry points relax over the pre-sorted arrays of the frozen contact
index (``eg.frozen()``); the ``*_reference`` bodies are the pure-Python
ground truth.  Outputs are identical — hop-for-hop, enforced by
``tests/test_frozen_temporal.py`` — except that :func:`most_reliable_journey_reference` is a different
algorithm, which agrees on the value and may break ties differently.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import NodeNotFoundError
from repro.temporal.evolving import EvolvingGraph
from repro.temporal.journeys import Hop, Journey

Node = Hashable


def min_delay_journey(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Journey]:
    """Minimise arrival time when weights are per-contact delays.

    A contact (u, v, t, w) is usable if the holder is ready by t
    (ready time ≤ t) and delivers at t + w; the receiver is ready at
    t + w.  Dijkstra over (ready time, node) states.  The relaxation
    reads each node's cached pre-sorted (time, neighbor, weight) rows
    of the frozen contact index instead of re-sorting and resolving
    weights per pop; heap order and parents equal the reference's.
    """
    for node in (source, target):
        if not eg.has_node(node):
            raise NodeNotFoundError(node)
    if source == target:
        return Journey(source=source, hops=())
    fc = eg.frozen()
    weighted_from = fc.weighted_contacts_from
    index_of = fc.index_of

    ready: Dict[Node, float] = {source: float(start)}
    parent: Dict[Node, Hop] = {}
    heap: List[Tuple[float, int, Node]] = [(float(start), 0, source)]
    counter = 1
    done: Set[Node] = set()
    while heap:
        time_ready, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == target:
            break
        for contact_time, neighbor, weight in weighted_from(index_of(node)):
            if contact_time < time_ready:
                continue
            arrival = contact_time + weight
            if arrival < ready.get(neighbor, math.inf):
                ready[neighbor] = arrival
                parent[neighbor] = (node, neighbor, contact_time)
                heapq.heappush(heap, (arrival, counter, neighbor))
                counter += 1
    if target not in parent:
        return None
    hops: List[Hop] = []
    node = target
    while node != source:
        hop = parent[node]
        hops.append(hop)
        node = hop[0]
    hops.reverse()
    return Journey(source=source, hops=tuple(hops))


def min_delay_journey_reference(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Journey]:
    """The dict-of-sets Dijkstra: ground truth for the frozen path."""
    for node in (source, target):
        if not eg.has_node(node):
            raise NodeNotFoundError(node)
    if source == target:
        return Journey(source=source, hops=())

    ready: Dict[Node, float] = {source: float(start)}
    parent: Dict[Node, Hop] = {}
    heap: List[Tuple[float, int, Node]] = [(float(start), 0, source)]
    counter = 1
    done: Set[Node] = set()
    while heap:
        time_ready, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == target:
            break
        for contact_time, neighbor in eg.contacts_from(node):
            if contact_time < time_ready:
                continue
            weight = eg.weight(node, neighbor, contact_time)
            arrival = contact_time + weight
            if arrival < ready.get(neighbor, math.inf):
                ready[neighbor] = arrival
                parent[neighbor] = (node, neighbor, contact_time)
                heapq.heappush(heap, (arrival, counter, neighbor))
                counter += 1
    if target not in parent:
        return None
    hops: List[Hop] = []
    node = target
    while node != source:
        hop = parent[node]
        hops.append(hop)
        node = hop[0]
    hops.reverse()
    return Journey(source=source, hops=tuple(hops))


def journey_delay(eg: EvolvingGraph, journey: Journey, start: int = 0) -> float:
    """Total arrival time of a journey under delay weights."""
    ready = float(start)
    for u, v, t in journey.hops:
        if t < ready:
            raise ValueError(f"contact at {t} before ready time {ready}")
        ready = t + eg.weight(u, v, t)
    return ready


def _check_reliability(weight: float) -> None:
    if not 0.0 < weight <= 1.0:
        raise ValueError(f"reliability weights must be in (0, 1], got {weight}")


def _note_hop(hops_of: Dict[Node, List[Hop]], hop: Hop) -> None:
    """Record ``hop`` as the latest improvement of its receiver; within
    one time unit only the last improvement is kept."""
    history = hops_of.setdefault(hop[1], [])
    if history and history[-1][2] == hop[2]:
        history[-1] = hop
    else:
        history.append(hop)


def _rebuild_through_time(
    hops_of: Dict[Node, List[Hop]], source: Node, target: Node
) -> Journey:
    """Walk back from ``target``, each step taking the predecessor's
    last hop at or before the current hop's label.

    ``hops_of[node]`` lists the hop of each time unit in which the node
    improved, in time order.  Reading the predecessor as of the hop's
    label is what keeps the rebuilt labels non-decreasing: a later
    improvement of an upstream node is not the state the hop used.
    """
    hops: List[Hop] = []
    node, bound = target, math.inf
    while node != source:
        hop = next(h for h in reversed(hops_of[node]) if h[2] <= bound)
        hops.append(hop)
        node, bound = hop[0], hop[2]
    hops.reverse()
    return Journey(source=source, hops=tuple(hops))


def _most_reliable_over(
    contacts: List[Tuple[int, Node, Node, float]],
    source: Node,
    target: Node,
    start: int,
) -> Optional[Tuple[Journey, float]]:
    """The reliability DP over an explicit (time, u, v, w) contact list.

    One pass over the time groups; within a group the values close
    under same-unit chaining by a fixpoint sweep (max is idempotent).
    Each node keeps the hop of every time unit in which it improved, so
    the journey is rebuilt through the states the DP actually chained.
    """
    best: Dict[Node, float] = {source: 1.0}
    hops_of: Dict[Node, List[Hop]] = {}
    index = 0
    n = len(contacts)
    while index < n:
        time = contacts[index][0]
        group = []
        while index < n and contacts[index][0] == time:
            group.append(contacts[index])
            index += 1
        if time < start:
            continue
        changed = True
        while changed:
            changed = False
            for _, u, v, weight in group:
                _check_reliability(weight)
                for a, b in ((u, v), (v, u)):
                    candidate = best.get(a, 0.0) * weight
                    if candidate > best.get(b, 0.0) + 1e-15:
                        best[b] = candidate
                        _note_hop(hops_of, (a, b, time))
                        changed = True
    if source == target:
        return Journey(source=source, hops=()), 1.0
    if target not in hops_of:
        return None
    return _rebuild_through_time(hops_of, source, target), best[target]


def most_reliable_journey(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Tuple[Journey, float]]:
    """Maximise the product of contact reliabilities along a journey.

    Weights must lie in (0, 1].  Returns (journey, reliability) or
    ``None`` when unreachable.  DP over time: best[node] = highest
    success probability of holding the message by the current label,
    with same-unit chaining handled by per-unit fixpoint (max is
    idempotent).  The DP reads the frozen index's cached pre-sorted
    weighted contact list instead of rebuilding it per call.
    """
    for node in (source, target):
        if not eg.has_node(node):
            raise NodeNotFoundError(node)
    return _most_reliable_over(
        eg.frozen().weighted_contacts(), source, target, start
    )


def most_reliable_journey_reference(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Tuple[Journey, float]]:
    """Ground truth by a different method: per time unit, a max-product
    Dijkstra over that unit's contacts, seeded with every node's value
    so far (weights ≤ 1, so a product never grows along a path).

    Agrees with :func:`most_reliable_journey` on the value; on ties the
    two may return different journeys of that value.
    """
    for node in (source, target):
        if not eg.has_node(node):
            raise NodeNotFoundError(node)
    by_time: Dict[int, List[Tuple[Node, Node, float]]] = {}
    for time, u, v in eg.all_contacts():
        if time >= start:
            by_time.setdefault(time, []).append((u, v, eg.weight(u, v, time)))
    value: Dict[Node, float] = {source: 1.0}
    hops_of: Dict[Node, List[Hop]] = {}
    for time in sorted(by_time):
        adjacency: Dict[Node, List[Tuple[Node, float]]] = {}
        for u, v, weight in by_time[time]:
            _check_reliability(weight)
            adjacency.setdefault(u, []).append((v, weight))
            adjacency.setdefault(v, []).append((u, weight))
        heap = [(-value[node], repr(node), node) for node in adjacency if node in value]
        heapq.heapify(heap)
        done: Set[Node] = set()
        while heap:
            negative, _, a = heapq.heappop(heap)
            if a in done or -negative < value[a]:
                continue
            done.add(a)
            for b, weight in adjacency[a]:
                candidate = value[a] * weight
                if b not in done and candidate > value.get(b, 0.0):
                    value[b] = candidate
                    _note_hop(hops_of, (a, b, time))
                    heapq.heappush(heap, (-candidate, repr(b), b))
    if source == target:
        return Journey(source=source, hops=()), 1.0
    if target not in hops_of:
        return None
    return _rebuild_through_time(hops_of, source, target), value[target]


def max_bandwidth_journey(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Tuple[Journey, float]]:
    """Maximise the bottleneck (minimum) weight along a journey.

    Search over the distinct weight values: the best bottleneck is the
    largest threshold for which the subgraph of contacts with weight ≥
    threshold still temporally connects source to target.  Each
    candidate is tested by one masked vectorized reachability scan of
    the frozen contact index; the filtered graph (and its journey) is
    built only once, for the winning threshold.
    """
    from repro.temporal.journeys import earliest_completion_journey

    for node in (source, target):
        if not eg.has_node(node):
            raise NodeNotFoundError(node)
    if source == target:
        return Journey(source=source, hops=()), math.inf
    fc = eg.frozen()
    source_idx = fc.index_of(source)
    target_idx = fc.index_of(target)
    contacts = fc.weighted_contacts()
    thresholds = sorted({weight for _, _, _, weight in contacts}, reverse=True)
    for threshold in thresholds:
        if not fc.reaches(source_idx, target_idx, start, threshold):
            continue
        filtered = EvolvingGraph(horizon=eg.horizon, nodes=eg.nodes())
        for time, u, v, weight in contacts:
            if weight >= threshold:
                filtered.add_contact(u, v, time, weight)
        journey = earliest_completion_journey(filtered, source, target, start)
        if journey is not None and (journey.hops or source == target):
            return journey, threshold
    return None


def max_bandwidth_journey_reference(
    eg: EvolvingGraph, source: Node, target: Node, start: int = 0
) -> Optional[Tuple[Journey, float]]:
    """One filtered graph + journey per threshold: ground truth."""
    from repro.temporal.journeys import earliest_completion_journey

    for node in (source, target):
        if not eg.has_node(node):
            raise NodeNotFoundError(node)
    if source == target:
        return Journey(source=source, hops=()), math.inf

    contacts = [
        (time, u, v, eg.weight(u, v, time))
        for time, u, v in eg.all_contacts()
    ]
    thresholds = sorted({weight for _, _, _, weight in contacts}, reverse=True)
    for threshold in thresholds:
        filtered = EvolvingGraph(horizon=eg.horizon, nodes=eg.nodes())
        for time, u, v, weight in contacts:
            if weight >= threshold:
                filtered.add_contact(u, v, time, weight)
        journey = earliest_completion_journey(filtered, source, target, start)
        if journey is not None and (journey.hops or source == target):
            return journey, threshold
    return None


def journey_bottleneck(eg: EvolvingGraph, journey: Journey) -> float:
    """The minimum weight along a journey (inf for the empty journey)."""
    if not journey.hops:
        return math.inf
    return min(eg.weight(u, v, t) for u, v, t in journey.hops)
