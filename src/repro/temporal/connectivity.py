"""Time-sensitive connectivity of time-evolving graphs (Sec. II-B).

The paper's convention: vertex u is *connected to* v at time unit i if a
journey u →* v exists whose first edge label is ≥ i.  Note connectivity
over time is **not symmetric** — in Fig. 2, A is connected to C at time
units 0..4 while the two are never connected within a single snapshot.

This module provides reachability sets, the per-pair set of feasible
starting times, whole-network time-i-connectivity (the precondition of
the trimming rule in Sec. III-A), and the *dynamic diameter* — the
flooding time, extending "diameter" to the temporal setting.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import NodeNotFoundError
from repro.temporal.evolving import EvolvingGraph
from repro.temporal.journeys import earliest_arrival, earliest_arrival_reference

Node = Hashable


def is_connected_at(eg: EvolvingGraph, u: Node, v: Node, start: int) -> bool:
    """True iff a journey u →* v exists with first label >= ``start``."""
    if not eg.has_node(v):
        raise NodeNotFoundError(v)
    return v in earliest_arrival(eg, u, start)


def reachable_set(eg: EvolvingGraph, source: Node, start: int = 0) -> Set[Node]:
    """All nodes connected from ``source`` at starting time ``start``."""
    return set(earliest_arrival(eg, source, start))


def connection_start_times(eg: EvolvingGraph, u: Node, v: Node) -> List[int]:
    """All starting time units i at which u is connected to v.

    For the paper's Fig. 2, ``connection_start_times(eg, "A", "C")``
    is ``[0, 1, 2, 3, 4]``.
    """
    if not eg.has_node(u):
        raise NodeNotFoundError(u)
    if not eg.has_node(v):
        raise NodeNotFoundError(v)
    return [
        start for start in range(eg.horizon) if is_connected_at(eg, u, v, start)
    ]


def is_time_i_connected(eg: EvolvingGraph, start: int) -> bool:
    """True iff every ordered pair of nodes is connected at time ``start``.

    This is the property the Sec. III-A trimming rule preserves: "if the
    network is time-i-connected, it remains connected after using the
    trimming rule".  Every source floods in one bit-parallel batched
    scan of the frozen contact index instead of one scan per source.
    """
    _, reached = eg.frozen().flooding_stats(start)
    return bool((reached == eg.num_nodes).all())


def is_time_i_connected_reference(eg: EvolvingGraph, start: int) -> bool:
    """One reference arrival scan per source: the ground truth."""
    nodes = list(eg.nodes())
    for source in nodes:
        if len(earliest_arrival_reference(eg, source, start)) != len(nodes):
            return False
    return True


def snapshot_connected_pairs(eg: EvolvingGraph, time: int) -> Set[Tuple[Node, Node]]:
    """Unordered pairs connected *within* snapshot G_time (no storage)."""
    from repro.graphs.traversal import connected_components

    snapshot = eg.snapshot(time)
    pairs: Set[Tuple[Node, Node]] = set()
    for component in connected_components(snapshot):
        members = sorted(component, key=repr)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.add((a, b))
    return pairs


def ever_snapshot_connected(eg: EvolvingGraph, u: Node, v: Node) -> bool:
    """True iff u and v lie in one component of *some* single snapshot.

    Fig. 2's point: this can be False while carry-store-forward routing
    still delivers (A and C).
    """
    from repro.graphs.traversal import connected_components

    for time in range(eg.horizon):
        for component in connected_components(eg.snapshot(time)):
            if u in component and v in component:
                return True
    return False


def flooding_time(eg: EvolvingGraph, source: Node, start: int = 0) -> Optional[int]:
    """Time units until a flood from ``source`` covers every node.

    Returns ``latest earliest-arrival - start`` when all nodes are
    reached, else ``None``.  This is the per-source component of the
    dynamic diameter.  (``earliest_arrival`` runs the frozen
    single-scan kernel.)
    """
    arrival = earliest_arrival(eg, source, start)
    if len(arrival) != eg.num_nodes:
        return None
    latest = max(arrival.values())
    return latest - start


def flooding_time_reference(
    eg: EvolvingGraph, source: Node, start: int = 0
) -> Optional[int]:
    """Flooding time over the reference arrival scan: ground truth."""
    arrival = earliest_arrival_reference(eg, source, start)
    if len(arrival) != eg.num_nodes:
        return None
    latest = max(arrival.values())
    return latest - start


def temporal_eccentricities(
    eg: EvolvingGraph, start: int = 0
) -> Dict[Node, Optional[int]]:
    """Temporal eccentricity (flooding time) of *every* node at once.

    One bit-parallel batched scan of the contact index covers all
    sources together — the multi-source kernel behind
    :func:`dynamic_diameter` — instead of one full per-source scan
    each.  ``None`` where a flood never completes.
    """
    fc = eg.frozen()
    latest, reached = fc.flooding_stats(start)
    n = eg.num_nodes
    return {
        node: int(latest[i]) - start if int(reached[i]) == n else None
        for i, node in enumerate(fc.node_list)
    }


def dynamic_diameter(eg: EvolvingGraph, start: int = 0) -> Optional[int]:
    """The dynamic diameter: worst-case flooding time over all sources.

    The paper: "diameter [extends] to dynamic diameter (which is
    flooding time)".  ``None`` when some flood never completes.
    """
    worst = 0
    for time in temporal_eccentricities(eg, start).values():
        if time is None:
            return None
        worst = max(worst, time)
    return worst


def dynamic_diameter_reference(eg: EvolvingGraph, start: int = 0) -> Optional[int]:
    """One reference flood per source: the ground truth."""
    worst = 0
    for source in eg.nodes():
        time = flooding_time_reference(eg, source, start)
        if time is None:
            return None
        worst = max(worst, time)
    return worst


def temporal_eccentricity(
    eg: EvolvingGraph, source: Node, start: int = 0
) -> Optional[int]:
    """Max temporal distance from ``source``; ``None`` if not all reached."""
    return flooding_time(eg, source, start)
