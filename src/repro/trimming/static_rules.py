"""Static trimming of time-evolving graphs (Sec. III-A).

The paper's trimming rule on an evolving graph EG, using local (2-hop)
information:

    node u can be trimmed if for any path w --i--> u --j--> v with
    i <= j there is another path (a *replacement path*)
    w --i'--> u_1 -> ... -> u_k --j'--> v such that i <= i' and j' <= j.

Only the first- and last-hop labels of the two paths are compared (the
replacement must itself be a valid journey, so its internal labels are
non-decreasing).  Replacing "later departure, earlier arrival" paths
preserves the earliest completion time of any journey through u —
:mod:`repro.core.properties` verifies this, and trimming preserves
time-i-connectivity.

To avoid circular replacement, each node u carries a distinct priority
p(u) and may only be trimmed if every intermediate node of the
replacement path has *higher* priority.  The paper suggests ID, degree
or betweenness priorities; all three are provided.

Refinements implemented, as the paper lists them:

* **hop-bounded rule** — replacement paths with at most one
  intermediate node, preserving minimum hop counts too;
* **link replacement rule** — remove a single link (or a single label
  of a link) instead of a whole node;
* "A can ignore neighbor D" — the per-node link-ignoring predicate.

How the rules are decided.  Taken literally, the node rule asks one
journey question per quadruple (w, v, i, j).  Two facts collapse that
to one search per (w, i):

* a replacement that arrives by j also serves every larger j, so for
  each other neighbor v only jmin(v, i) — the smallest label of (u, v)
  that is >= i — matters, and a v with no such label constrains
  nothing;
* one time-ordered (foremost-journey) search from w, leaving at time
  >= i, answers all the v at once.  It pops states in order of
  (arrival, intermediates), so it returns False as soon as a popped
  arrival passes the deadline of a target not yet reached, and True
  once every target is met.  Each node keeps the fewest intermediates
  it was expanded with; intermediates are counted only under
  ``max_intermediates``, so without a bound each node is expanded once,
  at its earliest arrival.

The avoid rules are the reference's: u (for the link rule, the link
{u, d}) and w are never intermediates, an intermediate must outrank
p(u) (p(d)), and a target counts as reached before that filter.
``node_trimmable_reference`` and ``link_ignorable_reference`` keep the
one-search-per-quadruple loops as the test oracle; verdicts are equal.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import NodeNotFoundError
from repro.graphs.metrics import betweenness_centrality
from repro.temporal.evolving import EvolvingGraph

Node = Hashable
Priority = Callable[[Node], float]


def id_priority(eg: EvolvingGraph) -> Dict[Node, float]:
    """Distinct priorities by node ID: later in sort order = higher.

    Matches the paper's example ordering p(A) > p(B) > p(C) > ... when
    IDs are reverse-alphabetical ranks, so we map the *smallest* repr to
    the *highest* priority, as in "based on node IDs".
    """
    ordered = sorted(eg.nodes(), key=repr)
    n = len(ordered)
    return {node: float(n - index) for index, node in enumerate(ordered)}


def degree_priority(eg: EvolvingGraph) -> Dict[Node, float]:
    """Footprint-degree priority with ID tie-breaking (strategic nodes last)."""
    ordered = sorted(eg.nodes(), key=repr)
    n = len(ordered)
    return {
        node: len(eg.neighbors(node)) + (n - index) / (n + 1.0)
        for index, node in enumerate(ordered)
    }


def betweenness_priority(eg: EvolvingGraph) -> Dict[Node, float]:
    """Footprint-betweenness priority with ID tie-breaking."""
    centrality = betweenness_centrality(eg.footprint())
    ordered = sorted(eg.nodes(), key=repr)
    n = len(ordered)
    return {
        node: centrality[node] + (n - index) / (n + 1.0) * 1e-9
        for index, node in enumerate(ordered)
    }


def _replacement_exists(
    eg: EvolvingGraph,
    w: Node,
    v: Node,
    first_label: int,
    last_label: int,
    forbidden_nodes: Set[Node],
    forbidden_links: Set[frozenset],
    min_intermediate_priority: Optional[float],
    priorities: Optional[Dict[Node, float]],
    max_intermediates: Optional[int],
) -> bool:
    """Is there a journey w →* v with first label >= first_label, last
    label <= last_label, avoiding ``forbidden_nodes``/``forbidden_links``,
    whose intermediate nodes all have priority > min_intermediate_priority
    and number at most ``max_intermediates``?

    Search over states (node, arrival_time, hops) by a time-ordered
    relaxation: we track the earliest arrival per (node, hops_used)
    because an earlier arrival dominates.
    """
    # best[node][hops] = earliest arrival time
    limit = max_intermediates + 1 if max_intermediates is not None else eg.num_nodes
    best: Dict[Node, Dict[int, int]] = {w: {0: first_label}}
    frontier: List[Tuple[Node, int, int]] = [(w, first_label, 0)]
    while frontier:
        next_frontier: List[Tuple[Node, int, int]] = []
        for node, ready, hops in frontier:
            if hops > limit:
                continue
            for time, neighbor in eg.contacts_from(node, not_before=ready):
                if node == w and time < first_label:
                    continue
                if time > last_label:
                    break
                if frozenset((node, neighbor)) in forbidden_links:
                    continue
                if neighbor == v:
                    return True
                if neighbor in forbidden_nodes or neighbor == w:
                    continue
                if (
                    min_intermediate_priority is not None
                    and priorities is not None
                    and priorities[neighbor] <= min_intermediate_priority
                ):
                    continue
                new_hops = hops + 1
                if max_intermediates is not None and new_hops > max_intermediates:
                    continue
                by_hops = best.setdefault(neighbor, {})
                existing = by_hops.get(new_hops)
                if existing is not None and existing <= time:
                    continue
                # Dominance: any fewer-hop earlier arrival also covers this.
                if any(
                    h <= new_hops and t <= time for h, t in by_hops.items()
                ):
                    continue
                by_hops[new_hops] = time
                next_frontier.append((neighbor, time, new_hops))
        frontier = next_frontier
    return False


def node_trimmable_reference(
    eg: EvolvingGraph,
    u: Node,
    priorities: Optional[Dict[Node, float]] = None,
    max_intermediates: Optional[int] = None,
) -> bool:
    """The paper's node replacement rule.

    ``u`` is trimmable iff for *every* 2-hop path w --i--> u --j--> v
    (w ≠ v neighbors of u, i <= j) a replacement journey exists from w
    to v avoiding u, with first label >= i, last label <= j, and all
    intermediate nodes of priority > p(u) (when priorities are given).
    ``max_intermediates=1`` yields the hop-preserving refinement.
    """
    if not eg.has_node(u):
        raise NodeNotFoundError(u)
    neighbors = sorted(eg.neighbors(u), key=repr)
    u_priority = priorities[u] if priorities is not None else None
    for w in neighbors:
        labels_in = sorted(eg.labels(w, u))
        for v in neighbors:
            if v == w:
                continue
            labels_out = sorted(eg.labels(u, v))
            for i in labels_in:
                for j in labels_out:
                    if i > j:
                        continue
                    if not _replacement_exists(
                        eg,
                        w,
                        v,
                        first_label=i,
                        last_label=j,
                        forbidden_nodes={u},
                        forbidden_links=set(),
                        min_intermediate_priority=u_priority,
                        priorities=priorities,
                        max_intermediates=max_intermediates,
                    ):
                        return False
    return True


def link_ignorable_reference(
    eg: EvolvingGraph,
    u: Node,
    d: Node,
    priorities: Optional[Dict[Node, float]] = None,
    max_intermediates: Optional[int] = None,
) -> bool:
    """Can node ``u`` ignore its neighbor ``d`` (the link u–d)?

    The link replacement rule, refined from the node rule: for every
    2-hop path u --i--> d --j--> v (i <= j, v ≠ u), a replacement
    journey u →* v must exist that avoids the link (u, d), with first
    label >= i and last label <= j.  Priorities compare against p(d):
    intermediates must outrank the ignored neighbor.

    In the paper's Fig. 2, A can ignore neighbor D because every
    A → D → C path (e.g. A --3--> D --6--> C) is replaced by an
    A → B → C path (e.g. A --4--> B --5--> C).
    """
    if not eg.has_node(u):
        raise NodeNotFoundError(u)
    if not eg.has_node(d):
        raise NodeNotFoundError(d)
    labels_first = sorted(eg.labels(u, d))
    d_priority = priorities[d] if priorities is not None else None
    for v in sorted(eg.neighbors(d), key=repr):
        if v == u:
            continue
        labels_out = sorted(eg.labels(d, v))
        for i in labels_first:
            for j in labels_out:
                if i > j:
                    continue
                if not _replacement_exists(
                    eg,
                    u,
                    v,
                    first_label=i,
                    last_label=j,
                    forbidden_nodes=set(),
                    forbidden_links={frozenset((u, d))},
                    min_intermediate_priority=d_priority,
                    priorities=priorities,
                    max_intermediates=max_intermediates,
                ):
                    return False
    return True


def _first_labels_at_or_after(
    labels: Dict[Node, List[int]], i: int, skip: Node
) -> Dict[Node, int]:
    """jmin(v, i): each v's smallest label >= i (v without one is absent)."""
    deadlines: Dict[Node, int] = {}
    for v, times in labels.items():
        if v != skip:
            k = bisect_left(times, i)
            if k < len(times):
                deadlines[v] = times[k]
    return deadlines


def _deadlines_met(
    eg: EvolvingGraph,
    start: Node,
    depart: int,
    deadlines: Dict[Node, int],
    eligible: Set[Node],
    first_hop_avoid: Node,
    max_intermediates: Optional[int],
) -> bool:
    """Does one journey from ``start`` (first label >= ``depart``) reach
    every target in ``deadlines`` by its deadline?

    Intermediates are drawn from ``eligible``; ``start`` may not contact
    ``first_hop_avoid`` directly (the link rule's ignored link; the node
    rule passes the trimmed node, which is not eligible anyway).  The
    search pops states in (arrival, intermediates) order, so a popped
    arrival later than an unmet deadline proves that target unreachable
    in time.  A node is expanded only with fewer intermediates than any
    earlier (hence no later) expansion of it; without a hop bound every
    node counts 0 and is expanded once, at its earliest arrival.
    """
    pending = dict(deadlines)
    by_deadline = sorted(pending.items(), key=itemgetter(1))
    lo, hi = 0, len(by_deadline) - 1
    bounded = max_intermediates is not None
    settled: Dict[Node, int] = {}
    pushed: Dict[Hashable, int] = {} if bounded else {start: depart}
    heap: List[Tuple[int, int, int, Node]] = [(depart, 0, 0, start)]
    sequence = 1
    while heap:
        time, hops, _, node = heappop(heap)
        while by_deadline[lo][0] not in pending:
            lo += 1
        if time > by_deadline[lo][1]:
            return False
        if settled.get(node, hops + 1) <= hops:
            continue
        settled[node] = hops
        while by_deadline[hi][0] not in pending:
            hi -= 1
        cap = by_deadline[hi][1]
        times, pairs = eg.contact_index(node)
        for index in range(bisect_left(times, time), len(times)):
            arrival, other = pairs[index]
            if arrival > cap:
                break
            deadline = pending.get(other)
            if deadline is not None and arrival <= deadline:
                del pending[other]
                if not pending:
                    return True
            if other not in eligible or (other == first_hop_avoid and node == start):
                continue
            if bounded:
                next_hops = hops + 1
                if next_hops > max_intermediates:
                    continue
                if settled.get(other, next_hops + 1) <= next_hops:
                    continue
                key: Hashable = (other, next_hops)
            else:
                next_hops, key = 0, other
            if arrival >= pushed.get(key, arrival + 1):
                continue
            pushed[key] = arrival
            heappush(heap, (arrival, next_hops, sequence, other))
            sequence += 1
    return False


def _intermediates(
    eg: EvolvingGraph, priorities: Optional[Dict[Node, float]], floor_node: Node
) -> Set[Node]:
    """Nodes that outrank ``floor_node`` (every node without priorities)."""
    if priorities is None:
        return set(eg.nodes())
    floor = priorities[floor_node]
    return {node for node in eg.nodes() if priorities[node] > floor}


def node_trimmable(
    eg: EvolvingGraph,
    u: Node,
    priorities: Optional[Dict[Node, float]] = None,
    max_intermediates: Optional[int] = None,
) -> bool:
    """The paper's node replacement rule.

    ``u`` is trimmable iff for *every* 2-hop path w --i--> u --j--> v
    (w ≠ v neighbors of u, i <= j) a replacement journey exists from w
    to v avoiding u, with first label >= i, last label <= j, and all
    intermediate nodes of priority > p(u) (when priorities are given).
    ``max_intermediates=1`` yields the hop-preserving refinement.

    One :func:`_deadlines_met` search per (w, i) decides every v and j
    at once (see the module docstring); :func:`node_trimmable_reference`
    keeps the one-search-per-(w, v, i, j) loop as the test oracle.
    """
    if not eg.has_node(u):
        raise NodeNotFoundError(u)
    labels = {v: sorted(eg.labels(u, v)) for v in sorted(eg.neighbors(u), key=repr)}
    eligible = _intermediates(eg, priorities, u)
    eligible.discard(u)
    for w, labels_in in labels.items():
        for i in labels_in:
            deadlines = _first_labels_at_or_after(labels, i, skip=w)
            if deadlines and not _deadlines_met(
                eg, w, i, deadlines, eligible, u, max_intermediates
            ):
                return False
    return True


def link_ignorable(
    eg: EvolvingGraph,
    u: Node,
    d: Node,
    priorities: Optional[Dict[Node, float]] = None,
    max_intermediates: Optional[int] = None,
) -> bool:
    """Can node ``u`` ignore its neighbor ``d`` (the link u–d)?

    The link replacement rule, refined from the node rule: for every
    2-hop path u --i--> d --j--> v (i <= j, v ≠ u), a replacement
    journey u →* v must exist that avoids the link (u, d), with first
    label >= i and last label <= j.  Priorities compare against p(d):
    intermediates must outrank the ignored neighbor.

    In the paper's Fig. 2, A can ignore neighbor D because every
    A → D → C path (e.g. A --3--> D --6--> C) is replaced by an
    A → B → C path (e.g. A --4--> B --5--> C).

    One :func:`_deadlines_met` search per label i of (u, d);
    :func:`link_ignorable_reference` is the per-quadruple oracle.
    """
    if not eg.has_node(u):
        raise NodeNotFoundError(u)
    if not eg.has_node(d):
        raise NodeNotFoundError(d)
    labels = {v: sorted(eg.labels(d, v)) for v in sorted(eg.neighbors(d), key=repr)}
    eligible = _intermediates(eg, priorities, d)
    for i in sorted(eg.labels(u, d)):
        deadlines = _first_labels_at_or_after(labels, i, skip=u)
        if deadlines and not _deadlines_met(
            eg, u, i, deadlines, eligible, d, max_intermediates
        ):
            return False
    return True


def trim_nodes(
    eg: EvolvingGraph,
    priorities: Optional[Dict[Node, float]] = None,
    max_intermediates: Optional[int] = None,
) -> Tuple[EvolvingGraph, List[Node]]:
    """Iteratively remove trimmable nodes, lowest priority first.

    Returns the trimmed evolving graph and the removal order.  With
    distinct priorities the process is deterministic and circular
    replacement is impossible: a node is only removed when its
    replacement paths run through strictly higher-priority survivors.
    """
    if priorities is None:
        priorities = id_priority(eg)
    result = eg.copy()
    removed: List[Node] = []
    changed = True
    while changed:
        changed = False
        candidates = sorted(result.nodes(), key=lambda n: (priorities[n], repr(n)))
        for node in candidates:
            if not result.neighbors(node):
                continue
            if node_trimmable(result, node, priorities, max_intermediates):
                result.remove_node(node)
                removed.append(node)
                changed = True
                break
    return result, removed


def ignorable_links(
    eg: EvolvingGraph,
    priorities: Optional[Dict[Node, float]] = None,
    max_intermediates: Optional[int] = None,
) -> List[Tuple[Node, Node]]:
    """All directed (u, d) pairs where u may ignore neighbor d."""
    if priorities is None:
        priorities = id_priority(eg)
    result: List[Tuple[Node, Node]] = []
    for u in sorted(eg.nodes(), key=repr):
        for d in sorted(eg.neighbors(u), key=repr):
            if link_ignorable(eg, u, d, priorities, max_intermediates):
                result.append((u, d))
    return result
