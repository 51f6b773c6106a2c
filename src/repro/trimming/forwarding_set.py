"""Dynamic trimming: forwarding sets in opportunistic networks (Sec. III-A).

Dynamic trimming is the online version of trimming for a particular
application — routing.  The paper's bus-riding analogy: should a
message board the first contact to arrive (maybe a longer route) or
wait for a later, shorter one?  Three models are implemented, matching
the paper's three citations:

* **fixed-point forwarding sets** ([12], Conan et al.) — single-copy
  routing under exponential inter-contact times; the optimal policy
  forwards to neighbor w iff w's expected delay is below the current
  holder's, and the expected delays satisfy a Dijkstra-like fixed
  point, solved exactly here;
* **time-varying forwarding sets** ([13], TOUR) — when message utility
  decays linearly over time, the optimal forwarding set at a node
  *shrinks over time*; computed by backward induction on the expected
  residual utility, and the shrinkage is verified in tests;
* **copy-varying forwarding sets** — multi-copy delivery minimising
  the first-copy delay; the acceptance set depends on how many copies
  remain, computed exactly by subset value iteration on small networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AlgorithmError, NodeNotFoundError
from repro.observability.tracing import traced

Node = Hashable
Pair = FrozenSet[Node]


def _rate(rates: Mapping[Pair, float], u: Node, v: Node) -> float:
    return float(rates.get(frozenset((u, v)), 0.0))


def _nodes_of(rates: Mapping[Pair, float]) -> Set[Node]:
    nodes: Set[Node] = set()
    for pair in rates:
        nodes |= set(pair)
    return nodes


# ----------------------------------------------------------------------
# fixed-point forwarding sets ([12])
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForwardingPolicy:
    """Optimal single-copy policy: expected delays and forwarding sets."""

    destination: Node
    expected_delay: Dict[Node, float]
    forwarding_sets: Dict[Node, FrozenSet[Node]]

    def should_forward(self, holder: Node, contact: Node) -> bool:
        """Forward on a (holder, contact) meeting iff contact ∈ F(holder)."""
        return contact in self.forwarding_sets.get(holder, frozenset())


@traced("repro.trimming.optimal_forwarding_sets")
def optimal_forwarding_sets(
    rates: Mapping[Pair, float], destination: Node
) -> ForwardingPolicy:
    """Solve the fixed point of single-copy opportunistic routing.

    Pairs meet as independent Poisson processes with the given rates.
    A holder u using forwarding set F waits an Exp(Λ) time,
    Λ = Σ_{w∈F} λ_{uw}, then hands the message to the first arrival:

        D(u) = (1 + Σ_{w∈F} λ_uw · D(w)) / Λ,   D(destination) = 0.

    The optimal F(u) contains exactly the neighbors with D(w) < D(u);
    the delays are computed by a Dijkstra-style greedy that finalises
    nodes in increasing D — each new node's best delay uses only
    already-finalised (smaller-D) relays, mirroring [12].
    Unreachable nodes get D = inf and an empty set.
    """
    nodes = _nodes_of(rates) | {destination}
    delay: Dict[Node, float] = {node: math.inf for node in nodes}
    delay[destination] = 0.0
    finalized: Set[Node] = set()

    def best_delay(u: Node) -> Tuple[float, FrozenSet[Node]]:
        # Greedy over finalised relays sorted by delay: adding relay w
        # helps iff D(w) < current D(u) estimate.
        candidates = sorted(
            (w for w in finalized if _rate(rates, u, w) > 0),
            key=lambda w: delay[w],
        )
        total_rate = 0.0
        weighted = 0.0
        current = math.inf
        chosen: List[Node] = []
        for w in candidates:
            if delay[w] >= current:
                break
            total_rate += _rate(rates, u, w)
            weighted += _rate(rates, u, w) * delay[w]
            current = (1.0 + weighted) / total_rate
            chosen.append(w)
        return current, frozenset(chosen)

    sets: Dict[Node, FrozenSet[Node]] = {node: frozenset() for node in nodes}
    finalized.add(destination)
    pending = set(nodes) - finalized
    while pending:
        best_node = None
        best_value = math.inf
        best_set: FrozenSet[Node] = frozenset()
        for u in sorted(pending, key=repr):
            value, chosen = best_delay(u)
            if value < best_value:
                best_value, best_node, best_set = value, u, chosen
        if best_node is None or math.isinf(best_value):
            break
        delay[best_node] = best_value
        sets[best_node] = best_set
        finalized.add(best_node)
        pending.discard(best_node)
    return ForwardingPolicy(
        destination=destination, expected_delay=delay, forwarding_sets=sets
    )


def simulate_single_copy(
    rates: Mapping[Pair, float],
    source: Node,
    destination: Node,
    policy: str,
    rng: np.random.Generator,
    forwarding: Optional[ForwardingPolicy] = None,
    max_time: float = 1e6,
) -> float:
    """Monte-Carlo delivery time of one message under a policy.

    ``policy`` ∈ {"direct", "first-contact", "forwarding-set"}:
    direct waits for the destination; first-contact hands off on every
    meeting (the impatient bus rider); forwarding-set follows the
    optimal sets.  Returns the delivery time (or ``max_time`` if the
    clock runs out).
    """
    if policy == "forwarding-set" and forwarding is None:
        raise ValueError("forwarding-set policy needs a ForwardingPolicy")
    holder = source
    now = 0.0
    nodes = _nodes_of(rates) | {destination, source}
    while now < max_time:
        if holder == destination:
            return now
        partners = [
            (w, _rate(rates, holder, w)) for w in nodes
            if w != holder and _rate(rates, holder, w) > 0
        ]
        if not partners:
            return max_time
        total = sum(rate for _, rate in partners)
        now += float(rng.exponential(1.0 / total))
        pick = rng.random() * total
        cumulative = 0.0
        contact = partners[-1][0]
        for w, rate in partners:
            cumulative += rate
            if pick <= cumulative:
                contact = w
                break
        if contact == destination:
            return now
        if policy == "direct":
            continue
        if policy == "first-contact":
            holder = contact
        elif policy == "forwarding-set":
            assert forwarding is not None
            if forwarding.should_forward(holder, contact):
                holder = contact
        else:
            raise ValueError(f"unknown policy {policy!r}")
    return max_time


# ----------------------------------------------------------------------
# time-varying forwarding sets under utility decay ([13], TOUR)
# ----------------------------------------------------------------------

class TimeVaryingForwardingSets:
    """Optimal forwarding under linearly decaying utility ([13], TOUR).

    A message created at time 0 has utility ``u0 - beta * t`` when
    delivered at time t (0 once expired); handing the message to a
    relay costs ``cost`` (transmission expenditure).  ``value(u, t)``
    is the expected net utility-to-go when node u holds the message at
    time t; computed by backward induction on a grid of step ``dt``:

        V_u(t − dt) = V_u(t) + dt · Σ_w λ_uw · max(0, V_w(t) − V_u(t) − cost)

    with V_dest(t) = max(u0 − beta·t, 0) (delivery is instantaneous on
    contact).  The optimal time-varying forwarding set is
    F_u(t) = {w : V_w(t) − V_u(t) > cost}.  With a positive cost the
    utility gaps decay toward the deadline, so — as the paper states —
    the set at an intermediate node *shrinks over time* (verified in
    tests and in the Text-3 benchmark).
    """

    def __init__(
        self,
        rates: Mapping[Pair, float],
        destination: Node,
        u0: float,
        beta: float,
        cost: float = 0.0,
        dt: float = 0.01,
    ) -> None:
        if u0 <= 0:
            raise ValueError(f"u0 must be positive, got {u0}")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.rates = dict(rates)
        self.destination = destination
        self.u0 = float(u0)
        self.beta = float(beta)
        self.cost = float(cost)
        self.dt = float(dt)
        self.deadline = self.u0 / self.beta
        self.nodes = sorted(_nodes_of(rates) | {destination}, key=repr)
        self._index = {node: i for i, node in enumerate(self.nodes)}
        self._steps = int(math.ceil(self.deadline / self.dt)) + 1
        self._grid = np.zeros((self._steps, len(self.nodes)))
        self._solve()

    def _solve(self) -> None:
        dest = self._index[self.destination]
        times = np.arange(self._steps) * self.dt
        # Terminal condition: at the deadline utility is zero everywhere.
        self._grid[-1, :] = 0.0
        self._grid[:, dest] = np.maximum(self.u0 - self.beta * times, 0.0)
        rate_matrix = np.zeros((len(self.nodes), len(self.nodes)))
        for pair, rate in self.rates.items():
            members = tuple(pair)
            if len(members) != 2:
                continue
            i, j = self._index[members[0]], self._index[members[1]]
            rate_matrix[i, j] = rate
            rate_matrix[j, i] = rate
        for step in range(self._steps - 2, -1, -1):
            future = self._grid[step + 1]
            gain = np.maximum(future[None, :] - future[:, None] - self.cost, 0.0)
            drift = (rate_matrix * gain).sum(axis=1)
            updated = future + self.dt * drift
            updated[dest] = self._grid[step, dest]
            self._grid[step] = np.minimum(updated, self.u0)

    def value(self, node: Node, t: float) -> float:
        """Expected utility-to-go of the message at ``node`` at time t."""
        if node not in self._index:
            raise NodeNotFoundError(node)
        if t >= self.deadline:
            return 0.0
        step = min(int(t / self.dt), self._steps - 1)
        return float(self._grid[step, self._index[node]])

    def forwarding_set(self, node: Node, t: float) -> FrozenSet[Node]:
        """F_node(t): neighbors whose utility gain exceeds the cost."""
        own = self.value(node, t)
        members = []
        for other in self.nodes:
            if other == node or _rate(self.rates, node, other) <= 0:
                continue
            if self.value(other, t) - own > self.cost + 1e-12:
                members.append(other)
        return frozenset(members)


# ----------------------------------------------------------------------
# copy-varying forwarding sets (multi-copy first-delivery)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CopyVaryingPolicy:
    """Exact multi-copy policy on a small network.

    ``expected_delay[S]`` is the optimal expected first-copy delivery
    time when the copy-holder set is S (|S| <= budget);
    ``acceptance[S]`` is the set of nodes worth replicating to from S.
    """

    destination: Node
    budget: int
    expected_delay: Dict[FrozenSet[Node], float]
    acceptance: Dict[FrozenSet[Node], FrozenSet[Node]]

    def forwarding_set(self, holders: FrozenSet[Node]) -> FrozenSet[Node]:
        return self.acceptance.get(holders, frozenset())


@traced("repro.trimming.optimal_copy_varying_sets")
def optimal_copy_varying_sets(
    rates: Mapping[Pair, float],
    destination: Node,
    budget: int,
    max_nodes: int = 14,
) -> CopyVaryingPolicy:
    """Exact value iteration over copy-holder subsets.

    State: the set S of nodes currently holding a copy (destination
    excluded).  Contacts between a holder and the destination deliver;
    contacts between a holder and an outsider w may replicate (if
    |S| < budget and w is *accepted*).  By memorylessness, rejected
    contacts can be ignored, so

        D(S) = (1 + Σ_{w∈A(S)} Λ_w(S)·D(S∪{w})) / (Λ_dest(S) + Σ_{w∈A(S)} Λ_w(S))

    where Λ_w(S) = Σ_{s∈S} λ_sw and the optimal acceptance set A(S) is
    found greedily over candidates sorted by D(S∪{w}) — exactly the
    structure of the single-copy fixed point, lifted to subsets.  The
    acceptance sets demonstrably vary with the number of copies left —
    the paper's "copy-varying" forwarding set.
    """
    nodes = sorted(_nodes_of(rates) | {destination}, key=repr)
    relay_nodes = [node for node in nodes if node != destination]
    if len(relay_nodes) > max_nodes:
        raise AlgorithmError(
            f"exact subset iteration limited to {max_nodes} relay nodes, "
            f"got {len(relay_nodes)}"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    from itertools import combinations

    def dest_rate(holders: FrozenSet[Node]) -> float:
        return sum(_rate(rates, s, destination) for s in holders)

    def outsider_rate(holders: FrozenSet[Node], w: Node) -> float:
        return sum(_rate(rates, s, w) for s in holders)

    expected: Dict[FrozenSet[Node], float] = {}
    acceptance: Dict[FrozenSet[Node], FrozenSet[Node]] = {}

    sizes = range(min(budget, len(relay_nodes)), 0, -1)
    for size in sizes:
        for combo in combinations(relay_nodes, size):
            holders = frozenset(combo)
            base_rate = dest_rate(holders)
            if size >= budget:
                expected[holders] = math.inf if base_rate == 0 else 1.0 / base_rate
                acceptance[holders] = frozenset()
                continue
            candidates = []
            for w in relay_nodes:
                if w in holders:
                    continue
                rate_w = outsider_rate(holders, w)
                if rate_w <= 0:
                    continue
                candidates.append((expected[holders | {w}], rate_w, w))
            candidates.sort(key=lambda item: (item[0], repr(item[2])))
            total_rate = base_rate
            weighted = 0.0
            best = math.inf if base_rate == 0 else 1.0 / base_rate
            chosen: List[Node] = []
            for next_delay, rate_w, w in candidates:
                if next_delay >= best:
                    break
                if math.isinf(next_delay):
                    break
                total_rate += rate_w
                weighted += rate_w * next_delay
                best = (1.0 + weighted) / total_rate if total_rate > 0 else math.inf
                chosen.append(w)
            expected[holders] = best
            acceptance[holders] = frozenset(chosen)
    return CopyVaryingPolicy(
        destination=destination,
        budget=budget,
        expected_delay=expected,
        acceptance=acceptance,
    )
