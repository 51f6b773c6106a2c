"""A DTN message-routing simulator over contact traces.

The paper's structures all serve one application family — information
dissemination in disruption-tolerant, socially-rich networks.  This
simulator is the unified evaluation substrate: it replays a contact
trace (an :class:`~repro.temporal.evolving.EvolvingGraph` or a
continuous :class:`~repro.temporal.contacts.ContactTrace`), carries
messages with TTLs through per-node buffers, and delegates every
forwarding decision to a pluggable :class:`Router` (see
:mod:`repro.dtn.routers` for the protocol suite).

Semantics
---------
* contacts are processed in time order; within one time unit a message
  may traverse several contacts (non-decreasing labels, matching
  :mod:`repro.temporal.journeys`);
* on a contact (u, v), each direction is offered: for every message
  held by u and not by v (and vice versa), the router decides
  :class:`Decision` — carry, replicate, or hand over;
* buffers are bounded (optional): a node with a full buffer drops the
  oldest message (FIFO), a standard DTN policy;
* metrics: delivery ratio, mean/percentile latency, transmission
  overhead (copies made per delivered message), and hop counts.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.faults.plan import FaultPlan, FaultSession
from repro.observability import tracing
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import record_dispatch
from repro.temporal.evolving import EvolvingGraph

Node = Hashable


class Decision(enum.Enum):
    """A router's verdict for one (message, contact) encounter."""

    CARRY = "carry"          # do nothing; holder keeps the message
    REPLICATE = "replicate"  # copy to the peer; holder keeps it too
    HANDOVER = "handover"    # give to the peer; holder drops it


@dataclass
class MessageSpec:
    """One message to be routed."""

    identifier: str
    source: Node
    destination: Node
    created: int = 0
    ttl: Optional[int] = None  # time units after creation; None = forever


@dataclass
class MessageState:
    """Mutable per-message simulation state."""

    spec: MessageSpec
    holders: Set[Node] = field(default_factory=set)
    copies_made: int = 0
    hops: int = 0
    delivered_at: Optional[int] = None
    # Router-private annotations, e.g. remaining copy budgets.
    annotations: Dict = field(default_factory=dict)

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    def expired(self, now: int) -> bool:
        ttl = self.spec.ttl
        return ttl is not None and now > self.spec.created + ttl


class Router:
    """Base class: per-protocol forwarding policy.

    Override :meth:`decide`; optionally :meth:`on_create` (initialise
    annotations, e.g. copy budgets) and :meth:`on_contact` (maintain
    protocol state such as PRoPHET predictabilities — called for every
    contact whether or not messages move).

    A router class whose policy is pure (no per-encounter state, no
    annotations) may declare ``fast_path_mode = "epidemic"`` or
    ``"direct"`` *in its own class body* to opt into the simulator's
    bitset fast path; subclasses do not inherit the opt-in (the
    simulator checks the class ``__dict__``), so overriding ``decide``
    in a subclass safely falls back to the general loop.
    """

    name = "base"

    def on_create(self, message: MessageState) -> None:  # pragma: no cover
        """Initialise router-private message annotations."""

    def on_contact(self, u: Node, v: Node, time: int) -> None:
        """Observe a contact (for routers that learn from encounters)."""

    def decide(
        self, message: MessageState, holder: Node, peer: Node, time: int
    ) -> Decision:
        raise NotImplementedError


@dataclass
class DeliveryStats:
    """Aggregated outcome of one simulation run."""

    created: int
    delivered: int
    latencies: List[int]
    copies: List[int]
    hops: List[int]

    @staticmethod
    def _mean(values: Sequence[float], empty: float) -> float:
        """Mean with an explicit degenerate-case value (no division by
        zero on empty-delivery runs)."""
        if not values:
            return empty
        return sum(values) / len(values)

    @property
    def delivery_ratio(self) -> float:
        if self.created <= 0:
            return 0.0
        return self.delivered / self.created

    @property
    def mean_latency(self) -> float:
        # No deliveries: latency is unbounded, not zero.
        return self._mean(self.latencies, empty=math.inf)

    @property
    def mean_copies(self) -> float:
        return self._mean(self.copies, empty=0.0)

    @property
    def mean_hops(self) -> float:
        return self._mean(self.hops, empty=0.0)

    def latency_percentile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be in [0, 1], got {q}")
        if not self.latencies:
            return math.inf
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return float(ordered[index])


class DTNSimulation:
    """Replay a contact trace, routing a batch of messages."""

    def __init__(
        self,
        eg: EvolvingGraph,
        router: Router,
        buffer_size: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
        fast_path: Optional[bool] = None,
    ) -> None:
        if buffer_size is not None and buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        self.eg = eg
        self.router = router
        self.buffer_size = buffer_size
        # None = auto (use the bitset fast path when eligible); False =
        # always the general loop; True = require the fast path (raises
        # when ineligible).
        self.fast_path = fast_path
        self.messages: Dict[str, MessageState] = {}
        # Per-node FIFO buffers: message identifiers in arrival order.
        self._buffers: Dict[Node, List[str]] = {node: [] for node in eg.nodes()}
        self.metrics = registry if registry is not None else MetricsRegistry("dtn")
        self.faults: Optional[FaultSession] = (
            fault_plan.start(registry=self.metrics) if fault_plan is not None else None
        )
        self._down_nodes: Set[Node] = set()
        self._created = self.metrics.counter("repro.dtn.messages_created")
        self._delivered = self.metrics.counter("repro.dtn.delivered")
        self._contacts = self.metrics.counter("repro.dtn.contacts")
        self._replications = self.metrics.counter("repro.dtn.replications")
        self._handovers = self.metrics.counter("repro.dtn.handovers")
        self._drops = self.metrics.counter("repro.dtn.buffer_drops")
        self._latency = self.metrics.histogram("repro.dtn.latency")

    def _buffer_gauge(self, node: Node) -> None:
        self.metrics.gauge("repro.dtn.buffer_occupancy", {"node": node}).set(
            len(self._buffers[node])
        )

    # ------------------------------------------------------------------
    def add_message(self, spec: MessageSpec) -> MessageState:
        if spec.identifier in self.messages:
            raise ValueError(f"duplicate message id {spec.identifier!r}")
        if not self.eg.has_node(spec.source) or not self.eg.has_node(spec.destination):
            raise ValueError("source/destination not in the trace")
        state = MessageState(spec=spec, holders={spec.source})
        self.router.on_create(state)
        self.messages[spec.identifier] = state
        self._created.inc()
        self._buffer_add(spec.source, spec.identifier)
        if spec.source == spec.destination:
            state.delivered_at = spec.created
            self._record_delivery(state)
        return state

    def _record_delivery(self, message: MessageState) -> None:
        self._delivered.inc()
        self._latency.observe(message.delivered_at - message.spec.created)

    def _buffer_add(self, node: Node, identifier: str) -> None:
        buffer = self._buffers[node]
        if identifier in buffer:
            return
        buffer.append(identifier)
        if self.buffer_size is not None and len(buffer) > self.buffer_size:
            evicted = buffer.pop(0)
            self.messages[evicted].holders.discard(node)
            self._drops.inc()
        self._buffer_gauge(node)

    def _buffer_remove(self, node: Node, identifier: str) -> None:
        buffer = self._buffers[node]
        if identifier in buffer:
            buffer.remove(identifier)
            self._buffer_gauge(node)

    # ------------------------------------------------------------------
    def run(self) -> DeliveryStats:
        """Process the whole trace; returns aggregate statistics.

        Under a fault plan, contacts may be lost (link churn or crashed
        endpoints), delayed (shifting the encounter — and hence TTL
        expiry checks — to a later trace time), and individual
        transfers may be dropped or duplicated; see
        :mod:`repro.faults`.

        Fault-free, unbounded-buffer runs under a fast-path-capable
        router (epidemic / direct delivery) take a bitset infection
        front over the frozen contact index instead of the general
        per-message loop; outcomes are identical (see
        ``tests/test_frozen_temporal.py``).
        """
        with tracing.span("dtn.run"):
            fast = self._use_fast_path()
            record_dispatch("dtn.run", "fast" if fast else "reference")
            contacts = self._run_fast() if fast else self._run_general()
            self._contacts.inc(contacts)
        return self.stats()

    def _fast_path_rejections(self) -> List[str]:
        """Why the bitset front cannot model this run (empty = eligible).

        The front only reproduces fault-free, unbounded runs of routers
        whose policy it implements exactly; each violated precondition
        contributes one labeled reason.
        """
        reasons: List[str] = []
        if self.faults is not None:
            reasons.append("fault_session")
        if self.buffer_size is not None:
            reasons.append("bounded_buffer")
        if type(self.router).__dict__.get("fast_path_mode") not in (
            "epidemic",
            "direct",
        ):
            reasons.append("router_mode")
        return reasons

    def _fast_path_eligible(self) -> bool:
        return not self._fast_path_rejections()

    def _record_rejections(self, reasons: List[str]) -> None:
        for reason in reasons:
            self.metrics.counter(
                "repro.dtn.fast_path_rejected", {"reason": reason}
            ).inc()

    def _use_fast_path(self) -> bool:
        if self.fast_path is False:
            self._record_rejections(["disabled"])
            return False
        reasons = self._fast_path_rejections()
        if self.fast_path is True:
            if reasons:
                self._record_rejections(reasons)
                raise ValueError(
                    "fast_path=True requires a fault-free, unbounded-buffer "
                    "run under an epidemic or direct-delivery router"
                )
            return True
        self._record_rejections(reasons)
        return not reasons

    def _run_general(self) -> int:
        """The general per-message loop; returns contacts processed."""
        contacts = 0
        # (effective_time, seq, u, v, fated): a delayed contact
        # re-enters the heap with a later effective time, a fresh
        # sequence number (deterministic order), and fated=True so
        # its drop/delay fate is drawn exactly once — only the
        # crashed-endpoint check repeats at the shifted time.
        heap: List[Tuple[int, int, Node, Node, bool]] = [
            (time, index, u, v, False)
            for index, (time, u, v) in enumerate(self.eg.all_contacts())
        ]
        heapq.heapify(heap)
        seq = len(heap)
        while heap:
            time, _, u, v, fated = heapq.heappop(heap)
            contacts += 1
            if self.faults is not None:
                self._advance_faults(time)
                if u in self._down_nodes or v in self._down_nodes:
                    self.faults.record(
                        "contact_crashed", time,
                        link=tuple(sorted((u, v), key=repr)),
                    )
                    continue
                if not fated:
                    drop, delay = self.faults.contact_fate(time, u, v)
                    if drop:
                        continue
                    if delay:
                        heapq.heappush(heap, (time + delay, seq, u, v, True))
                        seq += 1
                        continue
            self.router.on_contact(u, v, time)
            self._exchange(u, v, time)
            self._exchange(v, u, time)
        return contacts

    def _run_fast(self) -> int:
        """Bitset infection front: one bit per message, bigint per node.

        Contacts are replayed in the exact ``all_contacts`` order (the
        heap order of the general loop when fault-free), each direction
        offered in turn, with a message's activity window
        ``created <= t <= created + ttl`` maintained incrementally.
        Per-message outcomes (holders, delivery time, copies, hops) and
        the run's counters match the general loop exactly; only
        within-one-contact ordering of latency observations and buffer
        appends (unobservable in stats) may differ.
        """
        fc = self.eg.frozen()
        states = list(self.messages.values())  # creation order
        m_count = len(states)
        node_list = fc.node_list
        identifiers = [state.spec.identifier for state in states]
        epidemic = (
            type(self.router).__dict__.get("fast_path_mode") == "epidemic"
        )

        created = [state.spec.created for state in states]
        expiry = [
            state.spec.created + state.spec.ttl
            if state.spec.ttl is not None
            else None
            for state in states
        ]
        dest_bits = [0] * fc.n
        holders = [0] * fc.n
        not_delivered = 0
        for m, state in enumerate(states):
            bit = 1 << m
            dest_bits[fc.index_of(state.spec.destination)] |= bit
            for node in state.holders:
                holders[fc.index_of(node)] |= bit
            if not state.delivered:
                not_delivered |= bit

        starts = sorted(range(m_count), key=lambda m: created[m])
        ends = sorted(
            (m for m in range(m_count) if expiry[m] is not None),
            key=lambda m: expiry[m],
        )
        si = ei = 0
        active = 0
        replications = 0
        delivery_order: List[MessageState] = []
        touched: Set[int] = set()
        prev_time: Optional[int] = None

        def settle(offer: int, holder_idx: int, peer_idx: int, time: int) -> None:
            nonlocal not_delivered, live, replications
            deliver = offer & dest_bits[peer_idx]
            if deliver:
                not_delivered &= ~deliver
                live &= ~deliver
                while deliver:
                    low = deliver & -deliver
                    deliver ^= low
                    state = states[low.bit_length() - 1]
                    state.delivered_at = time
                    delivery_order.append(state)
            if epidemic:
                new = holders[holder_idx] & live & ~holders[peer_idx]
                if new:
                    holders[peer_idx] |= new
                    replications += new.bit_count()
                    touched.add(peer_idx)
                    buffer = self._buffers[node_list[peer_idx]]
                    while new:
                        low = new & -new
                        new ^= low
                        buffer.append(identifiers[low.bit_length() - 1])

        for time, u, v in zip(
            fc.times.tolist(), fc.ua.tolist(), fc.va.tolist()
        ):
            if time != prev_time:
                while si < m_count and created[starts[si]] <= time:
                    active |= 1 << starts[si]
                    si += 1
                while ei < len(ends) and expiry[ends[ei]] < time:
                    active &= ~(1 << ends[ei])
                    ei += 1
                prev_time = time
            live = active & not_delivered
            if not live:
                continue
            offer = holders[u] & live
            if offer:
                settle(offer, u, v, time)
            offer = holders[v] & live
            if offer:
                settle(offer, v, u, time)

        # Reconstruct per-message outcomes from the final front.
        for idx in range(fc.n):
            bits = holders[idx]
            node = node_list[idx]
            while bits:
                low = bits & -bits
                bits ^= low
                states[low.bit_length() - 1].holders.add(node)
        for state in states:
            spread = len(state.holders) - 1
            state.copies_made = spread if epidemic else 0
            state.hops = state.copies_made
        for state in delivery_order:
            state.hops += 1
            self._record_delivery(state)
        if replications:
            self._replications.inc(replications)
        for idx in touched:
            self._buffer_gauge(node_list[idx])
        return fc.num_contacts

    def _advance_faults(self, now: int) -> None:
        """Apply crash/restart/churn schedule entries due by ``now``."""
        for kind, node, lose_state in self.faults.advance_time(now):
            if kind == "crash":
                self._down_nodes.add(node)
                if lose_state and node in self._buffers:
                    lost = list(self._buffers[node])
                    for identifier in lost:
                        self.messages[identifier].holders.discard(node)
                    self._buffers[node].clear()
                    self._buffer_gauge(node)
                    if lost:
                        self.faults.record(
                            "buffer_lost", now, node=node, messages=len(lost)
                        )
            else:  # restart
                self._down_nodes.discard(node)

    def _exchange(self, holder: Node, peer: Node, time: int) -> None:
        for identifier in list(self._buffers[holder]):
            message = self.messages[identifier]
            if message.delivered or message.expired(time):
                continue
            if time < message.spec.created:
                continue
            if holder not in message.holders or peer in message.holders:
                continue
            if peer == message.spec.destination:
                if self.faults is not None:
                    drop, _ = self.faults.transfer_fate(time, identifier, holder, peer)
                    if drop:
                        continue  # the final hop failed; holder keeps it
                message.delivered_at = time
                message.hops += 1
                self._record_delivery(message)
                continue
            decision = self.router.decide(message, holder, peer, time)
            if decision is Decision.CARRY:
                continue
            if self.faults is not None:
                # A failed transfer leaves the holder holding the
                # message even for HANDOVER (send-then-ack semantics);
                # duplicated transfers coalesce in the peer's holder
                # set and are recorded in the ledger only.
                drop, _ = self.faults.transfer_fate(time, identifier, holder, peer)
                if drop:
                    continue
            message.holders.add(peer)
            message.copies_made += decision is Decision.REPLICATE
            message.hops += 1
            if decision is Decision.REPLICATE:
                self._replications.inc()
            else:
                self._handovers.inc()
            self._buffer_add(peer, identifier)
            if decision is Decision.HANDOVER:
                message.holders.discard(holder)
                self._buffer_remove(holder, identifier)

    # ------------------------------------------------------------------
    def stats(self) -> DeliveryStats:
        created = len(self.messages)
        delivered = [m for m in self.messages.values() if m.delivered]
        # Sync the end-of-run sample metrics idempotently: these are
        # rebuilt (not appended) so stats() may be called repeatedly.
        copies_hist = self.metrics.histogram("repro.dtn.copies")
        hops_hist = self.metrics.histogram("repro.dtn.hops")
        copies_hist.values[:] = [m.copies_made + 1 for m in self.messages.values()]
        hops_hist.values[:] = [m.hops for m in delivered]
        self.metrics.gauge("repro.dtn.delivery_ratio").set(
            len(delivered) / created if created else 0.0
        )
        return DeliveryStats(
            created=created,
            delivered=len(delivered),
            latencies=[
                m.delivered_at - m.spec.created for m in delivered
            ],
            copies=list(copies_hist.values),
            hops=list(hops_hist.values),
        )


def run_protocol_comparison(
    eg: EvolvingGraph,
    routers: Sequence[Router],
    specs: Sequence[MessageSpec],
    buffer_size: Optional[int] = None,
) -> Dict[str, DeliveryStats]:
    """Run the same message batch under each router; name → stats."""
    results: Dict[str, DeliveryStats] = {}
    for router in routers:
        simulation = DTNSimulation(eg, router, buffer_size=buffer_size)
        for spec in specs:
            simulation.add_message(
                MessageSpec(
                    identifier=spec.identifier,
                    source=spec.source,
                    destination=spec.destination,
                    created=spec.created,
                    ttl=spec.ttl,
                )
            )
        results[router.name] = simulation.run()
    return results
