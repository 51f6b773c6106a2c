"""Synchronous message-passing runtime for distributed algorithms (Sec. IV).

The paper's distributed solutions all fit one mould: nodes hold local
state and labels, interact only with neighbors in a restricted
vicinity, and collectively achieve a global objective over *rounds*.
This engine realises that mould explicitly:

* each node runs the same :class:`NodeAlgorithm` with access only to
  its own state, its neighbor list, and the messages received this
  round — never the global topology;
* rounds are synchronous: all sends of round r are delivered at round
  r + 1 (the standard LOCAL/CONGEST timing model of the theoretical
  community);
* the engine counts rounds and messages, so complexity claims
  ("MIS in O(log n) rounds", "safety levels in at most n − 1 rounds",
  "O(n²) reversals") become measurable quantities;
* a *localized* solution in the paper's sense is one that converges in
  O(1) rounds — no sequential propagation of information; the engine's
  round counter certifies that too.

Topology changes mid-execution (the paper's dynamic environment) are
supported through :meth:`Network.add_edge` / :meth:`Network.remove_edge`
/ :meth:`Network.add_node`, after which affected algorithms may be
re-activated.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import ConvergenceError, NodeNotFoundError
from repro.faults.plan import FaultPlan, FaultSession
from repro.graphs.graph import Graph
from repro.observability import tracing
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import record_dispatch

Node = Hashable


class Message:
    """A message in flight: sender, receiver and an arbitrary payload.

    A plain class with ``__slots__``, since the engines build one per
    send, that keeps the dataclass contract it replaced: positional or
    keyword construction, field-wise ``==``, no hash, and the same
    ``repr``.
    """

    __slots__ = ("sender", "receiver", "payload")

    def __init__(self, sender: Node, receiver: Node, payload: Any) -> None:
        self.sender = sender
        self.receiver = receiver
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sender, self.receiver, self.payload) == (
            other.sender, other.receiver, other.payload  # type: ignore[attr-defined]
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(sender={self.sender!r}, "
            f"receiver={self.receiver!r}, payload={self.payload!r})"
        )


class NodeContext:
    """What one node may see and do during a round.

    This is the enforcement point for locality: algorithms receive a
    context, not the network, so they can only read their own state,
    their neighbor IDs, and this round's inbox.
    """

    __slots__ = ("node", "neighbors", "state", "inbox", "_outbox", "round_number", "_halted")

    def __init__(
        self,
        node: Node,
        neighbors: Tuple[Node, ...],
        state: Dict[str, Any],
        inbox: List[Message],
        outbox: List[Message],
        round_number: int,
    ) -> None:
        self.node = node
        self.neighbors = neighbors
        self.state = state
        self.inbox = inbox
        self._outbox = outbox
        self.round_number = round_number
        self._halted = False

    def send(self, neighbor: Node, payload: Any) -> None:
        """Queue a message to a direct neighbor (delivered next round)."""
        if neighbor not in self.neighbors:
            raise ValueError(
                f"{self.node!r} tried to message non-neighbor {neighbor!r}"
            )
        self._outbox.append(Message(self.node, neighbor, payload))

    def broadcast(self, payload: Any) -> None:
        """Queue the same payload to every neighbor."""
        node = self.node
        self._outbox.extend([Message(node, neighbor, payload) for neighbor in self.neighbors])

    def halt(self) -> None:
        """Declare this node locally terminated (idempotent).

        A halted node wakes up again if a message arrives or the
        topology around it changes.
        """
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted


class Schedule:
    """The repr-sorted orderings of one topology generation.

    The scalar engines visit nodes, neighborhoods and links in repr
    order, the order fault draws replay in, and those orderings change
    only with the topology.  :meth:`of` returns the schedule for the
    graph's current ``_generation``, rebuilding it after any topology
    mutation (through an engine or on ``engine.graph`` directly): the
    node order and its ``rank`` (node → position) are built once, the
    edge order on first use, and each neighborhood tuple on its node's
    first activation.
    """

    __slots__ = ("_graph", "_generation", "nodes", "rank", "_edges", "_neighbors")

    def __init__(self) -> None:
        self._graph: Optional[Graph] = None
        self._generation = -1
        self.nodes: Tuple[Node, ...] = ()
        self.rank: Dict[Node, int] = {}
        self._edges: Optional[Tuple[Tuple[Node, Node], ...]] = None
        self._neighbors: Dict[Node, Tuple[Node, ...]] = {}

    def of(self, graph: Graph) -> "Schedule":
        """This schedule, brought up to ``graph``'s current generation."""
        if graph is not self._graph or graph._generation != self._generation:
            self._graph = graph
            self._generation = graph._generation
            self.nodes = tuple(sorted(graph.nodes(), key=repr))
            self.rank = {node: position for position, node in enumerate(self.nodes)}
            self._edges = None
            self._neighbors = {}
        return self

    @property
    def edges(self) -> Tuple[Tuple[Node, Node], ...]:
        if self._edges is None:
            self._edges = tuple(sorted(self._graph.edges(), key=repr))
        return self._edges

    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        hood = self._neighbors.get(node)
        if hood is None:
            hood = tuple(sorted(self._graph.neighbors(node), key=repr))
            self._neighbors[node] = hood
        return hood


class NodeAlgorithm:
    """Base class for per-node distributed algorithms.

    Subclasses override :meth:`init` (round 0 setup, may send) and
    :meth:`step` (each subsequent round: read ``ctx.inbox``, update
    ``ctx.state``, send, or ``ctx.halt()``).
    """

    def init(self, ctx: NodeContext) -> None:  # pragma: no cover - default
        """Round-0 initialisation; override to set state and send."""

    def step(self, ctx: NodeContext) -> None:  # pragma: no cover - default
        """One round of computation; override."""
        ctx.halt()

    def on_topology_change(self, ctx: NodeContext) -> None:
        """Called when an incident edge or neighbor changes; default wakes."""


def route_faults(
    faults: FaultSession,
    time: int,
    messages: Sequence[Message],
    attempts: Optional[Sequence[int]] = None,
    needs_fate: Optional[Sequence[bool]] = None,
    crashed: Optional[Set[Node]] = None,
) -> Tuple[List[Message], List[Tuple[int, Message, int]]]:
    """Route one batch of delivery attempts through a fault session.

    ``messages`` is in the caller's deterministic order; ``attempts``
    counts each one's retransmissions so far (all 0 when omitted), and
    ``needs_fate`` marks the ones that draw a fate (all when omitted).
    With ``crashed``, an attempt into a crashed receiver or across a
    down link is lost first (``crash_drop``/``link_drop``); that walk
    is skipped while no node is crashed and no link is down.  The rest
    that need a fate share one :meth:`FaultSession.message_fates` call,
    and every lost attempt one :meth:`FaultSession.retry_due` call.
    Returns ``(delivered, deferrals)``, both in message order: the
    messages to hand over now, one entry per copy, and ``(due,
    message, attempt)`` to retransmit or redeliver later.
    """
    k = len(messages)
    if attempts is None:
        attempts = [0] * k
    senders = [message.sender for message in messages]
    receivers = [message.receiver for message in messages]
    lost = np.zeros(k, dtype=bool)
    if crashed is not None and (crashed or faults.down_links):
        down = faults.down_links
        for i, link in enumerate(zip(senders, receivers)):
            if link[1] in crashed:
                kind = "crash_drop"
            elif link in down:
                kind = "link_drop"
            else:
                continue
            faults.record(kind, time, sender=link[0], receiver=link[1])
            lost[i] = True
    fresh = ~lost
    if needs_fate is not None:
        fresh &= np.asarray(needs_fate, dtype=bool)
    fated = np.flatnonzero(fresh)
    if fated.size == k:
        drop, fated_copies, fated_delay = faults.message_fates(time, senders, receivers)
    else:
        positions = fated.tolist()
        drop, fated_copies, fated_delay = faults.message_fates(
            time, [senders[i] for i in positions], [receivers[i] for i in positions]
        )
    copies = np.where(lost, 0, 1)
    copies[fated] = fated_copies
    lost[fated] = drop
    due = np.full(k, -1, dtype=np.int64)
    due[fated] = np.where(fated_delay > 0, time + fated_delay, -1)
    retried = np.flatnonzero(lost)
    if retried.size:
        positions = retried.tolist()
        due[retried] = faults.retry_due(
            time,
            [senders[i] for i in positions],
            [receivers[i] for i in positions],
            [attempts[i] for i in positions],
        )
    if (copies == 1).all():
        delivered = list(messages)
    else:
        delivered = [messages[i] for i in np.repeat(np.arange(k), copies).tolist()]
    deferred = np.flatnonzero((copies == 0) & (due >= 0)).tolist()
    deferrals = [
        (at, messages[i], attempts[i] + retry)
        for i, at, retry in zip(deferred, due[deferred].tolist(), lost[deferred].tolist())
    ]
    return delivered, deferrals


class RunStats:
    """Accounting of one distributed execution.

    Historically a plain dataclass; now a thin view over a
    :class:`~repro.observability.metrics.MetricsRegistry`, so the
    engine's round/message accounting and the observability snapshot
    are the same numbers by construction.  The constructor signature,
    field names, mutation patterns (``stats.messages_sent += n``,
    ``stats.messages_per_round.append(k)``) and equality semantics of
    the old dataclass are preserved.
    """

    __slots__ = ("_registry", "_rounds", "_messages", "_per_round")

    def __init__(
        self,
        rounds: int = 0,
        messages_sent: int = 0,
        messages_per_round: Optional[List[int]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._registry = registry if registry is not None else MetricsRegistry("runstats")
        self._rounds = self._registry.counter("repro.runtime.rounds")
        self._messages = self._registry.counter("repro.runtime.messages_sent")
        self._per_round = self._registry.histogram("repro.runtime.messages_per_round")
        if rounds:
            self._rounds.set(rounds)
        if messages_sent:
            self._messages.set(messages_sent)
        for count in messages_per_round or ():
            self._per_round.observe(count)

    @property
    def registry(self) -> MetricsRegistry:
        """The backing registry (``repro.runtime.*`` series)."""
        return self._registry

    @property
    def rounds(self) -> int:
        return self._rounds.value

    @rounds.setter
    def rounds(self, value: int) -> None:
        self._rounds.set(value)

    @property
    def messages_sent(self) -> int:
        return self._messages.value

    @messages_sent.setter
    def messages_sent(self, value: int) -> None:
        self._messages.set(value)

    @property
    def messages_per_round(self) -> List[int]:
        # The live histogram sample list: appending to it IS observing.
        return self._per_round.values

    def __repr__(self) -> str:
        return (
            f"RunStats(rounds={self.rounds}, messages_sent={self.messages_sent}, "
            f"messages_per_round={self.messages_per_round})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunStats):
            return NotImplemented
        return (
            self.rounds == other.rounds
            and self.messages_sent == other.messages_sent
            and self.messages_per_round == other.messages_per_round
        )


_NOBODY: frozenset = frozenset()


def run_until_quiescent(
    engine: Any, step: Callable[[], None], max_rounds: int, what: str
) -> RunStats:
    """The run loop of every engine: initialize, then ``step`` until
    ``engine._quiescent()``.

    A run still busy after ``max_rounds`` steps raises
    :class:`~repro.errors.ConvergenceError` labelled ``what``, carrying
    the rounds and messages so far and, under a fault plan, the
    ledger's per-kind event totals.
    """
    engine.initialize()
    for _ in range(max_rounds):
        if engine._quiescent():
            break
        step()
    else:
        if not engine._quiescent():
            raise ConvergenceError(
                what,
                max_rounds,
                rounds_completed=engine.stats.rounds,
                messages_sent=engine.stats.messages_sent,
                fault_events=(
                    engine.faults.summary() if engine.faults is not None else None
                ),
            )
    # A quiescent engine has nothing in flight.
    engine.metrics.gauge("repro.runtime.in_flight").set(0)
    return engine.stats


class EngineCore:
    """What the per-node engines share: a copy of the topology, the node
    table, the fault session and its crash/restart handler.

    Each node has an algorithm instance and a state dict; the live
    nodes that have not halted form the ``_running`` set, so a round
    finds its work without scanning every node.  Time is counted in
    ``_round`` (a round of :class:`Network`, a tick of
    :class:`~repro.runtime.async_engine.AsyncNetwork`).  The crashed
    nodes are the fault session's own
    :attr:`~repro.faults.plan.FaultSession.crashed` set.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Node], NodeAlgorithm],
        registry: Optional[MetricsRegistry],
        fault_plan: Optional[FaultPlan],
        name: str,
    ) -> None:
        self.graph = graph.copy()
        self._factory = algorithm_factory
        self._algorithms: Dict[Node, NodeAlgorithm] = {}
        self._state: Dict[Node, Dict[str, Any]] = {}
        self._running: Set[Node] = set()
        self.metrics = registry if registry is not None else MetricsRegistry(name)
        self.stats = RunStats(registry=self.metrics)
        self._round = 0
        self._initialized = False
        self.faults: Optional[FaultSession] = (
            fault_plan.start(registry=self.metrics) if fault_plan is not None else None
        )
        self._schedule = Schedule()
        for node in self.graph.nodes():
            self._install(node)

    def _install(self, node: Node) -> None:
        self._algorithms[node] = self._factory(node)
        self._state[node] = {}
        self._running.add(node)

    # ------------------------------------------------------------------
    # state access (for the "external observer", i.e. tests/benchmarks)
    # ------------------------------------------------------------------
    def state_of(self, node: Node) -> Dict[str, Any]:
        if node not in self._state:
            raise NodeNotFoundError(node)
        return self._state[node]

    def states(self, key: str, default: Any = None) -> Dict[Node, Any]:
        """Snapshot of one state variable across all nodes."""
        return {node: state.get(key, default) for node, state in self._state.items()}

    def _crashed_nodes(self) -> AbstractSet[Node]:
        return self.faults.crashed if self.faults is not None else _NOBODY

    def all_halted(self) -> bool:
        return self._running <= self._crashed_nodes()

    def _quiescent(self) -> bool:
        """Nothing left to do: every live node halted, no message
        pending, no scheduled fault event ahead."""
        return (
            self.all_halted()
            and not self._messages_pending()
            and (self.faults is None or not self.faults.pending_schedule_after(self._round))
        )

    def _messages_pending(self) -> bool:
        """Whether a message still waits for delivery or a step."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _activate(
        self,
        schedule: Schedule,
        node: Node,
        inbox: List[Message],
        phase: str,
        outbox: List[Message],
    ) -> None:
        """Run one node's ``phase`` (``init``, ``step`` or
        ``on_topology_change``) over ``inbox``, appending its sends to
        ``outbox``."""
        ctx = NodeContext(
            node, schedule.neighbors(node), self._state[node], inbox, outbox, self._round
        )
        getattr(self._algorithms[node], phase)(ctx)
        if ctx._halted:
            self._running.discard(node)
        else:
            self._running.add(node)

    def _apply_fault_events(
        self, schedule: Schedule, time: int, outgoing: List[Message]
    ) -> None:
        """Fire the crash/restart/churn events scheduled for ``time``.

        A crash calls :meth:`_on_crash`; a node restarting with state
        loss gets a fresh algorithm whose ``init`` runs through
        :meth:`_on_restart`, which may leave its sends in ``outgoing``
        for the caller to deliver.
        """
        crashes, restarts = self.faults.begin_round(
            time, nodes=schedule.nodes, edges=schedule.edges
        )
        for node, lose_state in crashes:
            if node in self._algorithms:
                self._on_crash(node)
                if lose_state:
                    self._state[node].clear()
        for node, lose_state in restarts:
            if node not in self._algorithms:
                continue
            self._running.add(node)
            if lose_state:
                self._state[node].clear()
                self._algorithms[node] = self._factory(node)
                self._on_restart(schedule, node, outgoing)

    def _on_crash(self, node: Node) -> None:
        """Drop what a crashed node holds besides its state."""

    def _on_restart(self, schedule: Schedule, node: Node, outgoing: List[Message]) -> None:
        """Run a restarted node's ``init``."""
        raise NotImplementedError


class Network(EngineCore):
    """A topology plus per-node algorithm instances and state.

    A round activates only the running nodes and the nodes whose inbox
    was filled, in schedule order, so its cost follows the awake nodes
    and the messages in flight, not the size of the network.

    Observability: each network owns a
    :class:`~repro.observability.metrics.MetricsRegistry` (exposed as
    :attr:`metrics`) backing :attr:`stats`, so two networks never mix
    their accounting; pass a shared ``registry`` to aggregate runs
    deliberately.  While tracing is enabled
    (:func:`repro.observability.tracing.enable`), each run and each
    round observe the ``engine.run.duration_s`` and
    ``engine.round.duration_s`` histograms of the global registry.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Node], NodeAlgorithm],
        registry: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._inboxes: Dict[Node, List[Message]] = {}
        # The nodes whose inbox may be non-empty: every node a message
        # was put in for since the last delivery cleared them.
        self._filled: Set[Node] = set()
        # Messages awaiting redelivery, in deferral order:
        # (due_round, message, attempt).
        self._transit: List[Tuple[int, Message, int]] = []
        super().__init__(graph, algorithm_factory, registry, fault_plan, "network")

    def _install(self, node: Node) -> None:
        super()._install(node)
        self._inboxes[node] = []

    @property
    def round_number(self) -> int:
        return self._round

    def _messages_pending(self) -> bool:
        crashed = self._crashed_nodes()
        return bool(self._transit) or any(
            self._inboxes[node] for node in self._filled if node not in crashed
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _deliver(self, schedule: Schedule, messages: List[Message]) -> int:
        inboxes, filled = self._inboxes, self._filled
        for node in filled:
            inboxes[node].clear()
        filled.clear()
        if self.faults is None:
            count = 0
            for message in messages:
                inbox = inboxes.get(message.receiver)
                if inbox is not None:
                    inbox.append(message)
                    filled.add(message.receiver)
                    count += 1
        else:
            count = self._deliver_with_faults(schedule, messages)
        self.stats.messages_sent += count
        self.stats.messages_per_round.append(count)
        return count

    def _deliver_with_faults(self, schedule: Schedule, messages: List[Message]) -> int:
        """Route fresh sends plus due retried/delayed messages through
        the fault session; returns the number delivered."""
        faults = self.faults
        inboxes, filled, now = self._inboxes, self._filled, self._round
        stream = [message for message in messages if message.receiver in inboxes]
        attempts = [0] * len(stream)
        if self._transit:
            waiting: List[Tuple[int, Message, int]] = []
            for entry in self._transit:
                if entry[0] > now:
                    waiting.append(entry)
                elif entry[1].receiver in inboxes:
                    stream.append(entry[1])
                    attempts.append(entry[2])
            self._transit = waiting
        delivered, deferrals = route_faults(
            faults, now, stream, attempts, crashed=faults.crashed
        )
        self._transit.extend(deferrals)
        for message in delivered:
            inboxes[message.receiver].append(message)
            filled.add(message.receiver)
        if faults.reorder:
            # Only an inbox of two or more messages draws a permutation.
            crowded = [node for node in filled if len(inboxes[node]) > 1]
            for node in sorted(crowded, key=schedule.rank.__getitem__):
                inbox = inboxes[node]
                permutation = faults.reorder_permutation(now, node, len(inbox))
                if permutation is not None:
                    inbox[:] = [inbox[i] for i in permutation]
        return len(delivered)

    def initialize(self) -> None:
        """Run every node's :meth:`NodeAlgorithm.init` (round 0)."""
        if self._initialized:
            return
        schedule = self._schedule.of(self.graph)
        outgoing: List[Message] = []
        for node in schedule.nodes:
            self._activate(schedule, node, self._inboxes[node], "init", outgoing)
        self._deliver(schedule, outgoing)
        self._initialized = True

    def step_round(self) -> None:
        """Execute one synchronous round on all non-halted nodes.

        Halted nodes with a non-empty inbox are woken: messages must
        not be silently dropped.  Only the running nodes and the filled
        inboxes are visited.
        """
        if not self._initialized:
            self.initialize()
        self._round += 1
        self.stats.rounds = self._round
        with tracing.span("engine.round"):
            schedule = self._schedule.of(self.graph)
            outgoing: List[Message] = []
            if self.faults is not None:
                self._apply_fault_events(schedule, self._round, outgoing)
            crashed = self._crashed_nodes()
            running, inboxes = self._running, self._inboxes
            for node in sorted(running | self._filled, key=schedule.rank.__getitem__):
                inbox = inboxes[node]
                if node in crashed or not (inbox or node in running):
                    continue
                self._activate(schedule, node, inbox, "step", outgoing)
            self._deliver(schedule, outgoing)
        self.metrics.gauge("repro.runtime.in_flight").set(len(self._transit))

    def _on_crash(self, node: Node) -> None:
        self._inboxes[node].clear()

    def _on_restart(self, schedule: Schedule, node: Node, outgoing: List[Message]) -> None:
        # Delivered with this round's sends.
        self._activate(schedule, node, self._inboxes[node], "init", outgoing)

    # Defined here, not inherited: the end-to-end tracer wraps
    # ``Network.run`` through the class's own ``__dict__``.
    def run(self, max_rounds: int = 10_000) -> RunStats:
        """Run until every node halts and no message is in flight."""
        record_dispatch("runtime.engine", path="scalar")
        with tracing.span("engine.run"):
            return run_until_quiescent(
                self, self.step_round, max_rounds, "distributed execution"
            )

    # ------------------------------------------------------------------
    # dynamics (Sec. IV-C: integrating structure with topology change)
    # ------------------------------------------------------------------
    def _notify_topology(self, nodes: Iterable[Node]) -> None:
        schedule = self._schedule.of(self.graph)
        outgoing: List[Message] = []
        for node in sorted(set(nodes), key=repr):
            if node in self._algorithms:
                self._activate(
                    schedule, node, self._inboxes[node], "on_topology_change", outgoing
                )
        for message in outgoing:
            inbox = self._inboxes.get(message.receiver)
            if inbox is not None:
                inbox.append(message)
                self._filled.add(message.receiver)
                self.stats.messages_sent += 1

    def add_node(self, node: Node) -> None:
        self.graph.add_node(node)
        if node not in self._algorithms:
            self._install(node)
            if self._initialized:
                self._activate(
                    self._schedule.of(self.graph), node, self._inboxes[node], "init", []
                )

    def add_edge(self, u: Node, v: Node) -> None:
        for endpoint in (u, v):
            if endpoint not in self._algorithms:
                self.add_node(endpoint)
        self.graph.add_edge(u, v)
        self._notify_topology((u, v))

    def remove_edge(self, u: Node, v: Node) -> None:
        self.graph.remove_edge(u, v)
        self._notify_topology((u, v))

    def remove_node(self, node: Node) -> None:
        neighbors = self.graph.neighbors(node)
        self.graph.remove_node(node)
        del self._algorithms[node]
        del self._state[node]
        del self._inboxes[node]
        self._running.discard(node)
        self._filled.discard(node)
        self._notify_topology(neighbors)
