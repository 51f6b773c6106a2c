"""Asynchronous message-passing with bounded delays (Sec. IV-C).

The synchronous engine of :mod:`repro.runtime.engine` is the clean
theoretical model; real mobile systems deliver Hello messages and
neighborhood updates *asynchronously*, which is exactly the paper's
"view inconsistency" problem.  :class:`AsyncNetwork` re-runs the same
:class:`~repro.runtime.engine.NodeAlgorithm` objects under an
adversarially-randomised delivery schedule:

* every message is delayed by a uniformly random 1..``max_delay``
  ticks (delay 1 = the synchronous behaviour);
* per-tick node activation order is shuffled;
* round numbers advance per activation, so algorithms relying on
  synchronised phase parity (e.g. the two-phase NSF leveling) can be
  *stress-tested* for that reliance.

Experiments built on this engine (tests + the ablation benchmark)
demonstrate the paper's point concretely: one-shot localized labels
(marking, neighbor designation) tolerate asynchrony as long as they
wait for their expected inputs, whereas phase-coupled algorithms need
explicit synchronisers — and flooding-style algorithms are naturally
self-stabilising.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError
from repro.faults.plan import FaultPlan, FaultSession
from repro.graphs.graph import Graph
from repro.observability import tracing
from repro.observability.metrics import MetricsRegistry
from repro.runtime.engine import (
    Message,
    NodeAlgorithm,
    NodeContext,
    RunStats,
    Schedule,
    route_faults,
)

Node = Hashable


class AsyncNetwork:
    """Randomised-delay executor for :class:`NodeAlgorithm` instances."""

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Node], NodeAlgorithm],
        rng: np.random.Generator,
        max_delay: int = 3,
        registry: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {max_delay}")
        self.graph = graph.copy()
        self.max_delay = int(max_delay)
        self._rng = rng
        self._algorithms: Dict[Node, NodeAlgorithm] = {}
        self._state: Dict[Node, Dict[str, Any]] = {}
        self._halted: Dict[Node, bool] = {}
        # (deliver_at_tick, message, retry attempt, fate drawn), in
        # enqueue order.
        self._in_flight: List[Tuple[int, Message, int, bool]] = []
        self._tick = 0
        self.metrics = registry if registry is not None else MetricsRegistry("async-network")
        self.stats = RunStats(registry=self.metrics)
        self._initialized = False
        self._factory = algorithm_factory
        self.faults: Optional[FaultSession] = (
            fault_plan.start(registry=self.metrics) if fault_plan is not None else None
        )
        self._crashed: set = set()
        self._schedule = Schedule()
        for node in self.graph.nodes():
            self._algorithms[node] = algorithm_factory(node)
            self._state[node] = {}
            self._halted[node] = False

    # ------------------------------------------------------------------
    def state_of(self, node: Node) -> Dict[str, Any]:
        return self._state[node]

    def states(self, key: str, default: Any = None) -> Dict[Node, Any]:
        return {node: state.get(key, default) for node, state in self._state.items()}

    @property
    def tick(self) -> int:
        return self._tick

    # ------------------------------------------------------------------
    def _enqueue(
        self, deliver_at: int, message: Message, attempt: int = 0, fated: bool = True
    ) -> None:
        self._in_flight.append((deliver_at, message, attempt, fated))

    def _dispatch(self, outbox: List[Message]) -> None:
        """Put one activation's sends in flight.  Under a fault plan they
        draw their fates here; a retried or delayed send is enqueued
        unfated and draws a fresh fate when it comes due."""
        if self.faults is None:
            for message in outbox:
                self._enqueue(self._tick + self._transport_delay(), message)
            return
        deliveries, deferrals = route_faults(
            self.faults, self._tick, [(m, 0, True) for m in outbox]
        )
        for message, copies in deliveries:
            for _ in range(copies):
                self._enqueue(self._tick + self._transport_delay(), message)
        for due, message, attempt in deferrals:
            self._enqueue(due, message, attempt, fated=False)

    def _transport_delay(self) -> int:
        return int(self._rng.integers(1, self.max_delay + 1))

    def _run_node(self, node: Node, inbox: List[Message], phase: str) -> None:
        outbox: List[Message] = []
        ctx = NodeContext(
            node=node,
            neighbors=self._schedule.of(self.graph).neighbors(node),
            state=self._state[node],
            inbox=inbox,
            outbox=outbox,
            round_number=self._tick,
        )
        if phase == "init":
            self._algorithms[node].init(ctx)
        else:
            self._algorithms[node].step(ctx)
        self._halted[node] = ctx.halted
        self._dispatch(outbox)

    def initialize(self) -> None:
        if self._initialized:
            return
        order = list(self._schedule.of(self.graph).nodes)
        self._rng.shuffle(order)
        for node in order:
            self._run_node(node, [], "init")
        self._initialized = True

    def step_tick(self) -> None:
        """Advance one tick: deliver due messages, activate recipients."""
        if not self._initialized:
            self.initialize()
        self._tick += 1
        self.stats.rounds = self._tick
        self.metrics.gauge("repro.runtime.in_flight").set(len(self._in_flight))
        if self.faults is not None:
            self._apply_fault_events()
        arrived: List[Tuple[Message, int, bool]] = []
        remaining: List[Tuple[int, Message, int, bool]] = []
        for entry in self._in_flight:
            deliver_at, message, attempt, fated = entry
            if message.receiver not in self._state:
                continue
            if deliver_at > self._tick:
                remaining.append(entry)
            else:
                arrived.append((message, attempt, not fated))
        self._in_flight = remaining
        if self.faults is None:
            deliveries = [(message, 1) for message, _, _ in arrived]
        else:
            deliveries, deferrals = route_faults(
                self.faults, self._tick, arrived, self._crashed
            )
            for at, message, attempt in deferrals:
                self._enqueue(at, message, attempt, fated=False)
        due: Dict[Node, List[Message]] = {}
        for message, copies in deliveries:
            due.setdefault(message.receiver, []).extend([message] * copies)
        recipients = sorted(due, key=repr)
        self._rng.shuffle(recipients)
        # Also activate non-halted nodes with empty inboxes, so
        # algorithms that poll can progress.
        idle = [
            node for node in self._schedule.of(self.graph).nodes
            if node not in due
            and not self._halted[node]
            and node not in self._crashed
        ]
        self._rng.shuffle(idle)
        for node in recipients:
            self._run_node(node, due[node], "step")
        for node in idle:
            self._run_node(node, [], "step")
        delivered = sum(len(inbox) for inbox in due.values())
        self.stats.messages_sent += delivered
        self.stats.messages_per_round.append(delivered)

    def _apply_fault_events(self) -> None:
        """Fire crash/restart/churn events scheduled for this tick."""
        schedule = self._schedule.of(self.graph)
        crashes, restarts = self.faults.begin_round(
            self._tick, nodes=schedule.nodes, edges=schedule.edges
        )
        for node, lose_state in crashes:
            if node not in self._algorithms:
                continue
            self._crashed.add(node)
            if lose_state:
                self._state[node].clear()
        for node, lose_state in restarts:
            if node not in self._algorithms:
                continue
            self._crashed.discard(node)
            self._halted[node] = False
            if lose_state:
                self._state[node].clear()
                self._algorithms[node] = self._factory(node)
                self._run_node(node, [], "init")

    def run(self, max_ticks: int = 50_000) -> RunStats:
        """Run until quiescent: everyone halted and nothing in flight."""
        with tracing.span("engine.async_run"):
            self.initialize()
            for _ in range(max_ticks):
                if self._quiescent():
                    break
                self.step_tick()
            else:
                if not self._quiescent():
                    raise ConvergenceError(
                        "asynchronous execution",
                        max_ticks,
                        rounds_completed=self.stats.rounds,
                        messages_sent=self.stats.messages_sent,
                        fault_events=(
                            self.faults.summary() if self.faults is not None else None
                        ),
                    )
            self.metrics.gauge("repro.runtime.in_flight").set(len(self._in_flight))
        return self.stats

    def _quiescent(self) -> bool:
        if not all(
            halted or node in self._crashed
            for node, halted in self._halted.items()
        ):
            return False
        if self._in_flight:
            return False
        if self.faults is not None and self.faults.pending_schedule_after(self._tick):
            return False
        return True
