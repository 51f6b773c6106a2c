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

from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.graphs.graph import Graph
from repro.observability import tracing
from repro.observability.metrics import MetricsRegistry
from repro.runtime.engine import (
    EngineCore,
    Message,
    NodeAlgorithm,
    RunStats,
    Schedule,
    route_faults,
    run_until_quiescent,
)

Node = Hashable


class AsyncNetwork(EngineCore):
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
        self.max_delay = int(max_delay)
        self._rng = rng
        # (deliver_at_tick, message, retry attempt, fate drawn), in
        # enqueue order.
        self._in_flight: List[Tuple[int, Message, int, bool]] = []
        super().__init__(graph, algorithm_factory, registry, fault_plan, "async-network")

    @property
    def tick(self) -> int:
        return self._round

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
                self._enqueue(self._round + self._transport_delay(), message)
            return
        delivered, deferrals = route_faults(self.faults, self._round, outbox)
        for message in delivered:
            self._enqueue(self._round + self._transport_delay(), message)
        for due, message, attempt in deferrals:
            self._enqueue(due, message, attempt, fated=False)

    def _transport_delay(self) -> int:
        return int(self._rng.integers(1, self.max_delay + 1))

    def initialize(self) -> None:
        if self._initialized:
            return
        schedule = self._schedule.of(self.graph)
        order = list(schedule.nodes)
        self._rng.shuffle(order)
        for node in order:
            self._dispatch_activation(schedule, node, [], "init")
        self._initialized = True

    def _dispatch_activation(
        self, schedule: Schedule, node: Node, inbox: List[Message], phase: str
    ) -> None:
        outbox: List[Message] = []
        self._activate(schedule, node, inbox, phase, outbox)
        self._dispatch(outbox)

    def step_tick(self) -> None:
        """Advance one tick: deliver due messages, activate recipients."""
        if not self._initialized:
            self.initialize()
        self._round += 1
        self.stats.rounds = self._round
        self.metrics.gauge("repro.runtime.in_flight").set(len(self._in_flight))
        schedule = self._schedule.of(self.graph)
        if self.faults is not None:
            self._apply_fault_events(schedule, self._round, [])
        arrived: List[Message] = []
        attempts: List[int] = []
        needs_fate: List[bool] = []
        remaining: List[Tuple[int, Message, int, bool]] = []
        for entry in self._in_flight:
            deliver_at, message, attempt, fated = entry
            if message.receiver not in self._state:
                continue
            if deliver_at > self._round:
                remaining.append(entry)
            else:
                arrived.append(message)
                attempts.append(attempt)
                needs_fate.append(not fated)
        self._in_flight = remaining
        if self.faults is None:
            delivered = arrived
        else:
            delivered, deferrals = route_faults(
                self.faults, self._round, arrived, attempts, needs_fate,
                self.faults.crashed,
            )
            for at, message, attempt in deferrals:
                self._enqueue(at, message, attempt, fated=False)
        due: Dict[Node, List[Message]] = {}
        for message in delivered:
            due.setdefault(message.receiver, []).append(message)
        recipients = sorted(due, key=repr)
        self._rng.shuffle(recipients)
        # Also activate running nodes with empty inboxes, so algorithms
        # that poll can progress.
        idle = sorted(
            self._running.difference(due, self._crashed_nodes()),
            key=schedule.rank.__getitem__,
        )
        self._rng.shuffle(idle)
        for node in recipients:
            self._dispatch_activation(schedule, node, due[node], "step")
        for node in idle:
            self._dispatch_activation(schedule, node, [], "step")
        self.stats.messages_sent += len(delivered)
        self.stats.messages_per_round.append(len(delivered))

    def _on_restart(self, schedule: Schedule, node: Node, outgoing: List[Message]) -> None:
        # Sent at once, so the caller has nothing left to deliver.
        self._dispatch_activation(schedule, node, [], "init")

    def run(self, max_ticks: int = 50_000) -> RunStats:
        """Run until quiescent: everyone halted and nothing in flight."""
        with tracing.span("engine.async_run"):
            return run_until_quiescent(
                self, self.step_tick, max_ticks, "asynchronous execution"
            )

    def _messages_pending(self) -> bool:
        return bool(self._in_flight)
