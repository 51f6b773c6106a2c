"""Seeded fault plans and the per-run session that interprets them.

A :class:`FaultPlan` is a *value*: one RNG seed, a tuple of injectors
(:mod:`repro.faults.injectors`) and an optional
:class:`~repro.faults.injectors.RetryPolicy`.  Engines never consume
the plan directly — they call :meth:`FaultPlan.start` to obtain a
fresh :class:`FaultSession`, which owns the RNG stream, the event
:class:`~repro.faults.ledger.FaultLedger`, and mirrors the ledger into
``repro.faults.<kind>`` counters on the engine's
:class:`~repro.observability.metrics.MetricsRegistry`.  A fate call
(:meth:`FaultSession.message_fates`, :meth:`FaultSession.retry_due`)
appends all of its rows with one ``extend`` and bumps each kind's
counter once, by that call's count.

Replay contract: the session draws randomness *only* inside its hook
methods, and the engines call those hooks in a deterministic order
(nodes and messages are always iterated in sorted order), so two
sessions started from the same plan and driven through the same
workload produce byte-identical ledgers — ``session.ledger.digest()``
is the whole assertion.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.injectors import (
    CrashEvent,
    LinkChurn,
    LinkChurnEvent,
    MessageFaults,
    NodeCrashFaults,
    RetryPolicy,
)
from repro.faults.ledger import FaultLedger, Row
from repro.observability.metrics import Counter, MetricsRegistry

Node = Hashable
Injector = Any  # one of the dataclasses in repro.faults.injectors


class FaultPlan:
    """Seed + injectors + retry policy: a replayable chaos experiment."""

    def __init__(
        self,
        seed: int,
        injectors: Iterable[Injector] = (),
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.seed = int(seed)
        self.injectors: Tuple[Injector, ...] = tuple(injectors)
        for injector in self.injectors:
            if not isinstance(injector, (MessageFaults, NodeCrashFaults, LinkChurn)):
                raise TypeError(
                    f"unknown injector type {type(injector).__name__!r}"
                )
        self.retry = retry

    def start(self, registry: Optional[MetricsRegistry] = None) -> "FaultSession":
        """A fresh session: new RNG from the seed, empty ledger."""
        return FaultSession(self, registry=registry)

    def describe(self) -> Dict[str, Any]:
        """Plain-data description (for benchmark report notes)."""
        return {
            "seed": self.seed,
            "injectors": [repr(injector) for injector in self.injectors],
            "retry": repr(self.retry) if self.retry else None,
        }

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, injectors={self.injectors!r}, "
            f"retry={self.retry!r})"
        )


def _labels(column: Sequence[Any], positions: np.ndarray, nodes) -> List[Any]:
    """``column`` at ``positions``; with ``nodes``, the column holds
    indices into it and the labels are looked up in the same pass."""
    if nodes is None:
        return [column[i] for i in positions.tolist()]
    return [nodes[i] for i in np.asarray(column)[positions].tolist()]


class FaultSession:
    """One run's interpretation of a :class:`FaultPlan`.

    All hook methods are deterministic functions of (seed, call order):
    engines must invoke them in sorted node/message order.  Every
    ledger row is also counted in ``repro.faults.<kind>`` on
    :attr:`registry`, once per kind per recording call.
    """

    def __init__(
        self, plan: FaultPlan, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.ledger = FaultLedger()
        self.registry = registry if registry is not None else MetricsRegistry("faults")
        self._message_faults = [
            i for i in plan.injectors if isinstance(i, MessageFaults)
        ]
        self._crash_faults = [
            i for i in plan.injectors if isinstance(i, NodeCrashFaults)
        ]
        self._churn_faults = [i for i in plan.injectors if isinstance(i, LinkChurn)]
        #: Per-inbox reorder probability (0 when no injector reorders).
        self.reorder = max((f.reorder for f in self._message_faults), default=0.0)
        # Merged deterministic schedules, consumed in time order.
        self._crash_schedule: List[Tuple[int, int, CrashEvent]] = sorted(
            ((event.at, index, event) for fault in self._crash_faults
             for index, event in enumerate(fault.schedule)),
            key=lambda item: (item[0], item[1]),
        )
        self._churn_schedule: List[Tuple[int, int, LinkChurnEvent]] = sorted(
            ((event.at, index, event) for fault in self._churn_faults
             for index, event in enumerate(fault.schedule)),
            key=lambda item: (item[0], item[1]),
        )
        #: The nodes down now; the round engines skip them and drop
        #: every message sent to them.
        self.crashed: Set[Node] = set()
        self._lose_state: Dict[Node, bool] = {}
        #: Both orientations of every link that is down now.
        self.down_links: Set[Tuple[Node, Node]] = set()
        # (restart_at, node) for pending restarts (scheduled or random).
        self._pending_restarts: List[Tuple[int, Node]] = []
        self._counters: Dict[str, Counter] = {}
        # The last edge tuple begin_round indexed, and its positions.
        self._indexed_edges: Optional[Tuple[Tuple[Node, Node], ...]] = None
        self._edge_position: Dict[Tuple[Node, Node], int] = {}

    # -- recording ------------------------------------------------------
    def record(self, kind: str, time: int, **detail: Any) -> None:
        self._extend([(int(time), kind, tuple(sorted(detail.items())))], {kind: 1})

    def _extend(self, rows: List[Row], counts: Dict[str, int]) -> None:
        """Append ``rows`` and bump each kind's counter by its count."""
        self.ledger.extend(rows)
        for kind, count in counts.items():
            if count:
                counter = self._counters.get(kind)
                if counter is None:
                    counter = self._counters[kind] = self.registry.counter(
                        f"repro.faults.{kind}"
                    )
                counter.inc(count)

    def summary(self) -> Dict[str, int]:
        return self.ledger.counts()

    # -- message-level hooks (engines) ----------------------------------
    def message_fates(
        self,
        time: int,
        senders: Sequence[Any],
        receivers: Sequence[Any],
        nodes: Optional[Sequence[Node]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fates of k delivery attempts, in the caller's order.

        Returns ``(drop, copies, delay)`` arrays with one rule for every
        attempt: a dropped attempt has no copies; a delayed attempt
        (``delay > 0``) is deferred as one message with no duplicate and
        draws a fresh fate when it comes due; any other attempt is
        delivered as ``copies`` = 1 + duplicates.  Draws are injector-
        major — per injector ``drop(k)``, ``duplicate(k)``, the delay
        mask, then the delay lengths of its hits — and nothing is drawn
        when k = 0 or the plan has no :class:`MessageFaults`.
        ``drop``/``delay``/``duplicate`` are recorded in message order.
        With ``nodes``, senders and receivers are indices into it, and
        labels are looked up only for recorded events.
        """
        k = len(senders)
        drop = np.zeros(k, dtype=bool)
        extra = np.zeros(k, dtype=np.int64)
        delay = np.zeros(k, dtype=np.int64)
        if k and self._message_faults:
            rng = self.rng
            for fault in self._message_faults:
                if fault.drop:
                    drop |= rng.random(k) < fault.drop
                if fault.duplicate:
                    extra += rng.random(k) < fault.duplicate
                if fault.delay:
                    mask = rng.random(k) < fault.delay
                    hits = int(np.count_nonzero(mask))
                    if hits:
                        delay[mask] += rng.integers(1, fault.max_delay + 1, size=hits)
            delay[drop] = 0
        held = drop | (delay > 0)
        extra[held] = 0
        hits = np.flatnonzero(held | (extra > 0))
        if hits.size:
            # 0 = drop, 1 = delay, 2 = duplicate; amount is rounds or copies.
            code = np.where(drop[hits], 0, np.where(delay[hits] > 0, 1, 2))
            amount = np.where(code == 1, delay[hits], extra[hits])
            t, rows = int(time), []
            for c, n, sender, receiver in zip(
                code.tolist(), amount.tolist(),
                _labels(senders, hits, nodes), _labels(receivers, hits, nodes),
            ):
                if c == 0:
                    rows.append((t, "drop", (("receiver", receiver), ("sender", sender))))
                elif c == 1:
                    rows.append((t, "delay", (
                        ("receiver", receiver), ("rounds", n), ("sender", sender),
                    )))
                else:
                    rows.append((t, "duplicate", (
                        ("copies", n), ("receiver", receiver), ("sender", sender),
                    )))
            drops, delays, dups = np.bincount(code, minlength=3).tolist()
            self._extend(rows, {"drop": drops, "delay": delays, "duplicate": dups})
        return drop, np.where(held, 0, 1 + extra), delay

    def retry_due(
        self,
        time: int,
        senders: Sequence[Any],
        receivers: Sequence[Any],
        attempts: Sequence[int],
        nodes: Optional[Sequence[Node]] = None,
    ) -> np.ndarray:
        """Apply the plan's :class:`RetryPolicy` to k lost attempts.

        ``attempts[i]`` is how many retransmissions message i has had.
        Returns each message's retransmission due time, or -1 once it is
        lost for good (retries exhausted, or the plan has no policy).
        ``retry``/``retry_exhausted`` are recorded in message order;
        ``nodes`` works as in :meth:`message_fates`.
        """
        due = np.full(len(attempts), -1, dtype=np.int64)
        policy = self.plan.retry
        if policy is None or not len(attempts):
            return due
        every = np.arange(len(attempts))
        t, rows, exhausted = int(time), [], 0
        for i, (attempt, sender, receiver) in enumerate(zip(
            np.asarray(attempts, dtype=np.int64).tolist(),
            _labels(senders, every, nodes), _labels(receivers, every, nodes),
        )):
            if attempt >= policy.max_retries:
                exhausted += 1
                rows.append((t, "retry_exhausted", (
                    ("receiver", receiver), ("sender", sender),
                )))
                continue
            due[i] = time + policy.delay(attempt)
            rows.append((t, "retry", (
                ("attempt", attempt + 1), ("receiver", receiver), ("sender", sender),
            )))
        self._extend(rows, {"retry": len(rows) - exhausted, "retry_exhausted": exhausted})
        return due

    def reorder_permutation(
        self, time: int, receiver: Node, size: int
    ) -> Optional[Sequence[int]]:
        """Permutation for one multi-message inbox, or None to keep order."""
        if size < 2 or not self.reorder or self.rng.random() >= self.reorder:
            return None
        permutation = [int(i) for i in self.rng.permutation(size)]
        self.record("reorder", time, receiver=receiver, size=size)
        return permutation

    # -- node & link lifecycle (engines) --------------------------------
    def begin_round(
        self, time: int, nodes: Sequence[Node], edges: Sequence[Tuple[Node, Node]]
    ) -> Tuple[List[Tuple[Node, bool]], List[Tuple[Node, bool]]]:
        """Advance crash/churn state to ``time``.

        Returns ``(crashes, restarts)`` as lists of ``(node,
        lose_state)``, already recorded in the ledger.  ``nodes`` and
        ``edges`` must be deterministically ordered by the caller; an
        ``edges`` tuple passed again is not re-indexed.
        """
        crashes: List[Tuple[Node, bool]] = []
        restarts: List[Tuple[Node, bool]] = []
        # Scheduled crashes due now.
        while self._crash_schedule and self._crash_schedule[0][0] <= time:
            _, _, event = self._crash_schedule.pop(0)
            if event.node in self.crashed:
                continue
            self._crash(event.node, time, event.lose_state, crashes)
            if event.restart_at is not None:
                heapq.heappush(
                    self._pending_restarts, (event.restart_at, repr(event.node), event.node)
                )
        # Random crashes.
        for fault in self._crash_faults:
            if not fault.rate:
                continue
            for node in nodes:
                if node in self.crashed:
                    continue
                if self.rng.random() < fault.rate:
                    self._crash(node, time, fault.lose_state, crashes)
                    heapq.heappush(
                        self._pending_restarts,
                        (time + fault.restart_after, repr(node), node),
                    )
        # Restarts due now.
        while self._pending_restarts and self._pending_restarts[0][0] <= time:
            _, _, node = heapq.heappop(self._pending_restarts)
            if node not in self.crashed:
                continue
            self.crashed.discard(node)
            lose_state = self._lose_state.pop(node, True)
            restarts.append((node, lose_state))
            self.record("restart", time, node=node, lose_state=lose_state)
        # Scheduled link transitions due now.
        while self._churn_schedule and self._churn_schedule[0][0] <= time:
            _, _, event = self._churn_schedule.pop(0)
            self._set_link(event.u, event.v, event.action, time)
        # Random link churn over the current topology.
        for fault in self._churn_faults:
            if fault.down:
                for u, v in edges:
                    if (u, v) in self.down_links:
                        if fault.up and self.rng.random() < fault.up:
                            self._set_link(u, v, "up", time)
                    elif self.rng.random() < fault.down:
                        self._set_link(u, v, "down", time)
            elif fault.up and self.down_links:
                # No link can go down, so only the links down now draw:
                # visit just those, in their edge order.
                position = self._edge_positions(edges)
                for i in sorted(
                    position[key] for key in self.down_links if key in position
                ):
                    if self.rng.random() < fault.up:
                        self._set_link(*edges[i], "up", time)
        return crashes, restarts

    def _edge_positions(
        self, edges: Sequence[Tuple[Node, Node]]
    ) -> Dict[Tuple[Node, Node], int]:
        """Each edge's position in ``edges``, keyed by ``(u, v)`` as
        listed; a tuple (immutable, so its identity pins its contents)
        is indexed once."""
        if edges is not self._indexed_edges:
            self._edge_position = {edge: i for i, edge in enumerate(edges)}
            self._indexed_edges = edges if isinstance(edges, tuple) else None
        return self._edge_position

    def _crash(
        self, node: Node, time: int, lose_state: bool, out: List[Tuple[Node, bool]]
    ) -> None:
        self.crashed.add(node)
        self._lose_state[node] = lose_state
        out.append((node, lose_state))
        self.record("crash", time, node=node, lose_state=lose_state)

    def _set_link(self, u: Node, v: Node, action: str, time: int) -> None:
        if (action == "down") == ((u, v) in self.down_links):
            return  # already in that state
        if action == "down":
            self.down_links.update(((u, v), (v, u)))
        else:
            self.down_links.difference_update(((u, v), (v, u)))
        self.record(f"link_{action}", time, link=tuple(sorted((u, v), key=repr)))

    def link_is_down(self, u: Node, v: Node) -> bool:
        return (u, v) in self.down_links

    def pending_schedule_after(self, time: int) -> bool:
        """True while deterministic future events remain — engines must
        keep stepping so scheduled crashes/restarts/churn still fire."""
        if self._pending_restarts:
            return True
        if self._crash_schedule:
            return True
        if self._churn_schedule:
            return True
        return False

    # -- DTN hooks ------------------------------------------------------
    def advance_time(self, now: int) -> List[Tuple[str, Node, bool]]:
        """Advance the crash/churn schedules to trace time ``now``.

        Returns ``[('crash'|'restart', node, lose_state), ...]`` in
        firing order; link transitions are applied silently (query with
        :meth:`link_is_down`).  Random crash rates and random per-round
        churn do not apply to trace-driven DTN time — use schedules
        (crash, link intervals) and per-contact probabilities instead.
        """
        events: List[Tuple[str, Node, bool]] = []
        merged: List[Tuple[int, int, str, Any]] = []
        while self._crash_schedule and self._crash_schedule[0][0] <= now:
            at, index, event = self._crash_schedule.pop(0)
            merged.append((at, index, "crash", event))
        while self._churn_schedule and self._churn_schedule[0][0] <= now:
            at, index, event = self._churn_schedule.pop(0)
            merged.append((at, index, "churn", event))
        while self._pending_restarts and self._pending_restarts[0][0] <= now:
            at, tiebreak, node = heapq.heappop(self._pending_restarts)
            merged.append((at, -1, "restart", node))
        merged.sort(key=lambda item: (item[0], item[1]))
        for at, _, kind, payload in merged:
            if kind == "crash":
                if payload.node in self.crashed:
                    continue
                scratch: List[Tuple[Node, bool]] = []
                self._crash(payload.node, at, payload.lose_state, scratch)
                events.append(("crash", payload.node, payload.lose_state))
                if payload.restart_at is not None:
                    if payload.restart_at <= now:
                        merged_restart = payload.restart_at
                        self.crashed.discard(payload.node)
                        lose = self._lose_state.pop(payload.node, True)
                        events.append(("restart", payload.node, lose))
                        self.record(
                            "restart", merged_restart, node=payload.node,
                            lose_state=lose,
                        )
                    else:
                        heapq.heappush(
                            self._pending_restarts,
                            (payload.restart_at, repr(payload.node), payload.node),
                        )
            elif kind == "restart":
                node = payload
                if node not in self.crashed:
                    continue
                lose = self._lose_state.pop(node, True)
                self.crashed.discard(node)
                events.append(("restart", node, lose))
                self.record("restart", at, node=node, lose_state=lose)
            else:  # churn transition
                self._set_link(payload.u, payload.v, payload.action, at)
        return events

    def contact_fate(self, time: int, u: Node, v: Node) -> Tuple[bool, int]:
        """(drop, delay) for one DTN contact.

        Scheduled down links suppress the contact outright; random
        churn ``down`` is an independent per-contact loss; message-
        fault ``delay`` postpones the whole encounter.
        """
        if self.link_is_down(u, v):
            self.record("contact_drop", time, link=tuple(sorted((u, v), key=repr)))
            return True, 0
        for fault in self._churn_faults:
            if fault.down and self.rng.random() < fault.down:
                self.record(
                    "contact_drop", time, link=tuple(sorted((u, v), key=repr))
                )
                return True, 0
        delay = 0
        for fault in self._message_faults:
            if fault.delay and self.rng.random() < fault.delay:
                delay += int(self.rng.integers(1, fault.max_delay + 1))
        if delay:
            self.record(
                "contact_delay", time,
                link=tuple(sorted((u, v), key=repr)), units=delay,
            )
        return False, delay

    def transfer_fate(
        self, time: int, identifier: str, holder: Node, peer: Node
    ) -> Tuple[bool, int]:
        """(drop, duplicates) for one message transfer attempt."""
        drop = False
        duplicates = 0
        for fault in self._message_faults:
            if fault.drop and self.rng.random() < fault.drop:
                drop = True
            if fault.duplicate and self.rng.random() < fault.duplicate:
                duplicates += 1
        if drop:
            self.record(
                "transfer_drop", time, message=identifier, holder=holder, peer=peer
            )
            return True, 0
        if duplicates:
            self.record(
                "transfer_duplicate", time, message=identifier,
                holder=holder, peer=peer, copies=duplicates,
            )
        return False, duplicates
