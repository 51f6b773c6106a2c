"""The injector taxonomy: declarative fault descriptions.

Injectors are plain frozen dataclasses — they hold *what* can go wrong
and with what probability or schedule, never any randomness of their
own.  All random draws happen inside
:class:`~repro.faults.plan.FaultSession`, in a deterministic order, so
a :class:`~repro.faults.plan.FaultPlan` (seed + injectors) replays
byte-identically.

Three injector families cover the paper's dynamic-environment threats:

* :class:`MessageFaults` — per-message drop / duplication / extra delay
  and per-inbox reordering (engines); per-transfer drop/duplication and
  per-contact delay (DTN);
* :class:`NodeCrashFaults` — scheduled :class:`CrashEvent` crash &
  restart with state loss or persistence, plus an optional random
  crash rate (engines only);
* :class:`LinkChurn` — scheduled link down/up intervals plus random
  per-round churn (engines) or per-contact loss (DTN).

:class:`RetryPolicy` is the matching resilience mechanic: transport-
level retransmission with capped exponential backoff, applied by the
engines to every injected drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Tuple

Node = Hashable


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transport-level retransmission.

    A dropped message is retransmitted after
    ``min(base_delay * 2**attempt, max_delay)`` rounds/ticks, up to
    ``max_retries`` attempts; exhaustion is recorded in the ledger as
    ``retry_exhausted``.  With ``max_retries`` large enough relative to
    the drop rate, delivery is (overwhelmingly) eventual — the
    precondition for the convergence-under-faults guarantees.
    """

    max_retries: int = 8
    base_delay: int = 1
    max_delay: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 1:
            raise ValueError(f"base_delay must be >= 1, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )

    def delay(self, attempt: int) -> int:
        """Backoff before retransmission number ``attempt + 1``."""
        return min(self.base_delay * (2 ** attempt), self.max_delay)


@dataclass(frozen=True)
class MessageFaults:
    """Per-message fault probabilities.

    Engines: each delivery attempt is independently dropped with
    probability ``drop``, duplicated (one extra delivery) with
    probability ``duplicate``, and delayed by uniform
    1..``max_delay`` extra rounds with probability ``delay``; each
    multi-message inbox is shuffled with probability ``reorder``.  A
    drop wins over the other draws, and a delayed attempt carries no
    duplicate: it is deferred as one message and draws a fresh fate
    when it comes due.

    DTN: ``drop``/``duplicate`` apply per transfer attempt (including
    final-hop delivery), ``delay``/``max_delay`` apply per *contact*
    (the whole encounter happens late — how injected delays meet TTLs),
    and ``reorder`` is a no-op (contact order is the trace's).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 3
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled crash: ``node`` goes down at ``at`` (round/tick in
    the engines, trace time in DTN), optionally restarting at
    ``restart_at``.  ``lose_state`` picks crash-stop-with-amnesia (state
    and buffers wiped, algorithm re-initialised on restart) versus
    crash-recover-with-persistence (state and DTN buffers survive)."""

    node: Node
    at: int
    restart_at: Optional[int] = None
    lose_state: bool = True

    def __post_init__(self) -> None:
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError(
                f"restart_at ({self.restart_at}) must be after at ({self.at})"
            )


@dataclass(frozen=True)
class NodeCrashFaults:
    """Node crash & restart faults: a deterministic ``schedule`` of
    :class:`CrashEvent` entries plus an optional random per-node
    per-round crash ``rate`` (each random crash restarts after
    ``restart_after`` rounds, with ``lose_state`` semantics)."""

    schedule: Tuple[CrashEvent, ...] = ()
    rate: float = 0.0
    restart_after: int = 5
    lose_state: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.restart_after < 1:
            raise ValueError(f"restart_after must be >= 1, got {self.restart_after}")


@dataclass(frozen=True)
class LinkChurnEvent:
    """One scheduled link transition at time ``at``: ``action`` is
    ``"down"`` or ``"up"`` for the undirected link ``(u, v)``."""

    at: int
    action: str
    u: Node = field(default=None)
    v: Node = field(default=None)

    def __post_init__(self) -> None:
        if self.action not in ("down", "up"):
            raise ValueError(f"action must be 'down' or 'up', got {self.action!r}")


@dataclass(frozen=True)
class LinkChurn:
    """Link churn: a deterministic ``schedule`` of
    :class:`LinkChurnEvent` transitions plus random churn.

    Engines: each up link goes down with probability ``down`` per
    round and each down link recovers with probability ``up`` per
    round; messages crossing a down link are dropped (and retried
    under the plan's :class:`RetryPolicy`).  DTN: ``down`` is the
    independent per-contact loss probability; scheduled down intervals
    suppress every contact on that link until the matching ``up``.
    """

    schedule: Tuple[LinkChurnEvent, ...] = ()
    down: float = 0.0
    up: float = 0.5

    def __post_init__(self) -> None:
        for name in ("down", "up"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
