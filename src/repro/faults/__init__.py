"""Deterministic, seeded fault injection for the distributed runtime.

The paper's constructions are claimed to survive *dynamic* environments
— lossy links, churning topologies, crashing relays.  This package
turns those conditions into a replayable experiment:

* :class:`FaultPlan` — one RNG seed + a tuple of injectors
  (:class:`MessageFaults`, :class:`NodeCrashFaults`,
  :class:`LinkChurn`) + an optional :class:`RetryPolicy`;
* :class:`FaultSession` — the per-run interpreter (started via
  :meth:`FaultPlan.start`), owning the RNG stream and the event
  :class:`FaultLedger`;
* the engines (:class:`repro.runtime.engine.Network`,
  :class:`repro.runtime.async_engine.AsyncNetwork`,
  :class:`repro.runtime.vector.VectorEngine`,
  :class:`repro.dtn.simulator.DTNSimulation`) accept ``fault_plan=``
  and route every delivery through the session's hooks — engine
  messages (and gateway requests) through the one batched
  :meth:`FaultSession.message_fates` / :meth:`FaultSession.retry_due`
  pair.

Replay contract: same seed + same plan + same workload ⇒ byte-identical
``session.ledger`` (assert with ``ledger.digest()``).  Every injected
event is also counted as a ``repro.faults.<kind>`` metric on the
engine's registry.
"""

from repro.faults.injectors import (
    CrashEvent,
    LinkChurn,
    LinkChurnEvent,
    MessageFaults,
    NodeCrashFaults,
    RetryPolicy,
)
from repro.faults.ledger import FaultEvent, FaultLedger
from repro.faults.plan import FaultPlan, FaultSession

__all__ = [
    "CrashEvent",
    "FaultEvent",
    "FaultLedger",
    "FaultPlan",
    "FaultSession",
    "LinkChurn",
    "LinkChurnEvent",
    "MessageFaults",
    "NodeCrashFaults",
    "RetryPolicy",
]
