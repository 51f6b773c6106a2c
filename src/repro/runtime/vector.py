"""Bulk-synchronous vector runtime: array-state round kernels over CSR.

The scalar :class:`~repro.runtime.engine.Network` realises the LOCAL
round model faithfully but pays Python-object prices per node and per
message, which is why the protocol benchmarks historically stopped at
n ≈ 64 while the graph kernels sweep whole snapshots.  This module
runs the same round model as dense numpy operations over a
:class:`~repro.graphs.csr.FrozenGraph` snapshot:

* node state lives in index-aligned **state vectors** (one array per
  protocol variable), not per-node dicts;
* a neighbor belief ("u's latest view of v") lives at the CSR slot
  ``s`` with ``src[s] = u, indices[s] = v`` — the receiver's own row
  segment — so belief merges are single ``np.maximum.at`` /
  ``np.minimum.at`` scatters and per-node aggregates are
  ``reduceat`` folds over ``indptr`` segments;
* one engine round = gather this round's deliveries, run the kernel's
  array step over the **active set** (non-halted or woken rows only —
  converged regions cost nothing), scatter the broadcasts.

Parity contract (certified by ``tests/test_vector_engine.py``): for a
fault-free run the vector engine produces **bit-exact final state,
equal round counts, and equal per-round message counts** as the scalar
engine — ``RunStats`` equality — so the paper's O(n²)-reversals and
≤ n−1-rounds claims are measured identically by both engines.  The
accounting rules it reproduces:

* round 0 (``initialize``) delivers every init broadcast:
  ``messages_per_round[0] == 2m`` for broadcast-all protocols;
* a delivered message wakes a halted receiver, and a stepped node's
  halted flag is *recomputed* from this round's decision (a woken
  node that merely waits becomes active again);
* the final quiescence check happens after a last all-halted round
  delivering zero messages, so the trailing ``0`` in
  ``messages_per_round`` appears in both engines.

Fault semantics: the engine routes its messages through the same
:class:`~repro.faults.plan.FaultSession` calls as the scalar engine —
one :meth:`~repro.faults.plan.FaultSession.message_fates` and one
:meth:`~repro.faults.plan.FaultSession.retry_due` per round — over the
same stream order: fresh slots sorted by the (sender, receiver) repr
ranks the scalar outbox follows, then due transit in deferral order.
Under reordering it draws each multi-message inbox's permutation in
receiver repr order and discards it, since every kernel merge is
commutative and idempotent.  So a chaos run is ledger-exact: the same
plan gives the scalar run's ``RunStats``, final state and
``ledger.digest()``.  Duplicates are counted, not materialised, and
delayed/retried messages carry their originally gathered payload
values (stale values are harmless against monotone merges).
Crash/churn injectors need per-node lifecycle bookkeeping the array
plane does not model — plans carrying them are rejected at
construction with a pointer at the scalar ``Network``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AlgorithmError
from repro.faults.injectors import MessageFaults
from repro.faults.plan import FaultPlan, FaultSession
from repro.graphs.csr import FrozenGraph, _distinct
from repro.observability import tracing
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.telemetry import record_dispatch
from repro.runtime.engine import RunStats, run_until_quiescent

Node = Hashable

_INT_MIN = np.iinfo(np.int64).min
_INT_MAX = np.iinfo(np.int64).max
_EMPTY = np.empty(0, dtype=np.int64)


class ArrayKernel:
    """Base class for array-state round kernels.

    Subclasses hold index-aligned state vectors and implement

    * :meth:`init` — round-0 setup; returns ``(broadcasters,
      columns)`` where ``broadcasters`` is an index array of rows that
      broadcast and each column is a length-n array whose entry at a
      broadcaster is its payload value;
    * :meth:`step` — one round; receives the round number, the active
      rows, and this round's deliveries as ``(slots, values)`` — slot
      ``s`` means "``src[s]`` received ``values[...][s]`` from
      ``indices[s]``" — and returns ``(broadcasters, columns)``.

    A kernel must set ``self.halted`` for exactly the rows it stepped
    (the engine recomputes activity from that flag plus deliveries,
    mirroring the scalar engine's per-step halted overwrite).

    The shared ``known``/``known_count`` bookkeeping implements the
    scalar algorithms' "still waiting for first exchange" guard: a
    belief slot becomes *known* on its first merged delivery and a row
    acts only once all ``degree`` beliefs are known.
    """

    name = "kernel"

    def bind(self, engine: "VectorEngine") -> None:
        self.engine = engine
        self.halted = np.zeros(engine.n, dtype=bool)
        self._known = np.zeros(engine.indices.shape[0], dtype=bool)
        self._known_count = np.zeros(engine.n, dtype=np.int64)
        self._owner = np.empty(engine.indices.shape[0], dtype=np.int64)
        self._bind()

    def _bind(self) -> None:  # pragma: no cover - default
        pass

    def init(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        raise NotImplementedError

    def step(
        self,
        round_number: int,
        active: np.ndarray,
        slots: np.ndarray,
        values: Tuple[np.ndarray, ...],
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        raise NotImplementedError

    def _ready_rows(self, active: np.ndarray, terminal: np.ndarray) -> np.ndarray:
        """Halt the ``terminal`` rows of ``active``, keep the rows still
        waiting for a first exchange with every neighbor active, and
        return the rest: the rows ready to act this round."""
        self.halted[active[terminal]] = True
        rest = active[~terminal]
        waiting = self._known_count[rest] < self.engine.degrees[rest]
        self.halted[rest[waiting]] = False
        return rest[~waiting]

    def _note_known(self, slots: np.ndarray) -> None:
        fresh = _distinct(slots[~self._known[slots]], self._owner)
        if fresh.size:
            self._known[fresh] = True
            np.add.at(self._known_count, self.engine.src[fresh], 1)


class VectorEngine:
    """Bulk-synchronous executor for :class:`ArrayKernel` protocols.

    Construction takes a :class:`FrozenGraph` (or anything with a
    ``.frozen()`` snapshot method), an unbound kernel, and optionally
    a :class:`FaultPlan` restricted to
    :class:`~repro.faults.injectors.MessageFaults` injectors.  The
    engine owns a :class:`MetricsRegistry`-backed :class:`RunStats`
    with the scalar engine's exact accounting semantics, so
    ``vector.stats == network.stats`` is the whole parity assertion.
    """

    def __init__(
        self,
        frozen,
        kernel: ArrayKernel,
        fault_plan: Optional[FaultPlan] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        fg = frozen if isinstance(frozen, FrozenGraph) else frozen.frozen()
        if fg.directed:
            raise AlgorithmError(
                "VectorEngine runs undirected round protocols; "
                "got a directed snapshot"
            )
        self.fg = fg
        self.n = fg.n
        self.indptr = fg.indptr
        self.indices = fg.indices
        self.degrees = fg.degrees
        self.src = fg._edge_sources()
        # Inbound slot map: the slots holding beliefs *about* node u
        # (indices[slot] == u), i.e. where u's broadcasts land.
        order = np.argsort(self.indices, kind="stable")
        self._in_order = order
        counts = np.bincount(self.indices, minlength=self.n)
        self._in_ptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )
        self.kernel = kernel
        kernel.bind(self)
        self.metrics = registry if registry is not None else MetricsRegistry("vector-network")
        self.stats = RunStats(registry=self.metrics)
        self._round = 0
        self._initialized = False
        self._pending: Tuple[np.ndarray, Tuple[np.ndarray, ...]] = (_EMPTY, ())
        self._woken = np.zeros(self.n, dtype=bool)
        self.faults: Optional[FaultSession] = None
        if fault_plan is not None:
            for injector in fault_plan.injectors:
                if not isinstance(injector, MessageFaults):
                    raise AlgorithmError(
                        f"VectorEngine supports MessageFaults injectors only; "
                        f"{type(injector).__name__} plans need the per-node "
                        f"scalar Network"
                    )
            self.faults = fault_plan.start(registry=self.metrics)
            # Repr rank of each row: the scalar engine's stream order,
            # which the fault draws must follow to replay exactly.
            self._rank = fg._repr_ranks()
        # Messages awaiting redelivery, in deferral order: (due_round,
        # slots, values, attempts) — slot-level entries carrying their
        # original payload values.
        self._transit: List[
            Tuple[int, np.ndarray, Tuple[np.ndarray, ...], np.ndarray]
        ] = []

    # ------------------------------------------------------------------
    # CSR segment helpers (used by kernels)
    # ------------------------------------------------------------------
    def row_slots(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All belief slots of ``rows``: ``(slots, segment_ids)``.

        ``segment_ids[i]`` indexes into ``rows`` — the standard
        repeat/arange gather that concatenates CSR row segments
        without a Python loop.
        """
        starts = self.indptr[rows]
        lens = self.degrees[rows]
        total = int(lens.sum())
        if total == 0:
            return _EMPTY, _EMPTY
        cum = np.cumsum(lens)
        base = np.repeat(starts - (cum - lens), lens)
        slots = base + np.arange(total, dtype=np.int64)
        seg = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        return slots, seg

    def inbound_slots(self, rows: np.ndarray) -> np.ndarray:
        """The slots where broadcasts *from* ``rows`` land (one per
        neighbor, in the receivers' row segments)."""
        starts = self._in_ptr[rows]
        lens = self._in_ptr[rows + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return _EMPTY
        cum = np.cumsum(lens)
        base = np.repeat(starts - (cum - lens), lens)
        return self._in_order[base + np.arange(total, dtype=np.int64)]

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _deliver(
        self, broadcasters: np.ndarray, columns: Tuple[np.ndarray, ...]
    ) -> int:
        """Scatter this round's broadcasts (plus due transit) into the
        pending delivery set; returns the delivered message count with
        the scalar engine's accounting."""
        slots = self.inbound_slots(broadcasters)
        # Gather payload values now: the columns reflect post-step
        # (= send-time) state, and deferred redeliveries must carry
        # these original values, not a later snapshot.
        values = tuple(column[self.indices[slots]] for column in columns)
        if self.faults is None:
            count = slots.size
            delivered_slots, delivered_values = slots, values
        else:
            count, delivered_slots, delivered_values = self._deliver_with_faults(
                slots, values
            )
        self.stats.messages_sent += count
        self.stats.messages_per_round.append(count)
        self._woken[:] = False
        if delivered_slots.size:
            self._woken[self.src[delivered_slots]] = True
        self._pending = (delivered_slots, delivered_values)
        return count

    def _deliver_with_faults(
        self, slots: np.ndarray, values: Tuple[np.ndarray, ...]
    ) -> Tuple[int, np.ndarray, Tuple[np.ndarray, ...]]:
        """The scalar engine's fault routing over slot arrays: fresh
        slots in (sender, receiver) repr order, then due transit in
        deferral order, through one fate call and one retry call."""
        faults = self.faults
        order = np.lexsort((self._rank[self.src[slots]], self._rank[self.indices[slots]]))
        slots = slots[order]
        values = tuple(v[order] for v in values)
        attempts = np.zeros(slots.size, dtype=np.int64)
        if self._transit:
            due = [e for e in self._transit if e[0] <= self._round]
            self._transit = [e for e in self._transit if e[0] > self._round]
            if due:
                slots = np.concatenate([slots] + [e[1] for e in due])
                values = tuple(
                    np.concatenate([values[c]] + [e[2][c] for e in due])
                    for c in range(len(values))
                )
                attempts = np.concatenate([attempts] + [e[3] for e in due])
        nodes = self.fg.node_list
        senders, receivers = self.indices[slots], self.src[slots]
        drop, copies, delay = faults.message_fates(
            self._round, senders, receivers, nodes
        )
        due_rounds = np.where(delay > 0, self._round + delay, -1)
        dropped = np.flatnonzero(drop)
        due_rounds[dropped] = faults.retry_due(
            self._round, senders[dropped], receivers[dropped], attempts[dropped], nodes
        )
        deferred = due_rounds >= 0
        self._defer_groups(
            due_rounds[deferred],
            slots[deferred],
            tuple(v[deferred] for v in values),
            attempts[deferred] + drop[deferred],
        )
        keep = copies > 0
        if faults.reorder:
            # Merges commute, so the permutations are drawn (to keep the
            # scalar engine's stream) and discarded.
            sizes = np.bincount(receivers[keep], weights=copies[keep], minlength=self.n)
            rows = np.flatnonzero(sizes >= 2)
            for row in rows[np.argsort(self._rank[rows])].tolist():
                faults.reorder_permutation(self._round, nodes[row], int(sizes[row]))
        # Duplicates count toward delivery totals but are not
        # materialised: every kernel merge is idempotent, so the extra
        # copies cannot change state (the monotonicity argument).
        return int(copies.sum()), slots[keep], tuple(v[keep] for v in values)

    def _defer_groups(
        self,
        due_rounds: np.ndarray,
        slots: np.ndarray,
        values: Tuple[np.ndarray, ...],
        attempts: np.ndarray,
    ) -> None:
        for due in np.unique(due_rounds):
            mask = due_rounds == due
            self._transit.append(
                (int(due), slots[mask], tuple(v[mask] for v in values), attempts[mask])
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def round_number(self) -> int:
        return self._round

    def _quiescent(self) -> bool:
        if not bool(self.kernel.halted.all()):
            return False
        if self._pending[0].size:
            return False
        if self._transit:
            return False
        if self.faults is not None and self.faults.pending_schedule_after(self._round):
            return False
        return True

    def initialize(self) -> None:
        """Run the kernel's round-0 setup and deliver its broadcasts."""
        if self._initialized:
            return
        broadcasters, columns = self.kernel.init()
        self._deliver(np.asarray(broadcasters, dtype=np.int64), columns)
        self._initialized = True

    def step_round(self) -> None:
        """Execute one synchronous round over the active set."""
        if not self._initialized:
            self.initialize()
        self._round += 1
        self.stats.rounds = self._round
        with tracing.span("engine.round"):
            active = np.flatnonzero(~self.kernel.halted | self._woken)
            slots, values = self._pending
            self._pending = (_EMPTY, ())
            broadcasters, columns = self.kernel.step(
                self._round, active, slots, values
            )
            self._deliver(np.asarray(broadcasters, dtype=np.int64), columns)
        self.metrics.gauge("repro.runtime.in_flight").set(
            sum(entry[1].size for entry in self._transit)
        )

    # Defined here, not inherited: the end-to-end tracer wraps
    # ``VectorEngine.run`` through the class's own ``__dict__``.
    def run(self, max_rounds: int = 10_000) -> RunStats:
        """Run until every row halts and no delivery is in flight."""
        record_dispatch("runtime.engine", path="vector")
        with tracing.span("engine.run"):
            return run_until_quiescent(
                self, self.step_round, max_rounds, "distributed execution"
            )


# ----------------------------------------------------------------------
# protocol kernels
# ----------------------------------------------------------------------
class FullReversalKernel(ArrayKernel):
    """Gafni–Bertsekas full reversal over pair heights (level, id).

    The id column is per-node constant, so beliefs max-merge on the
    level column alone (``np.maximum.at``); the sink test counts
    elementwise lexicographic violations per row segment and the raise
    is one ``np.maximum.reduceat`` fold.
    """

    name = "full-reversal"

    def __init__(
        self, destination: int, levels: np.ndarray, ties: np.ndarray
    ) -> None:
        self.destination = int(destination)
        self._levels0 = np.asarray(levels, dtype=np.int64)
        self._ties0 = np.asarray(ties, dtype=np.int64)

    def _bind(self) -> None:
        engine = self.engine
        self.level = self._levels0.copy()
        self.tie = self._ties0.copy()
        self.reversals = np.zeros(engine.n, dtype=np.int64)
        self.b_level = np.full(engine.indices.shape[0], _INT_MIN, dtype=np.int64)
        self.b_tie = self.tie[engine.indices]

    def init(self):
        return np.arange(self.engine.n, dtype=np.int64), (self.level,)

    def heights(self) -> Tuple[np.ndarray, ...]:
        """The height columns, in height-tuple order."""
        return self.level, self.tie

    def _merge(self, slots, values) -> None:
        if slots.size:
            np.maximum.at(self.b_level, slots, values[0])
            self._note_known(slots)

    def step(self, round_number, active, slots, values):
        self._merge(slots, values)
        engine = self.engine
        ready = self._ready_rows(
            active, (active == self.destination) | (engine.degrees[active] == 0)
        )
        if ready.size == 0:
            return _EMPTY, (self.level,)
        row_slots, seg = engine.row_slots(ready)
        own_level = self.level[ready][seg]
        own_tie = self.tie[ready][seg]
        at_most_own = (self.b_level[row_slots] < own_level) | (
            (self.b_level[row_slots] == own_level)
            & (self.b_tie[row_slots] <= own_tie)
        )
        violations = np.zeros(ready.size, dtype=np.int64)
        np.add.at(violations, seg[at_most_own], 1)
        is_sink = violations == 0
        self.halted[ready[~is_sink]] = True
        sinks = ready[is_sink]
        if sinks.size == 0:
            return _EMPTY, (self.level,)
        lens = engine.degrees[sinks]
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lens)[:-1])
        )
        sink_slots, _ = engine.row_slots(sinks)
        tops = np.maximum.reduceat(self.b_level[sink_slots], starts)
        self.level[sinks] = tops + 1
        self.reversals[sinks] += 1
        self.halted[sinks] = False
        return sinks, (self.level,)


class PartialReversalKernel(ArrayKernel):
    """Gafni–Bertsekas partial reversal over triple heights (a, b, id).

    The id column is again per-node constant; the (a, b) belief merge
    is a lexsort-by-slot batch reduction followed by a lexicographic
    compare-exchange against the stored beliefs.
    """

    name = "partial-reversal"

    def __init__(
        self,
        destination: int,
        a: np.ndarray,
        b: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        self.destination = int(destination)
        self._a0 = np.asarray(a, dtype=np.int64)
        self._b0 = np.asarray(b, dtype=np.int64)
        self._ids0 = np.asarray(ids, dtype=np.int64)

    def _bind(self) -> None:
        engine = self.engine
        self.a = self._a0.copy()
        self.b = self._b0.copy()
        self.ids = self._ids0.copy()
        self.reversals = np.zeros(engine.n, dtype=np.int64)
        m = engine.indices.shape[0]
        self.b_a = np.full(m, _INT_MIN, dtype=np.int64)
        self.b_b = np.zeros(m, dtype=np.int64)
        self.b_id = self.ids[engine.indices]

    def init(self):
        return np.arange(self.engine.n, dtype=np.int64), (self.a, self.b)

    def heights(self) -> Tuple[np.ndarray, ...]:
        """The height columns, in height-tuple order."""
        return self.a, self.b, self.ids

    def _merge(self, slots, values) -> None:
        if not slots.size:
            return
        va, vb = values
        # Reduce the batch to one winner (lexicographic max) per slot:
        # sort by (slot, a, b) and keep each slot group's last entry.
        order = np.lexsort((vb, va, slots))
        s = slots[order]
        a = va[order]
        b = vb[order]
        last = np.ones(s.size, dtype=bool)
        last[:-1] = s[1:] != s[:-1]
        s, a, b = s[last], a[last], b[last]
        current_a = self.b_a[s]
        current_b = self.b_b[s]
        take = (
            ~self._known[s]
            | (a > current_a)
            | ((a == current_a) & (b > current_b))
        )
        self.b_a[s[take]] = a[take]
        self.b_b[s[take]] = b[take]
        self._note_known(s)

    def step(self, round_number, active, slots, values):
        self._merge(slots, values)
        engine = self.engine
        ready = self._ready_rows(
            active, (active == self.destination) | (engine.degrees[active] == 0)
        )
        if ready.size == 0:
            return _EMPTY, (self.a, self.b)
        row_slots, seg = engine.row_slots(ready)
        own_a = self.a[ready][seg]
        own_b = self.b[ready][seg]
        own_id = self.ids[ready][seg]
        ba = self.b_a[row_slots]
        bb = self.b_b[row_slots]
        bid = self.b_id[row_slots]
        at_most_own = (ba < own_a) | (
            (ba == own_a) & ((bb < own_b) | ((bb == own_b) & (bid <= own_id)))
        )
        violations = np.zeros(ready.size, dtype=np.int64)
        np.add.at(violations, seg[at_most_own], 1)
        is_sink = violations == 0
        self.halted[ready[~is_sink]] = True
        sinks = ready[is_sink]
        if sinks.size == 0:
            return _EMPTY, (self.a, self.b)
        lens = engine.degrees[sinks]
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lens)[:-1])
        )
        sink_slots, sink_seg = engine.row_slots(sinks)
        new_a = np.minimum.reduceat(self.b_a[sink_slots], starts) + 1
        shares_a = self.b_a[sink_slots] == new_a[sink_seg]
        shared_b = np.full(sinks.size, _INT_MAX, dtype=np.int64)
        np.minimum.at(shared_b, sink_seg[shares_a], self.b_b[sink_slots[shares_a]])
        new_b = np.where(shared_b != _INT_MAX, shared_b - 1, self.b[sinks])
        self.a[sinks] = new_a
        self.b[sinks] = new_b
        self.reversals[sinks] += 1
        self.halted[sinks] = False
        return sinks, (self.a, self.b)


class SafetyLevelKernel(ArrayKernel):
    """Iterative hypercube safety-level refinement ([32]).

    Beliefs min-merge (levels only fall); the per-row rule —
    ``new_level = first k with sorted(neighbor levels)[k] < k``, else
    the dimension — runs as one padded-matrix row sort per round over
    the ready set.
    """

    name = "safety-levels"

    def __init__(self, dimension: int, faulty: np.ndarray) -> None:
        self.dimension = int(dimension)
        self._faulty0 = np.asarray(faulty, dtype=bool)

    def _bind(self) -> None:
        engine = self.engine
        self.faulty = self._faulty0.copy()
        self.level = np.where(self.faulty, 0, self.dimension).astype(np.int64)
        self.b_level = np.full(engine.indices.shape[0], _INT_MAX, dtype=np.int64)

    def init(self):
        return np.arange(self.engine.n, dtype=np.int64), (self.level,)

    def _merge(self, slots, values) -> None:
        if slots.size:
            np.minimum.at(self.b_level, slots, values[0])
            self._note_known(slots)

    def step(self, round_number, active, slots, values):
        self._merge(slots, values)
        engine = self.engine
        ready = self._ready_rows(active, self.faulty[active])
        if ready.size == 0:
            return _EMPTY, (self.level,)
        lens = engine.degrees[ready]
        width = int(lens.max()) if ready.size else 0
        row_slots, seg = engine.row_slots(ready)
        if width:
            cum = np.cumsum(lens)
            within = np.arange(row_slots.size, dtype=np.int64) - np.repeat(
                cum - lens, lens
            )
            padded = np.full((ready.size, width), _INT_MAX, dtype=np.int64)
            padded[seg, within] = self.b_level[row_slots]
            padded.sort(axis=1)
            below = padded < np.arange(width, dtype=np.int64)
            hit = below.any(axis=1)
            new_level = np.where(
                hit, below.argmax(axis=1), self.dimension
            ).astype(np.int64)
        else:
            new_level = np.full(ready.size, self.dimension, dtype=np.int64)
        changed = new_level != self.level[ready]
        changed_rows = ready[changed]
        self.level[changed_rows] = new_level[changed]
        self.halted[changed_rows] = False
        self.halted[ready[~changed]] = True
        return changed_rows, (self.level,)


WHITE, BLACK, GRAY = 0, 1, 2


class MISKernel(ArrayKernel):
    """The three-color MIS process with the scalar engine's timing.

    Round-r candidates compare against the *round-(r−1)* white
    broadcasters — including nodes that turn gray in round r — so the
    timeline lags :meth:`FrozenGraph.mis_round_masks` by design: this
    kernel certifies the engine protocol, not the synchronous closure.
    Payload column = the sender's color at send time; per-round flags
    are boolean scatters over the delivered slots.
    """

    name = "mis"

    def __init__(self, priorities: np.ndarray) -> None:
        self._priorities0 = np.asarray(priorities, dtype=np.float64)

    def _bind(self) -> None:
        engine = self.engine
        self.priority = self._priorities0.copy()
        self.color = np.zeros(engine.n, dtype=np.int64)
        self.slot_priority = self.priority[engine.indices]

    def init(self):
        return np.arange(self.engine.n, dtype=np.int64), (self.color,)

    def step(self, round_number, active, slots, values):
        engine = self.engine
        colored = self.color[active] != WHITE
        self.halted[active[colored]] = True
        white = active[~colored]
        if white.size == 0:
            return _EMPTY, (self.color,)
        got_black = np.zeros(engine.n, dtype=bool)
        has_violation = np.zeros(engine.n, dtype=bool)
        if slots.size:
            tags = values[0]
            black_slots = slots[tags == BLACK]
            got_black[engine.src[black_slots]] = True
            white_slots = slots[tags == WHITE]
            violating = white_slots[
                self.slot_priority[white_slots]
                >= self.priority[engine.src[white_slots]]
            ]
            has_violation[engine.src[violating]] = True
        to_gray = white[got_black[white]]
        rest = white[~got_black[white]]
        to_black = rest[~has_violation[rest]]
        stay = rest[has_violation[rest]]
        self.color[to_gray] = GRAY
        self.color[to_black] = BLACK
        self.halted[to_gray] = True
        self.halted[to_black] = True
        self.halted[stay] = False
        broadcasters = np.concatenate((to_gray, to_black, stay))
        return broadcasters, (self.color,)


# ----------------------------------------------------------------------
# protocol entry points (drop-in parity with the scalar wrappers)
# ----------------------------------------------------------------------
def _vector_reversal(
    graph,
    destination: Node,
    heights: Dict[Node, Tuple],
    kernel_type,
    columns: Tuple[int, ...],
    algorithm: str,
    max_rounds: int,
    fault_plan: Optional[FaultPlan],
):
    """Run a reversal kernel seeded with the height-tuple ``columns``
    and return the scalar wrappers' shape (see
    :func:`vector_full_reversal`)."""
    from repro.graphs.graph import Graph
    from repro.layering.link_reversal import orientation_from_heights

    dict_graph = graph if isinstance(graph, Graph) else None
    fg = graph.frozen() if dict_graph is not None else graph
    nodes = fg.node_list
    seeds = [np.array([heights[node][c] for node in nodes], dtype=np.int64) for c in columns]
    kernel = kernel_type(fg.index_of(destination), *seeds)
    engine = VectorEngine(fg, kernel, fault_plan=fault_plan)
    with tracing.span("layering.distributed_reversal"):
        stats = engine.run(max_rounds=max_rounds)
    final_heights = dict(zip(nodes, zip(*(column.tolist() for column in kernel.heights()))))
    reversals = dict(zip(nodes, kernel.reversals.tolist()))
    orientation = (
        orientation_from_heights(dict_graph, final_heights) if dict_graph is not None else None
    )
    labels = {"algorithm": algorithm}
    registry = get_registry()
    registry.counter("repro.layering.node_reversals", labels).inc(
        sum(reversals.values())
    )
    registry.histogram("repro.layering.steps", labels).observe(stats.rounds)
    return orientation, final_heights, reversals, stats.rounds


def vector_full_reversal(
    graph,
    destination: Node,
    heights: Dict[Node, Tuple],
    max_rounds: int = 100_000,
    fault_plan: Optional[FaultPlan] = None,
):
    """Array-plane :func:`~repro.layering.link_reversal_distributed.distributed_full_reversal`.

    Same signature and return shape — (orientation, final heights,
    per-node reversal counts, rounds) — same final state, rounds, and
    message counts; ``graph`` may be a :class:`Graph` or a
    :class:`FrozenGraph` (orientation is skipped for pure snapshots
    passed without a dict graph backing, returning ``None`` in its
    place).
    """
    return _vector_reversal(
        graph, destination, heights, FullReversalKernel, (0, -1),
        "vector-full", max_rounds, fault_plan,
    )


def vector_partial_reversal(
    graph,
    destination: Node,
    heights: Dict[Node, Tuple],
    max_rounds: int = 100_000,
    fault_plan: Optional[FaultPlan] = None,
):
    """Array-plane :func:`~repro.layering.link_reversal_distributed.distributed_partial_reversal`."""
    from repro.layering.link_reversal_distributed import lift_partial_heights

    return _vector_reversal(
        graph, destination, lift_partial_heights(heights), PartialReversalKernel,
        (0, 1, 2), "vector-partial", max_rounds, fault_plan,
    )


def vector_safety_levels(
    dimension: int,
    faulty,
    max_rounds: int = 10_000,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[Dict[Tuple[int, ...], int], int]:
    """Array-plane :func:`~repro.labeling.safety_distributed.distributed_safety_levels`.

    Builds the d-cube CSR directly (no dict graph), so the scale axis
    extends to n = 2^d ≈ 20,000 without per-node object cost.
    """
    from repro.labeling.safety import _check_faults

    faults = _check_faults(dimension, faulty)
    fg = hypercube_frozen(dimension)
    faulty_mask = np.zeros(fg.n, dtype=bool)
    index = fg.index
    for address in faults:
        faulty_mask[index[address]] = True
    kernel = SafetyLevelKernel(dimension, faulty_mask)
    engine = VectorEngine(fg, kernel, fault_plan=fault_plan)
    stats = engine.run(max_rounds=max_rounds)
    nodes = fg.node_list
    levels = {nodes[i]: int(kernel.level[i]) for i in range(fg.n)}
    return levels, stats.rounds


def vector_mis(
    graph, priorities: Optional[Dict[Node, float]] = None
) -> Tuple[set, int]:
    """Array-plane :func:`~repro.labeling.mis.distributed_mis`: (MIS, rounds)."""
    from repro.graphs.graph import Graph
    from repro.labeling.mis import frozen_id_priorities, id_priorities

    fg = graph.frozen() if isinstance(graph, Graph) else graph
    nodes = fg.node_list
    if priorities is None:
        if isinstance(graph, Graph):
            priorities = id_priorities(graph)
            priority = np.array(
                [priorities[node] for node in nodes], dtype=np.float64
            )
        else:
            priority = frozen_id_priorities(fg)
    else:
        priority = np.array(
            [priorities[node] for node in nodes], dtype=np.float64
        )
    kernel = MISKernel(priority)
    engine = VectorEngine(fg, kernel)
    stats = engine.run()
    black = {nodes[i] for i in np.flatnonzero(kernel.color == BLACK)}
    return black, stats.rounds


def hypercube_frozen(dimension: int) -> FrozenGraph:
    """The d-cube as a :class:`FrozenGraph`, built arithmetically.

    Node i's neighbors are ``i XOR 2^b``; ``node_list`` carries the
    MSB-first :data:`~repro.graphs.hypercube.BinaryAddress` tuples so
    results key identically to
    :func:`repro.graphs.hypercube.binary_hypercube`.
    """
    if dimension < 0:
        raise ValueError(f"dimension must be >= 0, got {dimension}")
    n = 1 << dimension
    base = np.arange(n, dtype=np.int64)
    if dimension:
        neighbors = base[:, None] ^ (
            np.int64(1) << np.arange(dimension, dtype=np.int64)
        )
        neighbors.sort(axis=1)
        indices = neighbors.ravel()
    else:
        indices = _EMPTY
    indptr = np.arange(n + 1, dtype=np.int64) * dimension
    addresses = [
        tuple((i >> (dimension - 1 - bit)) & 1 for bit in range(dimension))
        for i in range(n)
    ]
    return FrozenGraph.from_arrays(
        indptr, indices, node_list=addresses, copy=False, validate=False
    )
