"""Async query front-end: coalesce point queries into batched sweeps.

:class:`ServingGateway` puts an ``asyncio`` facade in front of a
:class:`~repro.serving.state.GraphService`.  Point queries are awaited
futures that land in a queue of :data:`QUEUE_SIZE` slots; a single
dispatcher task flushes whenever it holds ``max_batch`` requests, the
oldest request has waited ``max_delay`` seconds, or the event loop
went idle for two turns with nothing new to add, whichever comes
first.  A flush is where the batching pays off: the write barrier
runs once, every index query in the batch shares one incremental
repair, and distance queries sharing a source share one level array
from the service's hot-source store (swept once, then repaired).

Mutations are queued too — the **write fast path**.  ``insert_edge`` /
``delete_edge`` / ``apply_batch`` take their sequence number and enter
a per-writer mutation deque synchronously at call time (they return
the awaitable future rather than being coroutines, so fire-and-forget
callers keep their ordering; the optional ``writer`` tag names the
deque), then ride the same flush triggers as queries.  Each flush
begins with a **sequence barrier**: every unapplied mutation in the
batch — and any still-queued mutation sequenced before the newest
batched request — is applied in sequence order, each through its own
service call: the scalar O(degree) ``insert_edge`` / ``delete_edge``,
or one atomic vectorized :meth:`GraphService.apply_batch` per
``apply_batch`` request.  The service is the only judge of validity,
so a gateway write fails exactly when the same direct call would.
Only then are answers computed, so a query submitted after a mutation
never observes the pre-mutation topology (it may observe a *newer*
one, exactly like the old synchronous write path).  Application is
exactly-once: the barrier stores each mutation's outcome on its
request, so a ``drop`` fate only delays the acknowledgment, never
re-applies the mutation.

Multi-writer fairness: the dispatcher drains the mutation deques
**round-robin, one request per writer per turn**, so a hot writer
flooding its own deque cannot push a lone writer's single mutation
past the next flush — each flush admits every waiting writer at least
once (as long as the batch holds that many requests).  Note the
*acknowledgment* is what round-robin protects; the sequence barrier
already applies every mutation sequenced before the newest batched
request, whichever deque it waits in, so ordering semantics are
unchanged.  Untagged mutations share one default writer lane.

Chaos testing hooks into :mod:`repro.faults`: give the gateway a
:class:`~repro.faults.plan.FaultPlan` and each flush draws the whole
batch's fates from the deterministic fault session in one
:meth:`~repro.faults.plan.FaultSession.message_fates` call.  A
``reorder`` fate permutes the batch, a
``delay`` fate yields the event loop before answering, and a ``drop``
fate models a mid-batch crash — the dropped request and everything
after it in the batch are re-queued (counted in
``repro.serving.retries``) instead of answered, and get fresh fates on
the next flush.  ``stop()`` performs a teardown flush with injection
disabled, so no query is ever lost; requests submitted once that flush
has begun are refused with the not-running error.  If the dispatcher
itself dies, every outstanding future resolves anyway: mutations the
barrier already applied get their stored outcome, everything else the
crash error.

Emitted metrics (see :mod:`repro.observability.telemetry`):
``repro.serving.batches`` / ``batch_size`` / ``queue_depth`` per
flush, ``repro.serving.sweeps`` per BFS sweep (counted by the
service's hot-source store),
``repro.serving.queries{kind}`` / ``mutations{kind}`` per accepted
request, and per write barrier ``repro.serving.batch.writes`` and the
``write_size`` (edge operations) and ``batch.writers`` (distinct
writers) histograms.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, FaultSession
from repro.observability.telemetry import (
    record_batch_writers,
    record_serving_batch,
    record_serving_mutation,
    record_serving_query,
    record_serving_retry,
    record_write_batch,
)
from repro.serving.state import GraphService

Node = Hashable

#: Marker for "queue momentarily empty" in the dispatcher fill loop.
_EMPTY = object()

#: Queue sentinel a mutation submit pushes (best-effort) to wake a
#: dispatcher parked on an empty queue; carries no request.
_WAKE = object()

#: Flush when this many requests are waiting ...
DEFAULT_MAX_BATCH = 32
#: ... or when the oldest has waited this long (seconds).
DEFAULT_MAX_DELAY = 0.005

#: Request-queue capacity; a query submit waits while it is full.
QUEUE_SIZE = 1024

#: Request kinds that mutate topology (handled by the write barrier).
_MUTATION_KINDS = frozenset({"insert_edge", "delete_edge", "apply_batch"})


@dataclass
class _Request:
    """One queued request (point query or mutation) and its future."""

    seq: int
    kind: str
    args: Tuple[Any, ...]
    future: Optional["asyncio.Future"] = field(repr=False, default=None)
    #: Mutation bookkeeping: the sequence barrier applies each mutation
    #: exactly once and stores its outcome here, so a drop fate only
    #: delays the acknowledgment, never the application.
    applied: bool = False
    result: Any = None
    error: Optional[BaseException] = None
    #: Which writer lane a mutation arrived on (None = default lane).
    writer: Hashable = None


class ServingGateway:
    """Bounded-queue async front-end over a :class:`GraphService`.

    Every name in :attr:`GraphService.POINT_QUERIES` is a coroutine
    method here, with the service method's arguments and answer.  Use
    as an async context manager::

        async with ServingGateway(service) as gw:
            d = await gw.distance("a", "b")
    """

    def __init__(
        self,
        service: GraphService,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: float = DEFAULT_MAX_DELAY,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self._queue: "asyncio.Queue[Optional[_Request]]" = asyncio.Queue(
            maxsize=QUEUE_SIZE
        )
        self._retry: Deque[_Request] = deque()
        #: Pending mutations by writer lane, appended synchronously at
        #: submit time so their sequence numbers predate any later
        #: query's.  Drained round-robin across lanes (fairness).
        self._mutations: Dict[Hashable, Deque[_Request]] = {}
        #: Round-robin rotation over writer lanes with pending work.
        self._writer_order: Deque[Hashable] = deque()
        self._faults = faults
        self._session: Optional[FaultSession] = None
        self._task: Optional["asyncio.Task"] = None
        self._crashed: Optional[BaseException] = None
        self._draining = False
        #: Producers currently inside a queue put (see :meth:`_put`).
        self._putting = 0
        self._seq = 0
        self.batches_flushed = 0
        self.queries_answered = 0
        self.mutations_applied = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the dispatcher task (requires a running event loop)."""
        if self._task is not None:
            raise RuntimeError("gateway already started")
        self._crashed = None
        self._draining = False
        if self._faults is not None:
            self._session = self._faults.start()
        self._task = asyncio.get_running_loop().create_task(self._dispatch())

    async def stop(self) -> None:
        """Flush everything still queued (faults off), then shut down.

        Re-raises the dispatcher's failure if it crashed.  A crashed
        dispatcher no longer drains the queue, so the stop sentinel is
        only enqueued while the task is still alive — never a blocking
        put into a full queue nobody is reading.
        """
        if self._task is None:
            return
        task = self._task
        if not task.done():
            await self._put(None)
        try:
            await task
        finally:
            self._task = None

    async def __aenter__(self) -> "ServingGateway":
        self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # mutations — queued, applied by the flush-time sequence barrier
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        """Nudge a dispatcher parked on an empty queue (best effort).

        A full queue means the dispatcher is busy draining and will see
        the mutation deque on its next fill pass anyway.
        """
        try:
            self._queue.put_nowait(_WAKE)
        except asyncio.QueueFull:
            pass

    def _submit_mutation(
        self, kind: str, args: Tuple[Any, ...], writer: Hashable = None
    ) -> "asyncio.Future":
        if self._task is None:
            raise RuntimeError("gateway not started")
        if self._refusing():
            raise self._crash_error()
        self._seq += 1
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        queue = self._mutations.get(writer)
        if queue is None:
            queue = self._mutations[writer] = deque()
        if not queue:
            # (Re-)joining the rotation; drained-dry lanes left it.
            self._writer_order.append(writer)
        queue.append(_Request(self._seq, kind, args, future=future, writer=writer))
        self._wake()
        return future

    def _pending_mutations(self) -> List[_Request]:
        """Every queued-but-undrained mutation, across all lanes."""
        return [
            request
            for queue in self._mutations.values()
            for request in queue
        ]

    def insert_edge(
        self, u: Node, v: Node, writer: Hashable = None
    ) -> "asyncio.Future":
        """Queue an edge insert; the future resolves to ``True`` if the
        topology changed (``False`` for a duplicate, like the service).

        Synchronous enqueue, not a coroutine: the mutation takes its
        sequence number at call time, so even a fire-and-forget caller
        gets read-your-writes against every later query.  ``writer``
        tags the fairness lane the request waits in.
        """
        record_serving_mutation("insert")
        return self._submit_mutation("insert_edge", (u, v), writer)

    def delete_edge(
        self, u: Node, v: Node, writer: Hashable = None
    ) -> "asyncio.Future":
        """Queue an edge delete; the future resolves to ``None`` or an
        :class:`~repro.errors.EdgeNotFoundError` (same enqueue contract
        as :meth:`insert_edge`)."""
        record_serving_mutation("delete")
        return self._submit_mutation("delete_edge", (u, v), writer)

    def apply_batch(
        self,
        inserts: "List[Tuple[Node, Node]]" = (),
        deletes: "List[Tuple[Node, Node]]" = (),
        writer: Hashable = None,
    ) -> "asyncio.Future":
        """Queue a whole mutation batch as one sequenced request.

        The request is one service :meth:`GraphService.apply_batch`
        call at its barrier, so it is atomic: either all its operations
        take effect or the future carries the validation error and none
        do.  Resolves to ``{"ops": ..., "changed": ...}``.
        """
        inserts = [tuple(pair) for pair in inserts]
        deletes = [tuple(pair) for pair in deletes]
        if inserts:
            record_serving_mutation("insert", len(inserts))
        if deletes:
            record_serving_mutation("delete", len(deletes))
        return self._submit_mutation("apply_batch", (inserts, deletes), writer)

    # ------------------------------------------------------------------
    # queries — awaited futures resolved at the next flush
    # ------------------------------------------------------------------
    async def _submit(self, kind: str, *args: Any) -> Any:
        if self._task is None:
            raise RuntimeError("gateway not started")
        if self._refusing():
            raise self._crash_error()
        record_serving_query(kind)
        self._seq += 1
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        await self._put(_Request(self._seq, kind, args, future=future))
        # The put can block on a full queue; if the dispatcher died or
        # began its teardown drain in the meantime, refuse the request
        # (the drain skips it) unless it was already resolved.
        if self._refusing() and not future.done():
            future.cancel()
            raise self._crash_error()
        return await future

    async def _put(self, item: Optional[_Request]) -> None:
        """Enqueue ``item``, counted in :attr:`_putting` while inside the
        put.  A put into a queue with room never yields, so at any
        suspension point the count is the producers blocked on a full
        queue (or woken but not yet resumed)."""
        self._putting += 1
        try:
            await self._queue.put(item)
        finally:
            self._putting -= 1

    def _refusing(self) -> bool:
        """Requests fail fast once the dispatcher crashed, finished, or
        began its teardown drain: the drain only has to outlast the
        producers already waiting, so ``stop()`` always returns."""
        return (
            self._task is None
            or self._crashed is not None
            or self._draining
            or self._task.done()
        )

    def _crash_error(self) -> RuntimeError:
        error = RuntimeError("gateway dispatcher is not running")
        error.__cause__ = self._crashed
        return error

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _fill_from_mutations(self, batch: List[_Request]) -> bool:
        """Drain writer lanes round-robin, one request per lane per turn.

        Fairness invariant: a lane that was waiting when a flush fills
        its batch contributes at least one request before any lane
        contributes a second — a hot writer cannot starve a lone one.
        Lanes drained dry leave the rotation (they re-join on their
        next submit).
        """
        took = False
        order = self._writer_order
        while order and len(batch) < self.max_batch:
            writer = order.popleft()
            queue = self._mutations.get(writer)
            if not queue:
                self._mutations.pop(writer, None)
                continue
            batch.append(queue.popleft())
            took = True
            if queue:
                order.append(writer)
            else:
                del self._mutations[writer]
        return took

    async def _dispatch(self) -> None:
        batch: List[_Request] = []
        try:
            stopping = False
            while not stopping:
                batch = []
                while self._retry and len(batch) < self.max_batch:
                    batch.append(self._retry.popleft())
                self._fill_from_mutations(batch)
                while not batch:
                    item = await self._queue.get()
                    if item is None:
                        stopping = True
                        break
                    if item is not _WAKE:
                        batch.append(item)
                    self._fill_from_mutations(batch)
                if stopping:
                    break
                loop = asyncio.get_running_loop()
                deadline = loop.time() + self.max_delay
                idle_rounds = 0
                while len(batch) < self.max_batch:
                    if self._fill_from_mutations(batch):
                        idle_rounds = 0
                        continue
                    # Drain whatever is already queued without timer
                    # setup.
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        item = _EMPTY
                    if item is None:
                        stopping = True
                        break
                    if item is _WAKE:
                        continue
                    if item is not _EMPTY:
                        idle_rounds = 0
                        batch.append(item)
                        continue
                    # Queue empty: give producers one scheduling turn,
                    # then flush early if nothing new showed up (an
                    # idle event loop means no one is about to extend
                    # this batch) — the deadline stays as the hard
                    # upper bound.
                    if idle_rounds >= 2 or loop.time() >= deadline:
                        break
                    idle_rounds += 1
                    await asyncio.sleep(0)
                if batch:
                    await self._execute(batch)
            # Teardown flush: answer every still-queued request with
            # fault injection off, so a stopped gateway never strands
            # a caller.  The whole drain stays in ``batch`` so a crash
            # in any chunk resolves the chunks after it too.  Each pass
            # wakes one producer blocked on the full queue per item it
            # takes (it is refused once its put lands), so passes repeat
            # until none is left blocked; the last pass ends the task
            # without yielding, so nothing is left in the queue.
            self._draining = True
            while True:
                batch = sorted(self._drain(), key=lambda request: request.seq)
                for start in range(0, len(batch), self.max_batch):
                    await self._execute(batch[start : start + self.max_batch])
                if not self._putting:
                    break
                await asyncio.sleep(0)
        except BaseException as error:
            # Anything escaping a flush (telemetry, fault-session
            # bookkeeping, cancellation) kills the dispatcher; fail
            # every outstanding future first so no awaiter hangs, and
            # keep draining until no producer is left blocked on the
            # full queue (each one woken is refused once its put lands).
            self._abort(batch, error)
            while self._putting:
                await asyncio.sleep(0)
                self._abort([], error)
            raise

    def _drain(self) -> List[_Request]:
        """Take every request still held: retries, parked mutations and
        queued items, minus queued requests already refused.  Emptying
        the queue also wakes producers stuck in a put against a full
        queue."""
        held = list(self._retry)
        self._retry.clear()
        held.extend(self._pending_mutations())
        self._mutations.clear()
        self._writer_order.clear()
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None and item is not _WAKE and not item.future.done():
                held.append(item)
        return held

    def _abort(self, batch: List[_Request], error: BaseException) -> None:
        """Dispatcher teardown on failure: strand no caller.

        Marks the gateway crashed (later submissions fail fast) and
        resolves the in-flight batch plus everything still held.  A
        mutation the sequence barrier already applied is in the
        service, so it gets its stored outcome; only unapplied
        requests get the crash error.
        """
        self._crashed = error
        for request in batch + self._drain():
            future = request.future
            if future is None or future.done():
                continue
            if not request.applied:
                future.set_exception(self._crash_error())
            elif request.error is not None:
                future.set_exception(request.error)
            else:
                future.set_result(request.result)

    def _apply_mutations(self, batch: List[_Request]) -> None:
        """The sequence barrier: apply pending mutations in sequence order.

        Covers every unapplied mutation in the batch plus any mutation
        still in the deque that is sequenced before the newest batched
        request (a query must never be answered while an older write is
        parked; such extras stay queued so their futures resolve on a
        later flush, with the outcome stored here).  Each request is its
        own :class:`GraphService` call — the scalar O(degree)
        ``insert_edge`` / ``delete_edge``, or one atomic vectorized
        ``apply_batch`` — so the service alone decides what is valid,
        and a request it rejects leaves it untouched.
        """
        group = [
            request
            for request in batch
            if request.kind in _MUTATION_KINDS and not request.applied
        ]
        parked = self._pending_mutations()
        if parked:
            max_seq = max(request.seq for request in batch)
            group.extend(
                request
                for request in parked
                if not request.applied and request.seq < max_seq
            )
        if not group:
            return
        group.sort(key=lambda request: request.seq)
        service = self.service
        ops = 0
        for request in group:
            try:
                if request.kind == "apply_batch":
                    inserts, deletes = request.args
                    ops += len(inserts) + len(deletes)
                    result = service.apply_batch(inserts, deletes)
                    request.result = {
                        "ops": len(inserts) + len(deletes),
                        "changed": result.changed,
                    }
                else:
                    ops += 1
                    request.result = getattr(service, request.kind)(
                        *request.args
                    )
            except Exception as error:  # noqa: BLE001 — delivered to caller
                request.error = error
            else:
                self.mutations_applied += 1
            # Marked as soon as its own call is over, so a crash abort
            # never reports a committed write as failed.
            request.applied = True
        record_write_batch(ops)
        record_batch_writers(len({request.writer for request in group}))

    async def _execute(self, batch: List[_Request]) -> None:
        """Answer one batch: write barrier, coalesced sweeps, fates."""
        record_serving_batch(len(batch), self._queue.qsize())
        self.batches_flushed += 1
        self._apply_mutations(batch)
        chaos = self._session is not None and not self._draining
        if chaos and len(batch) > 1:
            perm = self._session.reorder_permutation(
                self.batches_flushed, "gateway", len(batch)
            )
            if perm is not None:
                batch = [batch[i] for i in perm]
        drop = np.zeros(len(batch), dtype=bool)
        delay = np.zeros(len(batch), dtype=np.int64)
        if chaos:
            drop, _, delay = self._session.message_fates(
                self.batches_flushed,
                ["gateway"] * len(batch),
                [f"q{request.seq}" for request in batch],
            )
        crashed = False
        for request, lost, wait in zip(batch, drop.tolist(), delay.tolist()):
            # A drop is the crash point: everything after it is lost too.
            crashed = crashed or lost
            if crashed:
                self._retry.append(request)
                record_serving_retry()
                continue
            try:
                result = self._answer(request)
            except Exception as error:  # noqa: BLE001 — delivered to caller
                if not request.future.done():
                    request.future.set_exception(error)
                continue
            for _ in range(wait):
                await asyncio.sleep(0)
            if not request.future.done():
                request.future.set_result(result)
                if request.kind not in _MUTATION_KINDS:
                    self.queries_answered += 1

    def _answer(self, request: _Request) -> Any:
        """Compute one answer against the *current* service state."""
        service = self.service
        if request.kind in _MUTATION_KINDS:
            # Applied (exactly once) by the sequence barrier; this just
            # delivers the stored outcome — possibly on a retry flush
            # after a drop fate swallowed the first acknowledgment.
            if request.error is not None:
                raise request.error
            return request.result
        if request.kind == "distance":
            # Every distance query asks the service, whose hot-source
            # store holds (and repairs) the swept arrays: same-source
            # queries share one sweep across the batch and beyond.
            u, v = request.args
            target = service.patched.index_of(v)
            level = int(service.distances_from(u)[target])
            return None if level < 0 else level
        # Looked up per call, so a wrapped service method is honoured.
        return getattr(service, request.kind)(*request.args)

    def __repr__(self) -> str:
        return (
            f"ServingGateway(max_batch={self.max_batch}, "
            f"max_delay={self.max_delay}, "
            f"batches={self.batches_flushed}, "
            f"answered={self.queries_answered})"
        )


def _point_query(kind: str):
    """The gateway coroutine answering one service point query."""

    async def query(self: ServingGateway, *args: Any) -> Any:
        return await self._submit(kind, *args)

    query.__name__ = kind
    query.__qualname__ = f"ServingGateway.{kind}"
    query.__doc__ = getattr(GraphService, kind).__doc__
    return query


for _kind in GraphService.POINT_QUERIES:
    setattr(ServingGateway, _kind, _point_query(_kind))
del _kind
