"""Model check of :class:`ServingGateway` against a sequential oracle.

A Hypothesis state machine drives random interleavings of
fire-and-forget writes on several writer lanes, awaited and unawaited
distance queries, event-loop turns, ``stop()``/``start()`` cycles with
writes and queries submitted in the loop turn ``stop()`` starts and the
next, and one-shot crashes of the flush hook, under one fault plan per
run (none, drop, reorder, delay, or all three).  The oracle is a set of edges over
eight nodes that replays the submitted mutations in submit order.

Invariants:

* **read-your-writes** — a distance answer equals the oracle's distance
  after the first ``j`` mutations, for some ``j`` between the mutation
  count when the query was submitted and when its answer arrived;
* **every future resolves** — after each ``stop()``, crash or not; a
  query already in the queue when ``stop()`` begins is answered unless
  its epoch crashed, while a query whose put was still blocked on the
  full queue then, or one submitted while ``stop()`` runs, and a write
  submitted while it runs, is either answered like any other or
  refused with the gateway's not-running error;
* **the queue bound** — the request queue never holds more than
  :data:`~repro.serving.gateway.QUEUE_SIZE` items (set small here);
* **committed state** — the service's edge set equals the oracle's
  replay of exactly the mutations whose futures did not fail with the
  crash error, and every other mutation future carries the outcome the
  oracle computes for it.
"""

import asyncio
from collections import deque
from itertools import combinations, permutations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import EdgeNotFoundError
from repro.faults.injectors import MessageFaults
from repro.faults.plan import FaultPlan
from repro.graphs.graph import Graph
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.serving import GraphService, ServingGateway
from repro.serving import gateway as gateway_module

NODES = tuple(range(8))
INITIAL_EDGES = tuple((i, i + 1) for i in range(len(NODES) - 1))
PAIR = st.sampled_from(tuple(permutations(NODES, 2)))
WRITER = st.sampled_from((None, "a", "b"))
#: One mutation as ``(kind, args)``: single-edge writes, often invalid
#: deletes and duplicate inserts, or an atomic batch.
WRITE = st.one_of(
    st.tuples(st.sampled_from(["insert_edge", "delete_edge"]), PAIR),
    st.tuples(
        st.just("apply_batch"),
        st.tuples(st.lists(PAIR, max_size=3), st.lists(PAIR, max_size=3)),
    ),
)
#: One request submitted while ``stop()`` runs: a write, or a query
#: and whether the caller awaits it.
SUBMIT = st.one_of(
    st.tuples(st.just("write"), st.tuples(WRITE, WRITER)),
    st.tuples(st.just("query"), st.tuples(PAIR, st.booleans())),
)
QUEUE_SIZE = 3
#: Loop turns a resolved query's task needs to finish after ``stop()``.
SETTLE_TURNS = 4
PLANS = {
    "none": None,
    "drop": FaultPlan(1, injectors=(MessageFaults(drop=0.3),)),
    "reorder": FaultPlan(2, injectors=(MessageFaults(reorder=0.7),)),
    "delay": FaultPlan(3, injectors=(MessageFaults(delay=0.5, max_delay=3),)),
    "all": FaultPlan(
        4,
        injectors=(
            MessageFaults(drop=0.2, delay=0.3, max_delay=2, reorder=0.5),
        ),
    ),
}


class FlushCrash(Exception):
    """Raised by the armed flush hook."""


class CrashingFlushHook:
    """Stands in for the gateway's per-flush telemetry hook.  Once armed
    with ``after``, it lets that many more flushes through, then raises
    :class:`FlushCrash` once."""

    def __init__(self, record):
        self.record = record
        self.after = None

    def __call__(self, *args, **kwargs):
        if self.after == 0:
            self.after = None
            raise FlushCrash("flush hook crashed")
        if self.after is not None:
            self.after -= 1
        self.record(*args, **kwargs)


def canon(u, v):
    return (u, v) if u < v else (v, u)


def apply_mutation(edges, kind, args):
    """Apply one gateway mutation to the oracle edge set in place and
    return its outcome (an exception instance for a failed request)."""
    if kind == "insert_edge":
        key = canon(*args)
        if key in edges:
            return False
        edges.add(key)
        return True
    if kind == "delete_edge":
        key = canon(*args)
        if key not in edges:
            return EdgeNotFoundError(*args)
        edges.remove(key)
        return None
    inserts, deletes = args
    staged = set(edges)
    changed = 0
    for u, v in inserts:
        if canon(u, v) not in staged:
            staged.add(canon(u, v))
            changed += 1
    for u, v in deletes:
        if canon(u, v) not in staged:
            return EdgeNotFoundError(u, v)
        staged.remove(canon(u, v))
        changed += 1
    edges.clear()
    edges.update(staged)
    return {"ops": len(inserts) + len(deletes), "changed": changed}


def oracle_distance(edges, source, target):
    adjacency = {node: set() for node in NODES}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    levels = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in levels:
                levels[neighbour] = levels[node] + 1
                frontier.append(neighbour)
    return levels.get(target)


def is_crash_error(error):
    return isinstance(error, RuntimeError) and "not running" in str(error)


def is_refusal(error):
    """The gateway's error for a request reaching a stopped (or
    stopping) dispatcher."""
    return is_crash_error(error) or (
        isinstance(error, RuntimeError) and "not started" in str(error)
    )


class GatewayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.flush_hook = gateway_module.record_serving_batch
        self.flush_hook.after = None
        self.loop = asyncio.new_event_loop()
        self.service = GraphService(Graph(list(INITIAL_EDGES)), landmark_count=1)
        self.gateway = None
        self.epoch = 0
        self.crashed_epochs = set()
        #: (kind, args, future, epoch) per accepted mutation, submit order.
        self.mutations = []
        #: (task, (source, target), epoch) per query not yet checked.
        self.queries = []
        #: Query tasks that may fail with the not-running error.
        self.refusable = set()
        #: Query tasks whose request put into the queue has returned.
        self.enqueued = set()

    def run(self, awaitable):
        return self.loop.run_until_complete(awaitable)

    async def _start(self):
        self.gateway.start()

    @initialize(
        plan=st.sampled_from(sorted(PLANS)),
        max_batch=st.sampled_from([1, 2, 4]),
        max_delay=st.sampled_from([0.0, 0.002]),
    )
    def start_gateway(self, plan, max_batch, max_delay):
        self.gateway = ServingGateway(
            self.service,
            max_batch=max_batch,
            max_delay=max_delay,
            faults=PLANS[plan],
        )
        put = self.gateway._put

        async def tracked_put(item):
            await put(item)
            self.enqueued.add(asyncio.current_task())

        self.gateway._put = tracked_put
        self.run(self._start())

    # -- writes --------------------------------------------------------
    def submit(self, writes):
        """Submit fire-and-forget writes back to back in one loop step."""

        async def go():
            for (kind, args), writer in writes:
                try:
                    future = getattr(self.gateway, kind)(*args, writer=writer)
                except RuntimeError as error:
                    # Submits fail fast only once the dispatcher has died.
                    assert is_crash_error(error)
                    assert self.gateway._crashed is not None
                    return
                self.mutations.append((kind, args, future, self.epoch))

        self.run(go())

    @rule(
        writes=st.lists(st.tuples(WRITE, WRITER), min_size=1, max_size=4),
        crash_after=st.none() | st.integers(min_value=0, max_value=2),
    )
    def write_burst(self, writes, crash_after):
        """Fire-and-forget writes, optionally arming a one-shot crash of
        the flush hook that lets ``crash_after`` more flushes through."""
        if crash_after is not None:
            self.flush_hook.after = crash_after
        self.submit(writes)

    @rule(index=st.integers(min_value=0), writer=WRITER)
    def delete_present_edge(self, index, writer):
        edges = set(INITIAL_EDGES)
        for kind, args, _, _ in self.mutations:
            apply_mutation(edges, kind, args)
        edges = sorted(edges)
        if edges:
            self.submit([(("delete_edge", edges[index % len(edges)]), writer)])

    # -- reads ---------------------------------------------------------
    async def query(self, source, target):
        submitted = len(self.mutations)
        answer = await self.gateway.distance(source, target)
        return submitted, answer, len(self.mutations)

    @rule(pair=PAIR, awaited=st.booleans())
    def distance(self, pair, awaited):
        task = self.loop.create_task(self.query(*pair))
        self.queries.append((task, pair, self.epoch))
        if awaited:
            self.run(asyncio.wait({task}, timeout=2.0))
            assert task.done(), "awaited query never resolved"

    # -- scheduling, lifecycle, crashes --------------------------------
    @rule(turns=st.integers(min_value=0, max_value=3))
    def yield_turns(self, turns):
        async def go():
            for _ in range(turns):
                await asyncio.sleep(0)

        self.run(go())

    @rule(now=st.lists(SUBMIT, max_size=3), next_turn=st.lists(SUBMIT, max_size=3))
    def restart(self, now, next_turn):
        """Start ``stop()`` as a task, submit in the same loop turn and
        the next, check everything resolved, then start again."""
        awaited = []

        def offer(submits):
            for what, item in submits:
                if what == "query":
                    pair, wait = item
                    task = self.loop.create_task(self.query(*pair))
                    self.queries.append((task, pair, self.epoch))
                    self.refusable.add(task)
                    if wait:
                        awaited.append(task)
                    continue
                (kind, args), writer = item
                try:
                    future = getattr(self.gateway, kind)(*args, writer=writer)
                except RuntimeError as error:
                    assert is_refusal(error), error
                    continue
                self.mutations.append((kind, args, future, self.epoch))

        async def go():
            stopper = self.loop.create_task(self.stop())
            offer(now)
            await asyncio.sleep(0)
            offer(next_turn)
            if awaited:
                await asyncio.wait(awaited, timeout=2.0)
                assert all(task.done() for task in awaited), (
                    "a query awaited during stop() never resolved"
                )
            await self.settle(stopper)

        self.run(asyncio.wait_for(go(), timeout=5.0))
        self.check_stopped()
        self.epoch += 1
        self.run(self._start())

    @invariant()
    def queue_bound_holds(self):
        if self.gateway is not None:
            assert self.gateway._queue.maxsize == QUEUE_SIZE
            assert self.gateway._queue.qsize() <= QUEUE_SIZE

    async def settle(self, stopping):
        """Await a ``stop()``, noting a crash, then let answered query
        tasks finish."""
        try:
            await stopping
        except FlushCrash:
            self.crashed_epochs.add(self.epoch)
        for _ in range(SETTLE_TURNS):
            await asyncio.sleep(0)

    async def stop(self):
        """The gateway's ``stop()``.  A query whose put is still blocked
        on the full queue when it begins may be refused; one already
        queued must be answered."""
        self.refusable.update(
            task
            for task, _, _ in self.queries
            if not task.done() and task not in self.enqueued
        )
        await self.gateway.stop()

    def stop_and_check(self):
        self.run(asyncio.wait_for(self.settle(self.stop()), timeout=5.0))
        self.check_stopped()

    def check_stopped(self):
        assert all(future.done() for _, _, future, _ in self.mutations), (
            "a mutation future was stranded by stop()"
        )
        assert all(task.done() for task, _, _ in self.queries), (
            "a query was stranded by stop()"
        )
        states = self.check_committed_state()
        for task, (source, target), epoch in self.queries:
            error = task.exception()
            if error is not None:
                if task in self.refusable:
                    assert is_refusal(error), error
                else:
                    assert is_crash_error(error) and epoch in self.crashed_epochs
                continue
            submitted, answer, answered = task.result()
            seen = {
                oracle_distance(states[j], source, target)
                for j in range(submitted, answered + 1)
            }
            assert answer in seen, (
                f"distance{(source, target)} = {answer}, but the oracle "
                f"gives {seen} after mutations {submitted}..{answered}"
            )
        self.queries = []
        self.refusable.clear()
        self.enqueued.clear()

    def check_committed_state(self):
        """Replay the committed mutations; return the oracle edge set
        after each prefix of the submitted ones."""
        edges = set(INITIAL_EDGES)
        states = [frozenset(edges)]
        for kind, args, future, epoch in self.mutations:
            error = future.exception()
            if is_crash_error(error):
                assert epoch in self.crashed_epochs
            else:
                expected = apply_mutation(edges, kind, args)
                if isinstance(expected, Exception):
                    assert type(error) is type(expected), (kind, args, error)
                else:
                    assert error is None, (kind, args, error)
                    assert future.result() == expected, (kind, args)
            states.append(frozenset(edges))
        served = {
            (u, v)
            for u, v in combinations(NODES, 2)
            if self.service.has_edge(u, v)
        }
        assert served == edges, "service state differs from committed replay"
        return states

    def teardown(self):
        try:
            if self.gateway is not None and self.gateway._task is not None:
                self.stop_and_check()
        finally:
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
            self.loop.close()


@pytest.fixture
def registry():
    fresh = MetricsRegistry("test-gateway-model")
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def model_gateway(monkeypatch, registry):
    """The small queue and the crashable flush hook the machine needs."""
    monkeypatch.setattr(gateway_module, "QUEUE_SIZE", QUEUE_SIZE)
    monkeypatch.setattr(
        gateway_module,
        "record_serving_batch",
        CrashingFlushHook(gateway_module.record_serving_batch),
    )


@pytest.mark.parametrize(
    "max_batch,max_delay,queued", [(4, 0.0, 4), (4, 0.002, 1), (4, 0.002, 2)]
)
def test_queries_queued_before_stop_are_answered(
    model_gateway, max_batch, max_delay, queued
):
    """A pinned sequence the random search rarely draws: unawaited
    queries already queued when ``stop()`` begins share the dispatcher's
    batch with the stop sentinel, and must be answered, not refused."""
    machine = GatewayMachine()
    try:
        machine.start_gateway("none", max_batch, max_delay)
        for target in range(1, queued + 1):
            machine.distance((0, target), False)
        machine.restart([], [])
    finally:
        machine.teardown()


def test_gateway_matches_sequential_oracle(model_gateway):
    run_state_machine_as_test(
        GatewayMachine,
        settings=settings(
            max_examples=60,
            stateful_step_count=30,
            derandomize=True,
            deadline=None,
        ),
    )
