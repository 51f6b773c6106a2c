"""The two serving workloads: a live Gnutella graph behind the gateway.

``GraphService`` holds the graph and its incremental indexes;
``ServingGateway`` queues, coalesces and answers requests.  A *pass* is
one block of requests drawn from the workload's mix and driven by
:data:`CLIENTS` closed-loop clients (each sends its next request when
the previous one is answered), so ``pass_s`` is the time the system
needs to clear a fixed amount of work at full load (at the reference
host speed, see ``HostClock``).  An untimed warm-up block comes first.
The traced run
adds an open-loop segment at the workload's nominal rate, which gives
the per-request latencies at that rate.

The stream is generated from the seed ahead of each block.  Writes
toggle edges of a fixed churn pool (half seed edges, half fresh pairs),
generated against the running edge set so every write is valid in
sequence order; the gateway's sequence barrier applies them in that
order however the clients interleave.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import selectors
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from e2e import checks
from e2e.layers import READ, WRITE, layer_values, traced
from e2e.report import HostClock, Report, timed_setups
from e2e.trace import SpanRecorder

#: Fewest set-ups per run, and the fewest seconds they take together;
#: ``setup_s`` is their median.
SETUPS = 7
SETUP_SECONDS = 1.0
#: Closed-loop clients driving each block.
CLIENTS = 8
#: Fewest blocks a run makes, however short ``--seconds`` is.
MIN_BLOCKS = 5
#: Seconds after which unanswered requests count as failed and a
#: gateway that does not stop is abandoned, so a wedged gateway fails
#: the run instead of hanging it.
ANSWER_TIMEOUT = 10.0
POOL = 512
BURST = 16
LANDMARKS = 4
INDEX_QUERIES = ("nsf_level", "gateway_label", "pagerank_score", "mis_member")
WRITES = ("insert", "delete", "batch")

Op = Tuple[str, tuple, Optional[str]]
Window = Tuple[float, float, float]


class Mix:
    """The seeded request stream of one serving workload."""

    def __init__(self, graph, rng: np.random.Generator, workload: str) -> None:
        self.rng = rng
        self.workload = workload
        self.nodes = sorted(graph.nodes())
        edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        self.present: Set[Tuple[int, int]] = set(edges)
        picks = rng.choice(len(edges), size=POOL // 2, replace=False)
        pool = [edges[int(k)] for k in picks]
        seen = set(pool)
        n = len(self.nodes)
        while len(pool) < POOL:
            a, b = self.nodes[int(rng.integers(n))], self.nodes[int(rng.integers(n))]
            pair = (min(a, b), max(a, b))
            if a != b and pair not in self.present and pair not in seen:
                seen.add(pair)
                pool.append(pair)
        self.pool = pool
        # Zipf(1.1) over a random ranking of the nodes: a few hot sources.
        weights = np.arange(1, n + 1, dtype=np.float64) ** -1.1
        self.zipf_p = weights / weights.sum()
        self.zipf_nodes = [self.nodes[int(k)] for k in rng.permutation(n)]

    def _toggle(self, pair) -> Tuple[str, tuple]:
        if pair in self.present:
            self.present.discard(pair)
            return "delete", pair
        self.present.add(pair)
        return "insert", pair

    def _node(self):
        return self.nodes[int(self.rng.integers(len(self.nodes)))]

    def _index_query(self) -> Op:
        return INDEX_QUERIES[int(self.rng.integers(4))], (self._node(),), None

    def block(self, count: int) -> List[Op]:
        rng = self.rng
        if self.workload == READ:
            sources = rng.choice(len(self.zipf_nodes), size=count, p=self.zipf_p)
        ops: List[Op] = []
        for k in range(count):
            if self.workload == READ:
                if rng.random() < 0.10:
                    kind, pair = self._toggle(self.pool[int(rng.integers(POOL))])
                    ops.append((kind, pair, None))
                elif rng.random() < 0.85:
                    source = self.zipf_nodes[int(sources[k])]
                    ops.append(("distance", (source, self._node()), None))
                else:
                    ops.append(self._index_query())
            elif rng.random() < 0.70:
                writer = f"w{int(rng.integers(4))}"
                if rng.random() < 0.70:
                    kind, pair = self._toggle(self.pool[int(rng.integers(POOL))])
                    ops.append((kind, pair, writer))
                else:
                    inserts, deletes = [], []
                    for j in rng.choice(POOL, size=BURST, replace=False):
                        kind, pair = self._toggle(self.pool[int(j)])
                        (inserts if kind == "insert" else deletes).append(pair)
                    ops.append(("batch", (inserts, deletes), writer))
            else:
                ops.append(self._index_query())
        return ops


def issue(gateway, op: Op):
    """Send one request; returns the awaitable answer."""
    kind, args, writer = op
    if kind == "insert":
        return gateway.insert_edge(*args, writer=writer)
    if kind == "delete":
        return gateway.delete_edge(*args, writer=writer)
    if kind == "batch":
        return gateway.apply_batch(*args, writer=writer)
    return getattr(gateway, kind)(*args)


class IdleSelector(selectors.DefaultSelector):
    """Selector that measures how long the event loop waits for work."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        super().__init__()
        self.idle = 0.0
        self.recorder = recorder

    def select(self, timeout=None):
        start = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            end = time.perf_counter()
            self.idle += end - start
            if self.recorder is not None and timeout != 0:
                self.recorder.record("loadgen.idle", start, end)


def run_loop(main: Callable, recorder: Optional[SpanRecorder] = None):
    """Run ``main()`` on a fresh event loop; (result, seconds idle)."""
    selector = IdleSelector(recorder)
    loop = asyncio.SelectorEventLoop(selector)
    try:
        result = loop.run_until_complete(main())
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
    return result, selector.idle


class Outcome:
    """Request tallies of one segment."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []
        #: Set when the gateway left requests unanswered or did not stop.
        self.stalled = False

    def stall(self, what: str) -> None:
        self.stalled = True
        self.errors.append(f"{what} after {ANSWER_TIMEOUT:g} s")

    def settle(self, report: Report) -> None:
        report.units(self.attempted)
        for error in self.errors:
            report.fail("request", error)
        self.attempted = 0
        self.errors = []


async def _answered(awaitables, outcome: Outcome) -> None:
    """Await every request; unanswered ones count as failed, not as a hang."""
    try:
        await asyncio.wait_for(asyncio.gather(*awaitables), ANSWER_TIMEOUT)
    except asyncio.TimeoutError:
        outcome.stall("requests unresolved")


@contextlib.asynccontextmanager
async def serving_gateway(service, outcome: Outcome):
    """A started ``ServingGateway`` that is stopped, or abandoned."""
    from repro.serving import ServingGateway

    gateway = ServingGateway(service)
    gateway.start()
    try:
        yield gateway
    finally:
        try:
            await asyncio.wait_for(gateway.stop(), ANSWER_TIMEOUT)
        except asyncio.TimeoutError:
            outcome.stall("gateway did not stop")


async def _closed_block(gateway, ops: Sequence[Op], outcome: Outcome) -> float:
    """Drive one block; the process CPU seconds it took."""
    pending = iter(ops)

    async def client() -> None:
        for op in pending:
            outcome.attempted += 1
            try:
                await issue(gateway, op)
            except Exception as error:  # noqa: BLE001 - a failed request is data
                outcome.errors.append(f"{op[0]}: {type(error).__name__}: {error}")

    cpu = time.process_time()
    await _answered([client() for _ in range(CLIENTS)], outcome)
    return time.process_time() - cpu


async def closed_loop(
    service, mix: Mix, block: int, seconds: float, minimum: int, outcome: Outcome,
    clock: HostClock,
) -> List[Window]:
    """A warm-up block, then blocks until ``seconds`` have gone by, each
    timed on ``clock``: start, end and CPU seconds of each timed block."""
    windows: List[Window] = []
    async with serving_gateway(service, outcome) as gateway:
        await _closed_block(gateway, mix.block(block), outcome)
        deadline = time.perf_counter() + seconds
        while not outcome.stalled and (
            len(windows) < minimum or time.perf_counter() < deadline
        ):
            ops = mix.block(block)
            gc.collect()
            with clock.stage("block"):
                cpu = await _closed_block(gateway, ops, outcome)
            _, start, end, _ = clock.intervals[-1]
            windows.append((start, end, cpu))
    return windows


async def open_loop(service, mix: Mix, rate: float, seconds: float, outcome: Outcome):
    """Poisson arrivals at ``rate``; latencies timed from the due time."""
    count = max(1, int(rate * seconds))
    ops = mix.block(count)
    due = np.cumsum(mix.rng.exponential(1.0 / rate, size=count)).tolist()
    latency: Dict[str, List[float]] = {"query": [], "write": []}
    late: List[float] = []

    async def one(op: Op, due_at: float) -> None:
        outcome.attempted += 1
        try:
            await issue(gateway, op)
        except Exception as error:  # noqa: BLE001 - a failed request is data
            outcome.errors.append(f"{op[0]}: {type(error).__name__}: {error}")
            return
        side = "write" if op[0] in WRITES else "query"
        latency[side].append(time.perf_counter() - due_at)

    gc.collect()
    async with serving_gateway(service, outcome) as gateway:
        tasks = []
        start = time.perf_counter()
        for op, offset in zip(ops, due):
            due_at = start + offset
            wait = due_at - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append(time.perf_counter() - due_at)
            tasks.append(asyncio.get_running_loop().create_task(one(op, due_at)))
        await _answered(tasks, outcome)
    return latency, late


class ServingWorkload:
    """serve-read / serve-write: setup, closed-loop blocks, checks."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.n = 300 if smoke else 4000
        #: Requests per closed-loop block.
        self.block = {READ: 400, WRITE: 800}[name] // (8 if smoke else 1)
        #: Open-loop arrival rate of the traced run's nominal segment.
        self.rate = {READ: 400.0, WRITE: 800.0}[name]
        self.check_ops = 40 if smoke else 160

    def setup(self):
        """Graph, service and every index built cold."""
        from repro.datasets.gnutella import gnutella_largest_scc
        from repro.serving import GraphService

        graph = gnutella_largest_scc(self.n, np.random.default_rng(self.seed))
        service = GraphService(graph, landmark_count=LANDMARKS)
        probe = service.node_list[0]
        service.nsf_level(probe)
        service.gateway_label(probe)
        service.pagerank_score(probe)
        service.mis_member(probe)
        return graph, service

    def mix(self, graph, stream: int) -> Mix:
        return Mix(graph, np.random.default_rng([self.seed, stream]), self.name)

    def sequential_check(self, graph, report: Report) -> None:
        """Every answer of a one-at-a-time pass against the references."""
        from repro.serving import GraphService

        service = GraphService(graph, landmark_count=LANDMARKS)
        mirror = checks.Mirror(graph, service.landmarks)
        ops = self.mix(graph, 2).block(self.check_ops)
        outcome = Outcome()

        async def main() -> None:
            async with serving_gateway(service, outcome) as gateway:
                for op in ops:
                    label = f"sequential {op[0]}{op[1]!r:.60}"
                    try:
                        answer = await asyncio.wait_for(
                            issue(gateway, op), ANSWER_TIMEOUT
                        )
                    except asyncio.TimeoutError:
                        outcome.stall(f"{label} unresolved")
                        return
                    except Exception as error:  # noqa: BLE001 - a failed check is data
                        report.units(1)
                        report.fail(label, f"{type(error).__name__}: {error}")
                        continue
                    report.check(label, lambda: mirror.answer_ok(op[0], op[1], answer))

        run_loop(main)
        outcome.settle(report)

    def final_check(self, report: Report, graph, service, mix: Mix) -> None:
        report.check(
            "final edge set and indexes == references",
            lambda: checks.service_matches(service, mix.present, graph),
        )

    def measure(self, seconds: float, report: Report) -> None:
        (graph, service), setups, setup_walls = timed_setups(
            self.setup, SETUPS, SETUP_SECONDS
        )
        report.timing("setup_s", setups, setup_walls)
        self.sequential_check(graph, report)
        mix = self.mix(graph, 1)
        outcome = Outcome()
        clock = HostClock()
        run_loop(
            lambda: closed_loop(
                service, mix, self.block, seconds, MIN_BLOCKS, outcome, clock
            )
        )
        outcome.settle(report)
        blocks = clock.take()
        samples = [scaled for _, _, _, scaled in blocks]
        report.timing("pass_s", samples, [end - start for _, start, end, _ in blocks])
        report.note(
            f"{self.block} requests per pass from {CLIENTS} closed-loop clients: "
            f"{self.block / statistics.median(samples):.1f} req/s at reference speed"
        )
        self.final_check(report, graph, service, mix)

    def trace(self, seconds: float, report: Report) -> None:
        """Untraced blocks for the baseline, traced set-up and blocks, then
        an untraced open-loop segment at the nominal rate."""
        graph, service = self.setup()
        mix = self.mix(graph, 1)
        outcome = Outcome()
        base, _ = run_loop(
            lambda: closed_loop(
                service, mix, self.block, seconds / 4, 3, outcome,
                HostClock(calibrate=False),
            )
        )
        self.final_check(report, graph, service, mix)
        baseline = statistics.median(end - start for start, end, _ in base)

        with traced() as (recorder, registry):
            start = time.perf_counter()
            graph, service = self.setup()
            setup_window = (start, time.perf_counter())
            mix = self.mix(graph, 1)
            blocks, _ = run_loop(
                lambda: closed_loop(
                    service, mix, self.block, seconds / 4, 3, outcome,
                    HostClock(calibrate=False),
                ),
                recorder,
            )
        self.final_check(report, graph, service, mix)

        windows = [(lo, hi) for lo, hi, _ in blocks]
        busy = sum(recorder.total("serving.service", lo, hi) for lo, hi in windows)
        values = layer_values(
            recorder, registry, [setup_window, *windows], self.name, report
        )
        values.update(
            {
                "serving.gateway.self_s": sum(cpu for _, _, cpu in blocks) - busy,
                "serving.service_busy_share": busy / sum(hi - lo for lo, hi in windows),
                "trace.overhead_share": statistics.median(hi - lo for lo, hi in windows)
                / baseline
                - 1.0,
            }
        )

        graph, service = self.setup()
        mix = self.mix(graph, 3)
        (latency, late), idle = run_loop(
            lambda: open_loop(service, mix, self.rate, seconds / 2, outcome)
        )
        outcome.settle(report)
        for side in ("query", "write"):
            p50, p99 = np.percentile(latency[side] or [0.0], [50, 99]) * 1000.0
            values[f"serving.{side}_p50_ms"] = float(p50)
            values[f"serving.{side}_p99_ms"] = float(p99)
            count = len(latency[side])
            report.note(f"nominal {self.rate:g} req/s: {count} {side} samples")
        values["loadgen.late_p99_ms"] = float(np.percentile(late, 99)) * 1000.0
        values["loadgen.idle_s"] = idle
        report.per_layer = values
        self.sequential_check(graph, report)
