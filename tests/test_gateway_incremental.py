"""MIS-gateway CDS (footnote 2) and incremental reachability (Sec. IV-C)."""

import numpy as np
import pytest

from repro.errors import AlgorithmError
from repro.graphs.generators import (
    complete_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components
from repro.graphs.unit_disk import random_unit_disk_graph
from repro.labeling.cds import is_connected_dominating_set
from repro.labeling.gateway import cds_size_comparison, mis_based_cds
from repro.labeling.mis import is_independent_set
from repro.temporal.evolving import EvolvingGraph, paper_fig2_evolving_graph
from repro.temporal.incremental import (
    IncrementalReachability,
    incremental_from_contacts,
)
from repro.temporal.journeys import earliest_arrival


class TestMISBasedCDS:
    def test_valid_cds_on_random_graphs(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(40, 0.08, rng)
            cds, dominators, gateways = mis_based_cds(g)
            assert is_connected_dominating_set(g, cds)
            assert cds == dominators | gateways

    def test_dominators_are_independent(self, rng):
        g = random_connected_graph(30, 0.12, rng)
        _, dominators, _ = mis_based_cds(g)
        assert is_independent_set(g, dominators)

    def test_valid_on_udgs(self):
        for seed in range(4):
            rng = np.random.default_rng(seed + 100)
            g = random_unit_disk_graph(100, 9, 9, 1.7, rng)
            g = g.subgraph(connected_components(g)[0])
            cds, dominators, gateways = mis_based_cds(g)
            assert is_connected_dominating_set(g, cds)
            # UDG: the construction is a constant-factor scheme.
            assert len(cds) <= 4 * len(dominators)

    def test_path_graph(self):
        g = path_graph(7)
        cds, dominators, gateways = mis_based_cds(g)
        assert is_connected_dominating_set(g, cds)

    def test_star_needs_no_gateways(self):
        g = star_graph(6)
        cds, dominators, gateways = mis_based_cds(g)
        assert is_connected_dominating_set(g, cds)

    def test_complete_graph_single_node(self):
        g = complete_graph(5)
        cds, dominators, gateways = mis_based_cds(g)
        assert len(dominators) == 1
        assert gateways == set()

    def test_singleton(self):
        g = Graph()
        g.add_node("only")
        cds, dominators, gateways = mis_based_cds(g)
        assert cds == {"only"}

    def test_disconnected_rejected(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        with pytest.raises(AlgorithmError):
            mis_based_cds(g)

    def test_size_comparison_fields(self, rng):
        g = random_connected_graph(35, 0.1, rng)
        sizes = cds_size_comparison(g)
        assert sizes["mis_cds"] == sizes["mis_dominators"] + sizes["mis_gateways"]
        assert sizes["wu_dai"] <= sizes["marking"]


class TestIncrementalReachability:
    def test_agrees_with_batch_on_random_streams(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            eg = EvolvingGraph(horizon=15, nodes=range(12))
            for u in range(12):
                for v in range(u + 1, 12):
                    if rng.random() < 0.25:
                        eg.add_contact(u, v, int(rng.integers(15)))
            stream = [(u, v, t) for t, u, v in eg.all_contacts()]
            engine = incremental_from_contacts(0, stream)
            assert engine.arrival_times() == earliest_arrival(eg, 0)

    def test_agrees_with_nonzero_start(self, rng):
        eg = paper_fig2_evolving_graph()
        stream = [(u, v, t) for t, u, v in eg.all_contacts()]
        engine = incremental_from_contacts("A", stream, start=4)
        assert engine.arrival_times() == earliest_arrival(eg, "A", start=4)

    def test_same_unit_chaining(self):
        engine = IncrementalReachability("a")
        engine.add_contact("b", "c", 1)  # c not yet informed
        improved = engine.add_contact("a", "b", 1)
        assert improved
        # The buffered (b, c) contact at unit 1 must now fire too.
        assert engine.arrival_time("c") == 1

    def test_out_of_order_rejected(self):
        engine = IncrementalReachability(0)
        engine.add_contact(0, 1, 5)
        with pytest.raises(ValueError):
            engine.add_contact(1, 2, 3)

    def test_self_contact_rejected(self):
        engine = IncrementalReachability(0)
        with pytest.raises(ValueError):
            engine.add_contact(1, 1, 0)

    def test_journey_reconstruction_valid(self, rng):
        eg = EvolvingGraph(horizon=10, nodes=range(8))
        for u in range(8):
            for v in range(u + 1, 8):
                if rng.random() < 0.4:
                    eg.add_contact(u, v, int(rng.integers(10)))
        stream = [(u, v, t) for t, u, v in eg.all_contacts()]
        engine = incremental_from_contacts(0, stream)
        for target in engine.reachable_set():
            hops = engine.journey_to(target)
            assert hops is not None
            current, previous_time = 0, 0
            for a, b, t in hops:
                assert a == current
                assert t >= previous_time
                assert eg.has_contact(a, b, t)
                current, previous_time = b, t
            assert current == target

    def test_unreachable_returns_none(self):
        engine = IncrementalReachability("src")
        engine.add_contact("x", "y", 0)
        assert engine.arrival_time("y") is None
        assert engine.journey_to("y") is None

    def test_improvement_counter(self):
        engine = IncrementalReachability(0)
        assert engine.add_contact(0, 1, 0) is True
        assert engine.add_contact(0, 1, 1) is False  # already reached earlier
        assert engine.stats["contacts_processed"] == 2
        assert engine.stats["improvements"] == 1

    def test_contacts_before_start_ignored(self):
        engine = IncrementalReachability(0, start=5)
        assert engine.add_contact(0, 1, 2) is False
        assert engine.arrival_time(1) is None
        assert engine.add_contact(0, 1, 5) is True


# ----------------------------------------------------------------------
# serving gateway (repro.serving) — coalescing, staleness, chaos
# ----------------------------------------------------------------------

import asyncio
import inspect

from repro.faults.injectors import MessageFaults
from repro.faults.plan import FaultPlan
from repro.graphs.traversal import bfs_distances
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.observability.telemetry import serving_counts
from repro.serving import GraphService, ServingGateway
from repro.serving.state import INDEXES


@pytest.fixture
def registry():
    """Swap in an empty global metrics registry for the test."""
    fresh = MetricsRegistry("test-serving")
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def serving_graph(seed=0, n=30, extra=0.08):
    rng = np.random.default_rng(seed)
    return random_connected_graph(n, extra, rng)


class TestServingGatewayBasics:
    def test_coalesces_same_source_queries(self, registry):
        graph = serving_graph()
        reference = bfs_distances(graph, 0)
        service = GraphService(serving_graph(), landmark_count=2)

        async def main():
            async with ServingGateway(service, max_batch=16) as gateway:
                return await asyncio.gather(
                    *[gateway.distance(0, target) for target in range(1, 13)]
                )

        answers = asyncio.run(main())
        assert answers == [reference.get(t) for t in range(1, 13)]
        counts = serving_counts(registry)
        assert counts["queries"] == {"distance": 12}
        # Twelve point queries sharing one source ride far fewer sweeps.
        assert 0 < counts["sweeps"] < 12
        assert counts["coalesce_ratio"] > 1.0
        assert counts["coalesce_ratio"] == 12 / counts["sweeps"]
        assert counts["batches"] >= 1

    def test_coalesce_ratio_counts_distance_queries_only(self, registry):
        service = GraphService(serving_graph(), landmark_count=2)

        async def main():
            async with ServingGateway(service, max_batch=16) as gateway:
                await asyncio.gather(
                    *[gateway.distance(0, target) for target in range(1, 9)],
                    *[gateway.nsf_level(node) for node in range(1, 5)],
                )

        asyncio.run(main())
        counts = serving_counts(registry)
        assert counts["queries"] == {"distance": 8, "nsf_level": 4}
        # Index probes ride no sweep, so they stay out of the ratio.
        assert counts["sweeps"] >= 1
        assert counts["coalesce_ratio"] == 8 / counts["sweeps"]

    def test_mutations_never_yield_stale_answers(self):
        """A query enqueued after a mutation must observe it — the
        synchronous write path guarantees the batch executes against a
        state at least as new as every preceding mutation."""
        graph = Graph([(i, i + 1) for i in range(9)])  # path 0..9
        service = GraphService(graph, landmark_count=1)

        async def main():
            results = []
            async with ServingGateway(service, max_batch=4) as gateway:
                results.append(await gateway.distance(0, 9))  # 9 hops
                gateway.insert_edge(0, 9)  # shortcut
                results.append(await gateway.distance(0, 9))  # 1 hop
                gateway.delete_edge(0, 9)
                results.append(await gateway.distance(0, 9))  # 9 again
            return results

        assert asyncio.run(main()) == [9, 1, 9]

    def test_index_queries_through_gateway(self):
        """The gateway serves every ``GraphService.POINT_QUERIES`` name
        (``cds_member`` included) and answers as the direct service call
        does after a queued insert to a fresh node; the service's
        indexes then match their oracles."""
        service = GraphService(serving_graph(seed=3), landmark_count=3)
        nodes = ["fresh"] + service.node_list[:4]
        calls = []
        for kind in GraphService.POINT_QUERIES:
            arity = len(inspect.signature(getattr(service, kind)).parameters)
            calls += [(kind, (node, nodes[1])[:arity]) for node in nodes]

        async def main():
            async with ServingGateway(service) as gateway:
                gateway.insert_edge("fresh", 0)
                return [
                    await getattr(gateway, kind)(*args) for kind, args in calls
                ]

        answers = asyncio.run(main())
        assert answers == [getattr(service, kind)(*args) for kind, args in calls]
        graph = serving_graph(seed=3)
        graph.add_edge("fresh", 0)
        for spec in INDEXES.values():
            assert spec.agrees(
                spec.view(service), spec.oracle(graph, service.landmarks)
            )

    def test_stop_answers_everything_in_flight(self):
        service = GraphService(serving_graph(seed=1), landmark_count=2)

        async def main():
            gateway = ServingGateway(service, max_batch=64, max_delay=5.0)
            gateway.start()
            tasks = [
                asyncio.ensure_future(gateway.distance(0, t))
                for t in range(1, 8)
            ]
            await asyncio.sleep(0)  # let the queue fill, not the deadline
            await gateway.stop()
            return await asyncio.gather(*tasks)

        answers = asyncio.run(main())
        assert all(a is not None for a in answers)

    def test_unknown_node_error_is_delivered(self):
        service = GraphService(serving_graph(seed=2), landmark_count=2)

        async def main():
            async with ServingGateway(service) as gateway:
                with pytest.raises(Exception) as caught:
                    await gateway.distance(0, "no-such-node")
            return caught

        caught = asyncio.run(main())
        assert "no-such-node" in str(caught.value)


class TestServingGatewayChaos:
    """The gateway under repro.faults: delayed and reordered
    completions and mid-batch crashes must never lose a query nor
    answer one from a stale pre-patch snapshot."""

    def run_chaos(self, plan, registry, queries=24, seed=4):
        graph = serving_graph(seed=seed)
        reference = bfs_distances(graph, 0)
        graph2 = serving_graph(seed=seed)
        service = GraphService(graph2, landmark_count=2)

        async def main():
            async with ServingGateway(
                service, max_batch=6, max_delay=0.002, faults=plan
            ) as gateway:
                return await asyncio.gather(
                    *[
                        gateway.distance(0, target % service.patched.n)
                        for target in range(1, queries + 1)
                    ]
                )

        answers = asyncio.run(main())
        expected = [
            reference.get(t % len(list(graph.nodes())))
            for t in range(1, queries + 1)
        ]
        return answers, expected

    def test_mid_batch_crash_retries_and_answers_all(self, registry):
        plan = FaultPlan(11, injectors=(MessageFaults(drop=0.3),))
        answers, expected = self.run_chaos(plan, registry)
        assert answers == expected  # every query answered, correctly
        counts = serving_counts(registry)
        assert counts["retries"] > 0  # crashes actually happened

    def test_reordered_completions_answer_all(self, registry):
        plan = FaultPlan(12, injectors=(MessageFaults(reorder=0.8),))
        answers, expected = self.run_chaos(plan, registry)
        assert answers == expected

    def test_delayed_completions_answer_all(self, registry):
        plan = FaultPlan(
            13, injectors=(MessageFaults(delay=0.5, max_delay=3),)
        )
        answers, expected = self.run_chaos(plan, registry)
        assert answers == expected

    def test_full_chaos_with_interleaved_mutations(self, registry):
        """Crash + reorder + delay while the topology churns: answers
        must track the then-current state, never a stale snapshot."""
        plan = FaultPlan(
            17,
            injectors=(
                MessageFaults(drop=0.2, delay=0.3, max_delay=2, reorder=0.5),
            ),
        )
        graph = Graph([(i, i + 1) for i in range(9)])
        service = GraphService(graph, landmark_count=1)

        async def main():
            results = []
            async with ServingGateway(
                service, max_batch=4, max_delay=0.002, faults=plan
            ) as gateway:
                for round_index in range(6):
                    gateway.insert_edge(0, 9)
                    results.append(await gateway.distance(0, 9))
                    gateway.delete_edge(0, 9)
                    results.append(await gateway.distance(0, 9))
            return results

        results = asyncio.run(main())
        assert results == [1, 9] * 6
        assert serving_counts(registry)["retries"] > 0


class TestServingGatewayResilience:
    """Failures inside the dispatcher itself must never strand a
    caller, and a mid-batch mutation must never be answered from the
    pre-mutation sweep cache."""

    def test_dispatcher_crash_fails_pending_queries(self, monkeypatch):
        """An exception escaping a flush (here: the batch telemetry
        hook) kills the dispatcher; every in-flight and queued future
        must fail instead of hanging, later submissions must fail
        fast, and stop() must re-raise instead of blocking."""
        service = GraphService(serving_graph(seed=5), landmark_count=2)

        def boom(*args, **kwargs):
            raise RuntimeError("telemetry backend exploded")

        monkeypatch.setattr(
            "repro.serving.gateway.record_serving_batch", boom
        )

        async def main():
            gateway = ServingGateway(service, max_batch=4, max_delay=0.001)
            gateway.start()
            tasks = [
                asyncio.ensure_future(gateway.distance(0, target))
                for target in range(1, 6)
            ]
            answers = await asyncio.gather(*tasks, return_exceptions=True)
            with pytest.raises(RuntimeError):
                await gateway.distance(0, 1)  # fail fast, no hang
            with pytest.raises(RuntimeError, match="exploded"):
                await gateway.stop()
            return answers

        answers = asyncio.run(main())
        assert answers and all(
            isinstance(a, RuntimeError) for a in answers
        )

    def test_crash_acknowledges_already_applied_writes(self, monkeypatch):
        """The sequence barrier of the first flush applies the parked
        (0, 3) insert but leaves it queued for a later acknowledgment;
        when the second flush's hook crashes, that write is already in
        the service, so its future must carry its stored outcome, not
        the crash error (regression: a retried delete then hit
        EdgeNotFoundError)."""
        service = GraphService(
            Graph([(i, i + 1) for i in range(5)]), landmark_count=1
        )
        calls = []

        def crash_on_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("flush hook crashed")

        monkeypatch.setattr(
            "repro.serving.gateway.record_serving_batch", crash_on_second
        )

        async def main():
            gateway = ServingGateway(service, max_batch=2, max_delay=0)
            gateway.start()
            futures = [
                gateway.insert_edge(0, 2, writer="w1"),
                gateway.insert_edge(0, 3, writer="w1"),
                gateway.insert_edge(0, 4, writer="w2"),
            ]
            with pytest.raises(RuntimeError, match="flush hook crashed"):
                await gateway.stop()
            return [
                future.exception() or future.result() for future in futures
            ]

        first, parked, second = asyncio.run(main())
        assert first is True and second is True
        assert parked is True
        assert service.has_edge(0, 3)

    def test_query_blocked_behind_stop_fails_fast(self, monkeypatch):
        """A query whose put waits on a full queue behind the stop
        sentinel lands after the teardown drain; with no dispatcher
        left to answer it, it must fail fast instead of hanging."""
        monkeypatch.setattr("repro.serving.gateway.QUEUE_SIZE", 1)
        service = GraphService(serving_graph(seed=5), landmark_count=2)

        async def main():
            gateway = ServingGateway(service, max_batch=4, max_delay=5.0)
            gateway.start()
            first = asyncio.ensure_future(gateway.distance(0, 1))
            stopping = asyncio.ensure_future(gateway.stop())
            late = asyncio.ensure_future(gateway.distance(0, 2))
            await stopping
            await asyncio.wait({first, late}, timeout=1.0)
            return first, late

        first, late = asyncio.run(main())
        assert first.done() and first.result() is not None
        assert late.done(), "query stranded after stop()"
        assert isinstance(late.exception(), RuntimeError)

    def test_queries_blocked_beyond_the_queue_size_resolve(self, monkeypatch):
        """The teardown drain wakes one blocked put per item it takes;
        with more queries blocked on the full queue than it holds,
        stop() must still release every one instead of stranding the
        rest."""
        monkeypatch.setattr("repro.serving.gateway.QUEUE_SIZE", 1)
        service = GraphService(serving_graph(seed=5), landmark_count=2)

        async def main():
            gateway = ServingGateway(service, max_batch=4, max_delay=5.0)
            gateway.start()
            stopping = asyncio.ensure_future(gateway.stop())
            queries = [
                asyncio.ensure_future(gateway.distance(0, t)) for t in range(1, 7)
            ]
            await stopping
            await asyncio.wait(queries, timeout=1.0)
            return [query.done() for query in queries], [
                query.exception() for query in queries if query.done()
            ]

        done, errors = asyncio.run(main())
        assert all(done), f"{done.count(False)} queries stranded after stop()"
        assert all(
            error is None or "not running" in str(error) for error in errors
        )

    def test_crash_releases_queries_blocked_beyond_the_queue_size(
        self, monkeypatch
    ):
        """A dispatcher crash drains the queue once, waking one blocked
        put per item; the queries still blocked behind those must be
        refused too, not left waiting on a queue nobody reads."""
        monkeypatch.setattr("repro.serving.gateway.QUEUE_SIZE", 1)

        def crash(*args):
            raise RuntimeError("flush hook crashed")

        monkeypatch.setattr("repro.serving.gateway.record_serving_batch", crash)
        service = GraphService(serving_graph(seed=5), landmark_count=2)

        async def main():
            gateway = ServingGateway(service, max_batch=1, max_delay=0.0)
            gateway.start()
            queries = [
                asyncio.ensure_future(gateway.distance(0, t)) for t in range(1, 7)
            ]
            await asyncio.wait(queries, timeout=1.0)
            with pytest.raises(RuntimeError, match="flush hook crashed"):
                await gateway.stop()
            return queries

        queries = asyncio.run(asyncio.wait_for(main(), timeout=5.0))
        stranded = [query for query in queries if not query.done()]
        assert not stranded, f"{len(stranded)} queries stranded by the crash"
        assert all("not running" in str(q.exception()) for q in queries)

    def test_restart_while_stop_releases_producers(self, monkeypatch):
        """While stop()'s teardown is still releasing producers blocked
        on the full queue, start() must refuse and a new query must be
        refused rather than queued where the teardown would discard it;
        once stop() returns, the gateway restarts and answers."""
        monkeypatch.setattr("repro.serving.gateway.QUEUE_SIZE", 1)
        service = GraphService(serving_graph(seed=5), landmark_count=2)

        async def main():
            gateway = ServingGateway(service, max_batch=4, max_delay=5.0)
            gateway.start()
            stopping = asyncio.ensure_future(gateway.stop())
            blocked = [
                asyncio.ensure_future(gateway.distance(0, t)) for t in range(1, 7)
            ]
            refused_starts, late = 0, []
            while True:
                await asyncio.sleep(0)
                if stopping.done():
                    break
                try:
                    gateway.start()
                except RuntimeError:
                    refused_starts += 1
                late.append(asyncio.ensure_future(gateway.distance(0, 1)))
            await asyncio.wait(blocked + late, timeout=1.0)
            gateway.start()
            after = await asyncio.wait_for(gateway.distance(0, 1), timeout=1.0)
            await asyncio.wait_for(gateway.stop(), timeout=1.0)
            return blocked + late, refused_starts, late, after

        submitted, refused_starts, late, after = asyncio.run(
            asyncio.wait_for(main(), timeout=5.0)
        )
        assert refused_starts > 0 and late, "stop() finished in one turn"
        assert refused_starts == len(late)
        assert all(query.done() for query in submitted), "query stranded"
        refusals = ("gateway dispatcher is not running", "gateway not started")
        for query in submitted:
            error = query.exception()
            assert error is None or str(error) in refusals, error
        assert all(query.exception() is not None for query in late)
        assert after == service.distance(0, 1)

    def test_mid_batch_mutation_invalidates_sweep_cache(self):
        """A same-source distance answered after a mid-batch mutation
        must not read the pre-mutation array: a current index into it
        reads a wrong level, or past the end for a node added mid-batch
        (regression: IndexError from the old per-batch sweep cache)."""
        from repro.serving.gateway import _Request

        service = GraphService(serving_graph(seed=6), landmark_count=2)
        gateway = ServingGateway(service)
        first = gateway._answer(_Request(1, "distance", (0, 1), future=None))
        assert first is not None
        # A concurrent task mutates the service while the dispatcher
        # is parked on a delay fate: the held array predates "late".
        service.insert_edge("late", 0)
        second = gateway._answer(
            _Request(2, "distance", (0, "late"), future=None)
        )
        assert second == 1


class TestBatchedWritesUnderChaos:
    """Fire-and-forget ``apply_batch`` bursts under drop/reorder/delay:
    read-your-writes must hold — a query submitted after a burst sees
    every one of its mutations — and every unawaited write future must
    still resolve with its outcome, exactly once."""

    CHAOS_SEEDS = [21, 22, 23, 24, 25, 26]

    @pytest.mark.parametrize("fault_seed", CHAOS_SEEDS)
    def test_read_your_writes_with_unawaited_futures(
        self, registry, fault_seed
    ):
        plan = FaultPlan(
            fault_seed,
            injectors=(
                MessageFaults(drop=0.25, delay=0.3, max_delay=2, reorder=0.5),
            ),
        )
        rng = np.random.default_rng(fault_seed)
        mirror = serving_graph(seed=7)
        service = GraphService(serving_graph(seed=7), landmark_count=2)
        n = service.patched.n

        async def main():
            observed = []
            writes = []
            async with ServingGateway(
                service, max_batch=4, max_delay=0.002, faults=plan
            ) as gateway:
                for _round in range(8):
                    inserts, deletes = [], []
                    for _ in range(3):
                        u, v = rng.choice(n, size=2, replace=False)
                        u, v = int(u), int(v)
                        if mirror.has_edge(u, v):
                            mirror.remove_edge(u, v)
                            deletes.append((u, v))
                        else:
                            mirror.add_edge(u, v)
                            inserts.append((u, v))
                    # Unawaited: the query below must still see them.
                    writes.append(gateway.apply_batch(inserts, deletes))
                    source = int(rng.integers(n))
                    target = int(rng.integers(n))
                    expected = bfs_distances(mirror, source).get(target)
                    observed.append(
                        (await gateway.distance(source, target), expected)
                    )
                outcomes = await asyncio.gather(*writes)
            return observed, outcomes

        observed, outcomes = asyncio.run(main())
        for got, expected in observed:
            assert got == expected
        # Every fire-and-forget write resolved with its batch outcome,
        # applied exactly once (3 ops per round, all state-changing).
        assert [o["ops"] for o in outcomes] == [3] * 8
        assert [o["changed"] for o in outcomes] == [3] * 8
        assert service.has_edge is not None  # service survived chaos

    def test_per_request_error_isolation(self):
        """A bad delete fails only its own apply_batch request; other
        requests coalesced into the same flush still land."""
        from repro.errors import EdgeNotFoundError

        service = GraphService(Graph([(i, i + 1) for i in range(9)]),
                               landmark_count=1)

        async def main():
            async with ServingGateway(service, max_batch=8) as gateway:
                good = gateway.apply_batch([(0, 9)], [])
                bad = gateway.apply_batch([], [(0, 7)])  # absent edge
                distance = await gateway.distance(0, 9)
                good_result = await good
                with pytest.raises(EdgeNotFoundError):
                    await bad
            return distance, good_result

        distance, good_result = asyncio.run(main())
        assert distance == 1  # the good batch landed
        assert good_result == {"ops": 1, "changed": 1}


class TestWriterFairness:
    """Per-writer round-robin draining of the mutation lanes."""

    def test_lone_writer_acknowledged_in_first_flush(self, registry):
        """A hot writer flooding its lane cannot delay a lone writer's
        single mutation beyond one flush: round-robin admits the lone
        lane into the very first batch, so its acknowledgment lands
        within the first ``max_batch`` completions."""
        service = GraphService(serving_graph(), landmark_count=1)
        max_batch = 4

        async def main():
            completions = []
            async with ServingGateway(
                service, max_batch=max_batch, max_delay=0.0
            ) as gateway:
                hot = [
                    gateway.insert_edge(f"h{i}", 0, writer="hot")
                    for i in range(10 * max_batch)
                ]
                lone = gateway.insert_edge("lone", 0, writer="lone")
                for i, future in enumerate(hot):
                    future.add_done_callback(
                        lambda _, i=i: completions.append(("hot", i))
                    )
                lone.add_done_callback(lambda _: completions.append(("lone",)))
                assert await lone is True
                await asyncio.gather(*hot)
            return completions

        completions = asyncio.run(main())
        # Acknowledged inside the first flush's batch (FIFO draining
        # would park it behind all 40 hot mutations, ~10 flushes out).
        assert completions.index(("lone",)) < max_batch

    def test_round_robin_interleaves_waiting_writers(self, registry):
        """With several backlogged lanes, each flush takes one request
        per lane per turn — acknowledgments interleave writers instead
        of draining one lane to exhaustion."""
        service = GraphService(serving_graph(), landmark_count=1)

        async def main():
            completions = []
            async with ServingGateway(
                service, max_batch=6, max_delay=0.0
            ) as gateway:
                futures = []
                for i in range(4):
                    for writer in ("a", "b"):
                        future = gateway.insert_edge(
                            f"{writer}{i}", 0, writer=writer
                        )
                        future.add_done_callback(
                            lambda _, w=writer, i=i: completions.append((w, i))
                        )
                        futures.append(future)
                await asyncio.gather(*futures)
            return completions

        completions = asyncio.run(main())
        # First flush holds three turns of (a, b) — strict alternation.
        assert completions[:6] == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)
        ]

    def test_writers_histogram_counts_distinct_lanes(self, registry):
        """Every write barrier observes how many distinct writers it
        drained into ``repro.serving.batch.writers``."""
        from repro.observability.telemetry import SERVING_WRITERS_METRIC

        service = GraphService(serving_graph(), landmark_count=1)

        async def main():
            async with ServingGateway(
                service, max_batch=16, max_delay=0.0
            ) as gateway:
                futures = [
                    gateway.insert_edge(f"n{i}", 0, writer=f"w{i % 3}")
                    for i in range(9)
                ]
                await asyncio.gather(*futures)

        asyncio.run(main())
        values = registry.histogram(SERVING_WRITERS_METRIC).values
        assert values, "write barrier never recorded its writer count"
        assert max(values) == 3.0

    def test_untagged_mutations_share_default_lane(self, registry):
        """The writer tag is optional: untagged writes keep working and
        land on one shared default lane."""
        service = GraphService(serving_graph(), landmark_count=1)

        async def main():
            async with ServingGateway(service, max_batch=8) as gateway:
                first = gateway.insert_edge("p", 0)
                second = gateway.insert_edge("q", 0, writer="tagged")
                return await asyncio.gather(first, second)

        assert asyncio.run(main()) == [True, True]
