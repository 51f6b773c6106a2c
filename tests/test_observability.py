"""The observability layer: registry, histograms, spans, bench reports.

Covers the contracts the rest of the library now leans on: get-or-create
registry semantics (one name, one kind), exact histogram percentiles,
spans as ``<name>.duration_s`` histograms, the ``@traced`` decorator,
the disabled-mode overhead bound, the bench report schema, and the
engine/DTN integration (legacy stats views must agree with the registry
snapshot exactly).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from repro.dtn.routers import EpidemicRouter
from repro.dtn.simulator import DTNSimulation, MessageSpec
from repro.graphs.generators import path_graph
from repro.layering.link_reversal import (
    full_link_reversal,
    paper_fig4_graph,
    partial_link_reversal,
)
from repro.layering.link_reversal_distributed import (
    distributed_full_reversal,
    distributed_partial_reversal,
)
from repro.observability import BenchReport, MetricsRegistry, validate_bench_report
from repro.observability import tracing
from repro.observability.metrics import get_registry, set_registry
from repro.observability.tracing import traced
from repro.runtime.async_engine import AsyncNetwork
from repro.runtime.engine import Network, NodeAlgorithm, RunStats
from repro.runtime.vector import vector_full_reversal, vector_partial_reversal
from repro.temporal.evolving import EvolvingGraph


class TestRegistrySemantics:
    def test_counter_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro.test.things")
        counter.inc()
        assert registry.counter("repro.test.things") is counter
        assert registry.counter("repro.test.things").value == 1

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro.test.down")
        counter.inc(5)
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(ValueError):
            counter.set(3)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro.test.name")
        with pytest.raises(ValueError):
            registry.gauge("repro.test.name")
        with pytest.raises(ValueError):
            registry.histogram("repro.test.name")

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.gauge("repro.test.buffer", {"node": 1})
        b = registry.gauge("repro.test.buffer", {"node": 2})
        assert a is not b
        a.set(3)
        b.set(7)
        snapshot = registry.snapshot()
        assert snapshot["repro.test.buffer{node=1}"] == 3
        assert snapshot["repro.test.buffer{node=2}"] == 7

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("repro.test.c", {"x": 1, "y": 2})
        b = registry.counter("repro.test.c", {"y": 2, "x": 1})
        assert a is b

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro.test.g")
        gauge.inc(4)
        gauge.dec(1.5)
        assert gauge.value == pytest.approx(2.5)

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("repro.test.a").inc(2)
        registry.histogram("repro.test.h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["repro.test.a"] == 2
        assert snapshot["repro.test.h"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == {}


class TestHistogram:
    def test_exact_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro.test.latency")
        for value in [5, 1, 4, 2, 3]:
            hist.observe(value)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(0.5) == 3.0
        assert hist.percentile(1.0) == 5.0
        assert hist.mean == pytest.approx(3.0)
        assert hist.min == 1 and hist.max == 5
        assert hist.sum == 15

    def test_empty_histogram_degenerate_values(self):
        hist = MetricsRegistry().histogram("repro.test.empty")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.9) == math.inf
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None

    def test_percentile_out_of_range(self):
        hist = MetricsRegistry().histogram("repro.test.q")
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_values_list_is_live(self):
        # RunStats.messages_per_round relies on this: appending to the
        # exposed list is the same as observing.
        hist = MetricsRegistry().histogram("repro.test.live")
        hist.values.append(4)
        assert hist.count == 1
        assert hist.mean == 4.0


@pytest.fixture
def fresh_registry():
    """Swap in an empty global metrics registry for the test."""
    registry = MetricsRegistry("test-tracing")
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture
def tracing_on():
    """Global tracing enabled for the test, disabled afterwards."""
    tracing.enable()
    yield
    tracing.disable()


class TestTracing:
    def test_span_observes_duration_histogram(self, fresh_registry, tracing_on):
        with tracing.span("work"):
            pass
        snapshot = fresh_registry.snapshot()
        assert snapshot["work.duration_s"]["count"] == 1
        assert snapshot["work.duration_s"]["min"] >= 0.0

    def test_span_nesting_parent_child(self, fresh_registry, tracing_on):
        # A parent's one duration covers both of its children's.
        with tracing.span("outer"):
            for _ in range(2):
                with tracing.span("inner"):
                    time.sleep(0.001)
        outer = fresh_registry.get("outer.duration_s")
        inner = fresh_registry.get("inner.duration_s")
        assert outer.count == 1 and inner.count == 2
        assert outer.sum >= inner.sum > 0

    def test_span_observes_when_body_raises(self, fresh_registry, tracing_on):
        with pytest.raises(RuntimeError, match="boom"):
            with tracing.span("work"):
                raise RuntimeError("boom")
        assert fresh_registry.get("work.duration_s").count == 1

    @pytest.mark.parametrize("which", ["private", "global"])
    def test_disabled_tracer_records_nothing(self, which):
        # "private": a registry swapped in for the test; "global": the
        # process's own registry, whose snapshot must not change.
        if which == "private":
            registry = MetricsRegistry("test-disabled")
            previous = set_registry(registry)
        else:
            registry = get_registry()
        before = registry.snapshot()
        try:
            assert not tracing.enabled()  # off by default
            span = tracing.span("invisible")
            assert span is tracing._NOOP_SPAN  # shared: no per-call allocation
            with span:
                pass
            assert "invisible.duration_s" not in registry
            assert registry.snapshot() == before
        finally:
            if which == "private":
                set_registry(previous)

    def test_disable_keeps_observed_histograms(self, fresh_registry):
        tracing.enable()
        try:
            assert tracing.enabled()
            with tracing.span("once"):
                pass
        finally:
            tracing.disable()
        assert not tracing.enabled()
        with tracing.span("once"):
            pass
        assert fresh_registry.get("once.duration_s").count == 1

    def test_noop_overhead_smoke(self):
        # The disabled span must be cheap enough to sit on the engine's
        # per-round path: 100k no-op spans well under a second.
        start = time.perf_counter()
        for _ in range(100_000):
            with tracing.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"no-op span too slow: {elapsed:.3f}s per 100k"

    def test_disabled_traced_call_records_nothing(self, fresh_registry):
        calls = []

        @traced("repro.test.quiet")
        def workload(x):
            calls.append(x)
            return x * 2

        assert workload(3) == 6
        assert calls == [3]
        assert fresh_registry.snapshot() == {}

    def test_disabled_traced_overhead_smoke(self):
        # Same budget as the no-op span: a disabled wrapper sits on
        # routed kernel entry points, 100k calls well under a second.
        @traced("repro.test.hot")
        def workload():
            return None

        start = time.perf_counter()
        for _ in range(100_000):
            workload()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"disabled @traced too slow: {elapsed:.3f}s per 100k"

    def test_timed_decorator_records_duration(self, fresh_registry, tracing_on):
        @traced("repro.test.timed_fn")
        def workload(x):
            return x * 2

        assert workload(21) == 42
        hist = fresh_registry.get("repro.test.timed_fn.duration_s")
        assert hist is not None and hist.count == 1

    def test_traced_preserves_function_metadata(self):
        @traced("repro.test.meta")
        def workload(x):
            """docstring survives"""
            return x

        assert workload.__name__ == "workload"
        assert workload.__doc__ == "docstring survives"
        assert workload.__wrapped__(7) == 7

    def test_traced_marks_exception_and_propagates(
        self, fresh_registry, tracing_on
    ):
        # A failed call is still observed: its duration is the mark.
        @traced("repro.test.fails")
        def workload():
            raise ValueError("bad input")

        with pytest.raises(ValueError, match="bad input"):
            workload()
        assert fresh_registry.get("repro.test.fails.duration_s").count == 1


class TestExporters:
    def test_bench_report_write_and_validate(self, tmp_path):
        report = BenchReport(
            experiment="unit",
            title="t",
            header=["a", "b"],
            rows=[[1, 2], [3, 4]],
            metrics={"repro.test.x": 1},
            timings={"wall_s": 0.5},
        )
        path = report.write(str(tmp_path))
        assert path == str(tmp_path / "BENCH_unit.json")
        assert os.listdir(tmp_path) == ["BENCH_unit.json"]
        document = json.loads(open(path).read())
        assert validate_bench_report(document) == []

    def test_validate_rejects_malformed_documents(self):
        assert validate_bench_report({}) != []
        bad = {
            "schema": "repro.bench/v1",
            "experiment": "x",
            "header": ["a"],
            "rows": [[1, 2]],  # width mismatch
            "metrics": {},
            "timings": {"wall_s": "not-a-number"},
        }
        problems = validate_bench_report(bad)
        assert any("cells" in p for p in problems)
        assert any("timings" in p for p in problems)


class Flood(NodeAlgorithm):
    def __init__(self, source):
        self.source = source

    def init(self, ctx):
        ctx.state["informed"] = ctx.node == self.source
        if ctx.state["informed"]:
            ctx.broadcast("token")

    def step(self, ctx):
        if ctx.inbox and not ctx.state["informed"]:
            ctx.state["informed"] = True
            ctx.broadcast("token")
        ctx.halt()


class TestEngineIntegration:
    def test_runstats_view_matches_registry_snapshot_exactly(self):
        net = Network(path_graph(6), lambda n: Flood(0))
        stats = net.run()
        snapshot = net.metrics.snapshot()
        assert snapshot["repro.runtime.rounds"] == stats.rounds
        assert snapshot["repro.runtime.messages_sent"] == stats.messages_sent
        assert snapshot["repro.runtime.messages_per_round"]["count"] == len(
            stats.messages_per_round
        )
        assert snapshot["repro.runtime.messages_per_round"]["sum"] == sum(
            stats.messages_per_round
        )

    def test_legacy_runstats_constructor_and_mutation(self):
        stats = RunStats(rounds=2, messages_sent=5, messages_per_round=[3, 2])
        assert stats.rounds == 2
        assert stats.messages_sent == 5
        stats.messages_sent += 4
        stats.messages_per_round.append(4)
        assert stats.messages_sent == 9
        assert stats.messages_per_round == [3, 2, 4]
        assert stats == RunStats(rounds=2, messages_sent=9, messages_per_round=[3, 2, 4])
        assert "rounds=2" in repr(stats)

    def test_traced_run_observes_run_and_round_spans(
        self, fresh_registry, tracing_on
    ):
        net = Network(path_graph(5), lambda n: Flood(0))
        stats = net.run()
        snapshot = fresh_registry.snapshot()
        assert snapshot["engine.run.duration_s"]["count"] == 1
        assert snapshot["engine.round.duration_s"]["count"] == stats.rounds


def _flood_sync():
    net = Network(path_graph(5), lambda n: Flood(0))
    return net.run(), {n: net.state_of(n) for n in range(5)}


def _flood_async():
    net = AsyncNetwork(path_graph(5), lambda n: Flood(0), np.random.default_rng(0))
    return net.run(), {n: net.state_of(n) for n in range(5)}


def _dtn_epidemic():
    sim = TestDTNIntegration._simulation()
    sim.add_message(MessageSpec("m0", 0, 2, created=0))
    return sim.run()


def _centralized(reversal):
    def run():
        graph, destination, heights = paper_fig4_graph()
        result = reversal(graph, destination, heights=heights)
        return result.heights, result.node_reversals, result.link_reversals, result.steps

    return run


def _distributed(reversal):
    def run():
        graph, destination, heights = paper_fig4_graph()
        _, final_heights, reversals, rounds = reversal(graph, destination, heights)
        return final_heights, reversals, rounds

    return run


_ENGINE_SPANS = {"engine.run", "engine.round"}
_REVERSAL_SPANS = _ENGINE_SPANS | {"layering.distributed_reversal"}

# Each library call site that opens a span, with the spans one run opens.
TRACED_CALL_SITES = {
    "Network": (_flood_sync, _ENGINE_SPANS),
    "AsyncNetwork": (_flood_async, {"engine.async_run"}),
    "DTNSimulation": (_dtn_epidemic, {"dtn.run"}),
    "full_link_reversal": (
        _centralized(full_link_reversal), {"layering.link_reversal"}
    ),
    "partial_link_reversal": (
        _centralized(partial_link_reversal), {"layering.link_reversal"}
    ),
    "distributed_full_reversal": (
        _distributed(distributed_full_reversal), _REVERSAL_SPANS
    ),
    "distributed_partial_reversal": (
        _distributed(distributed_partial_reversal), _REVERSAL_SPANS
    ),
    "vector_full_reversal": (_distributed(vector_full_reversal), _REVERSAL_SPANS),
    "vector_partial_reversal": (
        _distributed(vector_partial_reversal), _REVERSAL_SPANS
    ),
}


class TestTracedCallSites:
    @pytest.mark.parametrize("site", sorted(TRACED_CALL_SITES))
    def test_traced_run_matches_untraced_and_observes_its_spans(self, site):
        """Tracing adds the site's ``*.duration_s`` histograms and nothing
        else: outputs and every other series equal an untraced run's."""
        run, expected_spans = TRACED_CALL_SITES[site]
        untraced_registry = MetricsRegistry("untraced")
        traced_registry = MetricsRegistry("traced")
        previous = set_registry(untraced_registry)
        try:
            untraced = run()
            set_registry(traced_registry)
            tracing.enable()
            try:
                traced_output = run()
            finally:
                tracing.disable()
        finally:
            set_registry(previous)
        assert traced_output == untraced
        snapshot = traced_registry.snapshot()
        spans = {
            name[: -len(".duration_s")]
            for name in snapshot
            if name.endswith(".duration_s")
        }
        assert spans == expected_spans
        assert all(snapshot[f"{name}.duration_s"]["count"] >= 1 for name in spans)
        others = {
            name: value
            for name, value in snapshot.items()
            if not name.endswith(".duration_s")
        }
        assert others == untraced_registry.snapshot()


class TestDTNIntegration:
    @staticmethod
    def _simulation(**kwargs):
        eg = EvolvingGraph(horizon=4, nodes=range(3))
        eg.add_contact(0, 1, 0)
        eg.add_contact(1, 2, 1)
        return DTNSimulation(eg, EpidemicRouter(), **kwargs)

    def test_delivery_metrics_match_stats(self):
        sim = self._simulation()
        sim.add_message(MessageSpec("m0", 0, 2, created=0))
        stats = sim.run()
        snapshot = sim.metrics.snapshot()
        assert snapshot["repro.dtn.messages_created"] == stats.created == 1
        assert snapshot["repro.dtn.delivered"] == stats.delivered == 1
        assert snapshot["repro.dtn.contacts"] == 2
        assert snapshot["repro.dtn.latency"]["count"] == len(stats.latencies)
        assert snapshot["repro.dtn.delivery_ratio"] == stats.delivery_ratio

    def test_stats_is_idempotent_for_registry_samples(self):
        sim = self._simulation()
        sim.add_message(MessageSpec("m0", 0, 2, created=0))
        sim.run()
        first = sim.metrics.snapshot()["repro.dtn.copies"]
        sim.stats()
        sim.stats()
        assert sim.metrics.snapshot()["repro.dtn.copies"] == first

    def test_traced_run_observes_dtn_run_span(self, fresh_registry, tracing_on):
        sim = self._simulation()
        sim.add_message(MessageSpec("m0", 0, 2, created=0))
        stats = sim.run()
        assert stats.delivered == 1
        assert fresh_registry.snapshot()["dtn.run.duration_s"]["count"] == 1

    def test_buffer_drop_counter_and_gauge(self):
        eg = EvolvingGraph(horizon=4, nodes=range(4))
        eg.add_contact(0, 1, 0)
        eg.add_contact(2, 1, 0)
        sim = DTNSimulation(eg, EpidemicRouter(), buffer_size=1)
        sim.add_message(MessageSpec("a", 0, 3, created=0))
        sim.add_message(MessageSpec("b", 2, 3, created=0))
        sim.run()
        assert sim.metrics.counter("repro.dtn.buffer_drops").value >= 1
        gauge = sim.metrics.get("repro.dtn.buffer_occupancy", {"node": 1})
        assert gauge is not None and gauge.value <= 1
