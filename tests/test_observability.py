"""The observability layer: registry, histograms, spans, exporters.

Covers the contracts the rest of the library now leans on: get-or-create
registry semantics (one name, one kind), exact histogram percentiles,
span nesting and attributes, the ``@traced`` decorator, the
disabled-mode overhead bound, JSONL and Prometheus round-trips, and the
engine/DTN integration (legacy stats views must agree with the registry
snapshot exactly).
"""

import json
import math
import os
import time

import pytest

from repro.dtn.routers import EpidemicRouter
from repro.dtn.simulator import DTNSimulation, MessageSpec
from repro.graphs.generators import path_graph
from repro.observability import (
    BenchReport,
    MetricsRegistry,
    Tracer,
    parse_prometheus,
    read_jsonl,
    to_prometheus,
    validate_bench_report,
    write_jsonl,
)
from repro.observability import tracing
from repro.observability.metrics import set_registry
from repro.observability.tracing import traced
from repro.runtime.engine import Network, NodeAlgorithm, RunStats
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
def global_tracer():
    """The process-global tracer, disabled and emptied afterwards."""
    tracer = tracing.get_tracer()
    yield tracer
    tracer.disable()
    tracer.clear()


class TestTracing:
    def test_span_nesting_parent_child(self, fresh_registry):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", a=1) as span:
            span.set_attribute("extra", "yes")
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records  # inner closes first
        assert inner["type"] == outer["type"] == "span"
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["attrs"] == {"a": 1, "extra": "yes"}
        assert inner["duration_s"] >= 0.0

    def test_set_attribute_and_exception_marking(self, fresh_registry):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("work") as span:
                span.set_attribute("k", "v")
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record["attrs"]["k"] == "v"
        assert record["attrs"]["error"] == "RuntimeError"

    def test_events_attach_to_current_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            tracer.event("ping", x=1)
        event = tracer.events("ping")[0]
        span = tracer.spans("parent")[0]
        assert event["parent_id"] == span["span_id"]
        assert event["attrs"] == {"x": 1}

    @pytest.mark.parametrize("which", ["private", "global"])
    def test_disabled_tracer_records_nothing(self, which, fresh_registry):
        tracer = Tracer() if which == "private" else tracing.get_tracer()
        assert not tracer.enabled  # both are off by default
        span = tracer.span("invisible", n=5)
        assert span is tracing._NOOP_SPAN  # shared: no per-call allocation
        with span as live:
            live.set_attribute("ignored", True)
        tracer.event("also-invisible")
        assert tracer.spans("invisible") == []
        assert tracer.events("also-invisible") == []
        assert fresh_registry.snapshot() == {}

    def test_noop_overhead_smoke(self):
        # The disabled span must be cheap enough to sit on the engine's
        # per-round path: 100k no-op spans well under a second.
        tracer = Tracer(enabled=False)
        start = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"no-op span too slow: {elapsed:.3f}s per 100k"

    def test_span_observes_duration_histogram(self, fresh_registry):
        tracer = Tracer(enabled=True)
        with tracer.span("work"):
            pass
        snapshot = fresh_registry.snapshot()
        assert snapshot["work.duration_s"]["count"] == 1

    def test_clear_drops_records(self, fresh_registry):
        tracer = Tracer(enabled=True)
        with tracer.span("once"):
            tracer.event("ping")
        tracer.clear()
        assert tracer.records == []

    def test_summary_aggregates_per_name_slowest_first(self, fresh_registry):
        tracer = Tracer(enabled=True)
        with tracer.span("slow"):
            time.sleep(0.002)
        for _ in range(2):
            with tracer.span("quick"):
                tracer.event("ping")  # events are not spans
        summary = tracer.summary()
        assert [entry["name"] for entry in summary] == ["slow", "quick"]
        by_name = {e["name"]: e for e in summary}
        assert by_name["quick"]["count"] == 2
        assert by_name["slow"]["total_s"] >= by_name["slow"]["max_s"] > 0
        assert tracer.summary(top=1) == summary[:1]

    def test_disabled_traced_call_records_nothing(self, global_tracer, fresh_registry):
        calls = []

        @traced("repro.test.quiet")
        def workload(x):
            calls.append(x)
            return x * 2

        assert workload(3) == 6
        assert calls == [3]
        assert global_tracer.spans("repro.test.quiet") == []
        assert fresh_registry.snapshot() == {}

    def test_disabled_traced_overhead_smoke(self, global_tracer):
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

    def test_timed_decorator_records_duration(self, global_tracer, fresh_registry):
        @traced("repro.test.timed_fn")
        def workload(x):
            """docstring survives"""
            return x * 2

        global_tracer.enable()
        assert workload(21) == 42
        assert len(global_tracer.spans("repro.test.timed_fn")) == 1
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
        self, global_tracer, fresh_registry
    ):
        @traced("repro.test.fails")
        def workload():
            raise ValueError("bad input")

        global_tracer.enable()
        with pytest.raises(ValueError, match="bad input"):
            workload()
        (record,) = global_tracer.spans("repro.test.fails")
        assert record["attrs"]["error"] == "ValueError"
        assert fresh_registry.get("repro.test.fails.duration_s").count == 1

class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("engine.run", nodes=3):
            tracer.event("dtn.contact", u=0, v=frozenset({1}))
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, tracer.records)
        loaded = read_jsonl(path)
        assert len(loaded) == len(tracer.records) == 2
        names = {record["name"] for record in loaded}
        assert names == {"engine.run", "dtn.contact"}
        span = [r for r in loaded if r["type"] == "span"][0]
        assert span["attrs"]["nodes"] == 3

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro.runtime.rounds").inc(7)
        registry.gauge("repro.dtn.buffer_occupancy", {"node": 2}).set(4)
        for value in (1, 2, 3, 4):
            registry.histogram("repro.dtn.latency").observe(value)
        text = to_prometheus(registry)
        assert "# TYPE repro_runtime_rounds counter" in text
        assert "# TYPE repro_dtn_latency summary" in text
        samples = parse_prometheus(text)
        assert samples["repro_runtime_rounds"] == 7
        assert samples['repro_dtn_buffer_occupancy{node="2"}'] == 4
        assert samples["repro_dtn_latency_count"] == 4
        assert samples["repro_dtn_latency_sum"] == 10
        assert samples['repro_dtn_latency{quantile="0.5"}'] == 3

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

    def test_engine_run_produces_jsonl_trace(self, tmp_path):
        tracer = Tracer(enabled=True)
        net = Network(path_graph(5), lambda n: Flood(0), tracer=tracer)
        stats = net.run()
        run_spans = [r for r in tracer.spans("engine.run")]
        round_spans = [r for r in tracer.spans("engine.round")]
        assert len(run_spans) == 1
        assert run_spans[0]["attrs"]["rounds"] == stats.rounds
        assert run_spans[0]["attrs"]["messages_sent"] == stats.messages_sent
        assert len(round_spans) == stats.rounds
        assert all(r["parent_id"] == run_spans[0]["span_id"] for r in round_spans)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(path, tracer.records)
        assert len(read_jsonl(path)) == len(tracer.records)

    def test_round_hooks_fire_per_round(self):
        net = Network(path_graph(4), lambda n: Flood(0))
        seen = []
        net.add_round_hook(lambda rnd, delivered: seen.append((rnd, delivered)))
        stats = net.run()
        assert [rnd for rnd, _ in seen] == list(range(1, stats.rounds + 1))
        assert sum(d for _, d in seen) + stats.messages_per_round[0] == (
            stats.messages_sent
        )

    def test_message_size_accounting_opt_in(self):
        net = Network(path_graph(3), lambda n: Flood(0), measure_message_sizes=True)
        net.run()
        counter = net.metrics.get("repro.runtime.message_bytes")
        assert counter is not None and counter.value > 0
        # Off by default: no series registered.
        net2 = Network(path_graph(3), lambda n: Flood(0))
        net2.run()
        assert net2.metrics.get("repro.runtime.message_bytes") is None


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

    def test_contact_and_exchange_events_traced(self):
        tracer = Tracer(enabled=True)
        sim = self._simulation(tracer=tracer)
        sim.add_message(MessageSpec("m0", 0, 2, created=0))
        sim.run()
        assert len(tracer.events("dtn.contact")) == 2
        assert len(tracer.events("dtn.delivered")) == 1
        assert len(tracer.spans("dtn.run")) == 1

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
