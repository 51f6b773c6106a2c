"""Cache and dispatch telemetry (repro.observability.telemetry).

Exact frozen-cache hit/miss/refreeze accounting, fast-vs-reference
dispatch counters for each kernel that really chooses a path (DTN run,
marking process, spanner stretch), silence from the single-path
kernels, and the labeled DTN fast-path rejection reasons.
"""

import pytest

from repro.graphs.graph import Graph
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.observability.telemetry import (
    CACHE_METRIC,
    DISPATCH_METRIC,
    cache_counts,
    dispatch_counts,
    record_cache_event,
    record_dispatch,
)
from repro.temporal.evolving import EvolvingGraph


@pytest.fixture
def registry():
    """Swap in an empty global metrics registry for the test."""
    fresh = MetricsRegistry("test-telemetry")
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def path_graph(n):
    graph = Graph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def dense_eg(n_contacts):
    eg = EvolvingGraph(horizon=n_contacts + 2, nodes=list(range(8)))
    for t in range(n_contacts):
        eg.add_contact(t % 8, (t + 1) % 8, t % (n_contacts + 1))
    return eg


class TestCacheTelemetry:
    def test_freeze_mutate_freeze_counts_exactly(self, registry):
        """The acceptance scenario: freeze twice, mutate, freeze again
        must produce exactly one miss, one hit, and one refreeze."""
        graph = path_graph(10)
        graph.frozen()  # first freeze: miss
        graph.frozen()  # unchanged: hit
        graph.add_edge(0, 9)  # topology mutation bumps the generation
        graph.frozen()  # rebuilt: refreeze
        assert cache_counts(registry) == {
            "Graph": {"miss": 1, "hit": 1, "refreeze": 1}
        }

    def test_owner_label_is_the_class_name(self, registry):
        eg = dense_eg(10)
        eg.frozen()
        eg.frozen()
        counts = cache_counts(registry)
        assert counts["EvolvingGraph"] == {"miss": 1, "hit": 1}

    def test_record_cache_event_series_key(self, registry):
        record_cache_event(path_graph(3), "miss")
        key = CACHE_METRIC + "{event=miss,owner=Graph}"
        assert registry.snapshot()[key] == 1

    def test_counts_scoped_to_registry(self, registry):
        record_cache_event(path_graph(3), "hit")
        assert cache_counts(MetricsRegistry("other")) == {}


class TestDispatchTelemetry:
    def test_single_path_kernels_record_no_dispatch(self, registry):
        from repro.graphs.graph import DiGraph
        from repro.graphs.traversal import bfs_distances
        from repro.labeling.pagerank import pagerank
        from repro.remapping.batch_routing import evaluate_geo_routing
        from repro.temporal.journeys import earliest_arrival

        assert bfs_distances(path_graph(5), 0)[4] == 4
        earliest_arrival(dense_eg(8), 0)
        digraph = DiGraph()
        for i in range(4):
            digraph.add_edge(i, (i + 1) % 5)
        assert pagerank(digraph)[0]
        positions = {i: (float(i), 0.0) for i in range(4)}
        result = evaluate_geo_routing(path_graph(4), [(0, 3)], positions)
        assert result.success_rate == 1.0
        # Only the snapshot builds they triggered are labeled.
        assert set(dispatch_counts(registry)) == {"graphs.freeze"}

    def test_marking_process_dispatch_follows_density(self, registry):
        from repro.labeling.cds import marking_process

        dense = Graph()
        for u in range(6):
            for v in range(u + 1, 6):
                dense.add_edge(u, v)
        dense.remove_edge(0, 1)
        assert marking_process(dense) == {2, 3, 4, 5}
        sparse = path_graph(600)  # 600 ** 2 > 512 * 599 edges
        assert len(marking_process(sparse)) == 598
        counts = dispatch_counts(registry)
        assert counts["labeling.marking_process"] == {"fast": 1, "reference": 1}

    def test_spanner_stretch_dispatch_follows_weights(self, registry):
        from repro.trimming.spanners import spanner_stretch

        graph = path_graph(5)
        graph.add_edge(0, 4)
        spanner = path_graph(5)
        assert spanner_stretch(graph, spanner) == 4.0
        graph.set_edge_attr(0, 4, "weight", 4.0)
        assert spanner_stretch(graph, spanner) == 1.0
        counts = dispatch_counts(registry)
        assert counts["trimming.spanner_stretch"] == {"fast": 1, "reference": 1}

    def test_dtn_run_dispatch_both_paths(self, registry):
        from repro.dtn.routers import EpidemicRouter
        from repro.dtn.simulator import DTNSimulation, MessageSpec

        eg = dense_eg(10)
        for fast_path in (None, False):
            sim = DTNSimulation(eg, EpidemicRouter(), fast_path=fast_path)
            sim.add_message(MessageSpec("m", 0, 5, created=0, ttl=100))
            sim.run()
        counts = dispatch_counts(registry)
        assert counts["dtn.run"] == {"fast": 1, "reference": 1}

    def test_record_dispatch_series_key(self, registry):
        record_dispatch("example.kernel", "fast")
        record_dispatch("example.kernel", "reference")
        record_dispatch("example.kernel", "reference")
        key = DISPATCH_METRIC + "{kernel=example.kernel,path=reference}"
        assert registry.snapshot()[key] == 2
        assert dispatch_counts(registry)["example.kernel"] == {
            "fast": 1,
            "reference": 2,
        }


class TestDTNRejectionReasons:
    """Each ineligibility cause increments its own labeled counter on
    the per-simulation registry."""

    def _sim(self, **kwargs):
        from repro.dtn.routers import EpidemicRouter
        from repro.dtn.simulator import DTNSimulation, MessageSpec

        eg = kwargs.pop("eg", None) or dense_eg(10)
        router = kwargs.pop("router", None) or EpidemicRouter()
        sim = DTNSimulation(eg, router, **kwargs)
        sim.add_message(MessageSpec("m", 0, 5, created=0, ttl=100))
        return sim

    def _rejections(self, sim):
        out = {}
        for key, value in sim.metrics.snapshot().items():
            if key.startswith("repro.dtn.fast_path_rejected"):
                reason = key.split("reason=", 1)[1].rstrip("}")
                out[reason] = value
        return out

    def test_eligible_run_records_no_reason(self, registry):
        sim = self._sim()  # 10 contacts: short traces take the front too
        sim.run()
        assert self._rejections(sim) == {}

    def test_disabled_explicitly(self, registry):
        sim = self._sim(fast_path=False)
        sim.run()
        assert self._rejections(sim) == {"disabled": 1}

    def test_bounded_buffer(self, registry):
        sim = self._sim(buffer_size=2)
        sim.run()
        assert self._rejections(sim) == {"bounded_buffer": 1}

    def test_router_mode(self, registry):
        from repro.dtn.routers import SprayAndWait

        sim = self._sim(router=SprayAndWait(copies=4))
        sim.run()
        assert self._rejections(sim) == {"router_mode": 1}

    def test_fault_session(self, registry):
        from repro.faults import FaultPlan, MessageFaults

        sim = self._sim(fault_plan=FaultPlan(1, injectors=(MessageFaults(drop=0.5),)))
        sim.run()
        assert self._rejections(sim) == {"fault_session": 1}

    def test_forced_fast_path_raises_and_labels_why(self, registry):
        sim = self._sim(buffer_size=1, fast_path=True)
        with pytest.raises(ValueError, match="fast_path=True"):
            sim.run()
        assert self._rejections(sim) == {"bounded_buffer": 1}
