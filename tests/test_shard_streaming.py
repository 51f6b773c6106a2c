"""Source-sharded streaming kernels and the shard planner.

The all-pairs family (distance sums, closeness, eccentricities,
landmark labels, batched routing) must produce bit-identical
results whether it runs in one sweep or streamed shard-by-shard under
a tiny memory budget — the fold over shards is exact, not
approximate.  The planner itself has simple algebraic properties the
kernels rely on (coverage, monotonicity, the infeasible flag).
"""

import numpy as np
import pytest

from repro.graphs.csr import FrozenGraph, ShardPlan, shard_sources
from repro.graphs.generators import (
    degree_ordered_graph,
    degree_ordered_reference,
    erdos_renyi,
)
from repro.graphs.metrics import closeness_centrality_reference
from repro.labeling.landmarks import distance_gateway_labels
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.observability.telemetry import SHARD_METRIC
from repro.remapping.batch_routing import _optimal_for_pairs


def _shards(registry, kernel):
    """Streamed shards ``kernel`` counted into ``repro.shard.sweeps``."""
    return registry.snapshot().get(f"{SHARD_METRIC}{{kernel={kernel}}}", 0)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def _frozen(n=500, seed=11):
    return degree_ordered_graph(n, avg_degree=6.0, rng=np.random.default_rng(seed))


TINY_BUDGET = 1  # forces the minimum batch and the maximum shard count


class TestShardPlanner:
    def test_plan_covers_all_sources_exactly_once(self):
        for n_sources in (1, 63, 64, 65, 500, 1000):
            plan = shard_sources(n_sources, memory_budget=TINY_BUDGET, n=1000, edges=4000)
            sources = np.arange(n_sources, dtype=np.int64)
            chunks = list(plan.batches(sources))
            assert sum(chunk.shape[0] for chunk in chunks) == n_sources
            assert np.array_equal(np.concatenate(chunks), sources)
            assert len(chunks) == plan.shards

    def test_no_budget_means_max_batch(self):
        # without a budget the batch only honors the bitset cap
        plan = shard_sources(256, memory_budget=None, n=10_000, edges=40_000)
        assert plan.shards == 1
        assert plan.batch == 256
        assert plan.feasible

    def test_budget_shrinks_batch_monotonically(self):
        budgets = (1 << 34, 1 << 24, 1 << 16, 1)
        batches = [
            shard_sources(1024, memory_budget=b, n=100_000, edges=400_000).batch
            for b in budgets
        ]
        assert batches == sorted(batches, reverse=True)

    def test_infeasible_budget_is_flagged_not_fatal(self):
        plan = shard_sources(256, memory_budget=TINY_BUDGET, n=50_000, edges=200_000)
        assert not plan.feasible
        assert plan.batch >= 1  # still yields a usable (minimum) batch
        assert plan.est_shard_bytes > plan.budget_bytes

    def test_plan_is_frozen(self):
        plan = shard_sources(10, memory_budget=None, n=10, edges=10)
        assert isinstance(plan, ShardPlan)
        with pytest.raises(AttributeError):
            plan.batch = 1


class TestShardedKernelsBitExact:
    def test_distance_sums_match_unsharded(self):
        fg = _frozen()
        base = fg.all_pairs_distance_sums()
        streamed = fg.all_pairs_distance_sums(memory_budget=TINY_BUDGET)
        assert np.array_equal(base, streamed)

    def test_eccentricities_match_unsharded(self):
        fg = _frozen(seed=12)
        assert np.array_equal(
            fg.eccentricities(), fg.eccentricities(memory_budget=TINY_BUDGET)
        )

    def test_closeness_matches_unsharded_and_reference(self):
        g = erdos_renyi(80, 0.08, np.random.default_rng(5))
        fg = FrozenGraph(g)
        base = fg.closeness_centrality()
        streamed = fg.closeness_centrality(memory_budget=TINY_BUDGET)
        assert streamed == pytest.approx(base)
        reference = closeness_centrality_reference(g)
        for node, value in reference.items():
            assert streamed[node] == pytest.approx(value)

    def test_multi_source_labels_fold_matches_single_sweep(self):
        fg = _frozen(seed=13)
        landmarks = np.arange(0, 200, dtype=np.int64)
        base = fg.multi_source_labels(landmarks)
        streamed = fg.multi_source_labels(landmarks, memory_budget=TINY_BUDGET)
        assert np.array_equal(base, streamed)

    def test_landmark_labels_gateway_passes_budget(self):
        g = degree_ordered_reference(300, avg_degree=6.0, rng=np.random.default_rng(14))
        landmarks = list(range(0, 300, 7))
        base = distance_gateway_labels(g, landmarks)
        streamed = distance_gateway_labels(g, landmarks, memory_budget=TINY_BUDGET)
        assert base == streamed

    def test_optimal_for_pairs_budget_equivalence(self):
        fg = _frozen(260, seed=16)
        rng = np.random.default_rng(17)
        sources = rng.integers(0, 260, size=40)
        targets = rng.integers(0, 260, size=40)
        base = _optimal_for_pairs(fg, sources, targets)
        streamed = _optimal_for_pairs(fg, sources, targets, memory_budget=TINY_BUDGET)
        assert np.array_equal(base, streamed)
        expected = np.array(
            [fg.bfs_levels(int(s))[int(t)] for s, t in zip(sources, targets)],
            dtype=np.int64,
        )
        assert np.array_equal(streamed, expected)


class TestShardTelemetry:
    def test_shard_counters(self, registry):
        fg = _frozen(300, seed=18)
        fg.all_pairs_distance_sums(memory_budget=TINY_BUDGET)
        # the tiny budget forced shards
        assert _shards(registry, "all_pairs_distance_sums") >= 2

    def test_unbudgeted_run_is_one_shard(self, registry):
        fg = _frozen(200, seed=19)
        fg.all_pairs_distance_sums()
        assert _shards(registry, "all_pairs_distance_sums") == 1
