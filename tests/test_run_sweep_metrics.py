"""Parallel-sweep metrics survival (benchmarks/_util.run_sweep).

The PR-4 parallel sweep lost every counter the workers incremented:
forked processes mutate a copy of the registry and the copies died
with the pool.  ``run_sweep`` now ships each worker's registry state
back with its result and merges it into the parent, so telemetry is
identical however the sweep is fanned out.
"""

import os
import sys
from functools import partial

import numpy as np
import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from _util import run_sweep  # noqa: E402
from repro.graphs.generators import degree_ordered_graph  # noqa: E402
from repro.observability.metrics import (  # noqa: E402
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observability.telemetry import dispatch_counts  # noqa: E402


@pytest.fixture
def registry():
    fresh = MetricsRegistry("test-sweep")
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def sweep_point(item):
    """Module-level (picklable) sweep body: records into the global
    registry exactly like an instrumented kernel would."""
    get_registry().counter("repro.test.sweep_calls").inc()
    get_registry().counter("repro.test.sweep_items", {"item": item}).inc()
    get_registry().histogram("repro.test.sweep_cost").observe(float(item))
    return item * 10


def test_serial_sweep_keeps_metrics(registry):
    assert run_sweep([1, 2, 3], sweep_point) == [10, 20, 30]
    assert registry.snapshot()["repro.test.sweep_calls"] == 3


@pytest.mark.skipif(sys.platform == "win32", reason="fork context only")
def test_parallel_sweep_merges_worker_metrics(registry):
    """jobs=2 must produce the same results AND the same counters as a
    serial run — nothing lost in the worker processes."""
    results = run_sweep([1, 2, 3, 4], sweep_point, jobs=2)
    assert results == [10, 20, 30, 40]
    snapshot = registry.snapshot()
    assert snapshot["repro.test.sweep_calls"] == 4
    for item in (1, 2, 3, 4):
        assert snapshot[f"repro.test.sweep_items{{item={item}}}"] == 1
    histogram = snapshot["repro.test.sweep_cost"]
    assert histogram["count"] == 4
    assert histogram["sum"] == 10.0


@pytest.mark.skipif(sys.platform == "win32", reason="fork context only")
def test_parallel_sweep_does_not_double_count_prefork_series(registry):
    """Counters recorded in the parent before the fan-out must not be
    re-merged from the forked workers' inherited registries."""
    registry.counter("repro.test.prefork").inc(5)
    run_sweep([1, 2], sweep_point, jobs=2)
    assert registry.snapshot()["repro.test.prefork"] == 5


def graph_point(fg, item):
    """Picklable sweep body over a snapshot bound with ``partial``."""
    return int(fg.indptr[item + 1] - fg.indptr[item]) + item * 1000


@pytest.mark.skipif(sys.platform == "win32", reason="fork context only")
def test_parallel_graph_sweep_matches_serial(registry):
    fg = degree_ordered_graph(300, rng=np.random.default_rng(23))
    items = [0, 5, 10, 15]
    serial = run_sweep(items, partial(graph_point, fg))
    assert serial == [graph_point(fg, item) for item in items]
    assert run_sweep(items, partial(graph_point, fg), jobs=2) == serial


@pytest.mark.skipif(sys.platform == "win32", reason="fork context only")
def test_parallel_graph_sweep_workers_do_not_rebuild_the_graph(registry):
    fg = degree_ordered_graph(400, rng=np.random.default_rng(22))
    before = dispatch_counts(registry).get("graphs.freeze", {})
    run_sweep(list(range(6)), partial(graph_point, fg), jobs=2)
    # the snapshot reaches the workers whole; none of them re-freezes it
    assert dispatch_counts(registry).get("graphs.freeze", {}) == before


def test_single_item_sweep_stays_in_process(registry):
    pid = os.getpid()
    assert run_sweep([7], lambda item: (item, os.getpid()), jobs=4) == [(7, pid)]
