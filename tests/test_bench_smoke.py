"""Tier-1 wiring for the benchmark smoke harness.

Runs one tiny instance of every figure benchmark (benchmarks/smoke.py)
with tracing enabled, against temp directories, and checks each emitted
feed validates against the ``repro.bench/v1`` schema and is the only
copy of its table — so a schema or instrumentation regression fails the
plain test suite, not just the (slower) benchmark pass.
"""

import json
import os
import sys

pytest_plugins = ["pytester"]

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import smoke  # noqa: E402  (benchmarks/smoke.py)
from _util import HISTORY_NAME  # noqa: E402
from repro.observability import (  # noqa: E402
    BENCH_SCHEMA,
    load_history,
    validate_bench_report,
)


def test_smoke_runs_every_figure_and_validates(tmp_path):
    top, out = tmp_path / "top", tmp_path / "out"
    results = smoke.run_all(out_dir=str(out), top_dir=str(top))
    assert set(results) == set(smoke.SMOKE_RUNNERS)
    # Every figure of the paper, the DTN application table, the chaos
    # degradation sweep and the serving plane are covered.
    assert {f"fig{i}" for i in range(1, 10)} | {
        "dtn",
        "faults",
        "perf-runtime",
        "serving",
        "serving-write",
    } <= set(results)
    for name, result in results.items():
        assert result.bench_path == str(top / f"BENCH_smoke-{name}.json")
        with open(result.bench_path) as handle:
            document = json.load(handle)
        assert document["schema"] == BENCH_SCHEMA
        assert validate_bench_report(document) == []
    # One committed copy per table: the feed, and the shared ledger; no
    # temp files left behind by the atomic writes.
    assert sorted(os.listdir(top)) == sorted(
        f"BENCH_smoke-{name}.json" for name in smoke.SMOKE_RUNNERS
    )
    assert os.listdir(out) == [HISTORY_NAME]


def test_each_runner_records_into_its_own_registry(tmp_path):
    """The report runner records no labeling, remapping or frozen-cache
    series, so none may leak into its feed from the runners before it;
    and the ledger holds one record per runner, in run order."""
    results = smoke.run_all(out_dir=str(tmp_path), top_dir=str(tmp_path))
    with open(results["report"].bench_path) as handle:
        metrics = json.load(handle)["metrics"]
    leaked = [
        name
        for name in metrics
        if name.startswith(
            ("repro.labeling.", "repro.remapping.", "repro.cache.frozen")
        )
    ]
    assert leaked == []

    ledger = load_history(results["report"].history_path)
    assert [record["experiment"] for record in ledger] == [
        f"smoke-{name}" for name in sorted(smoke.SMOKE_RUNNERS)
    ]


def test_each_bench_test_records_into_its_own_registry(pytester):
    """``emit_table`` snapshots the global registry into the feed, so
    the bench suite's conftest must give every test its own: a series
    recorded by one bench test is absent from the next one's."""
    with open(os.path.join(BENCH_DIR, "conftest.py")) as handle:
        pytester.makeconftest(handle.read())
    pytester.makepyfile(
        test_pair="""
        from repro.observability import get_registry

        def test_first():
            get_registry().counter("repro.test.first").inc()

        def test_second():
            assert "repro.test.first" not in get_registry().snapshot()
        """
    )
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider", "test_pair.py")
    result.assert_outcomes(passed=2)
