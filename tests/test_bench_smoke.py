"""Tier-1 wiring for the benchmark smoke harness.

Runs one tiny instance of every figure benchmark (benchmarks/smoke.py)
with tracing enabled, against a temp directory, and checks the emitted
JSON validates against the ``repro.bench/v1`` schema — so a schema or
instrumentation regression fails the plain test suite, not just the
(slower) benchmark pass.
"""

import json
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import smoke  # noqa: E402  (benchmarks/smoke.py)
from repro.observability import (  # noqa: E402
    BENCH_SCHEMA,
    get_tracer,
    load_history,
    validate_bench_report,
)


def test_smoke_runs_every_figure_and_validates(tmp_path):
    results = smoke.run_all(out_dir=str(tmp_path), top_dir=str(tmp_path))
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
        assert os.path.dirname(result.json_path) == str(tmp_path)
        document = json.loads(open(result.json_path).read())
        assert document["schema"] == BENCH_SCHEMA
        assert validate_bench_report(document) == []
        # The BENCH_* perf-trajectory feed is byte-identical to the sibling.
        assert open(result.bench_path).read() == open(result.json_path).read()


def test_smoke_artifacts_are_atomic_no_leftover_temp_files(tmp_path):
    smoke.run_all(out_dir=str(tmp_path), top_dir=str(tmp_path))
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_each_runner_records_into_its_own_registry(tmp_path, monkeypatch):
    """The report runner records no labeling, remapping or frozen-cache
    series, so none may leak into its feed from the runners before it;
    and every ledger record carries only memory spans its own runner
    recorded."""
    tracer = get_tracer()
    own_spans = {}

    def recording(name, runner):
        def wrapper():
            start = len(tracer.records)
            spec = runner()
            own_spans[name] = {
                record["name"]
                for record in tracer.records[start:]
                if "peak_kib" in record
            }
            return spec

        return wrapper

    for name, runner in list(smoke.SMOKE_RUNNERS.items()):
        monkeypatch.setitem(smoke.SMOKE_RUNNERS, name, recording(name, runner))
    results = smoke.run_all(out_dir=str(tmp_path), top_dir=str(tmp_path))
    with open(results["report"].json_path) as handle:
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
    for record in ledger:
        name = record["experiment"][len("smoke-"):]
        foreign = set(record.get("memory") or {}) - own_spans[name]
        assert foreign == set(), record["experiment"]

