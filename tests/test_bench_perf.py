"""Tier-1 wiring for the six ratio benchmarks (bench_perf_csr /
bench_perf_temporal / bench_perf_labeling / bench_perf_runtime /
bench_serving / bench_serving_write) and the ``_util`` helpers they
share (:class:`Case`, :func:`measure`, :func:`check_floors`).

Runs the same harnesses as the committed ``BENCH_perf-*.json`` feeds at
toy scale against a temp directory: validates the emitted documents
against the ``repro.bench/v1`` schema and relies on the harnesses'
built-in assertion that every fast-path output equals its pure-Python
reference (the run raises otherwise).  No speedup floor at toy
scale — that is the full run's job — only schema and equivalence.

The trajectory test at the bottom re-times every bench's fast sides at
its smallest committed size and compares against the committed feed
through the configurable perf gate
(:mod:`repro.observability.regression`): warn by default (timings on
shared dev boxes are too noisy to hard-gate), fail when the ``CI`` env
var is set or ``REPRO_PERF_GATE=fail``, silent with
``REPRO_PERF_GATE=off``.  ``REPRO_PERF_GATE_THRESHOLD`` overrides the
3x slowdown factor.
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_perf_csr  # noqa: E402  (benchmarks/bench_perf_csr.py)
import bench_perf_labeling  # noqa: E402
import bench_perf_runtime  # noqa: E402
import bench_perf_temporal  # noqa: E402
import bench_serving  # noqa: E402
import bench_serving_write  # noqa: E402
from _util import (  # noqa: E402
    Case,
    check_floors,
    measure,
    scratch_registry,
    speedups,
    time_repeated,
)
from repro.observability import BENCH_SCHEMA, validate_bench_report  # noqa: E402
from repro.observability import regression  # noqa: E402

TOP = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Default slowdown factor for the trajectory gate (see
#: ``REPRO_PERF_GATE_THRESHOLD`` to override).
TRAJECTORY_SLOWDOWN = 3.0

#: Every bench measured as :class:`Case` pairs and gated by ``FLOORS``.
RATIO_BENCHES = [
    bench_perf_csr,
    bench_perf_temporal,
    bench_perf_labeling,
    bench_perf_runtime,
    bench_serving,
    bench_serving_write,
]


def _bench_id(bench):
    return bench.EXPERIMENT


def _committed(bench):
    path = os.path.join(TOP, f"BENCH_{bench.EXPERIMENT}.json")
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# _util.Case / measure / check_floors
# ----------------------------------------------------------------------
def test_measure_raises_on_divergence_before_returning_timings():
    calls = []

    def fast():
        calls.append("fast")
        return 2

    with pytest.raises(AssertionError, match=r"toy at n=7"):
        measure(Case("toy", 7, lambda: 1, fast), repeats=2)
    # Warm-up plus both timed runs happened; nothing was returned.
    assert calls == ["fast"] * 3


def test_measure_prefixes_equal_errors_with_case_and_size():
    def equal(ref, fast):
        raise AssertionError("scores diverge")

    with pytest.raises(AssertionError, match=r"^toy at n=3: scores diverge$"):
        measure(Case("toy", 3, lambda: 1, lambda: 1, equal), repeats=1)


def test_measure_isolates_the_reference_registry():
    from repro.observability.metrics import get_registry

    def reference():
        get_registry().counter("test.case.reference").inc()
        return 1

    def fast():
        get_registry().counter("test.case.fast").inc()
        return 1

    with scratch_registry("live") as live:
        measured = measure(Case("toy", 1, reference, fast), repeats=2)
    names = {metric.name for metric in live.metrics()}
    assert "test.case.fast" in names
    assert "test.case.reference" not in names
    assert live.counter("test.case.fast").value == 3  # warm-up + 2 timed
    assert measured.reference_registry.counter("test.case.reference").value == 2
    assert measured.reference.repeats == 2 and measured.fast.repeats == 2


def test_measure_runs_setup_untimed_per_call():
    made = []

    def setup():
        made.append(len(made))
        return len(made)

    measured = measure(
        Case("toy", 1, lambda x: x > 0, lambda x: x > 0, setup=setup),
        repeats=2,
        reference_repeats=1,
    )
    assert len(made) == 1 + 1 + 2  # reference once, fast warm-up + 2
    assert set(measured.timings(("{case}_n{n}_ref", "{case}_n{n}_fast"))) == {
        f"toy_n1_{side}_{stat}"
        for side in ("ref", "fast")
        for stat in ("median_s", "min_s", "max_s", "repeats")
    }


def test_check_floors_gates_each_case_at_its_own_largest_n():
    floors = {"link-reversal": 10.0, "safety-levels": 10.0}
    # The runtime shape: the cube case's largest n (8192) is not the
    # random graph's (20000), and a slow small tier does not count.
    results = [
        ("link-reversal", 2000, 3.0),
        ("safety-levels", 1024, 2.0),
        ("link-reversal", 20000, 12.0),
        ("safety-levels", 8192, 11.0),
    ]
    check_floors(results, floors)
    with pytest.raises(AssertionError, match=r"safety-levels at n=8192"):
        check_floors(results[:3] + [("safety-levels", 8192, 9.9)], floors)
    with pytest.raises(AssertionError, match=r"missing.*safety-levels"):
        check_floors([("link-reversal", 20000, 12.0)], floors)


def test_speedups_read_case_size_and_speedup_columns():
    assert speedups(
        ["requested n", "n", "m", "kernel", "speedup"], [(600, 552, 9, "mis", 4.0)]
    ) == [("mis", 600, 4.0)]
    assert speedups(["n", "m", "speedup"], [(500, 1500, 6.0)]) == [
        ("stream", 500, 6.0)
    ]


def test_perf_csr_toy_run_validates_schema_and_equivalence(tmp_path):
    result = bench_perf_csr.run(
        sizes=(150,), repeats=1, out_dir=str(tmp_path), top_dir=str(tmp_path)
    )
    assert result.experiment == "perf-csr"
    document = json.loads(Path(result.bench_path).read_text())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    kernels = {row[3] for row in result.rows}
    assert set(bench_perf_csr.FLOORS) <= kernels
    # Median-of-k spread keys land in the timings map.
    assert any(key.endswith("_median_s") for key in document["timings"])
    assert any(key.endswith("_min_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_perf_temporal_toy_run_validates_schema_and_equivalence(tmp_path):
    result = bench_perf_temporal.run(
        sizes=((30, 40, 400, 6),),
        repeats=1,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "perf-temporal"
    document = json.loads(Path(result.bench_path).read_text())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    kernels = {row[3] for row in result.rows}
    assert set(bench_perf_temporal.FLOORS) <= kernels
    assert any(key.endswith("_frozen_median_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_perf_labeling_toy_run_validates_schema_and_equivalence(tmp_path):
    result = bench_perf_labeling.run(
        sizes=(bench_perf_labeling.TOY_SIZE,),
        repeats=1,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "perf-labeling"
    document = json.loads(Path(result.bench_path).read_text())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    kernels = {row[1] for row in result.rows}
    assert set(bench_perf_labeling.FLOORS) <= kernels
    assert any(key.endswith("_frozen_median_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_perf_runtime_toy_run_validates_schema_and_equivalence(tmp_path):
    """Tiny instance of the vector-plane harness: every protocol runs on
    both engines and the harness asserts bit-exact state plus equal
    round/message accounting before its timing loop (no speedup floor
    at toy scale)."""
    result = bench_perf_runtime.run(
        sizes=(bench_perf_runtime.TOY_SIZE,),
        repeats=1,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "perf-runtime"
    document = json.loads(Path(result.bench_path).read_text())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    kernels = {row[1] for row in result.rows}
    assert set(bench_perf_runtime.FLOORS) <= kernels
    assert "mis" in kernels
    assert any(key.endswith("_vector_median_s") for key in document["timings"])
    assert any(key.endswith("_ref_median_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


@pytest.mark.parametrize("bench", RATIO_BENCHES, ids=_bench_id)
def test_committed_feed_is_valid_and_meets_floors(bench):
    document = _committed(bench)
    assert validate_bench_report(document) == []
    assert document["header"] == bench.HEADER
    check_floors(speedups(document["header"], document["rows"]), bench.FLOORS)


def test_serving_toy_run_validates_schema_and_equivalence(tmp_path):
    """Tiny instance of the mixed mutate/query stream: both stacks run,
    answer equality and zero steady-state refreezes asserted inside
    ``run`` itself (no speedup floor at toy scale)."""
    result = bench_serving.run(
        sizes=(80,),
        epochs=2,
        mutations=2,
        repeats=1,
        threshold=16,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "serving"
    document = json.loads(Path(result.bench_path).read_text())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert any(
        key.startswith("serving_stream_") and key.endswith("_median_s")
        for key in document["timings"]
    )
    assert any(
        key.startswith("baseline_stream_") and key.endswith("_median_s")
        for key in document["timings"]
    )
    # The registry snapshot rides along: coalescing actually happened.
    assert "coalesce ratio" in document["notes"]


def test_serving_write_toy_run_validates_schema_and_equivalence(tmp_path):
    """Tiny instance of the mutation-heavy write stream: reference
    verification, per-edge vs batched answer equality, and zero
    steady-state refreezes asserted inside ``run`` itself (no speedup
    floor at toy scale).  Runs under a fresh global registry so the
    no-refreeze-series assertion on the emitted feed is about *this*
    harness, not whatever earlier tests recorded in-process."""
    with scratch_registry("test-serving-write"):
        result = bench_serving_write.run(
            sizes=(80,),
            epochs=2,
            bursts=2,
            repeats=1,
            threshold=16,
            out_dir=str(tmp_path),
            top_dir=str(tmp_path),
        )
    assert result.experiment == "serving-write"
    document = json.loads(Path(result.bench_path).read_text())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert any(
        key.startswith("batched_stream_") and key.endswith("_median_s")
        for key in document["timings"]
    )
    assert any(
        key.startswith("per_edge_stream_") and key.endswith("_median_s")
        for key in document["timings"]
    )
    assert "verified against the reference kernels" in document["notes"]
    # Satellite invariant: the write-path feed carries no frozen-cache
    # refreeze series — the reference pass runs before the timed phase
    # and the serving stacks never touch the refreeze path.
    assert not any(
        "cache.frozen" in key for key in document.get("metrics", {})
    )


def test_committed_serving_feed_has_no_refreeze_leak():
    """The satellite-1 pin: the committed serving feed must not carry
    the baseline's refreeze storm in its metrics snapshot — the
    refreeze-per-generation phase runs in a scratch registry, and the
    notes record where those events went."""
    for feed in ("BENCH_serving.json", "BENCH_serving-write.json"):
        document = json.loads(Path(os.path.join(TOP, feed)).read_text())
        refreeze_series = [
            key
            for key, value in document.get("metrics", {}).items()
            if "cache.frozen" in key or "refreeze" in str(value)
        ]
        assert refreeze_series == [], (feed, refreeze_series)
    notes = _committed(bench_serving)["notes"]
    assert "scratch registry" in notes
    assert "zero repro.cache.frozen events" in notes
    assert "Zero repro.cache.frozen events" in _committed(bench_serving_write)["notes"]


# ----------------------------------------------------------------------
# perf-trajectory guard (configurable gate; warn by default, fail in CI)
# ----------------------------------------------------------------------
def _flag_regression(kernel, committed_s, current_s):
    threshold = regression.gate_threshold(default=TRAJECTORY_SLOWDOWN)
    if committed_s > 0 and current_s > threshold * committed_s:
        regression.apply_gate(
            [
                regression.Regression(
                    experiment="trajectory",
                    key=kernel,
                    baseline_s=committed_s,
                    current_s=current_s,
                    threshold=threshold,
                )
            ]
        )


@pytest.mark.parametrize("bench", RATIO_BENCHES, ids=_bench_id)
def test_perf_trajectory_warn_only(bench):
    """Re-time the bench's fast sides at its smallest committed size;
    warn (never fail) on a >3x slowdown vs the committed median.

    Each side is timed as a median of 3, the statistic every ratio
    bench's ``run(repeats=3)`` commits, so one GC pause or host stall
    cannot warn on its own."""
    timings = _committed(bench)["timings"]
    size = bench.DEFAULT_SIZES[0]
    for case in bench.cases(size, bench.workload(size)):
        key = bench.KEYS[1].format(case=case.name, n=case.n) + "_median_s"
        if key not in timings:
            continue
        _, timing = time_repeated(case.fast, repeats=3, warmup=1, setup=case.setup)
        _flag_regression(
            f"{case.name} ({bench.EXPERIMENT}, n={case.n})",
            timings[key],
            timing.median_s,
        )
