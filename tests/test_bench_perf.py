"""Tier-1 wiring for the perf benchmarks (bench_perf_csr /
bench_perf_temporal / bench_perf_labeling).

Runs the same harnesses as the committed ``BENCH_perf-*.json`` feeds at
toy scale against a temp directory: validates the emitted documents
against the ``repro.bench/v1`` schema, checks each BENCH feed is
byte-identical to its sibling, and relies on the harnesses' built-in
assertion that every fast-path output equals its pure-Python reference
(the run raises otherwise).  No speedup floor at toy scale — that is
the full run's job — only schema and equivalence.

The trajectory tests at the bottom re-time the fast-path kernels at
the smallest committed size and compare against the committed feed
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

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_perf_csr  # noqa: E402  (benchmarks/bench_perf_csr.py)
import bench_perf_labeling  # noqa: E402
import bench_perf_runtime  # noqa: E402
import bench_perf_scale  # noqa: E402
import bench_perf_temporal  # noqa: E402
import bench_serving  # noqa: E402
import bench_serving_write  # noqa: E402
from _util import time_repeated  # noqa: E402
from repro.observability import BENCH_SCHEMA, validate_bench_report  # noqa: E402
from repro.observability import regression  # noqa: E402

TOP = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Default slowdown factor for the trajectory gate (see
#: ``REPRO_PERF_GATE_THRESHOLD`` to override).
TRAJECTORY_SLOWDOWN = 3.0


def test_perf_csr_toy_run_validates_schema_and_equivalence(tmp_path):
    result = bench_perf_csr.run(
        sizes=(150,), repeats=1, out_dir=str(tmp_path), top_dir=str(tmp_path)
    )
    assert result.experiment == "perf-csr"
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
    kernels = {row[3] for row in result.rows}
    assert set(bench_perf_csr.TARGET_KERNELS) <= kernels
    # Median-of-k spread keys land in the timings map.
    assert any(key.endswith("_median_s") for key in document["timings"])
    assert any(key.endswith("_min_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_committed_perf_csr_feed_is_valid_and_meets_target():
    path = os.path.join(TOP, "BENCH_perf-csr.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    kernel_col = header.index("kernel")
    speedup_col = header.index("speedup")
    n_col = header.index("requested n")
    largest = max(row[n_col] for row in document["rows"])
    for row in document["rows"]:
        if row[n_col] == largest and row[kernel_col] in bench_perf_csr.TARGET_KERNELS:
            assert row[speedup_col] >= bench_perf_csr.TARGET_SPEEDUP


def test_perf_temporal_toy_run_validates_schema_and_equivalence(tmp_path):
    result = bench_perf_temporal.run(
        sizes=((30, 40, 400, 6),),
        repeats=1,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "perf-temporal"
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
    kernels = {row[3] for row in result.rows}
    assert set(bench_perf_temporal.TARGET_KERNELS) <= kernels
    assert any(key.endswith("_frozen_median_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_committed_perf_temporal_feed_is_valid_and_meets_target():
    path = os.path.join(TOP, "BENCH_perf-temporal.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    kernel_col = header.index("kernel")
    speedup_col = header.index("speedup")
    n_col = header.index("n")
    largest = max(row[n_col] for row in document["rows"])
    for row in document["rows"]:
        if (
            row[n_col] == largest
            and row[kernel_col] in bench_perf_temporal.TARGET_KERNELS
        ):
            assert row[speedup_col] >= bench_perf_temporal.TARGET_SPEEDUP


def test_perf_labeling_toy_run_validates_schema_and_equivalence(tmp_path):
    result = bench_perf_labeling.run(
        sizes=(bench_perf_labeling.TOY_SIZE,),
        repeats=1,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "perf-labeling"
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
    kernels = {row[1] for row in result.rows}
    assert set(bench_perf_labeling.TARGET_SPEEDUPS) <= kernels
    assert any(key.endswith("_frozen_median_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_committed_perf_labeling_feed_is_valid_and_meets_targets():
    path = os.path.join(TOP, "BENCH_perf-labeling.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    kernel_col = header.index("kernel")
    speedup_col = header.index("speedup")
    n_col = header.index("n")
    largest = max(row[n_col] for row in document["rows"])
    floors = bench_perf_labeling.TARGET_SPEEDUPS
    seen = set()
    for row in document["rows"]:
        floor = floors.get(row[kernel_col])
        if row[n_col] == largest and floor is not None:
            assert row[speedup_col] >= floor, row
            seen.add(row[kernel_col])
    assert seen == set(floors)  # every gated kernel appears at the top size


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
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
    kernels = {row[1] for row in result.rows}
    assert set(bench_perf_runtime.TARGET_SPEEDUPS) <= kernels
    assert "mis" in kernels
    assert any(key.endswith("_vector_median_s") for key in document["timings"])
    assert any(key.endswith("_ref_median_s") for key in document["timings"])
    assert any(key.startswith("freeze_") for key in document["timings"])


def test_committed_perf_runtime_feed_is_valid_and_meets_targets():
    path = os.path.join(TOP, "BENCH_perf-runtime.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    kernel_col = header.index("kernel")
    speedup_col = header.index("speedup")
    n_col = header.index("n")
    # The tiers pair a random-graph n with a cube dimension, so each
    # kernel is gated at its own largest n (the cube's is a power of 2).
    floors = bench_perf_runtime.TARGET_SPEEDUPS
    largest = {
        kernel: max(
            row[n_col]
            for row in document["rows"]
            if row[kernel_col] == kernel
        )
        for kernel in floors
    }
    seen = set()
    for row in document["rows"]:
        floor = floors.get(row[kernel_col])
        if floor is not None and row[n_col] == largest[row[kernel_col]]:
            assert row[speedup_col] >= floor, row
            seen.add(row[kernel_col])
    assert seen == set(floors)  # every gated kernel appears at its top size


def test_perf_scale_toy_run_validates_schema_and_tiers(tmp_path):
    result = bench_perf_scale.run(
        scale_n=3000,
        verify_n=500,
        memory_budget=4 * 1024 * 1024,
        ceiling_mib=512.0,
        out_dir=str(tmp_path),
        top_dir=str(tmp_path),
    )
    assert result.experiment == "perf-scale"
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
    tiers = {row[0] for row in result.rows}
    assert {"verify", "scale"} <= tiers
    # every scale row stayed under the asserted ceiling
    header = document["header"]
    peak_col = header.index("peak MiB")
    ceiling_col = header.index("ceiling MiB")
    for row in document["rows"]:
        if row[0] == "scale":
            assert float(row[peak_col]) <= float(row[ceiling_col])


def test_committed_perf_scale_feed_has_million_node_rows():
    path = os.path.join(TOP, "BENCH_perf-scale.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    n_col = header.index("n")
    peak_col = header.index("peak MiB")
    ceiling_col = header.index("ceiling MiB")
    scale_rows = [row for row in document["rows"] if row[0] == "scale"]
    assert scale_rows, "committed feed must carry the scale tier"
    assert max(int(row[n_col]) for row in scale_rows) >= 1_000_000
    for row in scale_rows:
        assert float(row[peak_col]) <= float(row[ceiling_col]), row
    # the bit-exactness tier ran before any timing
    assert any(row[0] == "verify" for row in document["rows"])


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
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
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


def test_committed_serving_feed_is_valid_and_meets_target():
    path = os.path.join(TOP, "BENCH_serving.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    speedup_col = header.index("speedup")
    n_col = header.index("n")
    largest = max(row[n_col] for row in document["rows"])
    for row in document["rows"]:
        if row[n_col] == largest:
            assert row[speedup_col] >= bench_serving.TARGET_SPEEDUP, row
    # Zero refreezes during the serving runs is asserted by the harness
    # before emission; the note records the structural economics.
    assert "zero repro.cache.frozen events" in document["notes"]


def test_serving_write_toy_run_validates_schema_and_equivalence(tmp_path):
    """Tiny instance of the mutation-heavy write stream: reference
    verification, per-edge vs batched answer equality, and zero
    steady-state refreezes asserted inside ``run`` itself (no speedup
    floor at toy scale).  Runs under a fresh global registry so the
    no-refreeze-series assertion on the emitted feed is about *this*
    harness, not whatever earlier tests recorded in-process."""
    from repro.observability.metrics import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry("test-serving-write"))
    try:
        result = bench_serving_write.run(
            sizes=(80,),
            epochs=2,
            bursts=2,
            repeats=1,
            threshold=16,
            out_dir=str(tmp_path),
            top_dir=str(tmp_path),
        )
    finally:
        set_registry(previous)
    assert result.experiment == "serving-write"
    document = json.loads(open(result.json_path).read())
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench_report(document) == []
    assert open(result.bench_path).read() == open(result.json_path).read()
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


def test_committed_serving_write_feed_is_valid_and_meets_target():
    path = os.path.join(TOP, "BENCH_serving-write.json")
    document = json.loads(open(path).read())
    assert validate_bench_report(document) == []
    header = document["header"]
    speedup_col = header.index("speedup")
    n_col = header.index("n")
    largest = max(row[n_col] for row in document["rows"])
    for row in document["rows"]:
        if row[n_col] == largest:
            assert (
                row[speedup_col] >= bench_serving_write.TARGET_WRITE_SPEEDUP
            ), row
    assert "Zero repro.cache.frozen events" in document["notes"]


def test_committed_serving_feed_has_no_refreeze_leak():
    """The satellite-1 pin: the committed serving feed must not carry
    the baseline's refreeze storm in its metrics snapshot — the
    refreeze-per-generation phase runs in a scratch registry, and the
    notes record where those events went."""
    for feed in ("BENCH_serving.json", "BENCH_serving-write.json"):
        document = json.loads(open(os.path.join(TOP, feed)).read())
        refreeze_series = [
            key
            for key, value in document.get("metrics", {}).items()
            if "cache.frozen" in key or "refreeze" in str(value)
        ]
        assert refreeze_series == [], (feed, refreeze_series)
    notes = json.loads(
        open(os.path.join(TOP, "BENCH_serving.json")).read()
    )["notes"]
    assert "scratch registry" in notes


# ----------------------------------------------------------------------
# perf-trajectory guard (configurable gate; warn by default, fail in CI)
# ----------------------------------------------------------------------
def _committed_timings(feed_name):
    path = os.path.join(TOP, feed_name)
    return json.loads(open(path).read())["timings"]


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


def test_perf_trajectory_csr_warn_only():
    """Re-time the CSR kernels at the smallest committed size; warn on >3x."""
    import numpy as np

    from repro.datasets.gnutella import gnutella_largest_scc

    timings = _committed_timings("BENCH_perf-csr.json")
    size = 600  # smallest committed size in bench_perf_csr's full run
    graph = gnutella_largest_scc(size, np.random.default_rng(size))
    fg = graph.frozen()
    for name, _ref_fn, csr_fn in bench_perf_csr._kernel_pairs(graph, fg):
        key = f"{name}_n{size}_csr_median_s"
        if key not in timings:
            continue
        _, timing = time_repeated(csr_fn, repeats=1, warmup=1)
        _flag_regression(f"{name} (csr, n={size})", timings[key], timing.median_s)


def test_perf_trajectory_temporal_warn_only():
    """Re-time the frozen temporal kernels at the smallest committed size."""
    n, horizon, contacts, messages = bench_perf_temporal.DEFAULT_SIZES[0]
    timings = _committed_timings("BENCH_perf-temporal.json")
    eg = bench_perf_temporal.temporal_workload(n, horizon, contacts, seed=n)
    specs = bench_perf_temporal.message_specs(n, messages, seed=n)
    for name, _ref_fn, frozen_fn in bench_perf_temporal._kernel_pairs(eg, specs):
        key = f"{name}_n{n}_frozen_median_s"
        if key not in timings:
            continue
        _, timing = time_repeated(frozen_fn, repeats=1, warmup=1)
        _flag_regression(f"{name} (frozen, n={n})", timings[key], timing.median_s)


def test_perf_trajectory_labeling_warn_only():
    """Re-time the frozen labeling/routing kernels at the smallest
    committed size; warn (never fail) on a >3x slowdown."""
    n, side, n_pairs, n_landmarks = bench_perf_labeling.DEFAULT_SIZES[0]
    timings = _committed_timings("BENCH_perf-labeling.json")
    workloads = bench_perf_labeling.build_workloads(n, side, n_pairs, n_landmarks)
    for name, _ref_fn, frozen_fn, _check in bench_perf_labeling._kernel_pairs(
        workloads
    ):
        key = f"{name}_n{n}_frozen_median_s"
        if key not in timings:
            continue
        _, timing = time_repeated(frozen_fn, repeats=1, warmup=1)
        _flag_regression(f"{name} (frozen, n={n})", timings[key], timing.median_s)


def test_perf_trajectory_runtime_warn_only():
    """Re-time the vector-plane kernels at the smallest committed tier;
    warn (never fail) on a >3x slowdown vs the committed median."""
    from repro.graphs.hypercube import binary_hypercube
    from repro.runtime.vector import hypercube_frozen

    n, dimension = bench_perf_runtime.DEFAULT_SIZES[0]
    timings = _committed_timings("BENCH_perf-runtime.json")
    graph, destination, stale = bench_perf_runtime.reversal_workload(n)
    fg = graph.frozen()
    faults = bench_perf_runtime.safety_workload(dimension)
    cube = binary_hypercube(dimension)
    cube_fg = hypercube_frozen(dimension)
    runners = [
        ("link-reversal", n,
         bench_perf_runtime._reversal_runners(graph, fg, destination, stale)),
        ("safety-levels", 1 << dimension,
         bench_perf_runtime._safety_runners(cube, cube_fg, dimension, faults)),
        ("mis", n, bench_perf_runtime._mis_runners(graph, fg)),
    ]
    for name, size_n, (_scalar_run, vector_run, _check) in runners:
        key = f"{name}_n{size_n}_vector_median_s"
        if key not in timings:
            continue
        _, timing = time_repeated(vector_run, repeats=1, warmup=1)
        _flag_regression(
            f"{name} (vector, n={size_n})", timings[key], timing.median_s
        )


def test_perf_trajectory_serving_warn_only():
    """Re-run the serving stack's mixed stream at the smallest committed
    size; warn (never fail) on a >3x slowdown vs the committed median."""
    from repro.labeling.landmarks import select_landmarks

    timings = _committed_timings("BENCH_serving.json")
    n = 500  # smallest committed size in bench_serving's full run
    key = f"serving_stream_n{n}_median_s"
    if key not in timings:
        return
    edges, script = bench_serving.build_workload(n, 4.0 / n, 6, 4, n)
    landmarks = select_landmarks(bench_serving.make_graph(edges), 4)
    _, timing = time_repeated(
        lambda: bench_serving.run_serving(edges, script, landmarks, 64),
        repeats=1,
        warmup=1,
    )
    _flag_regression(f"serving stream (n={n})", timings[key], timing.median_s)


def test_perf_trajectory_serving_write_warn_only():
    """Re-run the batched write stream at the smallest committed size;
    warn (never fail) on a >3x slowdown vs the committed median."""
    from repro.labeling.landmarks import select_landmarks

    timings = _committed_timings("BENCH_serving-write.json")
    n = 500  # smallest committed size in bench_serving_write's full run
    key = f"batched_stream_n{n}_median_s"
    if key not in timings:
        return
    edges, script = bench_serving_write.build_write_workload(
        n, 4.0 / n, 4, 16, n
    )
    landmarks = select_landmarks(bench_serving_write.make_graph(edges), 4)
    bench_serving_write.run_batched(edges, script, landmarks, 64)  # warmup
    _, seconds = bench_serving_write.run_batched(
        edges, script, landmarks, 64
    )
    _flag_regression(f"batched write stream (n={n})", timings[key], seconds)
