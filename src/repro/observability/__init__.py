"""Observability: metrics, tracing spans, and benchmark reports (dependency-free).

The paper's claims are measured quantities — rounds, messages,
reversals, delivery ratios — so measurement is a first-class facility
here rather than per-module ad-hoc counters:

* :mod:`repro.observability.metrics` — :class:`MetricsRegistry` of
  counters / gauges / histograms with labeled series and percentile
  summaries.  Metric names follow ``repro.<module>.<name>``.
* :mod:`repro.observability.tracing` — spans
  (``trace.span("engine.round")`` or the ``@traced(name)`` decorator on
  kernel entry points); each finished span observes its wall time into
  the registry's ``<name>.duration_s`` histogram.  Off by default, and
  then a near-zero-overhead no-op.
* :mod:`repro.observability.export` — the :class:`BenchReport` writer
  behind every ``BENCH_<experiment>.json`` feed, and
  :func:`write_atomic`.
* :mod:`repro.observability.telemetry` — the frozen-cache
  (hit/miss/refreeze) and fast-path-vs-reference dispatch counters.
* :mod:`repro.observability.regression` — the ``repro.perf/v1``
  append-only ledger plus the median-of-last-k regression gate
  (``REPRO_PERF_GATE`` / ``REPRO_PERF_GATE_THRESHOLD``).
* :mod:`repro.observability.report` — ``python -m
  repro.observability.report``, the consolidated perf dashboard: four
  cross-feed sections, then one generic panel per feed.

Import the tracing module as ``trace`` for the idiomatic spelling::

    from repro.observability import get_registry, trace
    trace.enable()
    with trace.span("my.workload"):
        ...
    get_registry().snapshot()["my.workload.duration_s"]
"""

from repro.observability import tracing as trace
from repro.observability.regression import (
    PERF_SCHEMA,
    PerfRegressionError,
    Regression,
    append_history,
    apply_gate,
    build_perf_record,
    detect_regressions,
    gate_mode,
    gate_threshold,
    load_history,
    validate_perf_record,
)
from repro.observability.telemetry import (
    cache_counts,
    dispatch_counts,
    record_cache_event,
    record_dispatch,
)
from repro.observability.export import (
    BENCH_SCHEMA,
    BenchReport,
    validate_bench_report,
    write_atomic,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observability.tracing import traced

__all__ = [
    "BENCH_SCHEMA",
    "BenchReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PERF_SCHEMA",
    "PerfRegressionError",
    "Regression",
    "append_history",
    "apply_gate",
    "build_perf_record",
    "cache_counts",
    "detect_regressions",
    "dispatch_counts",
    "gate_mode",
    "gate_threshold",
    "get_registry",
    "load_history",
    "record_cache_event",
    "record_dispatch",
    "set_registry",
    "trace",
    "traced",
    "validate_bench_report",
    "validate_perf_record",
    "write_atomic",
]
