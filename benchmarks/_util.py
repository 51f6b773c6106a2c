"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure/claim of the paper (see the
per-experiment index in DESIGN.md) and emits one experiment table:
it prints the plain-text table, writes the one committed copy of it,
the top-level ``BENCH_<experiment>.json`` feed (``repro.bench/v1``:
experiment, header, raw rows, metrics snapshot, timings; quoted by
EXPERIMENTS.md and rendered by ``python -m repro.observability.report``),
and appends one record to the ``benchmarks/out/history.jsonl`` ledger.

The feed write is atomic (temp file + rename), so an interrupted run
never leaves a truncated artifact.  :func:`emit_table` returns a
:class:`TableResult` carrying the *structured* rows, not just the
formatted string — downstream checks should consume ``result.rows``.

The six ratio benches time each fast path against its reference oracle
as a :class:`Case` through :func:`measure`, gated by :func:`check_floors`.
"""

from __future__ import annotations

import operator
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.observability import (
    BENCH_SCHEMA,
    BenchReport,
    apply_gate,
    build_perf_record,
    cache_counts,
    detect_regressions,
    dispatch_counts,
    get_registry,
    load_history,
)
from repro.observability import append_history as _append_history
from repro.observability.metrics import MetricsRegistry, set_registry

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
TOP_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The append-only ``repro.perf/v1`` ledger every emit_table call feeds.
HISTORY_NAME = "history.jsonl"


@contextmanager
def scratch_registry(name: str) -> Iterator[MetricsRegistry]:
    """Swap in a fresh global registry for the body, yield it, and
    restore the previous one on exit."""
    registry = MetricsRegistry(name)
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@dataclass(frozen=True)
class RepeatTiming:
    """Median-of-k wall-clock timing for one measured callable.

    ``median_s`` is the headline number (robust to one slow outlier
    pass); ``min_s``/``max_s`` record the spread so the JSON feed shows
    how noisy the run was.
    """

    median_s: float
    min_s: float
    max_s: float
    repeats: int

    def as_timings(self, name: str) -> "dict[str, float]":
        """Flatten into ``emit_table``-compatible scalar timing keys."""
        return {
            f"{name}_median_s": self.median_s,
            f"{name}_min_s": self.min_s,
            f"{name}_max_s": self.max_s,
            f"{name}_repeats": float(self.repeats),
        }


def time_repeated(
    fn: Callable[..., Any],
    repeats: int = 3,
    warmup: int = 1,
    setup: Optional[Callable[[], Any]] = None,
) -> Tuple[Any, RepeatTiming]:
    """Run ``fn`` ``warmup`` + ``repeats`` times; median-of-k wall time.

    With ``setup``, every run calls ``fn(setup())`` and only ``fn`` is
    timed.  Returns the last run's result (so callers can assert on the
    output they just paid to measure) alongside the :class:`RepeatTiming`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples: List[float] = []
    result: Any = None
    for i in range(warmup + repeats):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        result = fn(*args)
        if i >= warmup:
            samples.append(time.perf_counter() - start)
    return result, RepeatTiming(
        median_s=statistics.median(samples),
        min_s=min(samples),
        max_s=max(samples),
        repeats=repeats,
    )


@dataclass(frozen=True)
class Case:
    """A fast path, its reference oracle, and the size ``n`` it is
    measured (and floored) at.  Each side is called as ``side()``, or
    ``side(setup())`` with an untimed ``setup``; ``equal(reference_out,
    fast_out)`` says whether they agree and may raise ``AssertionError``
    with detail."""

    name: str
    n: int
    reference: Callable[..., Any]
    fast: Callable[..., Any]
    equal: Callable[[Any, Any], Any] = operator.eq
    setup: Optional[Callable[[], Any]] = None


@dataclass(frozen=True)
class Measured:
    """Both sides' timings and scratch registries for one :class:`Case`."""

    case: Case
    reference: RepeatTiming
    fast: RepeatTiming
    reference_registry: MetricsRegistry
    fast_registry: MetricsRegistry

    @property
    def speedup(self) -> float:
        fast = self.fast.median_s
        return self.reference.median_s / fast if fast > 0 else float("inf")

    def cells(self) -> Tuple[float, float, float]:
        """The (reference median, fast median, speedup) table cells."""
        reference, fast = self.reference.median_s, self.fast.median_s
        return round(reference, 4), round(fast, 4), round(self.speedup, 2)

    def timings(self, keys: Tuple[str, str]) -> Dict[str, float]:
        """Timing keys from ``(reference, fast)`` templates over
        ``{case}`` and ``{n}``."""
        reference, fast = (k.format(case=self.case.name, n=self.case.n) for k in keys)
        return {**self.reference.as_timings(reference), **self.fast.as_timings(fast)}


def measure(case: Case, repeats: int, reference_repeats: Optional[int] = None) -> Measured:
    """Time both sides of ``case``, then assert they agree.

    The reference runs ``reference_repeats`` (default ``repeats``)
    times with no warm-up, the fast side one warm-up plus ``repeats``;
    ``case.equal`` checks the last timed outputs and a mismatch raises
    ``AssertionError`` naming the case and its size.  Each side records
    into its own scratch registry; only the fast side's is merged into
    the live one.
    """
    with scratch_registry(f"{case.name}-reference") as reference_registry:
        reference_out, reference_timing = time_repeated(
            case.reference, reference_repeats or repeats, 0, case.setup
        )
    with scratch_registry(f"{case.name}-fast") as fast_registry:
        fast_out, fast_timing = time_repeated(case.fast, repeats, 1, case.setup)
    where = f"{case.name} at n={case.n}"
    try:
        agree = case.equal(reference_out, fast_out)
    except AssertionError as error:
        raise AssertionError(f"{where}: {error}") from None
    if not agree:
        raise AssertionError(f"{where}: fast output diverges from the reference")
    get_registry().merge(fast_registry)
    return Measured(case, reference_timing, fast_timing, reference_registry, fast_registry)


def speedups(
    header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> List[Tuple[str, int, float]]:
    """``(case, n, speedup)`` per row of a ratio table: the case is the
    ``kernel`` cell (the serving tables measure one case, ``stream``),
    the size is ``requested n`` where present, else ``n``."""
    columns = list(header)
    n_col = columns.index("requested n" if "requested n" in columns else "n")
    case_col = columns.index("kernel") if "kernel" in columns else None
    speedup_col = columns.index("speedup")
    return [
        (row[case_col] if case_col is not None else "stream", row[n_col], row[speedup_col])
        for row in rows
    ]


def check_floors(
    results: Iterable[Tuple[str, int, float]], floors: Mapping[str, float]
) -> None:
    """Assert each floored case meets its floor at its own largest n;
    ``results`` are ``(case, n, speedup)``, and a floored case with no
    result fails."""
    largest: Dict[str, Tuple[int, float]] = {}
    for name, n, speedup in results:
        if name not in largest or n > largest[name][0]:
            largest[name] = (n, speedup)
    missing = sorted(set(floors) - set(largest))
    if missing:
        raise AssertionError(f"floored cases missing from the results: {missing}")
    for name, floor in floors.items():
        n, speedup = largest[name]
        if speedup < floor:
            raise AssertionError(
                f"{name} at n={n}: speedup {speedup:.2f}x below the {floor:g}x target"
            )


@dataclass
class TableResult:
    """Structured outcome of one :func:`emit_table` call.

    ``rows`` are the caller's raw (uncast) cells; ``formatted_rows``
    are the string cells as printed.  ``str(result)`` is the plain-text
    table, preserving the old return-value contract.
    """

    experiment: str
    title: str
    header: List[str]
    rows: List[Tuple[Any, ...]]
    formatted_rows: List[Tuple[str, ...]]
    notes: str
    text: str
    bench_path: str
    history_path: str

    def __str__(self) -> str:
        return self.text


def emit_table(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
    timings: Optional[Mapping[str, float]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    out_dir: str = OUT_DIR,
    top_dir: str = TOP_DIR,
) -> TableResult:
    """Format and print one experiment table, write its feed
    ``<top_dir>/BENCH_<experiment>.json``, and append its ledger record
    to ``<out_dir>/history.jsonl``.

    ``metrics`` defaults to a snapshot of the global metrics registry
    at emission time; pass an explicit mapping (e.g. a per-run
    ``network.metrics.snapshot()``) to scope it.  ``timings`` are
    caller-measured wall times in seconds; the emission cost is always
    added as ``emit_s``.

    The ``repro.perf/v1`` ledger record carries the timings and the
    cache/dispatch counters; the call then runs the regression gate
    against the experiment's prior records there (``REPRO_PERF_GATE``:
    warn by default, fail under CI, off to silence; see
    :mod:`repro.observability.regression`).
    """
    t0 = time.perf_counter()
    raw_rows = [tuple(row) for row in rows]
    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise ValueError(
                f"{experiment}: row {i} has {len(row)} cells, header has "
                f"{len(header)} — would emit a document violating {BENCH_SCHEMA}"
            )
    formatted = [tuple(str(cell) for cell in row) for row in raw_rows]
    widths = [len(h) for h in header]
    for row in formatted:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = [f"== {experiment}: {title} ==", fmt(list(header))]
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(list(row)) for row in formatted)
    if notes:
        lines.append("")
        lines.append(notes)
    text = "\n".join(lines)
    print("\n" + text)

    all_timings = dict(timings or {})
    all_timings["emit_s"] = time.perf_counter() - t0
    report = BenchReport(
        experiment=experiment,
        title=title,
        header=list(header),
        rows=raw_rows,
        notes=notes,
        metrics=dict(metrics) if metrics is not None else get_registry().snapshot(),
        timings=all_timings,
    )
    bench_path = report.write(top_dir)

    history_path = os.path.join(out_dir, HISTORY_NAME)
    record = build_perf_record(
        experiment, timings=all_timings, cache=cache_counts(), dispatch=dispatch_counts()
    )
    prior = load_history(history_path, experiment=experiment)
    _append_history(history_path, record)
    apply_gate(detect_regressions(prior, record))

    return TableResult(
        experiment=experiment,
        title=title,
        header=list(header),
        rows=raw_rows,
        formatted_rows=formatted,
        notes=notes,
        text=text,
        bench_path=bench_path,
        history_path=history_path,
    )
