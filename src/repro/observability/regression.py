"""Perf ledger (``repro.perf/v1``) and the regression gate.

Every :func:`repro.benchmarks` ``emit_table`` call appends one record
to an append-only JSONL ledger (``benchmarks/out/history.jsonl`` for
real runs): the experiment name, its per-case timings, the cache and
dispatch counters observed during the run, and any tracer memory
summary.  Older records may carry fields no longer written (such as
``shm``); readers ignore them.  The ledger is the raw material for two
consumers:

* :func:`detect_regressions` — compares the current run's ``*_median_s``
  timings against a **median-of-last-k** baseline built from the prior
  records of the same experiment, and returns the keys that slowed
  down by more than ``threshold``x.  Median-of-k absorbs the one-off
  noise spikes that made the PR-4/5 trajectory guards warn-only.
* :func:`apply_gate` — turns detections into action per the
  ``REPRO_PERF_GATE`` env var: ``off`` (ignore), ``warn`` (the
  default: a ``UserWarning`` per regression), or ``fail`` (raise
  :class:`PerfRegressionError`).  When the ``CI`` env var is set and
  ``REPRO_PERF_GATE`` is not, the default hardens to ``fail``.
  ``REPRO_PERF_GATE_THRESHOLD`` overrides the slowdown factor
  (default 1.5x for the ledger detector; the bench-feed trajectory
  guard keeps its historical 3.0x).

The ledger is append-only by design — regressions are only visible
against history, so nothing here ever rewrites or truncates it.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

PERF_SCHEMA = "repro.perf/v1"

GATE_ENV = "REPRO_PERF_GATE"
THRESHOLD_ENV = "REPRO_PERF_GATE_THRESHOLD"

#: Default slowdown factor for the ledger detector (current vs
#: median-of-last-k baseline).
DEFAULT_THRESHOLD = 1.5

#: How many prior records feed the baseline median.
DEFAULT_BASELINE_K = 5

_GATE_MODES = ("off", "warn", "fail")


class PerfRegressionError(AssertionError):
    """Raised by the ``fail`` gate mode when a timing regressed."""


# ----------------------------------------------------------------------
# ledger records
# ----------------------------------------------------------------------
def build_perf_record(
    experiment: str,
    timings: Optional[Mapping[str, float]] = None,
    cache: Optional[Mapping[str, Any]] = None,
    dispatch: Optional[Mapping[str, Any]] = None,
    memory: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``repro.perf/v1`` ledger record for an experiment run.

    ``memory`` is the tracer's per-span summary
    (``{span: {"peak_kib": ..., "alloc_kib": ...}}``) — its peaks are
    gated like timings (see :func:`detect_regressions`).
    """
    return {
        "schema": PERF_SCHEMA,
        "experiment": experiment,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "timings": dict(timings or {}),
        "cache": {k: dict(v) for k, v in (cache or {}).items()},
        "dispatch": {k: dict(v) for k, v in (dispatch or {}).items()},
        "memory": {k: dict(v) for k, v in (memory or {}).items()},
    }


def validate_perf_record(record: Mapping[str, Any]) -> List[str]:
    """Violations of ``repro.perf/v1`` (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(record, Mapping):
        return ["record is not a JSON object"]
    if record.get("schema") != PERF_SCHEMA:
        problems.append(f"schema must be {PERF_SCHEMA!r}, got {record.get('schema')!r}")
    if not isinstance(record.get("experiment"), str) or not record.get("experiment"):
        problems.append("experiment must be a non-empty string")
    timings = record.get("timings", {})
    if not isinstance(timings, Mapping):
        problems.append("timings must be an object")
    else:
        for key, value in timings.items():
            if not isinstance(value, (int, float)):
                problems.append(f"timings[{key!r}] must be a number")
    for field in ("cache", "dispatch", "memory"):
        if not isinstance(record.get(field, {}), Mapping):
            problems.append(f"{field} must be an object")
    return problems


def append_history(path: str, record: Mapping[str, Any]) -> str:
    """Append one record to the JSONL ledger at ``path`` (created on
    first use).  Plain ``O_APPEND`` write — the ledger is the one
    artifact that must *never* be rewritten."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(
    path: str, experiment: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Load ledger records (oldest first), optionally one experiment's.

    Unparseable lines are skipped — a half-written trailing line from a
    killed run must not poison every future read of the ledger.
    """
    records: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return records
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if experiment is not None and record.get("experiment") != experiment:
                continue
            records.append(record)
    return records


# ----------------------------------------------------------------------
# regression detection
# ----------------------------------------------------------------------
@dataclass
class Regression:
    """One gated metric that grew past the threshold.

    Timing keys carry ``unit="s"`` (the historical shape — the
    ``*_s``-suffixed fields keep their names for ledger compatibility);
    memory-ceiling keys (``memory:<span>.peak_kib``) carry
    ``unit="KiB"``.
    """

    experiment: str
    key: str
    baseline_s: float
    current_s: float
    threshold: float
    unit: str = "s"

    @property
    def slowdown(self) -> float:
        return self.current_s / self.baseline_s if self.baseline_s > 0 else float("inf")

    def describe(self) -> str:
        if self.unit == "s":
            current, baseline = f"{self.current_s:.6f}s", f"{self.baseline_s:.6f}s"
        else:
            current = f"{self.current_s:.1f}{self.unit}"
            baseline = f"{self.baseline_s:.1f}{self.unit}"
        return (
            f"perf regression [{self.experiment}] {self.key}: "
            f"{current} vs baseline median {baseline} "
            f"({self.slowdown:.2f}x > {self.threshold:g}x)"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_regressions(
    history: Sequence[Mapping[str, Any]],
    current: Mapping[str, Any],
    k: int = DEFAULT_BASELINE_K,
    threshold: Optional[float] = None,
) -> List[Regression]:
    """Compare ``current`` against a median-of-last-``k`` baseline.

    ``history`` is a list of prior ledger records for the *same*
    experiment (oldest first; ``current`` must not be among them).
    Two families of keys are gated, each against a median-of-last-``k``
    baseline and each needing at least one prior observation:

    * ``*_median_s`` timing keys — the stable per-case statistics
      the benchmarks emit (``unit="s"``);
    * tracer memory peaks — each ``memory[span]["peak_kib"]`` is
      gated as ``memory:<span>.peak_kib`` (``unit="KiB"``), so a
      memory-ceiling blowout fails CI exactly like a slowdown.

    Returns the offending keys as :class:`Regression` entries, worst
    growth first.
    """
    if threshold is None:
        threshold = gate_threshold()
    experiment = str(current.get("experiment", "?"))
    regressions: List[Regression] = []

    def gate(key: str, value: float, prior: List[float], unit: str) -> None:
        if not prior:
            return
        baseline = _median(prior)
        if baseline > 0 and value > threshold * baseline:
            regressions.append(
                Regression(
                    experiment=experiment,
                    key=key,
                    baseline_s=baseline,
                    current_s=float(value),
                    threshold=threshold,
                    unit=unit,
                )
            )

    current_timings = current.get("timings", {})
    if isinstance(current_timings, Mapping):
        for key, value in current_timings.items():
            if not key.endswith("_median_s") or not isinstance(value, (int, float)):
                continue
            prior = [
                record["timings"][key]
                for record in history[-k:]
                if isinstance(record.get("timings"), Mapping)
                and isinstance(record["timings"].get(key), (int, float))
            ]
            gate(key, float(value), prior, "s")

    current_memory = current.get("memory", {})
    if isinstance(current_memory, Mapping):
        for span, summary in current_memory.items():
            if not isinstance(summary, Mapping):
                continue
            peak = summary.get("peak_kib")
            if not isinstance(peak, (int, float)):
                continue
            prior = []
            for record in history[-k:]:
                spans = record.get("memory")
                if not isinstance(spans, Mapping):
                    continue
                prior_summary = spans.get(span)
                if isinstance(prior_summary, Mapping) and isinstance(
                    prior_summary.get("peak_kib"), (int, float)
                ):
                    prior.append(float(prior_summary["peak_kib"]))
            gate(f"memory:{span}.peak_kib", float(peak), prior, "KiB")

    regressions.sort(key=lambda r: -r.slowdown)
    return regressions


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def gate_mode() -> str:
    """Resolve the gate mode: ``REPRO_PERF_GATE`` if set (off / warn /
    fail), else ``fail`` under CI (``CI`` env var set non-empty), else
    ``warn``."""
    raw = os.environ.get(GATE_ENV, "").strip().lower()
    if raw in _GATE_MODES:
        return raw
    if raw:
        raise ValueError(
            f"{GATE_ENV} must be one of {_GATE_MODES}, got {raw!r}"
        )
    return "fail" if os.environ.get("CI") else "warn"


def gate_threshold(default: float = DEFAULT_THRESHOLD) -> float:
    """Slowdown factor from ``REPRO_PERF_GATE_THRESHOLD`` (or default)."""
    raw = os.environ.get(THRESHOLD_ENV, "").strip()
    if not raw:
        return default
    value = float(raw)
    if value <= 1.0:
        raise ValueError(f"{THRESHOLD_ENV} must be > 1.0, got {value}")
    return value


def apply_gate(
    regressions: Sequence[Regression], mode: Optional[str] = None
) -> List[Regression]:
    """Act on detections per the gate mode; returns them unchanged.

    ``off`` ignores, ``warn`` emits one ``UserWarning`` per regression,
    ``fail`` raises :class:`PerfRegressionError` listing all of them.
    """
    if mode is None:
        mode = gate_mode()
    if mode not in _GATE_MODES:
        raise ValueError(f"gate mode must be one of {_GATE_MODES}, got {mode!r}")
    if not regressions or mode == "off":
        return list(regressions)
    if mode == "warn":
        for regression in regressions:
            warnings.warn(regression.describe(), stacklevel=2)
        return list(regressions)
    raise PerfRegressionError(
        "; ".join(regression.describe() for regression in regressions)
    )


def check_history(
    path: str,
    current: Mapping[str, Any],
    k: int = DEFAULT_BASELINE_K,
    threshold: Optional[float] = None,
    mode: Optional[str] = None,
) -> List[Regression]:
    """Convenience: load ``current``'s experiment history from the
    ledger at ``path``, detect regressions, and apply the gate."""
    history = load_history(path, experiment=str(current.get("experiment", "")))
    regressions = detect_regressions(history, current, k=k, threshold=threshold)
    return apply_gate(regressions, mode=mode)
