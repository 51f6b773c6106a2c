"""Perf ledger (``repro.perf/v1``) and the regression gate.

Every :func:`repro.benchmarks` ``emit_table`` call appends one record
to an append-only JSONL ledger (``benchmarks/out/history.jsonl`` for
real runs): the experiment name, its per-case timings, and the cache
and dispatch counters observed during the run.  Older records may
carry fields no longer written (such as ``shm`` or the tracer's
``memory`` peaks); readers ignore them.  The ledger is the raw
material for two consumers:

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
) -> Dict[str, Any]:
    """One ``repro.perf/v1`` ledger record for an experiment run."""
    return {
        "schema": PERF_SCHEMA,
        "experiment": experiment,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "timings": dict(timings or {}),
        "cache": {k: dict(v) for k, v in (cache or {}).items()},
        "dispatch": {k: dict(v) for k, v in (dispatch or {}).items()},
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
    for field in ("cache", "dispatch"):
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
    """One gated ``*_median_s`` timing that grew past the threshold."""

    experiment: str
    key: str
    baseline_s: float
    current_s: float
    threshold: float

    @property
    def slowdown(self) -> float:
        return self.current_s / self.baseline_s if self.baseline_s > 0 else float("inf")

    def describe(self) -> str:
        return (
            f"perf regression [{self.experiment}] {self.key}: "
            f"{self.current_s:.6f}s vs baseline median {self.baseline_s:.6f}s "
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
    Each ``*_median_s`` timing key — the stable per-case statistics the
    benchmarks emit — is gated against the median of its last ``k``
    prior values, and needs at least one of them.

    Returns the offending keys as :class:`Regression` entries, worst
    growth first.
    """
    if threshold is None:
        threshold = gate_threshold()
    experiment = str(current.get("experiment", "?"))
    regressions: List[Regression] = []
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
            if not prior:
                continue
            baseline = _median(prior)
            if baseline > 0 and value > threshold * baseline:
                regressions.append(
                    Regression(experiment, key, baseline, float(value), threshold)
                )

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
