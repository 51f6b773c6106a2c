"""Metric primitives and the registry (the "measurement substrate").

The paper's quantitative claims are all *measured* quantities — rounds,
messages, reversal counts, delivery ratios.  This module gives every
layer of the library one uniform way to record them:

* :class:`Counter` — a monotonically increasing total (messages sent,
  reversals performed);
* :class:`Gauge` — a point-in-time value that moves both ways (buffer
  occupancy, in-flight messages);
* :class:`Histogram` — a full sample record with mean/percentile
  summaries (per-round message counts, delivery latencies, timer
  durations);
* :class:`MetricsRegistry` — the namespace that owns them, keyed by
  dotted metric names (``repro.<module>.<name>``) plus an optional
  frozen label set (``("node", 3)``-style dimensions).

Design constraints, in order: dependency-free, cheap on the hot path
(attribute lookups and list appends only), and faithful — the legacy
``RunStats`` / ``DeliveryStats`` dataclasses are now thin views over
these primitives, so the registry is the single source of truth.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Labels = Tuple[Tuple[str, Any], ...]

_NO_LABELS: Labels = ()


def freeze_labels(labels: Optional[Mapping[str, Any]]) -> Labels:
    """Normalise a label mapping into a hashable, sorted tuple key."""
    if not labels:
        return _NO_LABELS
    return tuple(sorted(labels.items()))


class Metric:
    """Common base: a dotted name plus a frozen label set."""

    kind = "metric"

    def __init__(self, name: str, labels: Labels = _NO_LABELS) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_dict(self) -> Dict[str, Any]:
        return dict(self.labels)

    def snapshot_value(self) -> Any:
        raise NotImplementedError

    def absorb(self, other: "Metric") -> None:
        """Fold ``other``, a metric of the same kind, into this one."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total.

    ``set`` exists only so legacy stat views (``RunStats``) can write
    through assignment; new code should use :meth:`inc`.
    """

    kind = "counter"

    def __init__(self, name: str, labels: Labels = _NO_LABELS) -> None:
        super().__init__(name, labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount

    def set(self, value: int) -> None:
        if value < self._value:
            raise ValueError(
                f"counter {self.name!r} cannot decrease ({self._value} -> {value})"
            )
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def snapshot_value(self) -> int:
        return self._value

    def absorb(self, other: Metric) -> None:
        self.inc(other._value)


class Gauge(Metric):
    """A value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = _NO_LABELS) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot_value(self) -> float:
        return self._value

    def absorb(self, other: Metric) -> None:
        # Gauges are point-in-time: the merged (later) observation wins.
        self.set(float(other._value))


class Histogram(Metric):
    """A full sample record with on-demand summaries.

    Samples are kept verbatim (a list append per observation) so any
    percentile is exact; summaries are computed lazily.  The raw list
    is exposed as :attr:`values` — legacy views (``RunStats
    .messages_per_round``) hand it out directly, so appending to it is
    equivalent to calling :meth:`observe`.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Labels = _NO_LABELS) -> None:
        super().__init__(name, labels)
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    @property
    def values(self) -> List[float]:
        return self._values

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """Exact empirical percentile, ``q`` in [0, 1]; inf when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be in [0, 1], got {q}")
        if not self._values:
            return math.inf
        ordered = sorted(self._values)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return float(ordered[index])

    def summary(self, percentiles: Sequence[float] = (0.5, 0.9, 0.99)) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in percentiles:
            out[f"p{int(q * 100)}"] = self.percentile(q) if self._values else None
        return out

    def snapshot_value(self) -> Dict[str, Any]:
        return self.summary()

    def absorb(self, other: Metric) -> None:
        self._values.extend(other._values)


class MetricsRegistry:
    """A namespace of metrics keyed by (name, labels).

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call fixes the metric's kind for that name, and later calls
    with a different kind raise — one name, one meaning, as in
    Prometheus.  Registries are cheap; the engine makes one per
    network so runs never contaminate each other, while module-level
    helpers (layering, trimming) share the process-global registry
    from :func:`get_registry`.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- get-or-create accessors ---------------------------------------
    def _get(self, cls, name: str, labels: Optional[Mapping[str, Any]]) -> Metric:
        key = (name, freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if metric.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}, "
                        f"cannot re-register as {cls.kind}"
                    )
                return metric
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            metric = cls(name, key[1])
            self._metrics[key] = metric
            self._kinds[name] = cls.kind
            return metric

    def counter(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(
        self, name: str, labels: Optional[Mapping[str, Any]] = None
    ) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def __iter__(self) -> Iterable[Metric]:
        return iter(list(self._metrics.values()))

    def metrics(self) -> List[Metric]:
        """All metrics, sorted by (name, labels) for stable output."""
        return sorted(self._metrics.values(), key=lambda m: (m.name, repr(m.labels)))

    def get(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Optional[Metric]:
        return self._metrics.get((name, freeze_labels(labels)))

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of every metric: ``name`` (or ``name{a=1}``)
        mapped to its current value / summary dict."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            if metric.labels:
                rendered = ",".join(f"{k}={v}" for k, v in metric.labels)
                key = f"{metric.name}{{{rendered}}}"
            else:
                key = metric.name
            out[key] = metric.snapshot_value()
        return out

    def reset(self) -> None:
        """Drop every metric (mainly for tests and benchmark isolation)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every series of ``other`` into this registry.

        Counter totals add, histogram samples extend, gauges take the
        incoming value; series missing here are created.  Raises on a
        kind conflict, same as the get-or-create accessors.
        """
        for metric in other.metrics():
            self._get(type(metric), metric.name, metric.label_dict).absorb(metric)


_global_registry = MetricsRegistry("global")


def get_registry() -> MetricsRegistry:
    """The process-global registry used by module-level helpers."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous
