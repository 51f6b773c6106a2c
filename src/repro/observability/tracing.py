"""Tracing spans: wall time and a near-zero-overhead disabled mode.

A span measures one region of execution — an engine round, a DTN run,
a frozen-kernel sweep, a batched routing fold — with a wall-clock
timestamp, a monotonic duration, nested parent/child structure, and
free-form attributes.  The design centres on the *disabled* path:
tracing is off by default, and ``tracer.span(...)`` then costs one
attribute check and returns a shared no-op context manager, so the
engine's per-round hook and the ``@traced`` kernel entry points stay
within the <5 % overhead budget.

Usage::

    from repro.observability import trace

    trace.enable()
    with trace.span("labeling.pagerank", n=5000) as sp:
        pagerank_centrality(graph)
        sp.set_attribute("iterations", 17)
    trace.get_tracer().summary(top=5)   # slowest span names
    trace.disable()

Every finished span also observes ``<name>.duration_s`` into the
global metrics registry, so span data flows into benchmark reports
without extra wiring.  Records are plain dicts, ready for the JSONL
exporter (:func:`repro.observability.export.write_jsonl`).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, TypeVar

from repro.observability.metrics import get_registry

F = TypeVar("F", bound=Callable[..., Any])


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live region; becomes a record dict when it closes."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "started_at", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        span_id: int,
        parent_id: Optional[int],
        depth: int,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.started_at = time.time()
        self._t0 = time.perf_counter()

    def set_attribute(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._finish(self, duration)


class Tracer:
    """Collects span/event records; disabled by default."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._next_id = 0
        self._local = threading.local()

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        """Turn tracing on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off (records are kept until cleared)."""
        self.enabled = False

    def clear(self) -> None:
        self.records = []
        self._local = threading.local()

    # -- span machinery -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: Any):
        """Open a timed region; use as a context manager."""
        if not self.enabled:
            return _NOOP_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        self._next_id += 1
        span = Span(
            tracer=self,
            name=name,
            attrs=attrs,
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            depth=len(stack),
        )
        stack.append(span)
        return span

    def _finish(self, span: Span, duration: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # out-of-order close: drop it and deeper spans
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        record: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "depth": span.depth,
            "ts": span.started_at,
            "duration_s": duration,
            "attrs": span.attrs,
        }
        get_registry().histogram(f"{span.name}.duration_s").observe(duration)
        self.records.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous point event (contact, drop, ...)."""
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.records.append(
            {
                "type": "event",
                "name": name,
                "parent_id": parent.span_id if parent else None,
                "ts": time.time(),
                "attrs": attrs,
            }
        )

    # -- queries --------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            record
            for record in self.records
            if record["type"] == "span" and (name is None or record["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            record
            for record in self.records
            if record["type"] == "event" and (name is None or record["name"] == name)
        ]

    def summary(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-name span aggregates, slowest (by total time) first.

        Each entry carries ``name``, ``count``, ``total_s`` and ``max_s``.
        """
        by_name: Dict[str, Dict[str, Any]] = {}
        for record in self.spans():
            entry = by_name.setdefault(
                record["name"],
                {"name": record["name"], "count": 0, "total_s": 0.0, "max_s": 0.0},
            )
            entry["count"] += 1
            entry["total_s"] += record["duration_s"]
            entry["max_s"] = max(entry["max_s"], record["duration_s"])
        ordered = sorted(by_name.values(), key=lambda e: -e["total_s"])
        return ordered[:top] if top is not None else ordered


_global_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled unless :func:`enable` ran)."""
    return _global_tracer


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (module-level convenience)."""
    return _global_tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point event on the global tracer."""
    _global_tracer.event(name, **attrs)


def enable() -> None:
    """Turn on the global tracer."""
    _global_tracer.enable()


def disable() -> None:
    """Turn off the global tracer (records are kept until cleared)."""
    _global_tracer.disable()


def enabled() -> bool:
    return _global_tracer.enabled


def traced(name: str) -> Callable[[F], F]:
    """Decorate an entry point with a span on the global tracer.

    While tracing is disabled the wrapper is one attribute check plus
    the call, cheap enough for every routed kernel entry point.  When
    enabled, each call records a span named ``name``.
    """

    def decorator(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _global_tracer.enabled:
                return fn(*args, **kwargs)
            with _global_tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorator
