"""Tracing spans: one duration histogram per span name.

A span times one region of execution — an engine round, a DTN run, a
frozen-kernel sweep, a batched routing fold — and, when it closes,
observes its wall time into the ``<name>.duration_s`` histogram of the
global metrics registry (:func:`repro.observability.metrics.get_registry`).
A span whose body raised is observed too; the exception propagates.
That histogram is the whole record: spans carry no ids, parents or
attributes, and the counted quantities (rounds, messages, deliveries)
live in the registry's counters.

Tracing is off by default.  While it is off, :func:`span` is one flag
check that returns a shared no-op context manager, and a ``@traced``
wrapper is one flag check plus the call, cheap enough for the engine's
per-round path and every routed kernel entry point.

Usage::

    from repro.observability import get_registry, trace

    trace.enable()
    with trace.span("labeling.pagerank"):
        pagerank_centrality(graph)
    trace.disable()
    get_registry().snapshot()["labeling.pagerank.duration_s"]  # count, sum, p50...
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, TypeVar

from repro.observability.metrics import get_registry

F = TypeVar("F", bound=Callable[..., Any])

_enabled = False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live region; observes its duration when it closes."""

    __slots__ = ("name", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        duration = time.perf_counter() - self._t0
        get_registry().histogram(f"{self.name}.duration_s").observe(duration)


def enable() -> None:
    """Turn tracing on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off (observed histograms stay in the registry)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def span(name: str):
    """Open a timed region named ``name``; use as a context manager."""
    if not _enabled:
        return _NOOP_SPAN
    return _Span(name)


def traced(name: str) -> Callable[[F], F]:
    """Decorate an entry point so each call, while tracing is on, is a
    span named ``name``."""

    def decorator(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return fn(*args, **kwargs)
            with _Span(name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorator
