"""In-memory span recorder for the traced benchmark run.

A :class:`SpanRecorder` wraps the public functions of the library's
layers (declared as :class:`Point` values in :mod:`e2e.layers`) for the
duration of one traced run, then restores the originals.  Each call of a
wrapped function records one :class:`Span` — name, start, end and, for
serving, the gateway flush it ran in.  Spans live in a list and are
written when they close; nothing leaves the process until the run ends.

A span's parent is the innermost span whose interval encloses it.  The
benchmark is single-threaded, so enclosure is causation — also across
asyncio task switches, where a context variable would lose the link
between an event-loop callback and the gateway flush it runs.  Self time
is a span's duration minus the part of it its children cover, so the
self times of all spans in a region add up to the part of the region
that some span covers.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

#: Modules whose attributes are rebound when a function is wrapped: the
#: library and this benchmark (which imports some functions by name).
PATCHED_PREFIXES = ("repro", "e2e")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    flush: Optional[int]


@dataclass(frozen=True)
class Point:
    """One instrumented function.

    ``target`` is ``"module:qualname"`` (``qualname`` may name a method,
    ``"Class.method"``).  ``span`` names the span each call records — a
    string, or a function of the call's positional arguments (the DTN
    routers name their span after the router).  ``count`` names a
    counter bumped per call, with no span when ``span`` is None.
    ``on_return(recorder, args, result)`` reads counts off a result.
    ``flush(args)`` gives the serving flush id the call starts.
    """

    target: str
    span: Union[None, str, Callable[[tuple], str]] = None
    count: Optional[str] = None
    on_return: Optional[Callable[["SpanRecorder", tuple, Any], None]] = None
    flush: Optional[Callable[[tuple], int]] = None


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class SpanRecorder:
    """Records spans and counts from wrapped layer functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Objects an ``on_return`` hook keeps to read after the run
        #: (fault sessions, whose ledgers fill while the run goes on).
        self.kept: Dict[str, List[Any]] = defaultdict(list)
        self._flush: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_flush", default=None
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper."""
        self.counts[name] += 1
        self.spans.append(Span(name, start, end, None))

    def wrap(self, fn: Callable, point: Point) -> Callable:
        """A wrapper around ``fn`` that records ``point``'s span and counts."""
        recorder = self

        def enter(args):
            if point.count is not None:
                recorder.counts[point.count] += 1
            name = point.span(args) if callable(point.span) else point.span
            if name is None:
                return None
            recorder.counts[name] += 1
            token = recorder._flush.set(point.flush(args)) if point.flush else None
            return name, token, recorder.clock()

        def leave(state) -> None:
            if state is not None:
                name, token, start = state
                end = recorder.clock()
                recorder.spans.append(Span(name, start, end, recorder._flush.get()))
                if token is not None:
                    recorder._flush.reset(token)

        def after(args, result) -> None:
            if point.on_return is not None:
                point.on_return(recorder, args, result)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = enter(args)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(state)
                after(args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(state)
            after(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, points: Iterable[Point]) -> None:
        """Wrap every point; each module attribute bound to a wrapped
        function is rebound, so callers that imported it by name (e.g.
        ``repro.core.uncover.is_chordal``) reach the wrapper too."""
        for point in points:
            module_name, _, qualname = point.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if inspect.isclass(owner):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(original, point))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, point)
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith(PATCHED_PREFIXES):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def parents(self) -> List[Optional[int]]:
        """Index of each span's innermost enclosing span (None: top level)."""
        spans = self.spans
        order = sorted(range(len(spans)), key=lambda i: (spans[i].start, -spans[i].end))
        parent: List[Optional[int]] = [None] * len(spans)
        stack: List[int] = []
        for i in order:
            while stack and spans[stack[-1]].end < spans[i].end:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            stack.append(i)
        return parent

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for i, parent in enumerate(self.parents()):
            if parent is not None:
                children[parent].append((self.spans[i].start, self.spans[i].end))
        out: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span.name] += (span.end - span.start) - _union(children.get(i, ()))
        return dict(out)

    def total(self, name: str, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by spans named ``name``."""
        return _union(
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.name == name and s.end > start and s.start < end
        )

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by some span."""
        return _union(
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.end > start and s.start < end
        )
