"""What one workload run measured: metrics, checks and unit counts."""

from __future__ import annotations

import contextlib
import gc
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Seconds between two speed samples while a unit runs.
SAMPLE_PERIOD_S = 0.02
#: Iterations of the sample loop.
SAMPLE_ITERATIONS = 2_000
#: Seconds the sample loop takes inside a running workload on an
#: uncontended core (a 2.1 GHz Xeon with CPython 3.11): the host speed
#: every reported time is expressed at.
REFERENCE_SAMPLE_S = 0.00025

#: (stage, start, end, seconds at reference speed) of one timed unit.
Interval = Tuple[str, float, float, float]


def sample_loop(table: List[int]) -> float:
    """Seconds a fixed pure-Python loop over ``table`` (1024 slots) takes now.

    The loop allocates no object the garbage collector tracks, so a
    sample never sets off a collection inside the unit it interrupts.
    """
    x = 0
    start = time.perf_counter()
    for i in range(SAMPLE_ITERATIONS):
        x = (x * 31 + i) % 1000003
        table[x & 1023] = i
    return time.perf_counter() - start


class HostClock:
    """Times units of work at the reference host speed.

    On a shared host, other tenants slow this process by up to 1.5x in
    phases that change within a fraction of a second, which moves the
    median of a whole run by 20-30%.  While a unit runs, an interval
    timer interrupts it every :data:`SAMPLE_PERIOD_S` to run a short
    fixed loop, and :data:`REFERENCE_SAMPLE_S` over the loop's time is
    the host's speed at that moment.  The unit's wall time, less the
    samples' own time, times the mean speed is its time at reference
    speed: the contention cancels while a change to the program's own
    speed does not.  A sample just before and one just after the unit
    cover units shorter than a period.  ``calibrate=False`` records
    plain wall time (traced runs).

    The timer raises SIGALRM, so a calibrated clock is used from the
    main thread only.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.intervals: List[Interval] = []
        self._speeds: List[float] = []
        self._sampling_s = 0.0
        self._table = [0] * 1024

    def _sample(self, signum=None, frame=None) -> None:
        began = time.perf_counter()
        self._speeds.append(REFERENCE_SAMPLE_S / sample_loop(self._table))
        self._sampling_s += time.perf_counter() - began

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the block as one unit of stage ``name``."""
        if not self.calibrate:
            start = time.perf_counter()
            yield
            end = time.perf_counter()
            self.intervals.append((name, start, end, end - start))
            return
        self._speeds = []
        self._sample()
        self._sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            yield
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL if previous is None else previous)
        busy = end - start - self._sampling_s
        self._sample()
        reference = busy * statistics.fmean(self._speeds)
        self.intervals.append((name, start, end, reference))

    def take(self) -> List[Interval]:
        """The intervals recorded since the last call."""
        intervals, self.intervals = self.intervals, []
        return intervals


def stage_totals(intervals: Sequence[Interval]) -> Dict[str, float]:
    """Seconds at reference speed per stage."""
    totals: Dict[str, float] = {}
    for stage, _, _, seconds in intervals:
        totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


def wall(intervals: Sequence[Interval]) -> float:
    return sum(end - start for _, start, end, _ in intervals)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``), in MB."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


def row(workload: str, name: str, value: float, unit: str) -> str:
    """One metric as a line of the human-readable output."""
    return f"{workload:<18} {name:<32} {value:>14.6g} {unit}"


def timed_setups(
    setup: Callable[[], object], count: int, seconds: float
) -> Tuple[object, List[float], List[float]]:
    """Run ``setup`` at least ``count`` times and for at least ``seconds``.

    Returns the last result, then the seconds of each set-up at
    reference speed and in wall time.
    """
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    result = None
    while len(clock.intervals) < count or time.perf_counter() < deadline:
        result = None  # free the previous set-up before timing the next
        gc.collect()
        with clock.stage("setup"):
            result = setup()
    intervals = clock.take()
    return (
        result,
        [scaled for _, _, _, scaled in intervals],
        [end - start for _, start, end, _ in intervals],
    )


class Report:
    """Metrics and correctness tallies of one workload run.

    ``attempted`` counts the timed units of work (passes, requests) and
    the output checks; ``failed`` counts units that raised and checks
    that did not hold.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: Per-layer values of a traced run, by metric name.
        self.per_layer: Dict[str, float] = {}
        self.lines: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def metric(
        self,
        name: str,
        value: float,
        unit: str,
        samples: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one metric; ``samples`` adds n/min/max to its line."""
        self.metrics[name] = (float(value), unit)
        line = row(self.workload, name, value, unit)
        if samples is not None and len(samples):
            line += (
                f"  (n={len(samples)}, min={min(samples):.6g}, "
                f"max={max(samples):.6g})"
            )
        self.lines.append(line)

    def timing(self, name: str, scaled: Sequence[float], walls: Sequence[float]) -> None:
        """Record the median of ``scaled`` as metric ``name`` (seconds at
        reference speed) and note the wall-time median beside it."""
        self.metric(name, statistics.median(scaled), "s", scaled)
        self.note(
            f"{name} wall median {statistics.median(walls):.6g} s "
            f"(host at {statistics.median(scaled) / statistics.median(walls):.3f} "
            f"of reference speed)"
        )

    def note(self, text: str) -> None:
        self.lines.append(f"{self.workload:<18} # {text}")

    def units(self, attempted: int) -> None:
        self.attempted += attempted

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {detail}")

    def check(self, label: str, fn: Callable[[], object]) -> None:
        """Run one output check; an exception or ``False`` fails it."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as error:  # noqa: BLE001 - a failed check is data
            self.fail(label, f"{type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
            return
        if ok is False:
            self.fail(label, "check returned False")

    def summary_lines(self) -> List[str]:
        lines = list(self.lines)
        lines.append(
            f"{self.workload:<18} attempted={self.attempted} failed={self.failed} "
            f"error_rate={self.failed / max(self.attempted, 1):.6g}"
        )
        lines.extend(f"{self.workload:<18} ! {error}" for error in self.errors[:10])
        if len(self.errors) > 10:
            lines.append(f"{self.workload:<18} ! ... {len(self.errors) - 10} more")
        return lines
