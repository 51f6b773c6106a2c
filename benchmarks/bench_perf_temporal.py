"""Temporal fast-path benchmark: reference vs frozen contact index.

Times the temporal kernels of the paper's Sec. II-B machinery on
synthetic contact workloads at increasing scale, on both substrates:

* the dict-of-sets reference path (``*_reference`` functions, the
  ground truth the tests check the public kernels against), and
* the frozen contact index (:class:`~repro.temporal.frozen.FrozenContacts`)
  plus the DTN simulator's bitset infection front.

Each kernel is a :class:`_util.Case` whose timed outputs must be
*exactly* equal — parent hops, delivery statistics and all.  The full
run checks :data:`FLOORS`: >= 10x median speedup on the multi-source
dynamic diameter and the DTN epidemic sweep at the largest size
(n=2000, horizon=5000).

    PYTHONPATH=src python benchmarks/bench_perf_temporal.py

writes the top-level ``BENCH_perf-temporal.json`` feed;
``tests/test_bench_perf.py`` runs the same harness at toy scale inside
tier-1.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _util import (
    OUT_DIR, TOP_DIR, Case, TableResult, check_floors, emit_table, measure, speedups,
)

EXPERIMENT = "perf-temporal"

#: Acceptance floors at the largest size (remaining kernels are
#: measured and reported without a floor).
FLOORS = {"dynamic-diameter": 10.0, "dtn-epidemic": 10.0}

#: (reference, frozen) timing-key templates.
KEYS = ("{case}_n{n}_ref", "{case}_n{n}_frozen")

HEADER = ["n", "horizon", "contacts", "kernel", "ref median s",
          "frozen median s", "speedup"]

#: (n, horizon, contacts, messages) per measured size.  Densities are
#: chosen so every flood completes well inside the horizon (the
#: interesting regime: the reference pays the full per-source scan).
DEFAULT_SIZES: Tuple[Tuple[int, int, int, int], ...] = (
    (400, 1000, 12000, 48),
    (2000, 5000, 60000, 96),
)


def temporal_workload(n: int, horizon: int, contacts: int, seed: int):
    """A random weighted EvolvingGraph: ``contacts`` uniform contacts."""
    from repro.temporal.evolving import EvolvingGraph

    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=contacts)
    vs = (us + 1 + rng.integers(0, n - 1, size=contacts)) % n
    ts = rng.integers(0, horizon, size=contacts)
    ws = rng.uniform(0.05, 1.0, size=contacts)
    eg = EvolvingGraph(horizon=horizon, nodes=range(n))
    for u, v, t, w in zip(us.tolist(), vs.tolist(), ts.tolist(), ws.tolist()):
        eg.add_contact(u, v, t, w)
    return eg


def message_specs(n: int, count: int, seed: int):
    """Random source/destination message batch (created=0, no TTL)."""
    from repro.dtn.simulator import MessageSpec

    rng = np.random.default_rng(seed + 1)
    sources = rng.integers(0, n, size=count)
    dests = (sources + 1 + rng.integers(0, n - 1, size=count)) % n
    return [
        MessageSpec(f"m{i}", int(s), int(d), created=0, ttl=None)
        for i, (s, d) in enumerate(zip(sources, dests))
    ]


def workload(size: Tuple[int, int, int, int]):
    """``(evolving graph, message specs)`` measured at ``size``."""
    n, horizon, contacts, messages = size
    return (
        temporal_workload(n, horizon, contacts, seed=n),
        message_specs(n, messages, seed=n),
    )


def _no_vacuous_diameter(ref, fast) -> bool:
    if ref is None:
        raise AssertionError(
            "the workload never completes its floods — densify it (the "
            "None case short-circuits the reference and measures nothing)"
        )
    return ref == fast


def cases(size: Tuple[int, int, int, int], w) -> List[Case]:
    """One :class:`Case` per measured kernel over the workload ``w``."""
    from repro.dtn.routers import DirectDelivery, EpidemicRouter
    from repro.dtn.simulator import DTNSimulation
    from repro.temporal.connectivity import (
        dynamic_diameter,
        dynamic_diameter_reference,
    )
    from repro.temporal.journeys import (
        earliest_arrival,
        earliest_arrival_reference,
        foremost_tree,
        foremost_tree_reference,
        latest_departure,
        latest_departure_reference,
    )

    eg, specs = w

    def sim_runner(router_cls, fast: bool) -> Callable[[], object]:
        def run_sim():
            sim = DTNSimulation(eg, router_cls(), fast_path=fast)
            for spec in specs:
                sim.add_message(spec)
            return sim.run()

        return run_sim

    n = size[0]
    return [
        Case("earliest-arrival", n, lambda: earliest_arrival_reference(eg, 0),
             lambda: earliest_arrival(eg, 0)),
        Case("foremost-tree", n, lambda: foremost_tree_reference(eg, 0),
             lambda: foremost_tree(eg, 0)),
        Case("latest-departure", n, lambda: latest_departure_reference(eg, 0),
             lambda: latest_departure(eg, 0)),
        Case("dynamic-diameter", n, lambda: dynamic_diameter_reference(eg),
             lambda: dynamic_diameter(eg), _no_vacuous_diameter),
        Case("dtn-epidemic", n, sim_runner(EpidemicRouter, False),
             sim_runner(EpidemicRouter, True)),
        Case("dtn-direct", n, sim_runner(DirectDelivery, False),
             sim_runner(DirectDelivery, True)),
    ]


def _measure_size(
    task: Tuple[Tuple[int, int, int, int], int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    """Measure every kernel at one size; asserts exact equivalence.

    References for the expensive whole-graph kernels run once at large
    sizes (the reference dynamic diameter is one full per-source scan
    each); the frozen side always uses the requested repeat count with
    one warmup (which also pays the freeze).
    """
    size, repeats = task
    n, horizon = size[0], size[1]
    w = workload(size)
    eg = w[0]

    rows: List[Tuple[object, ...]] = []
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    eg.frozen()
    timings[f"freeze_n{n}_s"] = time.perf_counter() - start
    for case in cases(size, w):
        measured = measure(case, repeats, 1 if n >= 1000 else repeats)
        timings.update(measured.timings(KEYS))
        rows.append((n, horizon, eg.num_contacts, case.name, *measured.cells()))
    return rows, timings


def run(
    sizes: Sequence[Tuple[int, int, int, int]] = DEFAULT_SIZES,
    repeats: int = 3,
    out_dir: str = OUT_DIR,
    top_dir: str = TOP_DIR,
    floors: Optional[Mapping[str, float]] = None,
) -> TableResult:
    """Benchmark every temporal kernel at every size.

    ``floors`` (the full run passes :data:`FLOORS`) additionally
    asserts each floor at the largest size.  Raises ``AssertionError``
    on any frozen/reference output mismatch regardless.
    """
    measured = [_measure_size((size, repeats)) for size in sizes]
    rows = [row for size_rows, _ in measured for row in size_rows]
    timings = {k: v for _, size_timings in measured for k, v in size_timings.items()}
    if floors:
        check_floors(speedups(HEADER, rows), floors)
    return emit_table(
        EXPERIMENT,
        "dict-of-sets reference vs frozen temporal kernels (exact output "
        "equality asserted, parents and DTN stats included)",
        HEADER,
        rows,
        notes=(
            "Workload: uniform random weighted contacts, dense enough "
            "that every flood completes inside the horizon.  Every row's "
            "frozen output was asserted equal to the pure-Python "
            "reference before timing was recorded (foremost-tree parent "
            "hops and per-message DTN outcomes included); freeze_n*_s "
            "records the one-off snapshot build the fast path amortizes.  "
            "References at n >= 1000 are timed once (single full scan); "
            "frozen medians use the requested repeat count."
        ),
        timings=timings,
        out_dir=out_dir,
        top_dir=top_dir,
    )


if __name__ == "__main__":
    result = run(floors=FLOORS)
    print(f"\nperf-temporal: emitted {result.bench_path}")
