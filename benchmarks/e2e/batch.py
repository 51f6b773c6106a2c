"""The two batch workloads: whole analysis pipelines run back to back.

A *pass* is one complete task, timed stage by stage on a fresh copy of
the input: ``static-structures`` analyzes a Gnutella snapshot and then
repairs routes on it under injected faults; ``dynamic-dtn`` analyzes a
contact trace and then routes a message batch over it with six DTN
protocols.  One caller runs an untimed warm-up pass, then passes back to
back until the run's time is up, so ``pass_s`` is the time a user waits
for one task (at the reference host speed, see ``HostClock``).
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Tuple

import numpy as np

from e2e import checks
from e2e.layers import DYNAMIC, STATIC, layer_values, traced
from e2e.report import HostClock, Report, stage_totals, timed_setups, wall

#: Fewest set-ups per run, and the fewest seconds they take together;
#: ``setup_s`` is their median.
SETUPS = 7
SETUP_SECONDS = 1.0
#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3


class BatchWorkload:
    """Shared driver: set up, run passes, check, and (traced) attribute."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # Subclasses provide: setup() -> state (timed), prepare(state) ->
    # inputs (untimed), run_pass(state, inputs, clock) -> outputs, timing
    # each stage with ``clock.stage``, and
    # check_pass(report, state, inputs, outputs, first).

    def _passes(
        self, state, inputs, seconds: float, minimum: int, report: Report, clock: HostClock
    ):
        """A checked warm-up pass, then passes timed on ``clock`` until
        ``seconds`` of wall time have gone by.  Returns the timed passes'
        intervals."""
        passes: List[list] = []
        attempts = 0
        deadline = None  # set once the warm-up pass is done
        while deadline is None or attempts < minimum or time.perf_counter() < deadline:
            report.units(1)
            gc.collect()
            try:
                outputs = self.run_pass(state, inputs, clock)
            except Exception as error:  # noqa: BLE001 - a failed pass is data
                report.fail("pass", f"{type(error).__name__}: {error}")
                clock.take()
                if deadline is None:
                    break  # later passes would fail the same way
                attempts += 1
                continue
            intervals = clock.take()
            self.check_pass(report, state, inputs, outputs, first=deadline is None)
            if deadline is None:
                deadline = time.perf_counter() + seconds
            else:
                attempts += 1
                passes.append(intervals)
        return passes

    def measure(self, seconds: float, report: Report) -> None:
        state, setups, setup_walls = timed_setups(self.setup, SETUPS, SETUP_SECONDS)
        report.timing("setup_s", setups, setup_walls)
        inputs = self.prepare(state)
        passes = self._passes(state, inputs, seconds, MIN_PASSES, report, HostClock())
        if not passes:
            return
        totals = [sum(stage_totals(p).values()) for p in passes]
        report.timing("pass_s", totals, [wall(p) for p in passes])
        for stage in stage_totals(passes[0]):
            samples = [stage_totals(p)[stage] for p in passes]
            report.note(
                f"{stage}_s median {statistics.median(samples):.6g} s "
                f"(n={len(samples)}, min={min(samples):.6g}, max={max(samples):.6g})"
            )

    def trace(self, seconds: float, report: Report) -> None:
        """Untraced passes for the baseline, then one traced set-up and pass."""
        state = self.setup()
        inputs = self.prepare(state)
        clock = HostClock(calibrate=False)
        baseline = self._passes(state, inputs, seconds / 2, 2, report, clock)
        del state, inputs
        gc.collect()
        with traced() as (recorder, registry):
            start = time.perf_counter()
            state = self.setup()
            windows: List[Tuple[float, float]] = [(start, time.perf_counter())]
            inputs = self.prepare(state)
            outputs = self.run_pass(state, inputs, clock)
        intervals = clock.take()
        windows.extend((lo, hi) for _, lo, hi, _ in intervals)
        report.units(1)
        # Checked like any later pass: tracing must not change outputs.
        self.check_pass(report, state, inputs, outputs, first=False)
        values = layer_values(recorder, registry, windows, self.name, report)
        baseline_s = statistics.median(wall(p) for p in baseline)
        values["trace.overhead_share"] = wall(intervals) / baseline_s - 1.0
        report.per_layer = values


class StaticStructures(BatchWorkload):
    """Fig. 3/5 pipeline on a Gnutella SCC, then route repair under chaos."""

    name = STATIC

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.n = 60 if smoke else 320
        self.fault_seeds = 2 if smoke else 16
        self.churn_pairs = 4 if smoke else 40
        self.dimension = 6 if smoke else 12

    def setup(self):
        from repro.datasets.gnutella import gnutella_largest_scc

        graph = gnutella_largest_scc(self.n, np.random.default_rng(self.seed))
        graph.frozen()
        return graph

    def prepare(self, graph) -> dict:
        """Stale heights, fault plans and faulty cube nodes from the seed."""
        from repro.faults import FaultPlan, LinkChurn, MessageFaults, RetryPolicy
        from repro.faults.injectors import LinkChurnEvent
        from repro.graphs.hypercube import binary_addresses
        from repro.layering.link_reversal import initial_heights

        rng = np.random.default_rng([self.seed, 1])
        nodes = sorted(graph.nodes())
        destination = nodes[0]
        stale = initial_heights(graph, destination)
        others = nodes[1:]
        for k in rng.choice(len(others), size=max(1, len(nodes) // 100), replace=False):
            node = others[int(k)]
            stale[node] = (-1, stale[node][-1])
        edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        messages = MessageFaults(drop=0.1, duplicate=0.05, delay=0.1)
        retry = RetryPolicy(max_retries=16)
        plans = []
        for fault_seed in range(self.fault_seeds):
            events = []
            for k in rng.choice(len(edges), size=self.churn_pairs, replace=False):
                u, v = edges[int(k)]
                down = int(rng.integers(1, 6))
                events.append(LinkChurnEvent(down, "down", u, v))
                up = down + int(rng.integers(1, 4))
                events.append(LinkChurnEvent(up, "up", u, v))
            churn = LinkChurn(schedule=tuple(events))
            plans.append(
                (
                    FaultPlan(fault_seed, [messages, churn], retry),
                    FaultPlan(fault_seed, [messages], retry),
                )
            )
        cube = list(binary_addresses(self.dimension))
        faulty = [
            cube[int(k)]
            for k in rng.choice(len(cube), size=len(cube) // 32, replace=False)
        ]
        return {
            "destination": destination,
            "stale": stale,
            "plans": plans,
            "faulty": faulty,
        }

    def run_pass(self, graph, inputs, clock: HostClock) -> dict:
        """analyze, then protocols: one timed unit per fault seed."""
        from repro.core.uncover import StructureAnalyzer
        from repro.layering.link_reversal_distributed import distributed_full_reversal
        from repro.runtime.vector import (
            vector_full_reversal,
            vector_mis,
            vector_safety_levels,
        )

        work = graph.copy()
        destination, stale = inputs["destination"], inputs["stale"]
        with clock.stage("analyze"):
            analysis = StructureAnalyzer().analyze(work)
        orientations = []
        for scalar_plan, vector_plan in inputs["plans"]:
            with clock.stage("protocols"):
                for reversal, plan in (
                    (distributed_full_reversal, scalar_plan),
                    (vector_full_reversal, vector_plan),
                ):
                    orientation = reversal(work, destination, stale, fault_plan=plan)[0]
                    orientations.append(orientation)
        with clock.stage("protocols"):
            mis, _ = vector_mis(work)
            levels, _ = vector_safety_levels(self.dimension, inputs["faulty"])
        return {
            "analysis": analysis,
            "orientations": orientations,
            "mis": mis,
            "levels": levels,
        }

    def check_pass(self, report: Report, graph, inputs, outputs, first: bool) -> None:
        analysis = outputs["analysis"]
        destination = inputs["destination"]
        if first:
            rng = np.random.default_rng([self.seed, 2])
            report.check(
                "embedding certified",
                lambda: checks.embedding_certified(
                    graph, analysis.find("hyperbolic-greedy-embedding"), rng
                ),
            )
            report.check(
                "spanner stretch <= 3",
                lambda: checks.spanner_stretch_ok(
                    graph, analysis.find("greedy-3-spanner").payload, rng
                ),
            )
            report.check(
                "vector_mis == distributed_mis",
                lambda: checks.vector_mis_matches(graph, outputs["mis"]),
            )
            report.check(
                "safety levels == compute_safety_levels",
                lambda: checks.safety_levels_match(
                    self.dimension, inputs["faulty"], outputs["levels"]
                ),
            )
        report.check(
            "NSF levels == nsf_levels_reference",
            lambda: checks.nsf_levels_match(graph, analysis.find("nsf-levels").payload),
        )
        for orientation in outputs["orientations"]:
            report.check(
                "destination is the only sink",
                lambda: checks.destination_only_sink(orientation, destination),
            )


class DynamicDTN(BatchWorkload):
    """Temporal analysis of social contact traces, then DTN routing.

    A pass covers :attr:`traces` traces drawn from the seed.  The cost of
    one trace depends on its structure (analyze took 0.10-0.41 s across
    20 seeds), so one trace per seed would make the seed, not the
    program, set most of the run-to-run spread.
    """

    name = DYNAMIC
    RADICES = (2, 2, 3)
    END_TIME = 150.0

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.n = 12 if smoke else 32
        self.messages = 8 if smoke else 48
        self.traces = 1 if smoke else 3

    def setup(self):
        """(trace, profiles, snapshot) of each trace."""
        from repro.datasets.human_contacts import rate_model_trace

        state = []
        for k in range(self.traces):
            trace, profiles = rate_model_trace(
                self.n,
                self.RADICES,
                np.random.default_rng([self.seed, k]),
                rate0=0.2,
                decay=0.5,
                end_time=self.END_TIME,
            )
            eg = trace.to_evolving(1.0)
            eg.frozen()
            state.append((trace, profiles, eg))
        return state

    def prepare(self, state) -> list:
        from repro.dtn.simulator import MessageSpec

        destination = self.n - 1
        specs = [
            MessageSpec(f"m{i}", i % destination, destination, created=0, ttl=120)
            for i in range(self.messages)
        ]
        inputs = []
        for trace, _, _ in state:
            counts = trace.pair_contact_counts()
            rates = {pair: count / self.END_TIME for pair, count in counts.items()}
            inputs.append({"destination": destination, "rates": rates, "specs": specs})
        return inputs

    def run_pass(self, state, inputs, clock: HostClock) -> list:
        """analyze, then dtn, on each trace."""
        return [
            self._run_trace(one, one_inputs, clock)
            for one, one_inputs in zip(state, inputs)
        ]

    def _run_trace(self, state, inputs, clock: HostClock) -> dict:
        from repro.core.uncover import StructureAnalyzer
        from repro.dtn.routers import (
            DirectDelivery,
            EpidemicRouter,
            FeatureGreedyRouter,
            ForwardingSetRouter,
            ProphetRouter,
            SprayAndWait,
        )
        from repro.dtn.simulator import run_protocol_comparison
        from repro.remapping.feature_space import FeatureSpace
        from repro.trimming.forwarding_set import optimal_forwarding_sets

        _, profiles, eg = state
        work = eg.copy()
        with clock.stage("analyze"):
            analysis = StructureAnalyzer().analyze(work)
        with clock.stage("dtn"):
            policy = optimal_forwarding_sets(inputs["rates"], inputs["destination"])
            routers = [
                DirectDelivery(),
                EpidemicRouter(),
                SprayAndWait(copies=8),
                ProphetRouter(),
                ForwardingSetRouter(policy),
                FeatureGreedyRouter(FeatureSpace(profiles, self.RADICES)),
            ]
            stats = run_protocol_comparison(eg, routers, inputs["specs"])
        return {"analysis": analysis, "stats": stats}

    def check_pass(self, report: Report, state, inputs, outputs, first: bool) -> None:
        if first:
            self._first_stats = [one["stats"] for one in outputs]
        for (_, _, eg), one_inputs, one, first_stats in zip(
            state, inputs, outputs, self._first_stats
        ):
            stats = one["stats"]
            if first:
                diameter = one["analysis"].find("temporal-connectivity").payload
                report.check(
                    "dynamic diameter == reference",
                    lambda: checks.dynamic_diameter_matches(eg, diameter),
                )
                report.check(
                    "epidemic fast path == general loop",
                    lambda: checks.epidemic_matches_general_loop(
                        eg, one_inputs["specs"], stats["epidemic"]
                    ),
                )
            else:
                report.check(
                    "stats identical across passes",
                    lambda: checks.same_stats(first_stats, stats),
                )
