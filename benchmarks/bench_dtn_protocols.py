"""DTN protocol comparison — the application-level payoff table.

The paper's structures exist to make information dissemination work in
socially-rich, disruptive networks.  This benchmark runs the full
protocol suite over one socially-driven contact trace and regenerates
the canonical DTN evaluation table (delivery / latency / copies /
hops), placing the paper's two routers — the forwarding-set router of
[12] (dynamic trimming) and the F-space greedy router of [21]
(remapping) — against the standard baselines.
"""

import numpy as np
import pytest

from _util import emit_table
from repro.datasets.human_contacts import rate_model_trace
from repro.dtn.routers import (
    DirectDelivery,
    EpidemicRouter,
    FeatureGreedyRouter,
    ForwardingSetRouter,
    ProphetRouter,
    ProphetRouterReference,
    SprayAndWait,
)
from repro.dtn.simulator import DTNSimulation, MessageSpec, run_protocol_comparison
from repro.remapping.feature_space import FeatureSpace
from repro.trimming.forwarding_set import optimal_forwarding_sets

RADICES = (2, 2, 3)


def scenario(seed=8, n=36, end_time=150.0):
    rng = np.random.default_rng(seed)
    trace, profiles = rate_model_trace(
        n, RADICES, rng, rate0=0.3, decay=0.5, end_time=end_time
    )
    eg = trace.to_evolving(1.0)
    rates = {
        pair: count / end_time for pair, count in trace.pair_contact_counts().items()
    }
    return eg, profiles, rates


def test_dtn_protocol_table(once):
    def experiment():
        eg, profiles, rates = scenario()
        destination = 35
        space = FeatureSpace(profiles, RADICES)
        policy = optimal_forwarding_sets(rates, destination)
        routers = [
            DirectDelivery(),
            EpidemicRouter(),
            SprayAndWait(copies=8),
            ProphetRouter(),
            ForwardingSetRouter(policy),
            FeatureGreedyRouter(space),
        ]
        specs = [
            MessageSpec(f"m{i}", i, destination, created=0, ttl=120)
            for i in range(20)
        ]
        results = run_protocol_comparison(eg, routers, specs)
        # The row-keyed PRoPHET must reproduce its pair-keyed oracle.
        oracle = run_protocol_comparison(eg, [ProphetRouterReference()], specs)
        assert results["prophet"] == oracle["prophet"]
        rows = []
        for name, stats in results.items():
            rows.append(
                (
                    name,
                    f"{stats.delivered}/{stats.created}",
                    f"{stats.mean_latency:.1f}",
                    f"{stats.mean_copies:.1f}",
                    f"{stats.mean_hops:.1f}",
                )
            )
        return rows

    rows = once(experiment)
    emit_table(
        "dtn-protocols",
        "DTN routing over a socially-driven contact trace",
        ["protocol", "delivered", "mean latency", "mean copies", "mean hops"],
        rows,
        notes=(
            "The canonical trade-off surface: epidemic buys minimum "
            "latency with maximum copies; direct is single-copy but "
            "slow; the paper's forwarding-set ([12]) and F-space greedy "
            "([21]) routers get near-PRoPHET latency at exactly one "
            "copy — structure replacing replication."
        ),
    )
    by = {row[0]: row for row in rows}
    assert float(by["epidemic"][2]) <= float(by["forwarding-set"][2])
    assert float(by["forwarding-set"][3]) == 1.0
    assert float(by["fspace-greedy"][3]) == 1.0
    assert float(by["epidemic"][3]) > 3.0


def test_dtn_buffer_pressure(once):
    def experiment():
        eg, profiles, rates = scenario(seed=9)
        destination = 35
        rows = []
        for buffer_size in (None, 8, 2):
            sim = DTNSimulation(eg, EpidemicRouter(), buffer_size=buffer_size)
            for i in range(20):
                sim.add_message(MessageSpec(f"m{i}", i, destination, ttl=120))
            stats = sim.run()
            rows.append(
                (
                    "unbounded" if buffer_size is None else buffer_size,
                    f"{stats.delivery_ratio:.2f}",
                    f"{stats.mean_copies:.1f}",
                )
            )
        return rows

    rows = once(experiment)
    emit_table(
        "dtn-buffers",
        "epidemic routing under buffer pressure",
        ["buffer size", "delivery ratio", "mean copies"],
        rows,
        notes=(
            "Bounded buffers choke replication-heavy protocols — the "
            "resource argument for the paper's single-copy structural "
            "routers."
        ),
    )
    ratios = [float(row[1]) for row in rows]
    assert ratios[0] >= ratios[-1]


def _ttl_point(ttl):
    """One independent sweep point: delivery ratios at one TTL.

    The deterministic scenario seed rebuilds the identical trace for
    every point.
    """
    eg, profiles, rates = scenario(seed=10)
    destination = 35
    space = FeatureSpace(profiles, RADICES)
    results = run_protocol_comparison(
        eg,
        [DirectDelivery(), FeatureGreedyRouter(space), EpidemicRouter()],
        [MessageSpec(f"m{i}", i, destination, ttl=ttl) for i in range(16)],
    )
    return (
        ttl,
        f"{results['direct'].delivery_ratio:.2f}",
        f"{results['fspace-greedy'].delivery_ratio:.2f}",
        f"{results['epidemic'].delivery_ratio:.2f}",
    )


def test_dtn_ttl_sweep(once):
    def experiment():
        return [_ttl_point(ttl) for ttl in (5, 15, 40, 120)]

    rows = once(experiment)
    emit_table(
        "dtn-ttl",
        "delivery ratio vs message TTL",
        ["TTL", "direct", "fspace-greedy", "epidemic"],
        rows,
        notes=(
            "Under tight deadlines structure matters most: F-space "
            "routing holds up long after direct delivery collapses, "
            "approaching the epidemic bound."
        ),
    )
    for _, direct, fspace, epidemic in rows:
        assert float(direct) <= float(fspace) + 1e-9 or float(direct) <= float(epidemic)


@pytest.mark.parametrize("n_messages", [20, 60])
def test_dtn_simulation_speed(benchmark, n_messages):
    eg, profiles, rates = scenario(seed=11)
    space = FeatureSpace(profiles, RADICES)

    def run():
        sim = DTNSimulation(eg, FeatureGreedyRouter(space))
        for i in range(n_messages):
            sim.add_message(MessageSpec(f"m{i}", i % 30, 35))
        return sim.run()

    stats = benchmark(run)
    assert stats.created == n_messages
