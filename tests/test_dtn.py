"""DTN routing simulator and protocol suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.dtn.simulator import (
    Decision,
    DTNSimulation,
    MessageSpec,
    run_protocol_comparison,
)
from repro.faults import CrashEvent, FaultPlan, MessageFaults, NodeCrashFaults
from repro.remapping.feature_space import FeatureSpace
from repro.temporal.evolving import EvolvingGraph
from repro.trimming.forwarding_set import optimal_forwarding_sets


def chain_eg():
    """a-b at 1, b-c at 2, c-d at 3: a clean relay chain."""
    eg = EvolvingGraph(horizon=6, nodes=["a", "b", "c", "d"])
    eg.add_contact("a", "b", 1)
    eg.add_contact("b", "c", 2)
    eg.add_contact("c", "d", 3)
    return eg


def social_scenario(seed=8, n=30, end_time=120.0):
    rng = np.random.default_rng(seed)
    trace, profiles = rate_model_trace(
        n, (2, 2, 3), rng, rate0=0.35, decay=0.5, end_time=end_time
    )
    eg = trace.to_evolving(1.0)
    return eg, profiles, trace


class TestSimulatorMechanics:
    def test_direct_waits_for_destination(self):
        eg = chain_eg()
        sim = DTNSimulation(eg, DirectDelivery())
        sim.add_message(MessageSpec("m", "a", "b"))
        stats = sim.run()
        assert stats.delivered == 1
        assert stats.latencies == [1]

    def test_direct_cannot_relay(self):
        eg = chain_eg()
        sim = DTNSimulation(eg, DirectDelivery())
        sim.add_message(MessageSpec("m", "a", "d"))
        assert sim.run().delivered == 0

    def test_epidemic_relays_down_chain(self):
        eg = chain_eg()
        sim = DTNSimulation(eg, EpidemicRouter())
        sim.add_message(MessageSpec("m", "a", "d"))
        stats = sim.run()
        assert stats.delivered == 1
        assert stats.latencies == [3]
        assert stats.hops == [3]

    def test_ttl_expiry(self):
        eg = chain_eg()
        sim = DTNSimulation(eg, EpidemicRouter())
        sim.add_message(MessageSpec("m", "a", "d", created=0, ttl=2))
        assert sim.run().delivered == 0

    def test_message_created_later_ignores_earlier_contacts(self):
        eg = chain_eg()
        sim = DTNSimulation(eg, EpidemicRouter())
        sim.add_message(MessageSpec("m", "a", "b", created=2))
        # a-b contact was at time 1 < created: never delivered.
        assert sim.run().delivered == 0

    def test_duplicate_id_rejected(self):
        sim = DTNSimulation(chain_eg(), EpidemicRouter())
        sim.add_message(MessageSpec("m", "a", "b"))
        with pytest.raises(ValueError):
            sim.add_message(MessageSpec("m", "a", "c"))

    def test_unknown_endpoint_rejected(self):
        sim = DTNSimulation(chain_eg(), EpidemicRouter())
        with pytest.raises(ValueError):
            sim.add_message(MessageSpec("m", "a", "zzz"))

    def test_source_is_destination(self):
        sim = DTNSimulation(chain_eg(), EpidemicRouter())
        sim.add_message(MessageSpec("m", "a", "a"))
        stats = sim.run()
        assert stats.delivered == 1
        assert stats.latencies == [0]

    def test_buffer_eviction_fifo(self):
        # Buffer of 1 at relay b: second message evicts the first.
        eg = EvolvingGraph(horizon=8, nodes=["a", "b", "z1", "z2"])
        eg.add_contact("a", "b", 0)   # both messages try to board b
        eg.add_contact("b", "z1", 5)
        eg.add_contact("b", "z2", 6)
        sim = DTNSimulation(eg, EpidemicRouter(), buffer_size=1)
        sim.add_message(MessageSpec("first", "a", "z1"))
        sim.add_message(MessageSpec("second", "a", "z2"))
        stats = sim.run()
        # b could only retain one of them (a keeps originals; but b's
        # buffer held only the later arrival).
        assert stats.delivered <= 1

    def test_stats_percentile(self):
        eg = chain_eg()
        sim = DTNSimulation(eg, EpidemicRouter())
        sim.add_message(MessageSpec("m1", "a", "b"))
        sim.add_message(MessageSpec("m2", "a", "d"))
        stats = sim.run()
        assert stats.latency_percentile(0.0) <= stats.latency_percentile(0.99)

    def test_empty_stats(self):
        sim = DTNSimulation(chain_eg(), EpidemicRouter())
        stats = sim.run()
        assert stats.created == 0
        assert math.isinf(stats.mean_latency)


class TestSprayAndWait:
    def test_budget_limits_copies(self):
        eg, profiles, _ = social_scenario()
        for budget in (2, 4, 16):
            sim = DTNSimulation(eg, SprayAndWait(copies=budget))
            sim.add_message(MessageSpec("m", 0, 29))
            stats = sim.run()
            assert stats.copies[0] <= budget

    def test_more_copies_not_slower(self):
        eg, profiles, _ = social_scenario()
        latencies = {}
        for budget in (1, 16):
            sim = DTNSimulation(eg, SprayAndWait(copies=budget))
            for i in range(10):
                sim.add_message(MessageSpec(f"m{i}", i, 29))
            latencies[budget] = sim.run().mean_latency
        assert latencies[16] <= latencies[1]

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SprayAndWait(copies=0)

    def test_single_copy_equals_direct(self):
        eg = chain_eg()
        spray = DTNSimulation(eg, SprayAndWait(copies=1))
        spray.add_message(MessageSpec("m", "a", "d"))
        assert spray.run().delivered == 0  # cannot spray, cannot relay


class TestProphet:
    def test_predictability_grows_with_encounters(self):
        router = ProphetRouter()
        assert router.predictability("a", "b", 0) == 0.0
        router.on_contact("a", "b", 1)
        first = router.predictability("a", "b", 1)
        router.on_contact("a", "b", 2)
        assert router.predictability("a", "b", 2) > first

    def test_predictability_ages(self):
        router = ProphetRouter(gamma=0.5)
        router.on_contact("a", "b", 0)
        fresh = router.predictability("a", "b", 0)
        stale = router.predictability("a", "b", 10)
        assert stale < fresh

    def test_transitivity(self):
        router = ProphetRouter()
        router.on_contact("b", "c", 0)
        router.on_contact("a", "b", 1)
        assert router.predictability("a", "c", 1) > 0.0

    def test_routes_toward_frequent_contacts(self):
        eg, profiles, _ = social_scenario()
        sim = DTNSimulation(eg, ProphetRouter())
        for i in range(8):
            sim.add_message(MessageSpec(f"m{i}", i, 29, created=30))
        stats = sim.run()
        assert stats.delivery_ratio > 0.5

    def test_validation(self):
        for kwargs in (
            {"p_encounter": 0.0},
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"beta": -2.0},
            {"beta": 1.5},
            {"margin": -0.1},
            {"margin": math.nan},
        ):
            with pytest.raises(ValueError):
                ProphetRouter(**kwargs)


@st.composite
def prophet_runs(draw):
    """Contacts over <= 6 nodes (repeats, non-monotone times) and parameters."""
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    contacts = draw(st.lists(st.tuples(pairs, st.integers(0, 40)), max_size=30))
    params = {
        "p_encounter": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "beta": draw(st.floats(0.0, 1.0)),
        "gamma": draw(st.floats(0.0, 1.0, exclude_min=True)),
    }
    return n, contacts, params


class TestProphetMatchesReference:
    @given(prophet_runs())
    @settings(max_examples=150, deadline=None)
    def test_predictabilities_identical_after_every_contact(self, run):
        n, contacts, params = run
        fast = ProphetRouter(**params)
        reference = ProphetRouterReference(**params)
        for (u, v), time in contacts:
            fast.on_contact(u, v, time)
            reference.on_contact(u, v, time)
            # Reads age the state, so both routers are queried in one order.
            for a in range(n):
                for b in range(n):
                    assert fast.predictability(a, b, time) == reference.predictability(
                        a, b, time
                    )

    @pytest.mark.parametrize("setting", ["clean", "buffer", "faults"])
    def test_simulation_stats_identical(self, setting):
        crash = CrashEvent(node=3, at=40, restart_at=70, lose_state=True)
        kwargs = {
            "clean": {},
            "buffer": {"buffer_size": 2},
            "faults": {
                "fault_plan": FaultPlan(
                    7,
                    [
                        MessageFaults(drop=0.2, delay=0.2, max_delay=3),
                        NodeCrashFaults(schedule=(crash,)),
                    ],
                )
            },
        }[setting]
        eg, _, _ = social_scenario()
        outcomes = []
        for router in (ProphetRouter(), ProphetRouterReference()):
            sim = DTNSimulation(eg, router, **kwargs)
            for i in range(12):
                sim.add_message(MessageSpec(f"m{i}", i, 29, created=10 * (i % 3), ttl=60))
            outcomes.append(sim.run())
        if setting == "faults":
            summary = sim.faults.summary()
            assert summary["contact_delay"] >= 1
            assert summary["contact_crashed"] >= 1
        fast, reference = outcomes
        assert fast.delivered > 0
        assert fast == reference


class TestPaperRouters:
    def test_forwarding_set_single_copy(self):
        eg, profiles, trace = social_scenario()
        rates = {
            pair: count / 120.0
            for pair, count in trace.pair_contact_counts().items()
        }
        policy = optimal_forwarding_sets(rates, 29)
        sim = DTNSimulation(eg, ForwardingSetRouter(policy))
        for i in range(10):
            sim.add_message(MessageSpec(f"m{i}", i, 29))
        stats = sim.run()
        assert all(copies == 1 for copies in stats.copies)
        assert stats.delivery_ratio >= 0.7

    def test_feature_greedy_single_copy_progress(self):
        eg, profiles, _ = social_scenario()
        space = FeatureSpace(profiles, (2, 2, 3))
        sim = DTNSimulation(eg, FeatureGreedyRouter(space))
        for i in range(10):
            sim.add_message(MessageSpec(f"m{i}", i, 29))
        stats = sim.run()
        assert all(copies == 1 for copies in stats.copies)
        # Hamming descent: at most `dimension` handovers + final hop.
        assert all(hops <= 4 for hops in stats.hops)

    def test_protocol_comparison_shape(self):
        """The canonical DTN ordering: epidemic fastest and most costly,
        direct cheapest and slowest."""
        eg, profiles, trace = social_scenario()
        space = FeatureSpace(profiles, (2, 2, 3))
        specs = [MessageSpec(f"m{i}", i, 29) for i in range(12)]
        results = run_protocol_comparison(
            eg,
            [DirectDelivery(), EpidemicRouter(), FeatureGreedyRouter(space)],
            specs,
        )
        assert results["epidemic"].mean_latency <= results["fspace-greedy"].mean_latency
        assert results["fspace-greedy"].mean_latency <= results["direct"].mean_latency
        assert results["epidemic"].mean_copies > results["fspace-greedy"].mean_copies


class TestDeliveryStatsDegenerateCases:
    """Empty-delivery and zero-creation runs must yield well-defined
    stats, never a ZeroDivisionError."""

    @staticmethod
    def _stats(**overrides):
        from repro.dtn.simulator import DeliveryStats

        defaults = dict(created=0, delivered=0, latencies=[], copies=[], hops=[])
        defaults.update(overrides)
        return DeliveryStats(**defaults)

    def test_zero_created_delivery_ratio(self):
        assert self._stats().delivery_ratio == 0.0

    def test_empty_means(self):
        stats = self._stats(created=3)
        assert math.isinf(stats.mean_latency)
        assert stats.mean_copies == 0.0
        assert stats.mean_hops == 0.0
        assert stats.delivery_ratio == 0.0

    def test_empty_latency_percentile_is_inf(self):
        assert math.isinf(self._stats().latency_percentile(0.5))

    def test_latency_percentile_validates_q(self):
        stats = self._stats(created=1, delivered=1, latencies=[2], copies=[1], hops=[1])
        with pytest.raises(ValueError):
            stats.latency_percentile(1.01)
        with pytest.raises(ValueError):
            stats.latency_percentile(-0.5)
        assert stats.latency_percentile(0.0) == 2.0
        assert stats.latency_percentile(1.0) == 2.0

    def test_no_messages_simulation_end_to_end(self):
        sim = DTNSimulation(chain_eg(), EpidemicRouter())
        stats = sim.run()
        assert stats.delivery_ratio == 0.0
        assert math.isinf(stats.latency_percentile(0.9))
        assert stats.mean_copies == 0.0
