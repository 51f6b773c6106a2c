"""Frozen temporal contact index vs the pure-Python references.

The contract of :mod:`repro.temporal.frozen` (and of the DTN bitset
fast path) is *exact* output equivalence: every routed entry point must
return the same value — foremost-tree parent hops, journey hops,
delivery statistics — as its ``*_reference`` ground truth.  These tests
enforce that on randomized EvolvingGraphs plus the structural edge
cases (no contacts, one contact, disconnected nodes, many contacts in
one time unit, mutation invalidation).
"""

import pickle

import numpy as np
import pytest

from repro.dtn.routers import DirectDelivery, EpidemicRouter
from repro.dtn.simulator import DTNSimulation, MessageSpec
from repro.observability import dispatch_counts, tracing
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.temporal import connectivity as conn
from repro.temporal import journeys as jour
from repro.temporal import weighted_journeys as wjour
from repro.temporal.evolving import EvolvingGraph
from repro.temporal.frozen import FrozenContacts


def random_evolving(seed, n=None, horizon=None, contacts=None, weighted=True):
    """A random weighted EvolvingGraph with 80-300 contacts by default."""
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(5, 25))
    horizon = horizon if horizon is not None else int(rng.integers(3, 40))
    contacts = contacts if contacts is not None else int(rng.integers(80, 300))
    eg = EvolvingGraph(horizon=horizon, nodes=range(n))
    for _ in range(contacts):
        u, v = rng.choice(n, size=2, replace=False)
        weight = float(rng.uniform(0.05, 1.0)) if weighted else None
        eg.add_contact(int(u), int(v), int(rng.integers(0, horizon)), weight)
    return eg


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_journey_kernels_match_reference(seed):
    eg = random_evolving(seed)
    rng = np.random.default_rng(seed + 100)
    for _ in range(4):
        source = int(rng.integers(0, eg.num_nodes))
        start = int(rng.integers(0, eg.horizon))
        assert jour.foremost_tree(eg, source, start) == \
            jour.foremost_tree_reference(eg, source, start)
        assert jour.earliest_arrival(eg, source, start) == \
            jour.earliest_arrival_reference(eg, source, start)
        assert jour.latest_departure(eg, source, start) == \
            jour.latest_departure_reference(eg, source, start)
    # Default-deadline and negative-deadline reverse scans.
    assert jour.latest_departure(eg, 0) == jour.latest_departure_reference(eg, 0)
    assert jour.latest_departure(eg, 0, deadline=-3) == \
        jour.latest_departure_reference(eg, 0, deadline=-3)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_connectivity_kernels_match_reference(seed):
    eg = random_evolving(seed)
    assert conn.dynamic_diameter(eg) == conn.dynamic_diameter_reference(eg)
    eccentricities = conn.temporal_eccentricities(eg)
    assert set(eccentricities) == set(eg.nodes())
    for node in eg.nodes():
        assert eccentricities[node] == conn.flooding_time_reference(eg, node)
    for start in (0, eg.horizon // 2, eg.horizon - 1):
        assert conn.is_time_i_connected(eg, start) == \
            conn.is_time_i_connected_reference(eg, start)


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_weighted_journeys_match_reference(seed):
    eg = random_evolving(seed)
    rng = np.random.default_rng(seed + 200)
    for _ in range(5):
        s, t = rng.choice(eg.num_nodes, size=2, replace=False)
        s, t = int(s), int(t)
        assert wjour.min_delay_journey(eg, s, t) == \
            wjour.min_delay_journey_reference(eg, s, t)
        fast = wjour.most_reliable_journey(eg, s, t)
        reference = wjour.most_reliable_journey_reference(eg, s, t)
        assert (fast is None) == (reference is None)
        if fast is not None:
            # Independent algorithms: equal values, ties may differ.
            assert fast[1] == pytest.approx(reference[1], rel=1e-12)
            assert jour.is_valid_journey(eg, fast[0])
            assert jour.is_valid_journey(eg, reference[0])
        assert wjour.max_bandwidth_journey(eg, s, t) == \
            wjour.max_bandwidth_journey_reference(eg, s, t)


# ----------------------------------------------------------------------
# structural edge cases (FrozenContacts built directly, any size)
# ----------------------------------------------------------------------
def test_frozen_on_contactless_graph():
    eg = EvolvingGraph(horizon=4, nodes=["a", "b", "c"])
    fc = eg.frozen()
    assert fc.num_contacts == 0
    assert fc.earliest_arrival("a") == {"a": 0}
    assert fc.foremost_tree("a") == {"a": None}
    assert fc.latest_departure("b", 4) == {"b": 4}
    latest, reached = fc.flooding_stats()
    assert reached.tolist() == [1, 1, 1]


def test_frozen_single_contact():
    eg = EvolvingGraph(horizon=5, nodes=["a", "b", "c"])
    eg.add_contact("a", "b", 2)
    fc = eg.frozen()
    assert fc.earliest_arrival("a") == jour.earliest_arrival_reference(eg, "a")
    assert fc.foremost_tree("a") == jour.foremost_tree_reference(eg, "a")
    assert fc.foremost_tree("c") == {"c": None}
    assert fc.latest_departure("b", 5) == \
        jour.latest_departure_reference(eg, "b", 5)


def test_frozen_disconnected_nodes_stay_unreached():
    eg = random_evolving(11, n=12)
    eg.add_node("isolated")
    fc = eg.frozen()
    assert "isolated" not in fc.earliest_arrival(0)
    assert conn.dynamic_diameter(eg) is None
    assert conn.dynamic_diameter_reference(eg) is None
    assert conn.temporal_eccentricities(eg)["isolated"] is None


def test_frozen_duplicate_contact_times_chain_within_unit():
    # Every contact in one time unit: journeys must chain transitively
    # inside the unit (instantaneous transmission, non-decreasing labels).
    eg = EvolvingGraph(horizon=3, nodes=range(50))
    for i in range(49):
        eg.add_contact(i, i + 1, 1)
    for i in range(0, 48, 2):
        eg.add_contact(i, i + 2, 1)
    assert jour.foremost_tree(eg, 0) == jour.foremost_tree_reference(eg, 0)
    arrival = jour.earliest_arrival(eg, 0)
    assert arrival == jour.earliest_arrival_reference(eg, 0)
    assert all(arrival[node] == 1 for node in range(1, 50))


def test_frozen_fronts_reach_one_node_along_several_edges():
    # At time 2 node 3 is reached from both 1 and 2 (and, reversed, node
    # 0 is left towards both), so a front holds a repeated node.  Counted
    # twice, it would end the arrival scan before node 4 is reached.
    eg = EvolvingGraph(horizon=4, nodes=range(5))
    for hub in (1, 2):
        eg.add_contact(0, hub, 1)
        eg.add_contact(hub, 3, 2)
    eg.add_contact(3, 4, 3)
    fc = eg.frozen()
    arrival = fc.earliest_arrival(0)
    assert arrival == jour.earliest_arrival_reference(eg, 0)
    assert arrival == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
    for target, deadline in ((4, 4), (3, 3), (0, 2)):
        assert fc.latest_departure(target, deadline) == \
            jour.latest_departure_reference(eg, target, deadline)
    assert fc.latest_departure(4, 4)[0] == 1


def test_frozen_cache_invalidation_on_mutation():
    eg = random_evolving(12)
    first = eg.frozen()
    assert eg.frozen() is first  # cached while unchanged
    before_contacts = eg.all_contacts()
    assert eg.all_contacts() == before_contacts

    free = next(
        t for t in range(eg.horizon) if not eg.has_contact(0, 1, t)
    )
    eg.add_contact(0, 1, free, 0.5)
    second = eg.frozen()
    assert second is not first
    assert second.num_contacts == len(eg.all_contacts())
    assert jour.foremost_tree(eg, 0) == jour.foremost_tree_reference(eg, 0)

    eg.remove_contact(0, 1, free)
    assert eg.frozen() is not second
    assert eg.all_contacts() == before_contacts
    assert jour.earliest_arrival(eg, 0) == \
        jour.earliest_arrival_reference(eg, 0)


def test_frozen_pickle_round_trip_is_bit_identical():
    eg = EvolvingGraph(horizon=6, nodes=[f"u{i}" for i in range(8)])
    rng = np.random.default_rng(4)
    for _ in range(40):
        u, v = rng.choice(8, size=2, replace=False)
        eg.add_contact(f"u{u}", f"u{v}", int(rng.integers(0, 6)))
    fc = eg.frozen()
    restored = pickle.loads(pickle.dumps(fc))
    for name, value in vars(fc).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(restored, name), value), name
    assert restored.node_list == fc.node_list
    assert restored.num_contacts == fc.num_contacts
    assert restored.earliest_arrival("u0") == fc.earliest_arrival("u0")
    assert restored.latest_departure("u1", 6) == fc.latest_departure("u1", 6)


def test_contacts_from_cache_tracks_mutations():
    eg = random_evolving(13)
    before = eg.contacts_from(0)
    assert eg.contacts_from(0) == before
    free = next(
        t for t in range(eg.horizon) if not eg.has_contact(0, 1, t)
    )
    eg.add_contact(0, 1, free)
    after = eg.contacts_from(0)
    assert (free, 1) in after
    assert len(after) == len(before) + 1
    # not_before bisects the cached list instead of re-scanning.
    cutoff = eg.horizon // 2
    assert eg.contacts_from(0, not_before=cutoff) == \
        [pair for pair in after if pair[0] >= cutoff]


# ----------------------------------------------------------------------
# DTN bitset fast path
# ----------------------------------------------------------------------
def _random_specs(eg, seed, count=10):
    rng = np.random.default_rng(seed)
    n = eg.num_nodes
    specs = []
    for i in range(count):
        s, d = rng.choice(n, size=2, replace=False)
        created = int(rng.integers(0, eg.horizon))
        ttl = None if rng.random() < 0.3 else int(rng.integers(1, eg.horizon))
        specs.append(
            MessageSpec(f"m{i}", int(s), int(d), created=created, ttl=ttl)
        )
    specs.append(MessageSpec("self", 0, 0, created=0, ttl=3))
    return specs


@pytest.mark.parametrize(
    "seed,n,contacts",
    [pytest.param(seed, None, None, id=str(seed)) for seed in (21, 22, 23)]
    + [
        pytest.param(contacts, 3, contacts, id=f"tiny-{contacts}")
        for contacts in (0, 1, 3)
    ],
)
@pytest.mark.parametrize("router_cls", [EpidemicRouter, DirectDelivery])
def test_dtn_fast_path_matches_general_loop(seed, n, contacts, router_cls):
    eg = random_evolving(seed, n=n, contacts=contacts, weighted=False)
    specs = _random_specs(eg, seed + 300)
    sims = {}
    for fast in (True, False):
        sim = DTNSimulation(eg, router_cls(), fast_path=fast)
        for spec in specs:
            sim.add_message(
                MessageSpec(
                    spec.identifier, spec.source, spec.destination,
                    spec.created, spec.ttl,
                )
            )  # fresh specs: MessageState must not leak between runs
        sims[fast] = (sim, sim.run())
    fast_sim, fast_stats = sims[True]
    slow_sim, slow_stats = sims[False]
    assert fast_stats == slow_stats
    for identifier, fast_msg in fast_sim.messages.items():
        slow_msg = slow_sim.messages[identifier]
        assert fast_msg.holders == slow_msg.holders
        assert fast_msg.delivered_at == slow_msg.delivered_at
        assert fast_msg.copies_made == slow_msg.copies_made
        assert fast_msg.hops == slow_msg.hops
    for node in slow_sim._buffers:
        assert sorted(fast_sim._buffers[node]) == sorted(slow_sim._buffers[node])
    for name in ("contacts", "replications", "handovers", "delivered"):
        assert fast_sim.metrics.counter(f"repro.dtn.{name}").value == \
            slow_sim.metrics.counter(f"repro.dtn.{name}").value


def test_dtn_fast_path_eligibility_gate():
    eg = random_evolving(24, weighted=False)

    assert DTNSimulation(eg, EpidemicRouter())._fast_path_eligible()
    assert DTNSimulation(eg, DirectDelivery())._fast_path_eligible()
    # Bounded buffers and policy-changing subclasses fall back.
    assert not DTNSimulation(
        eg, EpidemicRouter(), buffer_size=4
    )._fast_path_eligible()

    class CautiousEpidemic(EpidemicRouter):
        def decide(self, message, holder, peer, time):
            from repro.dtn.simulator import Decision

            return Decision.CARRY

    assert not DTNSimulation(eg, CautiousEpidemic())._fast_path_eligible()

    # Auto mode takes the front whenever it is eligible, however short
    # the trace; fast_path=False always keeps the general loop.
    tiny = EvolvingGraph(horizon=4, nodes=["a", "b"])
    tiny.add_contact("a", "b", 1)
    assert DTNSimulation(tiny, EpidemicRouter())._use_fast_path()
    assert not DTNSimulation(eg, EpidemicRouter(), fast_path=False)._use_fast_path()

    sim = DTNSimulation(eg, EpidemicRouter(), buffer_size=4, fast_path=True)
    with pytest.raises(ValueError):
        sim.run()


def test_traced_dtn_run_takes_the_fast_path():
    # Tracing adds a ``dtn.run`` span and nothing else: the traced run
    # routes through the bitset front and matches an untraced run.
    eg = random_evolving(24, weighted=False)
    specs = _random_specs(eg, 324)

    def run(traced):
        registry = MetricsRegistry("traced-dtn")
        previous = set_registry(registry)
        if traced:
            tracing.enable()
        try:
            sim = DTNSimulation(eg, EpidemicRouter())
            for spec in specs:
                sim.add_message(
                    MessageSpec(
                        spec.identifier, spec.source, spec.destination,
                        spec.created, spec.ttl,
                    )
                )
            return sim.run(), registry
        finally:
            tracing.disable()
            set_registry(previous)

    traced_stats, traced_registry = run(True)
    plain_stats, _ = run(False)
    assert traced_stats == plain_stats
    assert dispatch_counts(traced_registry)["dtn.run"] == {"fast": 1}
    assert traced_registry.get("dtn.run.duration_s").count == 1


# ----------------------------------------------------------------------
# discretisation bulk path
# ----------------------------------------------------------------------
def test_bulk_discretisation_matches_reference_loop():
    import math

    from repro.temporal.contacts import ContactTrace

    rng = np.random.default_rng(31)
    trace = ContactTrace()
    for _ in range(120):
        u, v = rng.choice(15, size=2, replace=False)
        start = float(rng.uniform(0, 30))
        trace.add_contact(int(u), int(v), start, start + float(rng.uniform(0.1, 4)))
    bulk = trace.to_evolving(slot=1.0)

    # Replay the per-record add_contact loop by hand on the same records.
    loop = EvolvingGraph(horizon=bulk.horizon, nodes=trace.nodes)
    for record in trace.records:
        first = int(math.floor(record.start / 1.0))
        last = int(math.ceil(record.end / 1.0)) - 1
        for unit in range(max(0, first), min(bulk.horizon - 1, last) + 1):
            loop.add_contact(record.u, record.v, unit)
    assert loop.all_contacts() == bulk.all_contacts()
    assert set(loop.nodes()) == set(bulk.nodes())


def test_discretisation_adds_endpoints_missing_from_the_node_set():
    from repro.temporal.contacts import ContactRecord, ContactTrace

    records = [ContactRecord(i, i + 1, float(i), i + 1.5) for i in range(80)]
    eg = ContactTrace(records=records).to_evolving(slot=1.0)
    assert set(eg.nodes()) == set(range(81))
    assert eg.labels(0, 1) == {0, 1}
