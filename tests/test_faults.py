"""The fault-injection chaos layer (repro.faults) on the engines.

Three contracts, in order of importance:

* **Replay** — a :class:`FaultPlan` is seed + injectors; the same plan
  driven through the same workload twice produces *byte-identical*
  fault ledgers (``ledger.digest()`` equality), and a different seed
  produces a different sequence.
* **Convergence under faults** — link reversal and distributed safety
  labeling are monotone chaotic iterations, so under any seeded
  drop/duplicate/reorder plan with retries they still reach the exact
  fault-free fixpoint (heights *and* per-node reversal counts;
  levels identical to the centralized oracle).
* **Lifecycle faults** — scheduled crash/restart (with and without
  state loss) and link churn heal through retries, and a run that
  cannot converge surfaces its fault ledger in
  :class:`~repro.errors.ConvergenceError`.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.faults import (
    CrashEvent,
    FaultPlan,
    LinkChurn,
    LinkChurnEvent,
    MessageFaults,
    NodeCrashFaults,
    RetryPolicy,
)
from repro.graphs.generators import path_graph
from repro.labeling.safety import compute_safety_levels
from repro.labeling.safety_distributed import distributed_safety_levels
from repro.layering.link_reversal import initial_heights, paper_fig4_graph
from repro.layering.link_reversal_distributed import (
    LinkReversalAlgorithm,
    distributed_full_reversal,
)
from repro.runtime.async_engine import AsyncNetwork
from repro.runtime.engine import Network, NodeAlgorithm
from repro.runtime.vector import FullReversalKernel, VectorEngine
from tests.test_runtime import Flood, Spinner

CHAOS = MessageFaults(drop=0.1, duplicate=0.05, reorder=0.2)
RETRY = RetryPolicy(max_retries=10)


def _reversal_network(fault_plan=None):
    graph, destination, heights = paper_fig4_graph()
    network = Network(
        graph,
        lambda node: LinkReversalAlgorithm(
            is_destination=node == destination, height=heights[node]
        ),
        fault_plan=fault_plan,
    )
    network.run(max_rounds=50_000)
    return network, graph


class TestInjectorValidation:
    def test_retry_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_retries=6, base_delay=1, max_delay=8)
        assert [policy.delay(k) for k in range(6)] == [1, 2, 4, 8, 8, 8]

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            MessageFaults(drop=1.5)
        with pytest.raises(ValueError):
            NodeCrashFaults(rate=-0.1)
        with pytest.raises(ValueError):
            LinkChurn(down=2.0)

    def test_crash_event_restart_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashEvent(node=0, at=5, restart_at=5)

    def test_churn_action_validated(self):
        with pytest.raises(ValueError):
            LinkChurnEvent(at=1, action="sideways", u=0, v=1)

    def test_plan_rejects_unknown_injectors(self):
        with pytest.raises(TypeError):
            FaultPlan(0, ["not-an-injector"])


class TestReplayContract:
    def test_same_plan_replays_byte_identical_ledger(self):
        plan = FaultPlan(42, [CHAOS], retry=RETRY)
        first, _ = _reversal_network(plan)
        second, _ = _reversal_network(plan)
        assert len(first.faults.ledger) > 0
        assert first.faults.ledger.lines() == second.faults.ledger.lines()
        assert first.faults.ledger.digest() == second.faults.ledger.digest()

    def test_different_seed_different_sequence(self):
        first, _ = _reversal_network(FaultPlan(1, [CHAOS], retry=RETRY))
        second, _ = _reversal_network(FaultPlan(2, [CHAOS], retry=RETRY))
        assert first.faults.ledger.digest() != second.faults.ledger.digest()

    def test_ledger_counts_match_metrics_counters(self):
        network, _ = _reversal_network(FaultPlan(42, [CHAOS], retry=RETRY))
        snapshot = network.metrics.snapshot()
        for kind, count in network.faults.summary().items():
            assert snapshot[f"repro.faults.{kind}"] == count

    def test_async_replay_is_deterministic(self):
        def run():
            network = AsyncNetwork(
                path_graph(6),
                lambda node: Flood(0),
                rng=np.random.default_rng(7),
                fault_plan=FaultPlan(42, [CHAOS], retry=RETRY),
            )
            network.run()
            return network

        first, second = run(), run()
        assert all(first.states("informed").values())
        assert first.faults.ledger.lines() == second.faults.ledger.lines()


class TestConvergenceUnderFaults:
    """Monotone protocols reach the fault-free fixpoint under chaos."""

    def test_link_reversal_reaches_fault_free_fixpoint(self):
        graph, destination, heights = paper_fig4_graph()
        _, clean_heights, clean_reversals, _ = distributed_full_reversal(
            graph, destination, heights
        )
        for seed in range(8):
            orientation, faulty_heights, faulty_reversals, _ = (
                distributed_full_reversal(
                    graph,
                    destination,
                    heights,
                    fault_plan=FaultPlan(seed, [CHAOS], retry=RETRY),
                )
            )
            # Full reversal is schedule-independent (abelian): chaos
            # changes the order of reversals, never the outcome.
            assert faulty_heights == clean_heights
            assert faulty_reversals == clean_reversals
            assert orientation.is_destination_oriented(destination)

    def test_safety_labeling_matches_centralized_oracle(self):
        from repro.labeling.safety import paper_fig9_faults

        dimension, faulty = paper_fig9_faults()
        oracle = compute_safety_levels(dimension, faulty)
        for seed in range(8):
            levels, _ = distributed_safety_levels(
                dimension,
                faulty,
                fault_plan=FaultPlan(seed, [CHAOS], retry=RETRY),
            )
            assert levels == oracle.levels

    def test_flood_survives_crash_with_state_loss(self):
        crash = NodeCrashFaults(
            schedule=(CrashEvent(node=3, at=1, restart_at=5, lose_state=True),)
        )
        network = Network(
            path_graph(5),
            lambda node: Flood(0),
            fault_plan=FaultPlan(11, [crash], retry=RETRY),
        )
        network.run()
        assert all(network.states("informed").values())
        summary = network.faults.summary()
        assert summary["crash"] == 1
        assert summary["restart"] == 1

    def test_flood_heals_across_link_churn(self):
        churn = LinkChurn(
            schedule=(
                LinkChurnEvent(at=1, action="down", u=1, v=2),
                LinkChurnEvent(at=4, action="up", u=1, v=2),
            )
        )
        network = Network(
            path_graph(4),
            lambda node: Flood(0),
            fault_plan=FaultPlan(5, [churn], retry=RETRY),
        )
        network.run()
        assert all(network.states("informed").values())
        summary = network.faults.summary()
        assert summary["link_down"] == 1
        assert summary["link_up"] == 1
        assert summary.get("link_drop", 0) >= 1  # the cut actually bit
        assert summary.get("retry", 0) >= 1  # ...and retries healed it

    def test_convergence_error_carries_fault_ledger(self):
        network = Network(
            path_graph(3),
            lambda node: Spinner(),
            fault_plan=FaultPlan(3, [MessageFaults(drop=0.3)], retry=RETRY),
        )
        with pytest.raises(ConvergenceError) as excinfo:
            network.run(max_rounds=10)
        assert excinfo.value.fault_events
        assert excinfo.value.fault_events.get("drop", 0) >= 1
        assert "fault events" in str(excinfo.value)

    def test_retry_exhaustion_is_recorded(self):
        # drop everything, allow one retry: the token can never cross.
        plan = FaultPlan(
            9,
            [MessageFaults(drop=1.0)],
            retry=RetryPolicy(max_retries=1),
        )
        network = Network(path_graph(2), lambda node: Flood(0), fault_plan=plan)
        network.run()
        assert network.states("informed")[1] is False
        # One message: one retry, then one exhaustion record.
        assert network.faults.summary() == {
            "drop": 2, "retry": 1, "retry_exhausted": 1,
        }


class Recording(NodeAlgorithm):
    """Wraps an algorithm and keeps every message it is handed."""

    def __init__(self, inner, inboxes):
        self.inner = inner
        self.inboxes = inboxes

    def init(self, ctx):
        self.inner.init(ctx)

    def step(self, ctx):
        self.inboxes.extend(ctx.inbox)
        self.inner.step(ctx)


class TestMessageFates:
    """The one message-fate path: ``FaultSession.message_fates`` draws
    for every engine, and ``retry_due`` applies the retry policy."""

    @pytest.mark.parametrize(
        "injectors,k",
        [([CHAOS], 0), ([], 5), ([NodeCrashFaults(rate=0.5)], 5)],
    )
    def test_no_draw_without_messages_or_message_faults(self, injectors, k):
        session = FaultPlan(1, injectors).start()
        before = session.rng.bit_generator.state
        drop, copies, delay = session.message_fates(0, range(k), range(k))
        assert session.rng.bit_generator.state == before
        assert len(session.ledger) == 0
        assert not drop.any() and not delay.any()
        assert copies.tolist() == [1] * k

    def test_fate_rates_over_many_draws(self):
        k = 100_000
        fault = MessageFaults(drop=0.2, duplicate=0.3, delay=0.25, max_delay=3)
        session = FaultPlan(5, [fault]).start()
        drop, copies, delay = session.message_fates(
            0, np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64),
            nodes=["a", "b"],
        )
        delayed = delay > 0
        # One rule: a drop wins, then a delay (which carries no
        # duplicate), and only a prompt delivery can be duplicated.
        assert abs(drop.mean() - 0.2) < 0.01
        assert abs(delayed.mean() - 0.8 * 0.25) < 0.01
        assert abs((copies == 2).mean() - 0.8 * 0.75 * 0.3) < 0.01
        assert set(delay[delayed].tolist()) == {1, 2, 3}
        assert session.summary() == {
            "drop": int(drop.sum()),
            "delay": int(delayed.sum()),
            "duplicate": int((copies == 2).sum()),
        }

    def test_one_event_per_attempt_in_message_order(self):
        # Every attempt draws a duplicate, so each records exactly one
        # event — and a dropped or delayed one must not record it.
        session = FaultPlan(
            3,
            [MessageFaults(drop=0.4, duplicate=1.0), MessageFaults(delay=0.5)],
        ).start()
        k = 1000
        drop, copies, delay = session.message_fates(
            0, list(range(k)), [f"r{i}" for i in range(k)]
        )
        events = session.ledger.events
        assert [dict(e.detail)["sender"] for e in events] == list(range(k))
        for i, event in enumerate(events):
            assert dict(event.detail)["receiver"] == f"r{i}"
            if drop[i]:
                assert (event.kind, copies[i], delay[i]) == ("drop", 0, 0)
            elif delay[i]:
                assert (event.kind, copies[i]) == ("delay", 0)
            else:
                assert (event.kind, copies[i]) == ("duplicate", 2)

    def test_retry_due_backs_off_then_exhausts_once(self):
        plan = FaultPlan(0, retry=RetryPolicy(max_retries=2, max_delay=8))
        session = plan.start()
        due = session.retry_due(10, ["a", "b", "c"], ["x", "y", "z"], [0, 1, 2])
        assert due.tolist() == [11, 12, -1]
        assert session.ledger.lines() == [
            "0 t=10 retry attempt=1 receiver='x' sender='a'",
            "1 t=10 retry attempt=2 receiver='y' sender='b'",
            "2 t=10 retry_exhausted receiver='z' sender='c'",
        ]
        no_policy = FaultPlan(0).start()
        assert no_policy.retry_due(10, ["a"], ["x"], [0]).tolist() == [-1]
        assert len(no_policy.ledger) == 0

    @pytest.mark.parametrize("engine", ["Network", "AsyncNetwork", "VectorEngine"])
    def test_recorded_duplicates_are_delivered(self, engine):
        """The copies summed over ``duplicate`` events equal the extra
        copies the engine actually delivered (no ghost duplicates)."""
        graph = path_graph(6)
        heights = initial_heights(graph, 5)
        plan = FaultPlan(
            3, [MessageFaults(duplicate=1.0, delay=0.5)], retry=RetryPolicy(4)
        )
        seen = []
        if engine == "Network":
            network = Network(
                graph,
                lambda node: Recording(
                    LinkReversalAlgorithm(node == 5, heights[node]), seen
                ),
                fault_plan=plan,
            )
        elif engine == "AsyncNetwork":
            network = AsyncNetwork(
                path_graph(10),
                lambda node: Recording(Flood(0), seen),
                rng=np.random.default_rng(0),
                max_delay=2,
                fault_plan=FaultPlan(
                    7,
                    [MessageFaults(drop=0.5, duplicate=1.0)],
                    retry=RetryPolicy(8),
                ),
            )
        else:
            fg = graph.frozen()
            kernel = FullReversalKernel(
                fg.index_of(5),
                np.array([heights[node][0] for node in fg.node_list]),
                np.array([heights[node][1] for node in fg.node_list]),
            )
            network = VectorEngine(fg, kernel, fault_plan=plan)
            step = kernel.step

            def recording_step(round_number, active, slots, values):
                seen.extend(slots.tolist())
                return step(round_number, active, slots, values)

            kernel.step = recording_step
        network.run()
        if engine == "VectorEngine":
            # Duplicates are counted, not materialised, on the array plane.
            extra = network.stats.messages_sent - len(seen)
        else:
            extra = len(seen) - len({id(message) for message in seen})
        recorded = sum(
            dict(event.detail)["copies"]
            for event in network.faults.ledger.events
            if event.kind == "duplicate"
        )
        assert recorded > 0
        assert recorded == extra


def _digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _golden_plan(name, edges):
    """One of the four replay-pinned chaos plans over ``edges``."""
    retry = RetryPolicy(max_retries=16)
    messages = MessageFaults(drop=0.1, duplicate=0.05, delay=0.1)
    if name == "scheduled-churn":
        # Overlapping down intervals, so several links are down at once
        # while the default ``up=0.5`` draws their early recoveries.
        events = []
        for k, (u, v) in enumerate(edges[::4]):
            events.append(LinkChurnEvent(1 + k % 4, "down", u, v))
            events.append(LinkChurnEvent(6 + k % 5, "up", u, v))
        return FaultPlan(21, [messages, LinkChurn(schedule=tuple(events))], retry)
    if name == "random-churn":
        return FaultPlan(22, [messages, LinkChurn(down=0.05, up=0.3)], retry)
    if name == "reorder":
        return FaultPlan(
            23, [MessageFaults(drop=0.1, duplicate=0.2, reorder=0.5)], retry
        )
    crash = NodeCrashFaults(
        schedule=tuple(
            CrashEvent(node=u, at=1 + k, restart_at=4 + 2 * k, lose_state=True)
            for k, (u, _) in enumerate(edges[3::11])
        )
    )
    return FaultPlan(24, [messages, crash], retry)


def _golden_run(engine, name):
    """(ledger digest, rounds, messages, per-round digest, states digest)
    of one pinned chaos run: stale-sink link reversal on a small Gnutella
    SCC, or (the crash plan, whose amnesiac restarts full reversal does
    not survive) flooding from its lowest node."""
    from repro.datasets.gnutella import gnutella_largest_scc

    graph = gnutella_largest_scc(40, np.random.default_rng(3))
    nodes = sorted(graph.nodes())
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    plan = _golden_plan(name, edges)
    if name == "crash-restart":
        factory = lambda node: Flood(nodes[0])  # noqa: E731
    else:
        heights = initial_heights(graph, nodes[0])
        for node in nodes[5::7]:
            heights[node] = (-1, heights[node][-1])
        factory = lambda node: LinkReversalAlgorithm(  # noqa: E731
            node == nodes[0], heights[node]
        )
    if engine == "Network":
        network = Network(graph, factory, fault_plan=plan)
    else:
        network = AsyncNetwork(
            graph, factory, rng=np.random.default_rng(5), fault_plan=plan
        )
    stats = network.run()
    states = sorted(
        (node, sorted(state.items())) for node, state in network._state.items()
    )
    return (
        network.faults.ledger.digest()[:16],
        stats.rounds,
        stats.messages_sent,
        _digest(stats.messages_per_round),
        _digest(states),
    )


# Recorded before the scalar engines cached their schedules; any change
# in the order of fault draws (or of node activations) changes a digest.
GOLDEN_REPLAY = {
    ("Network", "scheduled-churn"):
        ("ce5a3788cb67ebbe", 10, 250, "ede88e212ca0e3a1", "ae658e38e7e0721c"),
    ("Network", "random-churn"):
        ("f799b54d8ddf9a98", 19, 260, "fc28603560f68797", "1153b72a6007d42c"),
    ("Network", "reorder"):
        ("ec0ba728a55eeb59", 5, 278, "10d09537dfd3b2ca", "f90bbbd99f2730c0"),
    ("Network", "crash-restart"):
        ("c1d53a94f621ed6f", 30, 312, "8e3fb167640038da", "55c450b70bcf5d93"),
    ("AsyncNetwork", "scheduled-churn"):
        ("8aef6c9071e5765f", 11, 258, "51269cc7d5b79141", "ae945f51865554fc"),
    ("AsyncNetwork", "random-churn"):
        ("029b3e5ae579687a", 26, 255, "bd779f72a683462b", "e1b5c2f405c70447"),
    ("AsyncNetwork", "reorder"):
        ("40aab174fcd6c917", 9, 281, "97893f363ee383ef", "f39f219dc747856d"),
    ("AsyncNetwork", "crash-restart"):
        ("ea036a8c684606fb", 30, 305, "a3a35c7a82607c11", "e1485ff5b9021267"),
}


class TestGoldenReplay:
    """Pinned ledgers, run statistics and final states per engine and plan."""

    @pytest.mark.parametrize("engine, name", sorted(GOLDEN_REPLAY))
    def test_replay_matches_recorded_run(self, engine, name):
        assert _golden_run(engine, name) == GOLDEN_REPLAY[engine, name]


def _protocol_factory(protocol, graph):
    """The per-node algorithm factory of one pinned protocol on
    ``graph``."""
    from repro.labeling.mis import MISAlgorithm, id_priorities
    from repro.labeling.nsf_labels import NSFLevelAlgorithm
    from repro.labeling.safety_distributed import SafetyLevelAlgorithm
    from repro.layering.link_reversal_distributed import (
        PartialReversalAlgorithm,
        lift_partial_heights,
    )

    nodes = sorted(graph.nodes())
    if protocol == "partial-reversal":
        heights = initial_heights(graph, nodes[0])
        for node in nodes[5::7]:
            heights[node] = (-1, heights[node][-1])
        heights = lift_partial_heights(heights)
        return lambda node: PartialReversalAlgorithm(  # noqa: E731
            node == nodes[0], heights[node]
        )
    if protocol == "mis":
        priorities = id_priorities(graph)
        return lambda node: MISAlgorithm(priorities[node])  # noqa: E731
    if protocol == "nsf-labels":
        return lambda node: NSFLevelAlgorithm()  # noqa: E731
    faulty = set(nodes[3::9])
    return lambda node: SafetyLevelAlgorithm(5, node in faulty)  # noqa: E731


def _protocol_run(engine, protocol, name):
    """The :func:`_golden_run` tuple of one protocol under one chaos
    plan, or, for a run that exhausts its 400-round budget,
    ``("ConvergenceError", ledger digest, rounds completed, messages
    sent, fault-summary digest)``.  Partial reversal, MIS and NSF
    labels run on the 40-node Gnutella SCC of :func:`_golden_run`,
    safety levels on Q_5."""
    from repro.datasets.gnutella import gnutella_largest_scc
    from repro.graphs.hypercube import binary_hypercube

    if protocol == "safety-levels":
        graph = binary_hypercube(5)
    else:
        graph = gnutella_largest_scc(40, np.random.default_rng(3))
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    plan = _golden_plan(name, edges)
    factory = _protocol_factory(protocol, graph)
    if engine == "Network":
        network = Network(graph, factory, fault_plan=plan)
    else:
        network = AsyncNetwork(
            graph, factory, rng=np.random.default_rng(5), fault_plan=plan
        )
    try:
        stats = network.run(400)
    except ConvergenceError as error:
        return (
            "ConvergenceError",
            network.faults.ledger.digest()[:16],
            error.rounds_completed,
            error.messages_sent,
            _digest(sorted(error.fault_events.items())),
        )
    states = sorted(
        (node, sorted(state.items(), key=repr))
        for node, state in network._state.items()
    )
    return (
        network.faults.ledger.digest()[:16],
        stats.rounds,
        stats.messages_sent,
        _digest(stats.messages_per_round),
        _digest(states),
    )


# Recorded with the engines as they stood before a round's work followed
# the awake nodes and the filled inboxes instead of every node: a change
# in the order of activations, fault draws or deliveries changes a digest.
# Partial reversal and safety levels do not survive the crash plan's
# amnesiac restarts within 400 rounds; those cells pin the failure.
PROTOCOL_REPLAY = {
    ("Network", "partial-reversal", "reorder"):
        ("f7d2cab0168b8b32", 8, 291, "2a823110e52e547a", "83de2aa944b11cd0"),
    ("Network", "partial-reversal", "scheduled-churn"):
        ("0e03f5f8fb577c39", 13, 262, "91b0720f0511ac33", "b341807eb49305e8"),
    ("Network", "partial-reversal", "random-churn"):
        ("041d45f05d71bb6f", 33, 274, "985b1d6dff45bc64", "e4b725d302f38b8e"),
    ("Network", "partial-reversal", "crash-restart"):
        ("ConvergenceError", "5fffe344343a16ca", 400, 347, "031a47060ea4b0e4"),
    ("Network", "mis", "reorder"):
        ("41fe10e8bca18fdc", 7, 804, "b13578f43e8841d8", "28b3e58e204c980a"),
    ("Network", "mis", "scheduled-churn"):
        ("0786a4ad15164066", 19, 760, "b44bde611b23c1ac", "e6c078d49e7336af"),
    ("Network", "mis", "random-churn"):
        ("5a7f8cd7f5c844d3", 30, 728, "a6f87d78f707e3ff", "3280dc16f9c43dfa"),
    ("Network", "mis", "crash-restart"):
        ("7e38a1cb30390618", 32, 856, "a0d82181d61c0047", "be2833417af34990"),
    ("Network", "safety-levels", "reorder"):
        ("315df784d0559877", 4, 196, "f076629059875fd2", "c2fa559a13d548e7"),
    ("Network", "safety-levels", "scheduled-churn"):
        ("dbde53abc971eb55", 10, 182, "d554eac618c65133", "495c449b6294dd53"),
    ("Network", "safety-levels", "random-churn"):
        ("818222aa035dcf7e", 8, 181, "3e0dbb6ff20b5c4f", "f989ee6a81957b83"),
    ("Network", "safety-levels", "crash-restart"):
        ("ConvergenceError", "1c972c5cb52ca894", 400, 217, "e9c03efd7ef9bddd"),
    ("Network", "nsf-labels", "reorder"):
        ("f823f59b37615c36", 20, 1124, "50e4785346248ddc", "5d741d0c420bbd9c"),
    ("Network", "nsf-labels", "scheduled-churn"):
        ("a5052a3c45feb248", 19, 1006, "8f676c5f3a55e994", "fb49e8f11c44704b"),
    ("Network", "nsf-labels", "random-churn"):
        ("dd9acaa1eeed9542", 56, 925, "fc3c265ba3f7297b", "ef610daf9684e7e8"),
    ("Network", "nsf-labels", "crash-restart"):
        ("f5a66c421f91f527", 38, 1096, "c46029b8f2375da4", "ba3204b821fd16f9"),
    ("AsyncNetwork", "partial-reversal", "reorder"):
        ("863575f815f311ea", 13, 297, "b3de43cb95f2c944", "7bcdddf4391bec80"),
    ("AsyncNetwork", "partial-reversal", "scheduled-churn"):
        ("ca1134fbdd399ac8", 12, 270, "55b0bddd6fee2f07", "9d1f271d33f2652f"),
    ("AsyncNetwork", "partial-reversal", "random-churn"):
        ("7d01e54ac043155a", 29, 267, "82162e9c798c24b0", "1b212825a6378068"),
    ("AsyncNetwork", "partial-reversal", "crash-restart"):
        ("ConvergenceError", "3037c63ed90fa06a", 400, 332, "627fcc236ff42208"),
    ("AsyncNetwork", "mis", "reorder"):
        ("897c538ab9ec4a32", 7, 770, "36d9386b2a2ba5f9", "b1bbdd871097a6f7"),
    ("AsyncNetwork", "mis", "scheduled-churn"):
        ("1e18a2b52b4a37f9", 19, 621, "8cbb3fc04683d77a", "74ded8f8032545b5"),
    ("AsyncNetwork", "mis", "random-churn"):
        ("44336496bdd3567d", 40, 676, "fcd686ec9bba8be0", "9eb20adafbec45c9"),
    ("AsyncNetwork", "mis", "crash-restart"):
        ("026a0333c9315435", 26, 732, "4ce8550ee33a090d", "cf9546d59722e94d"),
    ("AsyncNetwork", "safety-levels", "reorder"):
        ("f930fe79434b5e38", 7, 198, "e7aac9b1d4a947a7", "ab542a4862b1fd9e"),
    ("AsyncNetwork", "safety-levels", "scheduled-churn"):
        ("d6ed0fcedd614924", 10, 182, "3f4d39378cea4ba3", "93c18dfbaa0630b1"),
    ("AsyncNetwork", "safety-levels", "random-churn"):
        ("1754aec0a48cba6f", 21, 183, "227d829f941993b2", "ad185700b680e86a"),
    ("AsyncNetwork", "safety-levels", "crash-restart"):
        ("ConvergenceError", "85b1398a54365fd5", 400, 220, "d7f0c7467b4ad5ed"),
    ("AsyncNetwork", "nsf-labels", "reorder"):
        ("8128aba9246e763c", 14, 999, "249dd698126a3a59", "d2407c20e67290ed"),
    ("AsyncNetwork", "nsf-labels", "scheduled-churn"):
        ("05d313a7231bb45c", 24, 795, "b13db73d543b4a2c", "b08c0191fc5d78a5"),
    ("AsyncNetwork", "nsf-labels", "random-churn"):
        ("43c818abef28488a", 29, 871, "d25cd0e9fa7bf0f9", "440067d23705579f"),
    ("AsyncNetwork", "nsf-labels", "crash-restart"):
        ("ae97a8a748cf6b91", 37, 1026, "e6a8052f0c365f80", "23d86d6390031158"),
}


class TestProtocolReplay:
    """Pinned chaos runs of the other scalar protocols on both engines."""

    @pytest.mark.parametrize("engine, protocol, name", sorted(PROTOCOL_REPLAY))
    def test_replay_matches_recorded_run(self, engine, protocol, name):
        assert _protocol_run(engine, protocol, name) == PROTOCOL_REPLAY[
            engine, protocol, name
        ]


class _KeptPlan(FaultPlan):
    """A plan that keeps the session its engine started."""

    def start(self, registry=None):
        self.session = super().start(registry)
        return self.session


def _static_shape_ledgers():
    """(len, digest) per (reversal, fault seed) at the static-structures
    workload's plan shape: message faults, four scheduled churn pairs and
    ``RetryPolicy(16)`` for the scalar reversal, the message faults and
    the retry policy for the vector one."""
    from repro.datasets.gnutella import gnutella_largest_scc
    from repro.runtime.vector import vector_full_reversal

    graph = gnutella_largest_scc(60, np.random.default_rng(1))
    rng = np.random.default_rng([1, 1])
    nodes = sorted(graph.nodes())
    destination = nodes[0]
    stale = initial_heights(graph, destination)
    for node in nodes[5::7]:
        stale[node] = (-1, stale[node][-1])
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    messages = MessageFaults(drop=0.1, duplicate=0.05, delay=0.1)
    retry = RetryPolicy(max_retries=16)
    out = {}
    for fault_seed in range(2):
        events = []
        for k in rng.choice(len(edges), size=4, replace=False):
            u, v = edges[int(k)]
            down = int(rng.integers(1, 6))
            events.append(LinkChurnEvent(down, "down", u, v))
            events.append(LinkChurnEvent(down + int(rng.integers(1, 4)), "up", u, v))
        for reversal, plan in (
            (
                distributed_full_reversal,
                _KeptPlan(fault_seed, [messages, LinkChurn(schedule=tuple(events))], retry),
            ),
            (vector_full_reversal, _KeptPlan(fault_seed, [messages], retry)),
        ):
            reversal(graph, destination, stale, fault_plan=plan)
            ledger = plan.session.ledger
            out[reversal.__name__, fault_seed] = (len(ledger), ledger.digest()[:16])
    return out


# Recorded before the ledger stored plain rows and the fate calls
# recorded their events in bulk.
STATIC_SHAPE_LEDGERS = {
    ("distributed_full_reversal", 0): (168, "33c9fb214f41320b"),
    ("vector_full_reversal", 0): (159, "dd0e0d3bde98395e"),
    ("distributed_full_reversal", 1): (144, "507c29f8d10fcb2e"),
    ("vector_full_reversal", 1): (126, "8d00fa2526821900"),
}


def test_static_shape_ledgers_replay_byte_identical():
    assert _static_shape_ledgers() == STATIC_SHAPE_LEDGERS


def _mixed_plan(links):
    """Message faults, scheduled churn over ``links`` and retries."""
    events = []
    for k, (u, v) in enumerate(links):
        events.append(LinkChurnEvent(1 + k % 3, "down", u, v))
        events.append(LinkChurnEvent(5 + k % 4, "up", u, v))
    return _KeptPlan(
        9,
        [
            MessageFaults(drop=0.15, duplicate=0.1, delay=0.1, reorder=0.3),
            LinkChurn(schedule=tuple(events)),
        ],
        RetryPolicy(16),
    )


def _mixed_session(engine):
    """The fault session of one mixed-plan run on ``engine``."""
    if engine in ("Network", "AsyncNetwork"):
        from repro.datasets.gnutella import gnutella_largest_scc

        graph = gnutella_largest_scc(40, np.random.default_rng(3))
        nodes = sorted(graph.nodes())
        edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        plan = _mixed_plan(edges[::5])
        heights = initial_heights(graph, nodes[0])
        for node in nodes[5::7]:
            heights[node] = (-1, heights[node][-1])
        factory = lambda node: LinkReversalAlgorithm(  # noqa: E731
            node == nodes[0], heights[node]
        )
        if engine == "Network":
            Network(graph, factory, fault_plan=plan).run()
        else:
            AsyncNetwork(
                graph, factory, rng=np.random.default_rng(5), fault_plan=plan
            ).run()
    elif engine == "DTNSimulation":
        from tests.test_dtn_faults import run_epidemic, sparse_scenario

        eg, n = sparse_scenario()
        plan = _mixed_plan([(u, u + 1) for u in range(0, n - 1, 2)])
        run_epidemic(eg, n, plan)
    else:
        import asyncio

        from repro.serving import GraphService, ServingGateway
        from tests.test_gateway_incremental import serving_graph

        plan = _mixed_plan([(0, 1)])
        service = GraphService(serving_graph(seed=4), landmark_count=2)

        async def main():
            async with ServingGateway(
                service, max_batch=6, max_delay=0.002, faults=plan
            ) as gateway:
                await asyncio.gather(
                    *[gateway.distance(0, target % 30) for target in range(1, 49)]
                )

        asyncio.run(main())
    return plan.session


MIXED_ENGINES = ["Network", "AsyncNetwork", "DTNSimulation", "ServingGateway"]


class TestLedgerMirror:
    """Bulk-recorded fate calls keep the counters and the ledger equal,
    and the lazily built events honour the ledger's contract."""

    @pytest.mark.parametrize("engine", MIXED_ENGINES)
    def test_counters_mirror_ledger(self, engine):
        session = _mixed_session(engine)
        counts = session.ledger.counts()
        assert sum(counts.values()) == len(session.ledger) > 0
        counters = {
            name[len("repro.faults."):]: value
            for name, value in session.registry.snapshot().items()
            if name.startswith("repro.faults.")
        }
        assert counters == counts

    @pytest.mark.parametrize("engine", MIXED_ENGINES)
    def test_events_contract(self, engine):
        ledger = _mixed_session(engine).ledger
        events = ledger.events
        assert [event.seq for event in events] == list(range(len(ledger)))
        for event in events:
            keys = [key for key, _ in event.detail]
            assert keys == sorted(keys)
        assert ledger.lines() == [event.line() for event in events]
        assert ledger.events == events
