"""The synchronous message-passing engine and view oracles (Sec. IV)."""

import pytest

from repro.errors import ConvergenceError, NodeNotFoundError
from repro.graphs.generators import grid_2d, path_graph
from repro.graphs.graph import Graph
from repro.runtime.engine import Network, NodeAlgorithm
from repro.runtime.views import (
    DelayedViewOracle,
    MultiViewOracle,
    inconsistency_rate,
    k_hop_view,
    view_inconsistency,
)


class Flood(NodeAlgorithm):
    """Reference flooding algorithm used across engine tests."""

    def __init__(self, source):
        self.source = source

    def init(self, ctx):
        ctx.state["informed"] = ctx.node == self.source
        if ctx.state["informed"]:
            ctx.broadcast("token")

    def step(self, ctx):
        if ctx.inbox and not ctx.state["informed"]:
            ctx.state["informed"] = True
            ctx.broadcast("token")
        ctx.halt()

    def on_topology_change(self, ctx):
        # An informed node re-offers the token to (possibly new) neighbors.
        if ctx.state.get("informed"):
            ctx.broadcast("token")


class Spinner(NodeAlgorithm):
    """Never halts: used to exercise the convergence guard."""

    def step(self, ctx):
        ctx.broadcast("spin")


class TestEngine:
    def test_flood_informs_everyone(self):
        net = Network(grid_2d(4, 4), lambda n: Flood((0, 0)))
        stats = net.run()
        assert all(net.states("informed").values())
        # BFS depth of a 4x4 grid from a corner is 6; +1 halting round slack.
        assert stats.rounds <= 8

    def test_message_accounting(self):
        net = Network(path_graph(3), lambda n: Flood(0))
        stats = net.run()
        assert stats.messages_sent >= 2
        assert len(stats.messages_per_round) >= stats.rounds

    def test_send_to_non_neighbor_rejected(self):
        class Bad(NodeAlgorithm):
            def init(self, ctx):
                ctx.send("not-a-neighbor", "x")

        net = Network(path_graph(2), lambda n: Bad())
        with pytest.raises(ValueError):
            net.initialize()

    def test_convergence_guard(self):
        net = Network(path_graph(3), lambda n: Spinner())
        with pytest.raises(ConvergenceError):
            net.run(max_rounds=10)

    def test_halted_node_wakes_on_message(self):
        net = Network(path_graph(4), lambda n: Flood(0))
        net.run()
        assert net.states("informed")[3] is True

    def test_states_snapshot(self):
        net = Network(path_graph(3), lambda n: Flood(0))
        net.run()
        snapshot = net.states("informed", default=False)
        assert set(snapshot) == {0, 1, 2}

    def test_state_of_missing_node(self):
        net = Network(path_graph(2), lambda n: Flood(0))
        with pytest.raises(NodeNotFoundError):
            net.state_of("ghost")

    def test_add_edge_midway_wakes_nodes(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_node(2)  # isolated: flooding cannot reach it
        net = Network(g, lambda n: Flood(0))
        net.run()
        assert net.states("informed")[2] is False
        net.add_edge(1, 2)
        net.run()
        assert net.states("informed")[2] is True

    def test_add_node_installs_algorithm(self):
        net = Network(path_graph(2), lambda n: Flood(0))
        net.run()
        net.add_node(99)
        net.add_edge(1, 99)
        net.run()
        assert net.states("informed")[99] is True

    def test_remove_node_cleans_state(self):
        net = Network(path_graph(3), lambda n: Flood(0))
        net.run()
        net.remove_node(2)
        assert 2 not in net.states("informed")


class TestViews:
    def test_k_hop_view(self):
        g = path_graph(5)
        assert k_hop_view(g, 0, 2) == {1, 2}

    def test_delayed_oracle_serves_stale_view(self):
        g1 = path_graph(3)          # 0-1-2
        g2 = path_graph(3)
        g2.remove_edge(1, 2)        # link breaks
        oracle = DelayedViewOracle(k=1, delay=1)
        oracle.observe(g1)
        oracle.observe(g2)
        # Node 1 still believes 2 is a neighbor (stale by one snapshot).
        assert oracle.view(1) == {0, 2}
        missing, stale = view_inconsistency(g2, oracle.view(1), 1, 1)
        assert stale == {2}
        assert missing == set()

    def test_zero_delay_consistent(self):
        g = path_graph(4)
        oracle = DelayedViewOracle(k=2, delay=0)
        oracle.observe(g)
        missing, stale = view_inconsistency(g, oracle.view(0), 0, 2)
        assert not missing and not stale

    def test_oracle_requires_snapshot(self):
        oracle = DelayedViewOracle(k=1, delay=0)
        with pytest.raises(ValueError):
            oracle.view(0)

    def test_inconsistency_rate_zero_when_static(self):
        snapshots = [path_graph(5) for _ in range(5)]
        assert inconsistency_rate(snapshots, k=1, delay=2) == 0.0

    def test_inconsistency_rate_positive_when_changing(self):
        snapshots = []
        for i in range(6):
            g = path_graph(5)
            if i % 2 == 0:
                g.remove_edge(2, 3)
            snapshots.append(g)
        assert inconsistency_rate(snapshots, k=1, delay=1) > 0.0

    def test_multi_view_conservative_vs_optimistic(self):
        g1 = path_graph(3)
        g2 = path_graph(3)
        g2.remove_edge(1, 2)
        oracle = MultiViewOracle(k=1, window=2)
        oracle.observe(g1)
        oracle.observe(g2)
        assert oracle.conservative_view(1) == {0}
        assert oracle.optimistic_view(1) == {0, 2}

    def test_multi_view_missing_node(self):
        oracle = MultiViewOracle(k=1, window=2)
        with pytest.raises(NodeNotFoundError):
            oracle.conservative_view("ghost")


class TestEngineParity:
    """The sync and async engines are interchangeable observably."""

    def test_runstats_metric_keys_identical_across_engines(self):
        import numpy as np

        from repro.runtime.async_engine import AsyncNetwork

        sync = Network(path_graph(4), lambda n: Flood(0))
        sync.run()
        async_net = AsyncNetwork(
            path_graph(4), lambda n: Flood(0), rng=np.random.default_rng(0)
        )
        async_net.run()
        # Same RunStats accounting surface: dashboards and differential
        # tests can swap engines without key remapping.
        assert set(sync.metrics.snapshot()) == set(async_net.metrics.snapshot())
        assert sync.states("informed") == async_net.states("informed")

    def test_runstats_keys_identical_under_fault_plans(self):
        import numpy as np

        from repro.faults import FaultPlan, MessageFaults, RetryPolicy
        from repro.runtime.async_engine import AsyncNetwork

        plan = FaultPlan(6, [MessageFaults(drop=0.1)], retry=RetryPolicy())
        sync = Network(path_graph(4), lambda n: Flood(0), fault_plan=plan)
        sync.run()
        async_net = AsyncNetwork(
            path_graph(4),
            lambda n: Flood(0),
            rng=np.random.default_rng(0),
            fault_plan=plan,
        )
        async_net.run()
        sync_keys = {k for k in sync.metrics.snapshot() if not k.startswith("repro.faults.")}
        async_keys = {k for k in async_net.metrics.snapshot() if not k.startswith("repro.faults.")}
        assert sync_keys == async_keys


    def test_async_state_of_missing_node(self):
        import numpy as np

        from repro.runtime.async_engine import AsyncNetwork

        net = AsyncNetwork(path_graph(2), lambda n: Flood(0), rng=np.random.default_rng(0))
        with pytest.raises(NodeNotFoundError):
            net.state_of("ghost")

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
    @pytest.mark.parametrize("engine", ["sync", "async", "vector"])
    def test_cut_off_run_carries_its_context(self, engine, faulty):
        """Every engine's run loop reports how far a run got when
        ``max_rounds`` cuts it off, and the ledger totals under a plan."""
        import numpy as np

        from repro.faults import FaultPlan, MessageFaults, RetryPolicy
        from repro.runtime.async_engine import AsyncNetwork
        from repro.runtime.vector import ArrayKernel, VectorEngine

        class Chatterbox(ArrayKernel):
            """Every row re-broadcasts each round and never halts."""

            def init(self):
                return np.arange(self.engine.n), (np.zeros(self.engine.n, dtype=np.int64),)

            def step(self, round_number, active, slots, values):
                self.halted[active] = False
                return active, (np.zeros(self.engine.n, dtype=np.int64),)

        plan = (
            FaultPlan(3, [MessageFaults(drop=0.3)], retry=RetryPolicy())
            if faulty else None
        )
        graph = path_graph(4)
        if engine == "sync":
            network = Network(graph, lambda n: Spinner(), fault_plan=plan)
        elif engine == "async":
            network = AsyncNetwork(
                graph, lambda n: Spinner(), rng=np.random.default_rng(0), fault_plan=plan
            )
        else:
            network = VectorEngine(graph.frozen(), Chatterbox(), fault_plan=plan)
        with pytest.raises(ConvergenceError) as excinfo:
            network.run(5)
        error = excinfo.value
        assert error.rounds == 5
        assert error.rounds_completed == network.stats.rounds == 5
        assert error.messages_sent == network.stats.messages_sent > 0
        if faulty:
            assert error.fault_events == network.faults.summary()
            assert error.fault_events.get("drop", 0) >= 1
            assert "fault events" in str(error)
        else:
            assert error.fault_events is None


class ReprCountingPayload:
    """Payload that records every ``repr`` call against it."""

    calls = 0

    def __repr__(self):
        type(self).calls += 1
        return "ReprCountingPayload()"


class PayloadFlood(Flood):
    """Flood variant whose token is a repr-instrumented object."""

    def init(self, ctx):
        ctx.state["informed"] = ctx.node == self.source
        if ctx.state["informed"]:
            ctx.broadcast(ReprCountingPayload())

    def step(self, ctx):
        if ctx.inbox and not ctx.state["informed"]:
            ctx.state["informed"] = True
            ctx.broadcast(ReprCountingPayload())
        ctx.halt()


class TestMessageSizeAccounting:
    """Message counting never pays a per-payload ``repr`` (regression
    pin for the message-size accounting fix)."""

    def test_default_run_never_reprs_payloads(self):
        ReprCountingPayload.calls = 0
        net = Network(path_graph(6), lambda n: PayloadFlood(0))
        net.run()
        assert all(net.states("informed").values())
        assert ReprCountingPayload.calls == 0

    def test_default_faulty_run_never_reprs_payloads(self):
        from repro.faults import FaultPlan, MessageFaults, RetryPolicy

        ReprCountingPayload.calls = 0
        plan = FaultPlan(
            3, [MessageFaults(drop=0.2, delay=0.2, duplicate=0.1)],
            retry=RetryPolicy(),
        )
        net = Network(path_graph(6), lambda n: PayloadFlood(0), fault_plan=plan)
        net.run()
        assert all(net.states("informed").values())
        assert ReprCountingPayload.calls == 0


class NeighborProbe(NodeAlgorithm):
    """Records, at every activation, ``ctx.neighbors`` next to the
    repr-sorted neighborhood of the engine's graph at that moment."""

    def __init__(self, engine, seen, rounds=3):
        self.engine = engine  # holder: engine["net"] is set after construction
        self.seen = seen
        self.rounds = rounds

    def _record(self, ctx):
        graph = self.engine["net"].graph
        expected = tuple(sorted(graph.neighbors(ctx.node), key=repr))
        self.seen.append((ctx.node, ctx.neighbors, expected))

    def init(self, ctx):
        self._record(ctx)
        ctx.broadcast("hello")

    def step(self, ctx):
        self._record(ctx)
        if ctx.round_number >= self.rounds:
            ctx.halt()

    def on_topology_change(self, ctx):
        self._record(ctx)


class Chatter(NodeAlgorithm):
    """Broadcasts every round until ``rounds``, then halts."""

    def __init__(self, rounds):
        self.rounds = rounds

    def init(self, ctx):
        ctx.broadcast("chat")

    def step(self, ctx):
        if ctx.round_number < self.rounds:
            ctx.broadcast("chat")
        else:
            ctx.halt()


class TestScheduleCache:
    """Neighborhoods and orders are cached per topology generation."""

    def _probe_network(self, seen, graph=None):
        engine = {}
        net = Network(graph or grid_2d(3, 3), lambda n: NeighborProbe(engine, seen))
        engine["net"] = net
        return net

    def test_neighbors_follow_every_topology_change(self):
        seen = []
        net = self._probe_network(seen)
        net.run()
        net.add_edge((0, 0), (2, 2))
        net.run()
        net.remove_edge((0, 0), (0, 1))
        net.run()
        net.add_node("x")
        net.add_edge("x", (1, 1))
        net.run()
        net.remove_node((2, 1))
        net.run()
        assert seen and all(got == expected for _, got, expected in seen)
        # The removal's notifications, then one step each.
        assert [node for node, _, _ in seen[-6:]] == [(1, 1), (2, 0), (2, 2)] * 2
        assert ("x", ((1, 1),), ((1, 1),)) in seen

    @pytest.mark.parametrize("engine", ["Network", "AsyncNetwork"])
    def test_direct_graph_mutation_invalidates(self, engine):
        import numpy as np

        from repro.runtime.async_engine import AsyncNetwork

        seen = []
        holder = {}
        factory = lambda n: NeighborProbe(holder, seen, rounds=4)  # noqa: E731
        if engine == "Network":
            net = Network(grid_2d(3, 3), factory)
            advance = net.step_round
        else:
            net = AsyncNetwork(grid_2d(3, 3), factory, rng=np.random.default_rng(0))
            advance = net.step_tick
        holder["net"] = net
        net.initialize()
        advance()
        net.graph.add_edge((0, 0), (2, 2))
        net.graph.remove_edge((1, 1), (1, 2))
        advance()
        net.run()
        assert all(got == expected for _, got, expected in seen)
        assert any(
            node == (0, 0) and (2, 2) in got for node, got, _ in seen
        )

    def test_faulted_run_builds_each_ordering_once(self):
        from collections import Counter

        from repro.faults import (
            FaultPlan,
            LinkChurn,
            LinkChurnEvent,
            MessageFaults,
            RetryPolicy,
        )

        graph = grid_2d(4, 4)
        churn = LinkChurn(
            schedule=(
                LinkChurnEvent(1, "down", (0, 0), (0, 1)),
                LinkChurnEvent(6, "up", (0, 0), (0, 1)),
            )
        )
        plan = FaultPlan(
            4,
            [MessageFaults(drop=0.2, delay=0.2, reorder=0.5), churn],
            retry=RetryPolicy(max_retries=16),
        )
        net = Network(graph, lambda n: Chatter(rounds=5), fault_plan=plan)
        calls = Counter()
        for name in ("neighbors", "nodes", "edges"):
            method = getattr(net.graph, name)

            def counted(*args, _name=name, _method=method):
                calls[_name, args] += 1
                return _method(*args)

            setattr(net.graph, name, counted)
        stats = net.run()
        assert stats.rounds > 5
        assert net.faults.summary()["link_down"] == 1
        # One neighborhood tuple per node, one node and one edge order,
        # however many rounds and activations the run took.
        neighbor_calls = {
            args[0]: n for (name, args), n in calls.items() if name == "neighbors"
        }
        assert neighbor_calls == {node: 1 for node in graph.nodes()}
        assert calls["nodes", ()] == 1
        assert calls["edges", ()] == 1


class CountingInboxes(dict):
    """Inbox-table proxy that counts node visits: one per keyed access,
    and one per node for a scan of the whole table."""

    def __init__(self, inboxes):
        super().__init__(inboxes)
        self.visits = 0

    def __getitem__(self, node):
        self.visits += 1
        return super().__getitem__(node)

    def get(self, node, default=None):
        self.visits += 1
        return super().get(node, default)

    def __contains__(self, node):
        self.visits += 1
        return super().__contains__(node)

    def __iter__(self):
        self.visits += len(self)
        return super().__iter__()

    def keys(self):
        self.visits += len(self)
        return super().keys()

    def values(self):
        self.visits += len(self)
        return super().values()

    def items(self):
        self.visits += len(self)
        return super().items()


class TestRoundWork:
    """A round costs in proportion to its awake and inboxed nodes."""

    def test_round_visits_follow_activity_not_size(self):
        """On a 1,000-node path every node halts in ``init`` but one,
        which chats with its two neighbors for 50 rounds.  Each round
        (its quiescence check included) visits at most four inbox
        entries per node it activates: the running talker and the two
        neighbors its messages wake."""
        from collections import Counter

        n, talker, rounds = 1000, 500, 50
        activations = Counter()

        class Quiet(NodeAlgorithm):
            def init(self, ctx):
                ctx.halt()

            def step(self, ctx):
                activations[ctx.round_number] += 1
                ctx.halt()

        class Talker(Chatter):
            def step(self, ctx):
                activations[ctx.round_number] += 1
                super().step(ctx)

        net = Network(
            path_graph(n), lambda node: Talker(rounds) if node == talker else Quiet()
        )
        net.initialize()
        net._inboxes = inboxes = CountingInboxes(net._inboxes)
        visits = {}
        for round_number in range(1, 2 * rounds):
            inboxes.visits = 0
            if net._quiescent():
                break
            net.step_round()
            visits[round_number] = inboxes.visits
        assert net._quiescent()
        assert sorted(visits) == list(range(1, rounds + 1))
        assert net.stats.messages_sent == 2 * rounds
        for round_number, count in visits.items():
            assert 0 < count <= 4 * activations[round_number], round_number
        assert sum(visits.values()) < n


class TestMessage:
    """``Message`` keeps the contract of the dataclass it replaced."""

    def test_dataclass_contract(self):
        from repro.runtime import Message as Exported
        from repro.runtime.engine import Message

        assert Exported is Message
        payload = ("height", (3, 1))
        message = Message(1, 2, payload)
        assert message == Message(1, 2, ("height", (3, 1)))
        assert message == Message(sender=1, receiver=2, payload=payload)
        assert message != Message(0, 2, payload)
        assert message != Message(1, 0, payload)
        assert message != Message(1, 2, ("height", (4, 1)))
        assert message != (1, 2, payload)
        assert (message.sender, message.receiver, message.payload) == (1, 2, payload)
        assert repr(message) == "Message(sender=1, receiver=2, payload=('height', (3, 1)))"
        with pytest.raises(TypeError):
            hash(message)
        assert not hasattr(message, "__dict__")
