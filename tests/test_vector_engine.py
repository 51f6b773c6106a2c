"""Scalar-vs-vector differential suite for the bulk-synchronous plane.

The contract under test (``repro.runtime.vector``): for every protocol
family, every topology, and every seed, a fault-free vector run matches
the scalar :class:`~repro.runtime.engine.Network` **bit-exactly** —
final state, round count, total messages, and per-round message counts
(``RunStats`` equality) — and a chaos run under the same seeded
:class:`~repro.faults.FaultPlan` replays the scalar run exactly: equal
``RunStats``, equal final state and the same fault-ledger digest, at
the fault-free fixpoint whenever no retry was exhausted.  Topologies
run from 7 to 48 nodes, so the consumer kernels (one frozen path each)
are checked on small and mid-size graphs alike.
"""

import numpy as np
import pytest

from repro.errors import AlgorithmError, ConvergenceError
from repro.faults import (
    CrashEvent,
    FaultPlan,
    LinkChurn,
    MessageFaults,
    NodeCrashFaults,
    RetryPolicy,
)
from repro.graphs.generators import (
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.hypercube import binary_addresses, binary_hypercube
from repro.labeling.mis import MISAlgorithm, distributed_mis, id_priorities
from repro.labeling.safety import compute_safety_levels
from repro.labeling.safety_distributed import (
    SafetyLevelAlgorithm,
    distributed_safety_levels,
)
from repro.layering.link_reversal import initial_heights, paper_fig4_graph
from repro.layering.link_reversal_distributed import (
    LinkReversalAlgorithm,
    PartialReversalAlgorithm,
    distributed_full_reversal,
    distributed_partial_reversal,
    lift_partial_heights,
)
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.observability.telemetry import dispatch_counts
from repro.runtime.engine import Network
from repro.runtime.vector import (
    FullReversalKernel,
    MISKernel,
    PartialReversalKernel,
    SafetyLevelKernel,
    VectorEngine,
    hypercube_frozen,
    vector_full_reversal,
    vector_mis,
    vector_partial_reversal,
    vector_safety_levels,
)

CHAOS = MessageFaults(drop=0.1, duplicate=0.05, reorder=0.2)
RETRY = RetryPolicy(max_retries=10)
SEEDS = range(3)


@pytest.fixture
def registry():
    fresh = MetricsRegistry("test-vector")
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def topologies(seed):
    """Named graphs from 7 to 48 nodes."""
    rng = np.random.default_rng(seed)
    return [
        ("path-small", path_graph(9)),
        ("star-small", star_graph(7)),
        ("path-large", path_graph(40)),
        ("random-large", random_connected_graph(48, 0.08, rng=rng)),
        ("hypercube", binary_hypercube(4)),
    ]


def stale_heights(graph, destination, seed):
    """BFS heights with a few nodes knocked below their neighbors —
    the post-topology-change repair workload."""
    heights = initial_heights(graph, destination)
    nodes = [node for node in sorted(graph.nodes(), key=repr) if node != destination]
    rng = np.random.default_rng(seed)
    for node in rng.choice(len(nodes), size=min(3, len(nodes)), replace=False):
        stale = nodes[int(node)]
        heights[stale] = (-1, heights[stale][-1])
    return heights


def full_reversal_stats(graph, destination, heights):
    network = Network(
        graph,
        lambda node: LinkReversalAlgorithm(node == destination, heights[node]),
    )
    scalar = network.run(max_rounds=100_000)
    fg = graph.frozen()
    nodes = fg.node_list
    kernel = FullReversalKernel(
        fg.index_of(destination),
        np.array([heights[node][0] for node in nodes], dtype=np.int64),
        np.array([heights[node][-1] for node in nodes], dtype=np.int64),
    )
    engine = VectorEngine(fg, kernel)
    vector = engine.run(max_rounds=100_000)
    scalar_state = {
        node: (
            tuple(network.state_of(node)["height"]),
            network.state_of(node)["reversals"],
        )
        for node in graph.nodes()
    }
    vector_state = {
        nodes[i]: (
            (int(kernel.level[i]), int(kernel.tie[i])),
            int(kernel.reversals[i]),
        )
        for i in range(fg.n)
    }
    return scalar, vector, scalar_state, vector_state


class TestFullReversalParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_round_and_message_parity(self, seed):
        for name, graph in topologies(seed):
            nodes = sorted(graph.nodes(), key=repr)
            destination = nodes[-1]
            heights = stale_heights(graph, destination, seed)
            scalar, vector, s_state, v_state = full_reversal_stats(
                graph, destination, heights
            )
            assert s_state == v_state, name
            assert scalar == vector, (name, scalar, vector)

    def test_wrapper_matches_scalar_wrapper(self):
        graph, destination, heights = paper_fig4_graph()
        s_orient, s_heights, s_rev, s_rounds = distributed_full_reversal(
            graph, destination, heights
        )
        v_orient, v_heights, v_rev, v_rounds = vector_full_reversal(
            graph, destination, heights
        )
        assert s_heights == v_heights
        assert s_rev == v_rev
        assert s_rounds == v_rounds
        assert v_orient.is_destination_oriented(destination)


class TestPartialReversalParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_round_and_message_parity(self, seed):
        for name, graph in topologies(seed):
            nodes = sorted(graph.nodes(), key=repr)
            destination = nodes[-1]
            heights = lift_partial_heights(
                stale_heights(graph, destination, seed)
            )
            network = Network(
                graph,
                lambda node: PartialReversalAlgorithm(
                    node == destination, heights[node]
                ),
            )
            scalar = network.run(max_rounds=100_000)
            fg = graph.frozen()
            fg_nodes = fg.node_list
            kernel = PartialReversalKernel(
                fg.index_of(destination),
                np.array([heights[node][0] for node in fg_nodes]),
                np.array([heights[node][1] for node in fg_nodes]),
                np.array([heights[node][2] for node in fg_nodes]),
            )
            engine = VectorEngine(fg, kernel)
            vector = engine.run(max_rounds=100_000)
            assert scalar == vector, (name, scalar, vector)
            for i, node in enumerate(fg_nodes):
                assert tuple(network.state_of(node)["height"]) == (
                    int(kernel.a[i]),
                    int(kernel.b[i]),
                    int(kernel.ids[i]),
                ), name

    def test_wrapper_matches_scalar_wrapper(self):
        graph, destination, heights = paper_fig4_graph()
        s_orient, s_heights, s_rev, s_rounds = distributed_partial_reversal(
            graph, destination, heights
        )
        v_orient, v_heights, v_rev, v_rounds = vector_partial_reversal(
            graph, destination, heights
        )
        assert s_heights == v_heights
        assert s_rev == v_rev
        assert s_rounds == v_rounds
        assert v_orient.is_destination_oriented(destination)


class TestSafetyLevelParity:
    @pytest.mark.parametrize("dimension", [3, 4, 5])
    def test_state_round_and_message_parity(self, dimension):
        addresses = list(binary_addresses(dimension))
        rng = np.random.default_rng(dimension)
        faulty = {
            addresses[int(i)]
            for i in rng.choice(
                len(addresses), size=max(2, dimension), replace=False
            )
        }
        network = Network(
            binary_hypercube(dimension),
            lambda node: SafetyLevelAlgorithm(dimension, node in faulty),
        )
        scalar = network.run()
        fg = hypercube_frozen(dimension)
        kernel = SafetyLevelKernel(
            dimension,
            np.array([node in faulty for node in fg.node_list]),
        )
        engine = VectorEngine(fg, kernel)
        vector = engine.run()
        assert scalar == vector
        levels = {
            fg.node_list[i]: int(kernel.level[i]) for i in range(fg.n)
        }
        assert network.states("level") == levels

    def test_wrapper_matches_scalar_wrapper_and_round_bound(self):
        addresses = list(binary_addresses(4))
        faulty = [addresses[1], addresses[6], addresses[11]]
        s_levels, s_rounds = distributed_safety_levels(4, faulty)
        v_levels, v_rounds = vector_safety_levels(4, faulty)
        assert s_levels == v_levels
        assert s_rounds == v_rounds
        # Paper bound: at most n − 1 level-refinement rounds (plus the
        # constant exchange-and-confirm overhead both engines share).
        assert v_rounds <= (2 ** 4 - 1) + 2


class TestMISParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_round_and_message_parity(self, seed):
        for name, graph in topologies(seed):
            priorities = id_priorities(graph)
            network = Network(
                graph, lambda node: MISAlgorithm(priorities[node])
            )
            scalar = network.run()
            fg = graph.frozen()
            kernel = MISKernel(
                np.array([priorities[node] for node in fg.node_list])
            )
            engine = VectorEngine(fg, kernel)
            vector = engine.run()
            assert scalar == vector, (name, scalar, vector)
            colors = {0: "white", 1: "black", 2: "gray"}
            vector_colors = {
                fg.node_list[i]: colors[int(kernel.color[i])]
                for i in range(fg.n)
            }
            assert network.states("color") == vector_colors, name

    def test_wrapper_matches_scalar_wrapper(self):
        graph = random_connected_graph(40, 0.1, rng=np.random.default_rng(2))
        s_black, s_rounds = distributed_mis(graph)
        v_black, v_rounds = vector_mis(graph)
        assert s_black == v_black
        assert s_rounds == v_rounds


def reversal_case(protocol, topology, seed):
    """Scalar algorithm, vector kernel and state readers for one link-
    reversal cell, on graphs whose repr order differs from index order
    (int labels past 9) or is tuple-valued (the hypercube)."""
    graph = {
        "path-large": lambda: path_graph(40),
        "random-large": lambda: random_connected_graph(
            48, 0.08, rng=np.random.default_rng(seed)
        ),
        "hypercube": lambda: binary_hypercube(4),
    }[topology]()
    destination = sorted(graph.nodes(), key=repr)[-1]
    heights = stale_heights(graph, destination, seed)
    fg = graph.frozen()
    target = fg.index_of(destination)
    if protocol == "full-reversal":
        column = lambda k: np.array([heights[node][k] for node in fg.node_list])
        return (
            graph,
            lambda node: LinkReversalAlgorithm(node == destination, heights[node]),
            fg,
            lambda: FullReversalKernel(target, column(0), column(-1)),
            lambda network, node: (
                tuple(network.state_of(node)["height"]),
                network.state_of(node)["reversals"],
            ),
            lambda kernel, i: (
                (int(kernel.level[i]), int(kernel.tie[i])),
                int(kernel.reversals[i]),
            ),
        )
    heights = lift_partial_heights(heights)
    column = lambda k: np.array([heights[node][k] for node in fg.node_list])
    return (
        graph,
        lambda node: PartialReversalAlgorithm(node == destination, heights[node]),
        fg,
        lambda: PartialReversalKernel(target, column(0), column(1), column(2)),
        lambda network, node: (
            tuple(network.state_of(node)["height"]),
            network.state_of(node)["reversals"],
        ),
        lambda kernel, i: (
            (int(kernel.a[i]), int(kernel.b[i]), int(kernel.ids[i])),
            int(kernel.reversals[i]),
        ),
    )


def safety_case(seed):
    """The safety-level cell: the 4-cube with a seeded faulty set."""
    dimension = 4
    addresses = list(binary_addresses(dimension))
    rng = np.random.default_rng(seed)
    faulty = {addresses[int(i)] for i in rng.choice(len(addresses), 3, replace=False)}
    fg = hypercube_frozen(dimension)
    return (
        binary_hypercube(dimension),
        lambda node: SafetyLevelAlgorithm(dimension, node in faulty),
        fg,
        lambda: SafetyLevelKernel(
            dimension, np.array([node in faulty for node in fg.node_list])
        ),
        lambda network, node: network.state_of(node)["level"],
        lambda kernel, i: int(kernel.level[i]),
    )


CHAOS_PLANS = {
    "chaos": lambda seed: FaultPlan(seed, [CHAOS], retry=RETRY),
    "drop-delay-dup": lambda seed: FaultPlan(
        seed, [MessageFaults(drop=0.2, duplicate=0.1, delay=0.2)], retry=RETRY
    ),
    "exhaustion": lambda seed: FaultPlan(
        seed,
        [MessageFaults(drop=0.3, duplicate=0.1, delay=0.1)],
        retry=RetryPolicy(max_retries=1),
    ),
}
CHAOS_CELLS = [
    (protocol, topology)
    for protocol in ("full-reversal", "partial-reversal")
    for topology in ("path-large", "random-large", "hypercube")
] + [("safety-levels", "hypercube")]


def run_to_quiescence(engine, max_rounds=500):
    """(stats, converged): an exhausted retry can strand a protocol
    waiting forever, and then both engines must strand identically."""
    try:
        engine.run(max_rounds=max_rounds)
    except ConvergenceError:
        return engine.stats, False
    return engine.stats, True


class TestChaosOnVectorEngine:
    """Scalar and vector chaos runs replay the same fault ledger."""

    @pytest.mark.parametrize("plan", sorted(CHAOS_PLANS))
    @pytest.mark.parametrize("protocol,topology", CHAOS_CELLS)
    @pytest.mark.parametrize("seed", range(8))
    def test_ledger_exact_replay_across_engines(self, protocol, topology, plan, seed):
        if protocol == "safety-levels":
            case = safety_case(seed)
        else:
            case = reversal_case(protocol, topology, seed)
        graph, algorithm, fg, kernel, scalar_state, vector_state = case

        def states(fault_plan):
            network = Network(graph, algorithm, fault_plan=fault_plan)
            scalar = run_to_quiescence(network)
            engine = VectorEngine(fg, kernel(), fault_plan=fault_plan)
            vector = run_to_quiescence(engine)
            assert scalar == vector
            # Each known belief slot is counted once for its row, however
            # many copies of a message reached it in one round.
            known = engine.kernel._known
            assert np.array_equal(
                engine.kernel._known_count,
                np.bincount(engine.src[known], minlength=engine.n),
            )
            s_state = {node: scalar_state(network, node) for node in graph.nodes()}
            v_state = {
                node: vector_state(engine.kernel, i)
                for i, node in enumerate(fg.node_list)
            }
            assert s_state == v_state
            return network.faults, engine, s_state, scalar[1]

        _, _, fixpoint, _ = states(None)
        s_faults, engine, faulty_state, converged = states(CHAOS_PLANS[plan](seed))
        assert s_faults.ledger.digest() == engine.faults.ledger.digest()
        summary = engine.faults.summary()
        snapshot = engine.metrics.snapshot()
        for kind, count in summary.items():
            assert snapshot[f"repro.faults.{kind}"] == count
        assert summary.get("drop", 0) > 0
        exhausted = summary.get("retry_exhausted", 0)
        if plan == "exhaustion":
            assert exhausted
        else:
            assert not exhausted
            assert converged
            assert faulty_state == fixpoint

    def test_entry_points_pass_the_plan_through(self):
        """The vector wrappers under chaos equal the scalar wrappers
        under the same plan, which reach the fault-free fixpoint."""
        from repro.labeling.safety import paper_fig9_faults

        plan = FaultPlan(42, [CHAOS], retry=RETRY)
        graph, destination, heights = paper_fig4_graph()
        for scalar, vector in (
            (distributed_full_reversal, vector_full_reversal),
            (distributed_partial_reversal, vector_partial_reversal),
        ):
            clean = scalar(graph, destination, heights)[1:3]
            s_result = scalar(graph, destination, heights, fault_plan=plan)
            v_result = vector(graph, destination, heights, fault_plan=plan)
            assert v_result[1:] == s_result[1:]
            assert v_result[1:3] == clean
            assert v_result[0].is_destination_oriented(destination)
        dimension, faulty = paper_fig9_faults()
        levels = vector_safety_levels(dimension, faulty, fault_plan=plan)
        assert levels == distributed_safety_levels(dimension, faulty, fault_plan=plan)
        assert levels[0] == compute_safety_levels(dimension, faulty).levels

    def test_crash_and_churn_plans_are_rejected(self):
        fg = path_graph(8).frozen()
        heights = {i: (8 - i, i) for i in range(8)}
        for injector in (
            NodeCrashFaults(schedule=(CrashEvent(node=3, at=1),)),
            LinkChurn(down=0.1),
        ):
            kernel = FullReversalKernel(
                0,
                np.array([heights[i][0] for i in range(8)]),
                np.array([heights[i][1] for i in range(8)]),
            )
            with pytest.raises(AlgorithmError, match="scalar Network"):
                VectorEngine(fg, kernel, fault_plan=FaultPlan(0, [injector]))


class TestTelemetryAndAccounting:
    def test_dispatch_path_labels_for_both_engines(self, registry):
        graph = path_graph(6)
        heights = initial_heights(graph, 5)
        distributed_full_reversal(graph, 5, heights)
        vector_full_reversal(graph, 5, heights)
        counts = dispatch_counts(registry)["runtime.engine"]
        assert counts["scalar"] >= 1
        assert counts["vector"] >= 1

    def test_round_zero_and_trailing_round_accounting(self):
        # Already-quiescent protocol state still runs the scalar
        # engine's shape: 2m init messages in round 0, then one final
        # all-halted round delivering zero messages.
        graph = path_graph(5)
        heights = initial_heights(graph, 4)
        scalar, vector, _, _ = full_reversal_stats(graph, 4, heights)
        assert vector.messages_per_round[0] == 2 * graph.num_edges
        assert vector.messages_per_round[-1] == 0
        assert scalar == vector

    def test_directed_snapshot_rejected(self):
        from repro.graphs.csr import FrozenGraph

        fg = FrozenGraph.from_arrays(
            np.array([0, 1, 1]), np.array([1]), directed=True
        )
        with pytest.raises(AlgorithmError, match="undirected"):
            VectorEngine(fg, MISKernel(np.array([0.0, 1.0])))

    def test_hypercube_frozen_matches_dict_builder(self):
        for dimension in (0, 1, 3, 5):
            fg = hypercube_frozen(dimension)
            cube = binary_hypercube(dimension)
            assert set(fg.node_list) == set(cube.nodes())
            for i, node in enumerate(fg.node_list):
                neighbors = {
                    fg.node_list[j] for j in fg.neighbor_indices(i)
                }
                assert neighbors == cube.neighbors(node)
