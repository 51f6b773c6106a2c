"""Chaos benchmark: delivery and convergence degradation vs drop rate.

The fault-injection layer (:mod:`repro.faults`) makes the paper's
dynamic-environment claims measurable.  This benchmark sweeps the
message drop rate (with 5% duplication alongside, retries enabled for
the engine runs) and reports, per rate:

* DTN epidemic delivery ratio over a socially-driven contact trace —
  the delivery-ratio-vs-drop-rate curve;
* distributed full link reversal on a connected random graph: rounds
  to quiescence, total link reversals, and messages on the wire
  (delivered copies plus the attempts lost in transit, so every
  retransmission counts).

The headline structural result: the *reversal count* column is flat —
full reversal's work is schedule-independent, so chaos costs rounds
and messages, never extra reversals — while the DTN delivery curve
degrades monotonically.  Emitted as ``BENCH_faults.json``.
"""

import numpy as np

from _util import emit_table
from repro.datasets.human_contacts import rate_model_trace
from repro.dtn.routers import EpidemicRouter
from repro.dtn.simulator import DTNSimulation, MessageSpec
from repro.faults import FaultPlan, MessageFaults, RetryPolicy
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components

DROP_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
DUPLICATE_RATE = 0.05
PLAN_SEED = 1337


def dtn_scenario(seed=8, n=16, end_time=20.0, n_messages=12, ttl=10):
    """A sparse socially-driven trace where losses visibly hurt."""
    rng = np.random.default_rng(seed)
    trace, _ = rate_model_trace(
        n, (2, 2, 3), rng, rate0=0.08, decay=0.6, end_time=end_time
    )
    eg = trace.to_evolving(1.0)
    specs = [
        MessageSpec(f"m{i}", i % (n - 1), n - 1, created=0, ttl=ttl)
        for i in range(n_messages)
    ]
    return eg, specs


def reversal_scenario(n=24, seed=7, p=0.1):
    """Sparse Erdős–Rényi giant component + identity heights.

    The destination is the *highest*-id node, so identity heights point
    most links the wrong way and the protocol has real work to do.
    """
    rng = np.random.default_rng(seed)
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    giant = graph.subgraph(connected_components(graph)[0])
    heights = {node: (0, node) for node in giant.nodes()}
    destination = max(giant.nodes())
    heights[destination] = (-1, destination)
    return giant, destination, heights


def fault_rows(drop_rates=DROP_RATES, dtn_kwargs=None, rev_kwargs=None):
    """One row per drop rate:
    (drop, delivery ratio, transfer drops, rounds, reversals, messages,
    retries)."""
    eg, specs = dtn_scenario(**(dtn_kwargs or {}))
    graph, destination, heights = reversal_scenario(**(rev_kwargs or {}))
    rows = []
    for drop in drop_rates:
        injector = MessageFaults(drop=drop, duplicate=DUPLICATE_RATE)
        dtn_plan = FaultPlan(PLAN_SEED, [injector])
        sim = DTNSimulation(eg, EpidemicRouter(), fault_plan=dtn_plan)
        for spec in specs:
            sim.add_message(
                MessageSpec(
                    spec.identifier, spec.source, spec.destination,
                    spec.created, spec.ttl,
                )
            )
        delivery = sim.run()
        transfer_drops = sim.faults.summary().get("transfer_drop", 0)

        rev_plan = FaultPlan(PLAN_SEED, [injector], retry=RetryPolicy(max_retries=12))
        network_rounds, reversals, messages, retries = _reversal_run(
            graph, destination, heights, rev_plan
        )
        rows.append(
            (
                drop,
                round(delivery.delivery_ratio, 3),
                transfer_drops,
                network_rounds,
                reversals,
                messages,
                retries,
            )
        )
    return rows


def _reversal_run(graph, destination, heights, plan):
    from repro.runtime.engine import Network
    from repro.layering.link_reversal_distributed import LinkReversalAlgorithm

    network = Network(
        graph,
        lambda node: LinkReversalAlgorithm(
            is_destination=node == destination, height=heights[node]
        ),
        fault_plan=plan,
    )
    stats = network.run(max_rounds=200_000)
    reversals = sum(
        network.state_of(node).get("reversals", 0) for node in graph.nodes()
    )
    summary = network.faults.summary()
    wire = stats.messages_sent + summary.get("drop", 0)
    return stats.rounds, reversals, wire, summary.get("retry", 0)


HEADER = [
    "drop rate",
    "dtn delivery ratio",
    "transfer drops",
    "reversal rounds",
    "link reversals",
    "engine messages",
    "retries",
]

NOTES = (
    "Seeded chaos (FaultPlan seed %d, %d%% duplication alongside each "
    "drop rate; engine runs retry with capped exponential backoff). "
    "Delivery ratio falls monotonically with loss, while the link-"
    "reversal work column stays flat — full reversal's reversal count "
    "is schedule-independent, so faults cost rounds and retransmissions, "
    "not structural work." % (PLAN_SEED, int(DUPLICATE_RATE * 100))
)


def emit(rows=None):
    return emit_table(
        "faults",
        "delivery and convergence degradation vs message drop rate",
        HEADER,
        rows if rows is not None else fault_rows(),
        notes=NOTES,
    )


def test_fault_degradation_curve(once):
    rows = once(fault_rows)
    emit(rows=rows)
    ratios = [row[1] for row in rows]
    assert ratios[0] >= ratios[-1]  # loss can only hurt delivery
    reversal_counts = {row[4] for row in rows}
    assert len(reversal_counts) == 1  # work is fault-invariant
    assert rows[-1][3] >= rows[0][3]  # chaos costs rounds...
    assert rows[-1][5] >= rows[0][5]  # ...and messages


if __name__ == "__main__":
    emit()
