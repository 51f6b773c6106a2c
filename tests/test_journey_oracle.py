"""Journey kernels against an exhaustive oracle, plus fixed regressions.

The oracle enumerates every simple time-respecting path (labels
non-decreasing, first label at or after ``start``) on tiny evolving
graphs.  Simple paths suffice: cutting a cycle out of a journey keeps it
time-respecting and never adds hops, delays completion, widens the
span or lowers the product of reliabilities.  Against it, each kernel
must return a valid journey exactly when one exists, with the optimal
hop count (minimum hop), completion (earliest completion), span
(fastest; Casteigts' shortest, foremost and fastest journeys) or
product (most reliable).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal.evolving import EvolvingGraph
from repro.temporal.journeys import (
    Journey,
    earliest_completion_journey,
    fastest_journey,
    is_valid_journey,
    minimum_hop_journey,
)
from repro.temporal.weighted_journeys import (
    most_reliable_journey,
    most_reliable_journey_reference,
)


def all_journeys(eg, source, start=0):
    """{target: [hop tuple, ...]} over every simple time-respecting path."""
    adjacency = {}
    for time, u, v in eg.all_contacts():
        adjacency.setdefault(u, []).append((time, v))
        adjacency.setdefault(v, []).append((time, u))
    found = {}

    def extend(node, ready, visited, hops):
        for time, peer in adjacency.get(node, ()):
            if time < ready or peer in visited:
                continue
            path = hops + ((node, peer, time),)
            found.setdefault(peer, []).append(path)
            extend(peer, time, visited | {peer}, path)

    extend(source, start, frozenset({source}), ())
    return found


def product(eg, hops):
    value = 1.0
    for u, v, t in hops:
        value *= eg.weight(u, v, t)
    return value


@st.composite
def tiny_evolving_graphs(draw, weighted=False):
    n = draw(st.integers(min_value=2, max_value=6))
    horizon = draw(st.integers(min_value=1, max_value=8))
    eg = EvolvingGraph(horizon=horizon, nodes=range(n))
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        t = draw(st.integers(min_value=0, max_value=horizon - 1))
        weight = (
            draw(st.floats(min_value=0.05, max_value=1.0)) if weighted else None
        )
        if u != v:
            eg.add_contact(u, v, t, weight)
    start = draw(st.integers(min_value=0, max_value=2))
    return eg, start


@given(tiny_evolving_graphs())
@settings(max_examples=150, deadline=None)
def test_journey_kernels_match_exhaustive_oracle(case):
    eg, start = case
    journeys = all_journeys(eg, 0, start)
    for target in range(1, eg.num_nodes):
        paths = journeys.get(target, [])
        kernels = {
            "hops": minimum_hop_journey(eg, 0, target, start),
            "completion": earliest_completion_journey(eg, 0, target, start),
            "span": fastest_journey(eg, 0, target, start),
        }
        if not paths:
            assert all(j is None for j in kernels.values()), kernels
            continue
        for journey in kernels.values():
            assert journey is not None
            assert is_valid_journey(eg, journey, start=start)
        assert kernels["hops"].hop_count == min(len(p) for p in paths)
        assert kernels["completion"].completion == min(p[-1][2] for p in paths)
        assert kernels["span"].span == min(p[-1][2] - p[0][2] for p in paths)


@given(tiny_evolving_graphs(weighted=True))
@settings(max_examples=150, deadline=None)
def test_most_reliable_matches_exhaustive_oracle(case):
    eg, start = case
    journeys = all_journeys(eg, 0, start)
    for target in range(1, eg.num_nodes):
        paths = journeys.get(target, [])
        for kernel in (most_reliable_journey, most_reliable_journey_reference):
            result = kernel(eg, 0, target, start)
            if not paths:
                assert result is None
                continue
            journey, value = result
            assert is_valid_journey(eg, journey, start=start)
            best = max(product(eg, p) for p in paths)
            assert value == pytest.approx(best, rel=1e-9)
            assert product(eg, journey.hops) == pytest.approx(best, rel=1e-9)


# ----------------------------------------------------------------------
# fixed regressions
# ----------------------------------------------------------------------
def test_minimum_hop_rebuilds_from_one_level():
    # Node 3 is first reached at level 1 by (0,3,2); at level 2 it
    # improves via (4,3,1), and 4 via (2,4,0).  The target's level-2
    # hop extends the level-1 state of 3, so the journey is 2 hops.
    eg = EvolvingGraph(horizon=3, nodes=range(5))
    for u, v, t in [(0, 4, 1), (0, 3, 2), (1, 3, 2), (2, 4, 0), (0, 2, 0),
                    (3, 4, 1), (1, 4, 0)]:
        eg.add_contact(u, v, t)
    journey = minimum_hop_journey(eg, 0, 1)
    assert journey.hops == ((0, 3, 2), (3, 1, 2))


def _fig2_trials():
    """The random evolving graphs of the Fig. 2 paths table
    (``benchmarks/bench_fig2_evolving.py``: seed 7, n=20, horizon 30,
    contact probability 0.02), by trial number."""
    rng = np.random.default_rng(7)
    trials = {}
    for trial in range(5):
        eg = EvolvingGraph(horizon=30, nodes=range(20))
        for u in range(20):
            for v in range(u + 1, 20):
                for t in range(30):
                    if rng.random() < 0.02:
                        eg.add_contact(u, v, t)
        trials[trial] = eg
    return trials


@pytest.mark.parametrize(
    "trial,shortest",
    [(1, ((0, 5, 16), (5, 19, 25))), (4, ((0, 8, 6), (8, 19, 17)))],
)
def test_fig2_trials_have_two_hop_journeys(trial, shortest):
    eg = _fig2_trials()[trial]
    assert is_valid_journey(eg, Journey(source=0, hops=shortest))
    journey = minimum_hop_journey(eg, 0, 19)
    assert journey.hop_count == 2
    assert is_valid_journey(eg, journey)


@pytest.mark.parametrize(
    "kernel", [most_reliable_journey, most_reliable_journey_reference]
)
def test_most_reliable_journey_respects_time(kernel):
    # 2 first improves at t=5 via (1,2,5), then at t=7 via (1,2,7);
    # the hop (2,0,5) used the t=5 state, so the journey must too.
    eg = EvolvingGraph(horizon=8, nodes=range(3))
    eg.add_contact(0, 2, 5, 0.4)
    eg.add_contact(2, 1, 7, 0.85)
    eg.add_contact(2, 1, 5, 0.6)
    journey, value = kernel(eg, 1, 0)
    assert journey.hops == ((1, 2, 5), (2, 0, 5))
    assert value == pytest.approx(0.24)
