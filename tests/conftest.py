"""Shared fixtures: seeded RNGs and canonical workload graphs."""

import numpy as np
import pytest
from hypothesis import settings

from repro.graphs.generators import erdos_renyi, grid_2d, random_connected_graph
from repro.graphs.unit_disk import random_unit_disk_graph
from repro.graphs.traversal import connected_components

# Hypothesis explores unseeded and its example database is not kept, so a
# failing property must print its ``@reproduce_failure`` line for the
# counterexample to survive the run.  Only the reporting changes.
settings.register_profile("tier1", print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    """A fresh, deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_connected_graph(rng):
    """A random connected graph with ~20 nodes."""
    return random_connected_graph(20, 0.15, rng)


@pytest.fixture
def medium_udg(rng):
    """The giant component of a 120-node unit disk graph."""
    graph = random_unit_disk_graph(120, 10.0, 10.0, 1.8, rng)
    return graph.subgraph(connected_components(graph)[0])


@pytest.fixture
def grid5():
    return grid_2d(5, 5)
