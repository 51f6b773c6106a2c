"""Small-world behaviour in time-varying graphs (Sec. III-B, [15]).

"The work done on the small-world behavior of the real-world in
time-and-space dimensions [15] has the potential to explore the layered
structure of a complex network."

Following Tang, Scellato, Musolesi, Mascolo and Latora (Phys. Rev. E
2010), the two static small-world ingredients are lifted to time:

* **temporal correlation coefficient C** — how much a node's
  neighborhood persists between consecutive snapshots:
  C_i(t) = |N_t(i) ∩ N_{t+1}(i)| / sqrt(|N_t(i)| · |N_{t+1}(i)|),
  averaged over nodes and time;
* **characteristic temporal path length L** — the average temporal
  distance (earliest-arrival delay) over ordered reachable pairs.

A time-varying graph is *temporally small-world* when C is high (like a
regular/persistent structure) while L stays close to that of a
time-randomised null model — exactly mirroring Watts–Strogatz.  The
null model (:func:`randomize_contact_times`) shuffles the contact
*times* while preserving the footprint and the number of contacts per
edge, destroying temporal correlation but keeping the static topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.temporal.evolving import EvolvingGraph
from repro.temporal.journeys import earliest_arrival

Node = Hashable


def temporal_correlation_coefficient(eg: EvolvingGraph) -> float:
    """Average neighborhood persistence across consecutive snapshots."""
    if eg.horizon < 2:
        return 0.0
    nodes = sorted(eg.nodes(), key=repr)
    total = 0.0
    count = 0
    neighbor_sets = [
        {node: eg.neighbors_at(node, t) for node in nodes}
        for t in range(eg.horizon)
    ]
    for node in nodes:
        node_total = 0.0
        for t in range(eg.horizon - 1):
            now = neighbor_sets[t][node]
            nxt = neighbor_sets[t + 1][node]
            if not now or not nxt:
                continue
            node_total += len(now & nxt) / math.sqrt(len(now) * len(nxt))
        total += node_total / (eg.horizon - 1)
        count += 1
    return total / count if count else 0.0


def characteristic_temporal_path_length(
    eg: EvolvingGraph, start: int = 0
) -> Tuple[float, float]:
    """(average temporal distance, reachability ratio) over ordered pairs.

    Unreachable pairs are excluded from the average and reported via
    the reachability ratio, following the standard convention for
    possibly-disconnected temporal networks.
    """
    nodes = sorted(eg.nodes(), key=repr)
    n = len(nodes)
    if n < 2:
        return 0.0, 1.0
    total = 0.0
    reached = 0
    for source in nodes:
        arrival = earliest_arrival(eg, source, start)
        for target, time in arrival.items():
            if target == source:
                continue
            total += time - start
            reached += 1
    pairs = n * (n - 1)
    if reached == 0:
        return math.inf, 0.0
    return total / reached, reached / pairs


def randomize_contact_times(
    eg: EvolvingGraph, rng: np.random.Generator
) -> EvolvingGraph:
    """The null model: shuffle all contact times across the whole trace.

    Preserves the footprint graph, the total number of contacts, and
    each edge's contact *count*; destroys inter-snapshot correlation
    and any temporal ordering structure.
    """
    contacts = eg.all_contacts()
    times = [time for time, _, _ in contacts]
    rng.shuffle(times)
    randomized = EvolvingGraph(horizon=eg.horizon, nodes=eg.nodes())
    used = set()
    index = 0
    for (_, u, v) in contacts:
        # Skip duplicate (edge, time) collisions produced by shuffling.
        for offset in range(len(times)):
            candidate = times[(index + offset) % len(times)]
            key = (frozenset((u, v)), candidate)
            if key not in used:
                used.add(key)
                randomized.add_contact(u, v, candidate)
                index = (index + offset + 1) % len(times)
                break
    return randomized


@dataclass(frozen=True)
class TemporalSmallWorldReport:
    """C and L of a temporal network against its time-randomised null."""

    correlation: float
    null_correlation: float
    path_length: float
    null_path_length: float
    reachability: float
    null_reachability: float

    @property
    def correlation_ratio(self) -> float:
        """C / C_null — >> 1 for temporally-structured networks."""
        if self.null_correlation == 0:
            return math.inf if self.correlation > 0 else 1.0
        return self.correlation / self.null_correlation

    @property
    def path_ratio(self) -> float:
        """L / L_null — ≈ 1 for temporally small-world networks."""
        if self.null_path_length == 0:
            return math.inf if self.path_length > 0 else 1.0
        return self.path_length / self.null_path_length

def temporal_small_world_report(
    eg: EvolvingGraph,
    rng: np.random.Generator,
    null_samples: int = 3,
    start: int = 0,
) -> TemporalSmallWorldReport:
    """Compute C, L and their null-model baselines ([15]'s analysis)."""
    if null_samples < 1:
        raise ValueError(f"null_samples must be >= 1, got {null_samples}")
    correlation = temporal_correlation_coefficient(eg)
    path_length, reachability = characteristic_temporal_path_length(eg, start)
    null_c: List[float] = []
    null_l: List[float] = []
    null_r: List[float] = []
    for _ in range(null_samples):
        null = randomize_contact_times(eg, rng)
        null_c.append(temporal_correlation_coefficient(null))
        length, ratio = characteristic_temporal_path_length(null, start)
        if not math.isinf(length):
            null_l.append(length)
        null_r.append(ratio)
    return TemporalSmallWorldReport(
        correlation=correlation,
        null_correlation=sum(null_c) / len(null_c),
        path_length=path_length,
        null_path_length=(sum(null_l) / len(null_l)) if null_l else math.inf,
        reachability=reachability,
        null_reachability=sum(null_r) / len(null_r),
    )
