"""Probabilistic trimming of evolving graphs (Sec. III-A, open question).

"In situations where link labels are not deterministically, but rather,
probabilistically, known, it would be interesting to explore different
probabilistic versions of the trimming rule."

This module answers that invitation with a concrete model and two
rules:

**Model** — a :class:`ProbabilisticEvolvingGraph`: each (edge, time
unit) contact materialises independently with a known probability
``p(u, v, t)`` (e.g. estimated from a mobility model's history).

**Rule P1 (expectation rule)** — node u is trimmable at confidence
``gamma`` if for every 2-hop pattern w → u → v with label pair
(i, j), i ≤ j, the probability that *some* replacement journey
(departing ≥ i, arriving ≤ j, avoiding u) materialises is at least
``gamma`` times the probability that the original pair itself
materialises.  With all probabilities 1 and gamma = 1 this degenerates
to the paper's deterministic rule (tested).

**Rule P2 (sampling rule)** — Monte-Carlo version: sample
realisations, apply the deterministic rule per realisation, and trim
nodes that are trimmable in at least a ``gamma`` fraction — an
estimator of the same quantity usable when exact path enumeration is
too expensive.

Replacement probabilities are the best-single-journey products (see
:func:`replacement_probability`) — guaranteed lower bounds on the
union over all replacement journeys, whose exact evaluation is #P-hard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.temporal.evolving import EvolvingGraph

Node = Hashable
ContactKey = Tuple[FrozenSet, int]


class ProbabilisticEvolvingGraph:
    """An evolving graph whose contacts exist with known probabilities."""

    def __init__(self, horizon: int, nodes: Optional[Iterable[Node]] = None) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)
        self._nodes: Set[Node] = set(nodes) if nodes is not None else set()
        self._prob: Dict[ContactKey, float] = {}

    def add_node(self, node: Node) -> None:
        self._nodes.add(node)

    def set_contact_probability(
        self, u: Node, v: Node, time: int, probability: float
    ) -> None:
        if u == v:
            raise ValueError(f"self-contact on {u!r}")
        if not 0 <= time < self.horizon:
            raise ValueError(f"time {time} out of range [0, {self.horizon})")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._nodes.add(u)
        self._nodes.add(v)
        key = (frozenset((u, v)), time)
        if probability == 0.0:
            self._prob.pop(key, None)
        else:
            self._prob[key] = float(probability)

    def nodes(self) -> Set[Node]:
        return set(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def neighbors(self, node: Node) -> Set[Node]:
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        result: Set[Node] = set()
        for (pair, _), _p in self._prob.items():
            if node in pair:
                result |= pair - {node}
        return result

    def potential_labels(self, u: Node, v: Node) -> List[Tuple[int, float]]:
        """(time, probability) pairs for edge (u, v), time-sorted."""
        pair = frozenset((u, v))
        return sorted(
            (time, p)
            for (key, time), p in self._prob.items()
            if key == pair
        )

    def sample(self, rng: np.random.Generator) -> EvolvingGraph:
        """One deterministic realisation of the probabilistic graph."""
        eg = EvolvingGraph(horizon=self.horizon, nodes=self._nodes)
        for (pair, time), p in self._prob.items():
            if rng.random() < p:
                u, v = tuple(pair)
                eg.add_contact(u, v, time)
        return eg

    @classmethod
    def from_evolving(
        cls, eg: EvolvingGraph, probability: float = 1.0
    ) -> "ProbabilisticEvolvingGraph":
        """Lift a deterministic EG: every contact gets ``probability``."""
        peg = cls(horizon=eg.horizon, nodes=eg.nodes())
        for time, u, v in eg.all_contacts():
            peg.set_contact_probability(u, v, time, probability)
        return peg


def replacement_probability(
    peg: ProbabilisticEvolvingGraph,
    w: Node,
    v: Node,
    first_label: int,
    last_label: int,
    forbidden: Set[Node],
) -> float:
    """Probability of the *best single* replacement journey w →* v.

    The maximum, over journeys departing ≥ ``first_label`` and arriving
    ≤ ``last_label`` that avoid ``forbidden`` nodes, of the product of
    the journey's contact probabilities.  This is a guaranteed lower
    bound on P(some replacement materialises) — the exact union over
    correlated paths is #P-hard — and it is precisely the quantity a
    practical protocol committing to one backup path needs.

    Computed by a Viterbi-style DP: ``best[x]`` is the best product
    probability of reaching x so far; within each time unit the relax
    step iterates to a fixpoint (same-unit chains are allowed because
    labels are non-decreasing), which is safe because ``max`` is
    idempotent — unlike a union bound, probabilities cannot compound.
    """
    best: Dict[Node, float] = {w: 1.0}
    for time in range(first_label, last_label + 1):
        for _ in range(peg.num_nodes):
            changed = False
            for (pair, t), p in peg._prob.items():
                if t != time:
                    continue
                a, b = tuple(pair)
                if a in forbidden or b in forbidden:
                    continue
                for src, dst in ((a, b), (b, a)):
                    candidate = best.get(src, 0.0) * p
                    if candidate > best.get(dst, 0.0) + 1e-15:
                        best[dst] = candidate
                        changed = True
            if not changed:
                break
    return best.get(v, 0.0)


def node_trimmable_p1(
    peg: ProbabilisticEvolvingGraph,
    u: Node,
    gamma: float = 0.9,
    priorities: Optional[Dict[Node, float]] = None,
) -> bool:
    """Rule P1: expectation version of the node replacement rule.

    For each 2-hop pattern w --i--> u --j--> v (i <= j) with pattern
    probability q = p(w,u,i) · p(u,v,j), a replacement must exist with
    probability >= gamma · q.  Priorities restrict replacement
    intermediates exactly as in the deterministic rule.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if u not in peg.nodes():
        raise NodeNotFoundError(u)
    forbidden = {u}
    if priorities is not None:
        forbidden |= {
            x for x in peg.nodes()
            if x != u and priorities.get(x, 0.0) <= priorities.get(u, 0.0)
        }
    neighbors = sorted(peg.neighbors(u), key=repr)
    for w in neighbors:
        for v in neighbors:
            if v == w:
                continue
            for i, p_in in peg.potential_labels(w, u):
                for j, p_out in peg.potential_labels(u, v):
                    if i > j:
                        continue
                    pattern_probability = p_in * p_out
                    if pattern_probability <= 0:
                        continue
                    replacement = replacement_probability(
                        peg, w, v, i, j, forbidden - {w, v}
                    )
                    if replacement + 1e-12 < gamma * pattern_probability:
                        return False
    return True


@dataclass(frozen=True)
class SamplingVerdict:
    """Rule P2 outcome for one node."""

    node: Node
    trimmable_fraction: float
    samples: int

    def trimmable(self, gamma: float) -> bool:
        return self.trimmable_fraction >= gamma


def node_trimmable_p2(
    peg: ProbabilisticEvolvingGraph,
    u: Node,
    rng: np.random.Generator,
    samples: int = 50,
    priorities: Optional[Dict[Node, float]] = None,
) -> SamplingVerdict:
    """Rule P2: Monte-Carlo estimate of deterministic trimmability."""
    from repro.trimming.static_rules import node_trimmable

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    hits = 0
    for _ in range(samples):
        realization = peg.sample(rng)
        if not realization.has_node(u) or not realization.neighbors(u):
            hits += 1  # vacuously trimmable in this realization
            continue
        if node_trimmable(realization, u, priorities):
            hits += 1
    return SamplingVerdict(
        node=u, trimmable_fraction=hits / samples, samples=samples
    )
