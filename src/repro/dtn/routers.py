"""The DTN protocol suite for :class:`~repro.dtn.simulator.DTNSimulation`.

Six routers spanning the paper's design space:

* :class:`DirectDelivery` — the lower bound on cost: only the source
  carries the message;
* :class:`EpidemicRouter` — the upper bound on delivery/lower bound on
  latency: replicate on every encounter;
* :class:`SprayAndWait` — binary spray: a copy budget is halved at
  each replication (bounded-copy multi-copy routing);
* :class:`ProphetRouter` — PRoPHET-style delivery predictabilities
  learned from encounter history (age, update, transitivity), forward
  when the peer's predictability is higher
  (:class:`ProphetRouterReference` is its pair-keyed oracle);
* :class:`ForwardingSetRouter` — the paper's dynamic-trimming router
  ([12]): hand over exactly when the peer is in the precomputed optimal
  forwarding set (single copy);
* :class:`FeatureGreedyRouter` — the paper's remapping router ([21]):
  hand over when the peer's profile is strictly closer (Hamming) to the
  destination's profile (single copy, F-space descent).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

from repro.dtn.simulator import Decision, MessageState, Router
from repro.graphs.hypercube import hamming_distance
from repro.remapping.feature_space import FeatureSpace
from repro.trimming.forwarding_set import ForwardingPolicy

Node = Hashable


class DirectDelivery(Router):
    """Carry until meeting the destination (handled by the simulator)."""

    name = "direct"
    # Opt-in to the simulator's bitset fast path (not inherited: the
    # simulator checks the class __dict__, so subclasses that change
    # the policy fall back to the general loop).
    fast_path_mode = "direct"

    def decide(self, message: MessageState, holder: Node, peer: Node, time: int) -> Decision:
        return Decision.CARRY


class EpidemicRouter(Router):
    """Replicate to every encountered node."""

    name = "epidemic"
    fast_path_mode = "epidemic"

    def decide(self, message: MessageState, holder: Node, peer: Node, time: int) -> Decision:
        return Decision.REPLICATE


class SprayAndWait(Router):
    """Binary spray-and-wait with a per-message copy budget.

    Each holder tracks its share of copies; replication hands the peer
    half of the share.  A holder down to one copy waits for the
    destination (the "wait" phase).
    """

    name = "spray-and-wait"

    def __init__(self, copies: int = 8) -> None:
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.copies = int(copies)

    def on_create(self, message: MessageState) -> None:
        message.annotations["share"] = {message.spec.source: self.copies}

    def decide(self, message: MessageState, holder: Node, peer: Node, time: int) -> Decision:
        shares: Dict[Node, int] = message.annotations["share"]
        own = shares.get(holder, 1)
        if own <= 1:
            return Decision.CARRY
        give = own // 2
        shares[holder] = own - give
        shares[peer] = shares.get(peer, 0) + give
        return Decision.REPLICATE


class ProphetRouter(Router):
    """PRoPHET delivery predictabilities (Lindgren et al., simplified).

    P(u, v) grows on every (u, v) encounter, ages exponentially with
    time, and propagates transitively.  A holder hands the message to a
    peer whose predictability for the destination is higher by at least
    ``margin``.

    State is keyed by row, ``_rows[u][v] = (P(u, v), time last aged)``,
    so a contact with ``b`` scans only ``b``'s known destinations.
    """

    name = "prophet"

    def __init__(
        self,
        p_encounter: float = 0.75,
        beta: float = 0.25,
        gamma: float = 0.98,
        margin: float = 0.0,
    ) -> None:
        if not 0 < p_encounter <= 1:
            raise ValueError(f"p_encounter must be in (0, 1], got {p_encounter}")
        if not 0 <= beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if not 0 < gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if not margin >= 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.p_encounter = p_encounter
        self.beta = beta
        self.gamma = gamma
        self.margin = margin
        self._rows: Dict[Node, Dict[Node, Tuple[float, int]]] = {}

    def _aged(self, row: Dict[Node, Tuple[float, int]], v: Node, time: int) -> float:
        """P(u, v) from u's row, aged to ``time`` and written back."""
        entry = row.get(v)
        if entry is None:
            return 0.0
        value, last_aged = entry
        if value == 0.0:
            return 0.0
        elapsed = time - last_aged
        if elapsed > 0:
            value *= self.gamma ** elapsed
            row[v] = (value, time)
        return value

    def predictability(self, u: Node, v: Node, time: int) -> float:
        row = self._rows.get(u)
        return 0.0 if row is None else self._aged(row, v, time)

    def on_contact(self, u: Node, v: Node, time: int) -> None:
        rows = self._rows
        for a, b in ((u, v), (v, u)):
            row = rows.setdefault(a, {})
            aged = self._aged(row, b, time)
            row[b] = (aged + (1.0 - aged) * self.p_encounter, time)
        # Transitivity: meeting v teaches u about v's acquaintances.
        # Only row a is written while row b is read, and P(a, b) was
        # just set at ``time``, so it needs no aging inside the loop.
        for a, b in ((u, v), (v, u)):
            row_a = rows[a]
            p_ab = row_a[b][0]
            for target, (p_bt, _) in list(rows[b].items()):
                if target == a or target == b:
                    continue
                via = p_ab * p_bt * self.beta
                if via > self._aged(row_a, target, time):
                    row_a[target] = (via, time)

    def decide(self, message: MessageState, holder: Node, peer: Node, time: int) -> Decision:
        destination = message.spec.destination
        if (
            self.predictability(peer, destination, time)
            > self.predictability(holder, destination, time) + self.margin
        ):
            return Decision.REPLICATE
        return Decision.CARRY


class ProphetRouterReference(ProphetRouter):
    """Pair-keyed PRoPHET, the oracle :class:`ProphetRouter` must match.

    Every contact scans all stored pairs twice.  The row-keyed router
    performs the same float operations in the same order, so the two
    agree bit for bit.
    """

    def __init__(self, *args: float, **kwargs: float) -> None:
        super().__init__(*args, **kwargs)
        self._p: Dict[Tuple[Node, Node], float] = {}
        self._last_aged: Dict[Tuple[Node, Node], int] = {}

    def predictability(self, u: Node, v: Node, time: int) -> float:
        key = (u, v)
        value = self._p.get(key, 0.0)
        if value == 0.0:
            return 0.0
        elapsed = time - self._last_aged.get(key, time)
        if elapsed > 0:
            value *= self.gamma ** elapsed
            self._p[key] = value
            self._last_aged[key] = time
        return value

    def on_contact(self, u: Node, v: Node, time: int) -> None:
        for a, b in ((u, v), (v, u)):
            aged = self.predictability(a, b, time)
            updated = aged + (1.0 - aged) * self.p_encounter
            self._p[(a, b)] = updated
            self._last_aged[(a, b)] = time
        # Transitivity: meeting v teaches u about v's acquaintances.
        for a, b in ((u, v), (v, u)):
            for (x, target), p_xt in list(self._p.items()):
                if x != b or target in (a, b):
                    continue
                via = self.predictability(a, b, time) * p_xt * self.beta
                if via > self.predictability(a, target, time):
                    self._p[(a, target)] = via
                    self._last_aged[(a, target)] = time


class ForwardingSetRouter(Router):
    """Single-copy handover following an optimal forwarding-set policy."""

    name = "forwarding-set"

    def __init__(self, policy: ForwardingPolicy) -> None:
        self.policy = policy

    def decide(self, message: MessageState, holder: Node, peer: Node, time: int) -> Decision:
        if message.spec.destination != self.policy.destination:
            return Decision.CARRY
        if self.policy.should_forward(holder, peer):
            return Decision.HANDOVER
        return Decision.CARRY


class FeatureGreedyRouter(Router):
    """Single-copy F-space descent: hand over on strict Hamming progress."""

    name = "fspace-greedy"

    def __init__(self, space: FeatureSpace) -> None:
        self.space = space

    def decide(self, message: MessageState, holder: Node, peer: Node, time: int) -> Decision:
        target = self.space.profile_of(message.spec.destination)
        if hamming_distance(self.space.profile_of(peer), target) < hamming_distance(
            self.space.profile_of(holder), target
        ):
            return Decision.HANDOVER
        return Decision.CARRY
