"""Incremental maintenance of the NSF level labeling (Sec. III-B).

The batch kernel (:meth:`FrozenGraph.nsf_levels`) recomputes every peel
round from scratch.  Under an edge stream that is wasteful: the peel is
a *deterministic* function of (alive node set, edge set restricted to
the alive nodes), so once a replay of the rounds on the mutated
snapshot reaches a round whose entering alive set matches the old
run's — and every mutated edge has at least one already-peeled
endpoint — all remaining rounds are necessarily identical and the old
levels can be reused wholesale.

:class:`IncrementalNSF` implements exactly that *round replay with
early exit*: each repair replays peel rounds on the new snapshot
(cheap — round r costs O(edges alive at round r), and low-level churn
dies in the first rounds) and stops as soon as the suffix is provably
unchanged.  Mutations that change the node set fall back to a full
recompute (``mode="full"``); the ground truth either way is
:func:`repro.layering.nsf.nsf_levels_reference`, asserted bit-exact by
``tests/test_incremental_differential.py``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple

import numpy as np

from repro.graphs.csr import FrozenGraph
from repro.observability.telemetry import record_repair

Node = Hashable


class IncrementalNSF:
    """NSF levels kept current across edge mutations by round replay.

    ``update`` takes the *merged* snapshot after a batch of mutations
    plus the set of touched edges (any superset of the symmetric
    difference between the old and new edge sets is sound — extra
    pairs only delay the early exit, never break it).
    """

    def __init__(self, fg: FrozenGraph) -> None:
        self.n = fg.n
        self._levels = self._full(fg)

    @staticmethod
    def _full(fg: FrozenGraph) -> np.ndarray:
        levels = np.zeros(fg.n, dtype=np.int64)
        for round_index, chosen in enumerate(fg.peel_round_masks(), start=1):
            levels[chosen] = round_index
        return levels

    def level_of(self, i: int) -> int:
        return int(self._levels[i])

    def levels_map(self, fg: FrozenGraph) -> Dict[Node, int]:
        """Node-facing view, comparable with ``nsf_levels_reference``."""
        nodes = fg.node_list
        return {nodes[i]: int(self._levels[i]) for i in range(self.n)}

    def update(
        self,
        fg_new: FrozenGraph,
        touched: Iterable[Tuple[int, int]],
    ) -> str:
        """Repair the levels for ``fg_new``; returns the repair mode.

        ``touched`` is index pairs (valid in ``fg_new``) covering every
        edge that differs between the snapshot the current levels were
        computed on and ``fg_new``.  Node-set growth (indices beyond
        the old ``n``) triggers a full recompute.
        """
        pairs = [(int(u), int(v)) for u, v in touched]
        if fg_new.n != self.n:
            self.n = fg_new.n
            self._levels = self._full(fg_new)
            record_repair("nsf", "full")
            return "full"
        if not pairs:
            record_repair("nsf", "noop")
            return "noop"
        old = self._levels
        n = fg_new.n
        new = np.zeros(n, dtype=np.int64)
        remaining = n
        rounds = fg_new.peel_round_masks(fallback=True)
        r = 0
        for chosen in rounds:
            r += 1
            new[chosen] = r
            remaining -= int(chosen.sum())
            if remaining == 0:
                break
            alive_new = new == 0
            # Early exit: the alive set entering round r+1 matches the
            # old run's, and every touched edge is dead (an endpoint
            # already peeled) — the remaining rounds replay identically,
            # so the old suffix levels carry over verbatim.
            if np.array_equal(alive_new, old > r) and not any(
                alive_new[u] and alive_new[v] for u, v in pairs
            ):
                new[alive_new] = old[alive_new]
                rounds.close()
                break
        self._levels = new
        record_repair("nsf", "replay")
        return "replay"
