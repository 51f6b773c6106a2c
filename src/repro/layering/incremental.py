"""The NSF level labeling (Sec. III-B) kept current across edge mutations.

:class:`IncrementalNSF` is the serving plane's NSF index.  A dirty
repair is a full peel of the merged snapshot
(:meth:`FrozenGraph.peel_round_masks`, mode ``"full"``): a touched edge
has both endpoints alive in round 1, so replaying rounds from there
with an early exit re-ran nearly all of them on the serve-write stream
(a median of 16 of 16) and saved nothing.  A repair with no touched
pairs and no node growth is a no-op.  The ground truth is
:func:`repro.layering.nsf.nsf_levels_reference`, asserted bit-exact by
``tests/test_incremental_differential.py``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple

from repro.graphs.csr import FrozenGraph
from repro.observability.telemetry import record_repair

Node = Hashable


class IncrementalNSF:
    """NSF levels kept current across edge mutations by a full peel.

    ``update`` takes the *merged* snapshot after a batch of mutations
    plus the touched edges; only their presence matters (none means
    nothing changed).
    """

    def __init__(self, fg: FrozenGraph) -> None:
        self._build(fg)

    def _build(self, fg: FrozenGraph) -> None:
        self.n = fg.n
        self._levels = fg.nsf_level_array()

    def level_of(self, i: int) -> int:
        return int(self._levels[i])

    def levels_map(self, fg: FrozenGraph) -> Dict[Node, int]:
        """Node-facing view, comparable with ``nsf_levels_reference``."""
        return dict(zip(fg.node_list, self._levels.tolist()))

    def update(
        self,
        fg_new: FrozenGraph,
        touched: Iterable[Tuple[int, int]],
    ) -> str:
        """Recompute the levels for ``fg_new``; returns the repair mode.

        ``touched`` is index pairs covering every edge that differs
        between the snapshot the current levels were computed on and
        ``fg_new``.  No touched pairs and an unchanged node count
        mean nothing to do.
        """
        if fg_new.n == self.n and not list(touched):
            record_repair("nsf", "noop")
            return "noop"
        self._build(fg_new)
        record_repair("nsf", "full")
        return "full"
