"""View inconsistency under mobility (Sec. IV-C).

"Mobility will create another serious problem: view inconsistency" —
neighborhood exchanges and asynchronous Hello messages take time, so a
node's *view* of its k-hop neighborhood lags the ground truth.  This
module models that lag explicitly:

* :class:`DelayedViewOracle` serves each node the k-hop neighborhood as
  it existed ``delay`` snapshots ago (Hello-period staleness);
* :func:`view_inconsistency` quantifies the disagreement between a
  node's view and the current truth (missing + stale neighbors);
* :class:`MultiViewOracle` keeps the last ``w`` views per node — the
  "maintaining multiple views" direction the paper cites as promising
  [29] — and exposes conservative intersections / optimistic unions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph

Node = Hashable


def k_hop_view(graph: Graph, node: Node, k: int) -> Set[Node]:
    """The true k-hop neighborhood (local horizon) of ``node`` now."""
    return graph.k_hop_neighbors(node, k)


class DelayedViewOracle:
    """Serves k-hop views delayed by a fixed number of snapshots.

    Feed topology snapshots with :meth:`observe`; :meth:`view` then
    answers with the neighborhood as of ``delay`` snapshots ago (or the
    oldest available).  ``delay = 0`` is a perfectly synchronised Hello
    protocol.
    """

    def __init__(self, k: int, delay: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.k = int(k)
        self.delay = int(delay)
        self._history: Deque[Graph] = deque(maxlen=delay + 1)

    def observe(self, snapshot: Graph) -> None:
        """Record the current topology snapshot."""
        self._history.append(snapshot.copy())

    def view(self, node: Node) -> Set[Node]:
        """The (possibly stale) k-hop view of ``node``."""
        if not self._history:
            raise ValueError("no snapshot observed yet")
        stale = self._history[0]
        if not stale.has_node(node):
            raise NodeNotFoundError(node)
        return k_hop_view(stale, node, self.k)


def view_inconsistency(
    current: Graph, believed: Set[Node], node: Node, k: int
) -> Tuple[Set[Node], Set[Node]]:
    """(missing, stale): truth − view and view − truth.

    ``missing`` are real k-hop neighbors the node does not know about;
    ``stale`` are believed neighbors that have moved away.  Both empty
    iff the view is consistent.
    """
    truth = k_hop_view(current, node, k)
    return truth - believed, believed - truth


def inconsistency_rate(
    snapshots: Sequence[Graph], k: int, delay: int
) -> float:
    """Fraction of (snapshot, node) pairs with an inconsistent view.

    Streams ``snapshots`` through a :class:`DelayedViewOracle` and
    checks every node each step once the pipeline is full.
    """
    if not snapshots:
        return 0.0
    oracle = DelayedViewOracle(k=k, delay=delay)
    checked = 0
    inconsistent = 0
    for index, snapshot in enumerate(snapshots):
        oracle.observe(snapshot)
        if index < delay:
            continue
        for node in snapshot.nodes():
            try:
                believed = oracle.view(node)
            except NodeNotFoundError:
                continue
            missing, stale = view_inconsistency(snapshot, believed, node, k)
            checked += 1
            if missing or stale:
                inconsistent += 1
    return inconsistent / checked if checked else 0.0


class MultiViewOracle:
    """Keeps the last ``window`` views per node ([29]).

    * :meth:`conservative_view` — neighbors present in *every* retained
      view: safe for decisions that must not act on departed nodes;
    * :meth:`optimistic_view` — neighbors present in *any* retained
      view: safe for decisions that must not miss a real neighbor.
    """

    def __init__(self, k: int, window: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.k = int(k)
        self.window = int(window)
        self._views: Dict[Node, Deque[Set[Node]]] = {}

    def observe(self, snapshot: Graph) -> None:
        for node in snapshot.nodes():
            views = self._views.setdefault(node, deque(maxlen=self.window))
            views.append(k_hop_view(snapshot, node, self.k))

    def conservative_view(self, node: Node) -> Set[Node]:
        views = self._views.get(node)
        if not views:
            raise NodeNotFoundError(node)
        result = set(views[0])
        for view in views:
            result &= view
        return result

    def optimistic_view(self, node: Node) -> Set[Node]:
        views = self._views.get(node)
        if not views:
            raise NodeNotFoundError(node)
        result: Set[Node] = set()
        for view in views:
            result |= view
        return result
