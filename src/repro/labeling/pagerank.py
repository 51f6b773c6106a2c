"""PageRank and HITS: dynamic labels for ranking (Sec. IV-B, [23]).

"PageRank and HITS (also known as hubs and authorities) are another two
examples of dynamic labeling used to rank websites."  Both are
iterative label-update processes: each round every node recomputes its
score from its neighbors' scores — a non-constant number of relabelings
per node, which is exactly the paper's definition of a *dynamic* label.

Implemented centally (power iteration) with iteration counting, so the
convergence-speed benchmarks can contrast them with the one-shot static
labels of Sec. IV-A.

Both rankings run as frozen CSR power iterations (one ``bincount`` per
round instead of a per-node predecessor scan); the dict bodies below
stay the ground truth as ``pagerank_reference`` / ``hits_reference``.
Scores agree to float-sum reordering only, so the equality asserted by
tests and the ``perf-labeling`` bench is tolerance-bounded and
iteration counts may differ by one.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Tuple

from repro.errors import ConvergenceError
from repro.graphs.graph import DiGraph
from repro.observability.tracing import traced

Node = Hashable


@traced("repro.labeling.pagerank")
def pagerank(
    graph: DiGraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> Tuple[Dict[Node, float], int]:
    """PageRank by power iteration; returns (scores, iterations).

    Dangling nodes redistribute their mass uniformly.  Scores sum to 1.
    Runs :meth:`FrozenGraph.pagerank_scores`; :func:`pagerank_reference`
    is the ground truth.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    fg = graph.frozen()
    score, iterations = fg.pagerank_scores(damping, tolerance, max_iterations)
    return (
        {node: float(score[i]) for i, node in enumerate(fg.node_list)},
        iterations,
    )


def pagerank_reference(
    graph: DiGraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> Tuple[Dict[Node, float], int]:
    """The dict-of-sets power iteration: ground truth for :func:`pagerank`."""
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    nodes = sorted(graph.nodes(), key=repr)
    n = len(nodes)
    if n == 0:
        return {}, 0
    score = {node: 1.0 / n for node in nodes}
    for iteration in range(1, max_iterations + 1):
        dangling_mass = sum(
            score[node] for node in nodes if graph.out_degree(node) == 0
        )
        new_score: Dict[Node, float] = {}
        for node in nodes:
            incoming = sum(
                score[src] / graph.out_degree(src)
                for src in graph.predecessors(node)
            )
            new_score[node] = (
                (1.0 - damping) / n
                + damping * (incoming + dangling_mass / n)
            )
        drift = max(abs(new_score[node] - score[node]) for node in nodes)
        score = new_score
        if drift < tolerance:
            return score, iteration
    raise ConvergenceError("pagerank", max_iterations)


@traced("repro.labeling.hits")
def hits(
    graph: DiGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> Tuple[Dict[Node, float], Dict[Node, float], int]:
    """Kleinberg's HITS; returns (hub scores, authority scores, iterations).

    Authority(v) = Σ hub(u) over in-neighbors; hub(u) = Σ authority(v)
    over out-neighbors; both L2-normalised each round.  Runs
    :meth:`FrozenGraph.hits_scores`; :func:`hits_reference` is the
    ground truth.
    """
    fg = graph.frozen()
    hub, authority, iterations = fg.hits_scores(tolerance, max_iterations)
    nodes_list = fg.node_list
    return (
        {node: float(hub[i]) for i, node in enumerate(nodes_list)},
        {node: float(authority[i]) for i, node in enumerate(nodes_list)},
        iterations,
    )


def hits_reference(
    graph: DiGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> Tuple[Dict[Node, float], Dict[Node, float], int]:
    """The dict-of-sets HITS iteration: ground truth for :func:`hits`."""
    nodes = sorted(graph.nodes(), key=repr)
    n = len(nodes)
    if n == 0:
        return {}, {}, 0
    hub = {node: 1.0 for node in nodes}
    authority = {node: 1.0 for node in nodes}
    for iteration in range(1, max_iterations + 1):
        new_authority = {
            node: sum(hub[src] for src in graph.predecessors(node))
            for node in nodes
        }
        _normalize(new_authority)
        new_hub = {
            node: sum(new_authority[dst] for dst in graph.successors(node))
            for node in nodes
        }
        _normalize(new_hub)
        drift = max(
            max(abs(new_hub[v] - hub[v]) for v in nodes),
            max(abs(new_authority[v] - authority[v]) for v in nodes),
        )
        hub, authority = new_hub, new_authority
        if drift < tolerance:
            return hub, authority, iteration
    raise ConvergenceError("hits", max_iterations)


def _normalize(scores: Dict[Node, float]) -> None:
    norm = math.sqrt(sum(value * value for value in scores.values()))
    if norm == 0.0:
        return
    for node in scores:
        scores[node] /= norm
