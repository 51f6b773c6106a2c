"""Random-graph generators used as workloads throughout the paper.

* Erdős–Rényi G(n, p) — the null model;
* Barabási–Albert preferential attachment — scale-free degree
  distributions (Sec. III-B: "node degree distribution follows the
  power-law distribution");
* Watts–Strogatz — small-world rewiring (Sec. I: six degrees);
* Kleinberg grid — the inverse-square small-world whose localized
  greedy routing succeeds with high probability ([2], Sec. I);
* grid / path / star / complete — deterministic fixtures.

All generators take a :class:`numpy.random.Generator` so every
experiment is reproducible from a single seed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs.graph import DiGraph, Graph

GridNode = Tuple[int, int]


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p): each of the C(n, 2) edges appears independently w.p. ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    if n < 2 or p == 0.0:
        return graph
    # Vectorised coin flips over the upper triangle.
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(len(rows)) < p
    for u, v in zip(rows[mask], cols[mask]):
        graph.add_edge(int(u), int(v))
    return graph


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential attachment: each new node attaches to ``m`` targets.

    Targets are drawn proportionally to degree via the standard
    repeated-endpoint urn.  Produces a power-law degree tail with
    exponent ≈ 3.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n <= m:
        raise ValueError(f"n must exceed m, got n={n} m={m}")
    graph = Graph()
    # Seed: a star on m+1 nodes so every node has degree >= 1.
    for node in range(m + 1):
        graph.add_node(node)
    urn: List[int] = []
    for node in range(1, m + 1):
        graph.add_edge(0, node)
        urn.extend((0, node))
    for node in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            pick = urn[int(rng.integers(len(urn)))]
            targets.add(pick)
        for target in targets:
            graph.add_edge(node, target)
            urn.extend((node, target))
    return graph


def watts_strogatz(n: int, k: int, beta: float, rng: np.random.Generator) -> Graph:
    """Small-world ring: ``k`` nearest neighbours, rewired w.p. ``beta``."""
    if k % 2 != 0 or k < 2:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k >= n:
        raise ValueError(f"k must be < n, got k={k} n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for node in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(node, (node + offset) % n)
    if beta == 0.0:
        return graph
    for node in range(n):
        for offset in range(1, k // 2 + 1):
            neighbor = (node + offset) % n
            if rng.random() >= beta or not graph.has_edge(node, neighbor):
                continue
            candidates = [
                x for x in range(n)
                if x != node and not graph.has_edge(node, x)
            ]
            if not candidates:
                continue
            graph.remove_edge(node, neighbor)
            graph.add_edge(node, candidates[int(rng.integers(len(candidates)))])
    return graph


def grid_2d(rows: int, cols: int) -> Graph:
    """The rows×cols 4-neighbour lattice on (row, col) nodes."""
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
    return graph


def manhattan(a: GridNode, b: GridNode) -> int:
    """Lattice (L1) distance on the grid."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def kleinberg_grid(
    side: int,
    r: float,
    rng: np.random.Generator,
    long_range_links: int = 1,
) -> DiGraph:
    """Kleinberg's small-world grid ([2], Sec. I).

    A side×side lattice where every node keeps its 4 lattice arcs and
    adds ``long_range_links`` directed long-range arcs, choosing target
    v with probability proportional to ``manhattan(u, v)^-r``.  The
    paper's headline: decentralized greedy routing finds short paths
    with high probability exactly at the inverse-square law r = 2.
    """
    if side < 2:
        raise ValueError(f"side must be >= 2, got {side}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    graph = DiGraph()
    nodes = [(row, col) for row in range(side) for col in range(side)]
    for node in nodes:
        graph.add_node(node)
    for row, col in nodes:
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = row + dr, col + dc
            if 0 <= nr < side and 0 <= nc < side:
                graph.add_edge((row, col), (nr, nc), long_range=False)

    node_array = np.array(nodes)
    for u in nodes:
        distances = np.abs(node_array[:, 0] - u[0]) + np.abs(node_array[:, 1] - u[1])
        weights = np.zeros(len(nodes), dtype=float)
        nonzero = distances > 0
        weights[nonzero] = distances[nonzero] ** (-float(r)) if r > 0 else 1.0
        weights /= weights.sum()
        for _ in range(long_range_links):
            pick = int(rng.choice(len(nodes), p=weights))
            target = (int(node_array[pick, 0]), int(node_array[pick, 1]))
            if target != u and not graph.has_edge(u, target):
                graph.add_edge(u, target, long_range=True)
    return graph


def path_graph(n: int) -> Graph:
    """The path P_n on nodes 0..n-1."""
    graph = Graph()
    graph.add_node(0)
    for i in range(1, n):
        graph.add_edge(i - 1, i)
    return graph


def star_graph(leaves: int) -> Graph:
    """A star with the given number of leaves around node 0."""
    graph = Graph()
    graph.add_node(0)
    for leaf in range(1, leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def complete_graph(n: int) -> Graph:
    """K_n on nodes 0..n-1."""
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """A uniform random recursive tree on nodes 0..n-1."""
    graph = Graph()
    graph.add_node(0)
    for node in range(1, n):
        graph.add_edge(node, int(rng.integers(node)))
    return graph


def random_connected_graph(
    n: int, extra_edge_prob: float, rng: np.random.Generator
) -> Graph:
    """A random tree plus independent extra edges — always connected."""
    graph = random_tree(n, rng)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(len(rows)) < extra_edge_prob
    for u, v in zip(rows[mask], cols[mask]):
        if not graph.has_edge(int(u), int(v)):
            graph.add_edge(int(u), int(v))
    return graph


def degree_ordered_edges(
    n: int,
    avg_degree: float,
    exponent: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected Chung–Lu edge list with degrees descending in index.

    Expected degrees follow the power law ``w_i ∝ (i+1)^(-1/(γ-1))``
    (γ = ``exponent``), so node 0 is the top hub and degrees decay
    monotonically with the node index — the "degree-ordered" layout
    :func:`degree_ordered_graph` freezes directly into CSR, no
    relabeling pass needed.  Endpoints are sampled proportionally to
    the weights, then self-loops and duplicates are dropped, so the
    realized edge count is slightly below ``n * avg_degree / 2``.

    Fully vectorized (two weighted draws, one ``np.unique`` over
    ``u * n + v`` pair keys), with no Python call per edge.  Returns
    the deduplicated ``(u, v)`` arrays with ``u < v``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    if exponent <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    draws = max(1, int(round(n * avg_degree / 2)))
    weights = np.power(
        np.arange(1, n + 1, dtype=np.float64), -1.0 / (exponent - 1.0)
    )
    prob = weights / weights.sum()
    u = rng.choice(n, size=draws, p=prob).astype(np.int64)
    v = rng.choice(n, size=draws, p=prob).astype(np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    keys = np.unique(lo * np.int64(n) + hi)
    return keys // n, keys % n


def degree_ordered_graph(
    n: int,
    avg_degree: float = 8.0,
    exponent: float = 2.5,
    rng: np.random.Generator = None,
):
    """Frozen CSR snapshot of a :func:`degree_ordered_edges` draw.

    Builds the symmetric CSR arrays directly (bincount degrees →
    cumsum ``indptr``; lexsorted ``(src, dst)`` → sorted rows) and
    freezes via :meth:`FrozenGraph.from_arrays` without ever touching
    the dict-of-sets representation, so the build costs a few array
    passes instead of one Python call per edge.
    :func:`degree_ordered_reference` replays the same edge list
    through the mutable :class:`Graph` builder; the two must freeze to
    identical arrays.
    """
    from repro.graphs.csr import FrozenGraph

    if rng is None:
        rng = np.random.default_rng(0)
    lo, hi = degree_ordered_edges(n, avg_degree, exponent, rng)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return FrozenGraph.from_arrays(indptr, dst, copy=False, validate=False)


def degree_ordered_reference(
    n: int,
    avg_degree: float = 8.0,
    exponent: float = 2.5,
    rng: np.random.Generator = None,
) -> Graph:
    """Mutable-Graph twin of :func:`degree_ordered_graph` (same seed →
    same edge set), for bit-exactness checks at verification scale."""
    if rng is None:
        rng = np.random.default_rng(0)
    lo, hi = degree_ordered_edges(n, avg_degree, exponent, rng)
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for u, v in zip(lo.tolist(), hi.tolist()):
        graph.add_edge(u, v)
    return graph
