"""Frozen labeling & batched-routing kernels vs the pure references.

The contract of the PR-5 fast paths (PageRank/HITS power iteration,
multi-source distance/gateway labels, greedy MIS/DS/marking rounds, and
the four batched greedy-routing evaluators) is exact — or, for the
eigenvector scores, tolerance-bounded — equivalence with their
``*_reference`` ground truths.  These tests enforce that on randomized
graphs from a few dozen nodes up, plus structural edge cases: the empty
graph, a single node, edgeless graphs, disconnected graphs, unreachable
routing targets, source == target pairs, and empty pair batches.

``_optimal_for_pairs`` (the shared stretch denominator) gets its own
independent check against a per-pair Python BFS: both the fast and the
reference evaluators call it, so their mutual equality could never
catch a bug inside it.
"""

import math

import numpy as np
import pytest

from repro.graphs.generators import (
    complete_graph,
    erdos_renyi,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.graph import DiGraph, Graph
from repro.datasets.gnutella import gnutella_largest_scc, gnutella_like_snapshot
from repro.labeling.cds import marking_process, marking_process_reference
from repro.labeling.ds import (
    neighbor_designated_ds,
    neighbor_designated_ds_reference,
)
from repro.labeling.landmarks import (
    distance_gateway_labels,
    distance_gateway_labels_reference,
    select_landmarks,
    weighted_distance_gateway_labels,
    weighted_distance_gateway_labels_reference,
)
from repro.labeling.mis import (
    compute_mis,
    compute_mis_reference,
    is_maximal_independent_set,
)
from repro.labeling.pagerank import hits, hits_reference, pagerank, pagerank_reference
from repro.remapping import grid_with_holes
from repro.remapping.batch_routing import (
    _optimal_for_pairs,
    evaluate_fspace_routing,
    evaluate_fspace_routing_reference,
    evaluate_geo_routing,
    evaluate_geo_routing_reference,
    evaluate_hyperbolic_routing,
    evaluate_hyperbolic_routing_reference,
    evaluate_kleinberg_routing,
    evaluate_kleinberg_routing_reference,
)
from repro.remapping.feature_space import FeatureSpace
from repro.remapping.hyperbolic import embed_tree
from repro.graphs.generators import kleinberg_grid

#: Random-graph sizes: two small graphs and one of a hundred-odd nodes.
SIZES = (24, 40, 120)


def _edgeless(kind, n):
    graph = kind()
    for i in range(n):
        graph.add_node(i)
    return graph


#: The empty graph, a single node and an edgeless three-node graph.
TINY_SIZES = (0, 1, 3)


def _random_graph(n, seed):
    return erdos_renyi(n, min(0.9, 6.0 / max(n - 1, 1)), np.random.default_rng(seed))


def _random_pairs(nodes, count, rng):
    return [
        (nodes[int(rng.integers(len(nodes)))], nodes[int(rng.integers(len(nodes)))])
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# score and label kernels
# ----------------------------------------------------------------------
def _scores_close(fast, ref, tol=1e-9):
    fast_scores, fast_iters = fast
    ref_scores, ref_iters = ref
    assert set(fast_scores) == set(ref_scores)
    assert abs(fast_iters - ref_iters) <= 1
    for node, value in ref_scores.items():
        assert math.isclose(fast_scores[node], value, rel_tol=tol, abs_tol=tol)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [1, 2])
def test_pagerank_matches_reference(n, seed):
    graph = gnutella_like_snapshot(n, np.random.default_rng(seed))
    _scores_close(pagerank(graph), pagerank_reference(graph))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [3, 4])
def test_hits_matches_reference(n, seed):
    graph = gnutella_like_snapshot(n, np.random.default_rng(seed))
    fast_hub, fast_auth, fast_iters = hits(graph)
    ref_hub, ref_auth, ref_iters = hits_reference(graph)
    _scores_close((fast_hub, fast_iters), (ref_hub, ref_iters))
    _scores_close((fast_auth, fast_iters), (ref_auth, ref_iters))


@pytest.mark.parametrize("n", TINY_SIZES)
def test_scores_on_tiny_digraphs_match_reference(n):
    # Edgeless HITS scores are 0.0 on one side and int 0 on the other,
    # so compare by value.
    graph = _edgeless(DiGraph, n)
    _scores_close(pagerank(graph), pagerank_reference(graph))
    fast_hub, fast_auth, fast_iters = hits(graph)
    ref_hub, ref_auth, ref_iters = hits_reference(graph)
    _scores_close((fast_hub, fast_iters), (ref_hub, ref_iters))
    _scores_close((fast_auth, fast_iters), (ref_auth, ref_iters))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [5, 6])
def test_distance_labels_match_reference(n, seed):
    graph = _random_graph(n, seed)
    landmarks = select_landmarks(graph, max(2, n // 12))
    assert distance_gateway_labels(graph, landmarks) == \
        distance_gateway_labels_reference(graph, landmarks)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [7, 8])
def test_weighted_labels_match_reference(n, seed):
    rng = np.random.default_rng(seed)
    graph = gnutella_largest_scc(n, rng)
    for u, v in graph.edges():
        graph.set_edge_attr(u, v, "weight", float(rng.uniform(0.05, 1.0)))
    landmarks = select_landmarks(graph, 4)
    assert weighted_distance_gateway_labels(graph, landmarks) == \
        weighted_distance_gateway_labels_reference(graph, landmarks)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [9, 10])
def test_mis_and_ds_and_marking_match_reference(n, seed):
    graph = _random_graph(n, seed)
    fast_set, fast_rounds = compute_mis(graph)
    ref_set, ref_rounds = compute_mis_reference(graph)
    assert fast_set == ref_set
    assert fast_rounds == ref_rounds
    assert is_maximal_independent_set(graph, fast_set)
    assert neighbor_designated_ds(graph) == neighbor_designated_ds_reference(graph)
    assert marking_process(graph) == marking_process_reference(graph)


@pytest.mark.parametrize("n", TINY_SIZES)
def test_labels_on_tiny_graphs_match_reference(n):
    graph = _edgeless(Graph, n)
    assert compute_mis(graph) == compute_mis_reference(graph)
    assert neighbor_designated_ds(graph) == neighbor_designated_ds_reference(graph)
    assert marking_process(graph) == marking_process_reference(graph)
    if n:
        landmarks = select_landmarks(graph, 2)
        assert distance_gateway_labels(graph, landmarks) == \
            distance_gateway_labels_reference(graph, landmarks)
        assert weighted_distance_gateway_labels(graph, landmarks) == \
            weighted_distance_gateway_labels_reference(graph, landmarks)


def test_labels_on_disconnected_graph():
    graph = _random_graph(60, 42)
    for i in range(12):  # isolated island: a path the landmarks miss
        graph.add_node(("island", i))
    for i in range(11):
        graph.add_edge(("island", i), ("island", i + 1))
    landmarks = [lm for lm in select_landmarks(graph, 5)
                 if not (isinstance(lm, tuple) and lm[0] == "island")]
    fast = distance_gateway_labels(graph, landmarks)
    assert fast == distance_gateway_labels_reference(graph, landmarks)
    assert ("island", 0) not in fast  # unreachable nodes stay unlabeled
    assert marking_process(graph) == marking_process_reference(graph)
    assert compute_mis(graph)[0] == compute_mis_reference(graph)[0]


def test_marking_dense_regime_uses_bitset_and_matches():
    # A clique-of-cliques is dense enough to clear the n^2 <= 512 m gate.
    graph = complete_graph(48)
    graph.remove_edge(0, 1)  # ensure some node is genuinely marked
    assert graph.num_nodes ** 2 <= 512 * graph.num_edges
    assert marking_process(graph) == marking_process_reference(graph)


@pytest.mark.parametrize("make", [lambda: path_graph(64), lambda: star_graph(63)])
def test_degenerate_shapes_match_reference(make):
    graph = make()
    landmarks = select_landmarks(graph, 3)
    assert distance_gateway_labels(graph, landmarks) == \
        distance_gateway_labels_reference(graph, landmarks)
    assert compute_mis(graph) == compute_mis_reference(graph)
    assert neighbor_designated_ds(graph) == neighbor_designated_ds_reference(graph)
    assert marking_process(graph) == marking_process_reference(graph)


# ----------------------------------------------------------------------
# batched routing evaluators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("side", [5, 9, 14])
def test_geo_and_hyperbolic_batches_match_reference(side):
    graph = grid_with_holes(
        side, 1.6, (((0.3 * side, 0.35 * side), 0.16 * side),),
        rng=np.random.default_rng(side),
    )
    rng = np.random.default_rng(side + 50)
    nodes = sorted(graph.nodes(), key=repr)
    pairs = _random_pairs(nodes, 80, rng)
    pairs += [(nodes[0], nodes[0])]  # source == target: zero-hop delivery
    fast = evaluate_geo_routing(graph, pairs)
    ref = evaluate_geo_routing_reference(graph, pairs)
    assert fast.rows() == ref.rows()
    assert fast.rows()[-1][2:] == (True, 0, 0)
    embedding = embed_tree(graph, certify=False)
    fast = evaluate_hyperbolic_routing(graph, embedding, pairs)
    ref = evaluate_hyperbolic_routing_reference(graph, embedding, pairs)
    assert fast.rows() == ref.rows()


@pytest.mark.parametrize("side", [5, 8, 12])
def test_kleinberg_batch_matches_reference(side):
    graph = kleinberg_grid(side, 2.0, np.random.default_rng(side))
    rng = np.random.default_rng(side + 60)
    nodes = sorted(graph.nodes())
    pairs = _random_pairs(nodes, 60, rng)
    fast = evaluate_kleinberg_routing(graph, pairs)
    ref = evaluate_kleinberg_routing_reference(graph, pairs)
    assert fast.rows() == ref.rows()


@pytest.mark.parametrize("members", [20, 90, 300])
def test_fspace_batch_matches_reference(members):
    rng = np.random.default_rng(members)
    profiles = {
        f"m{i}": tuple(int(x) for x in rng.integers(0, 3, size=6))
        for i in range(members)
    }
    space = FeatureSpace(profiles, (3,) * 6)
    occupied = sorted(space.strong_link_graph().nodes())
    pairs = _random_pairs(occupied, 50, rng)
    fast = evaluate_fspace_routing(space, pairs)
    ref = evaluate_fspace_routing_reference(space, pairs)
    assert fast.rows() == ref.rows()


def test_routing_empty_pairs():
    graph = grid_with_holes(6, 1.6, (), rng=np.random.default_rng(0))
    result = evaluate_geo_routing(graph, [])
    assert result.rows() == []
    assert result.success_rate == 1.0
    assert math.isnan(result.mean_hops)
    assert math.isnan(result.mean_stretch)


def test_routing_unreachable_targets():
    # Two unit-disk clusters far apart: pairs across the gap can never
    # deliver, and their optimal hop count must report -1.
    rng = np.random.default_rng(17)
    graph = Graph()
    for i in range(40):
        graph.add_node(("a", i), pos=(rng.uniform(0, 4), rng.uniform(0, 4)))
    for i in range(40):
        graph.add_node(("b", i), pos=(rng.uniform(50, 54), rng.uniform(0, 4)))
    nodes = sorted(graph.nodes(), key=repr)
    positions = {v: graph.node_attr(v, "pos") for v in nodes}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            ux, uy = positions[u]
            vx, vy = positions[v]
            if math.hypot(ux - vx, uy - vy) <= 1.9:
                graph.add_edge(u, v)
    pairs = [(("a", 0), ("b", 0)), (("b", 3), ("a", 7)), (("a", 1), ("a", 2))]
    fast = evaluate_geo_routing(graph, pairs, positions=positions)
    ref = evaluate_geo_routing_reference(graph, pairs, positions=positions)
    assert fast.rows() == ref.rows()
    assert not fast.delivered[0] and not fast.delivered[1]
    assert fast.optimal_hops[0] == -1 and fast.optimal_hops[1] == -1


# ----------------------------------------------------------------------
# the shared stretch denominator
# ----------------------------------------------------------------------
def _bfs_hops(adjacency, source, target):
    """Plain dict-based BFS hop count; -1 if unreachable."""
    if source == target:
        return 0
    seen = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for other in adjacency[node]:
                if other not in seen:
                    seen[other] = seen[node] + 1
                    if other == target:
                        return seen[other]
                    nxt.append(other)
        frontier = nxt
    return -1


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("directed", [False, True])
def test_optimal_for_pairs_matches_python_bfs(seed, directed):
    rng = np.random.default_rng(seed)
    if directed:
        graph = gnutella_like_snapshot(90, rng)
        adjacency = {v: sorted(graph.successors(v)) for v in graph.nodes()}
    else:
        graph = erdos_renyi(90, 0.04, rng)
        adjacency = {v: sorted(graph.neighbors(v)) for v in graph.nodes()}
    fg = graph.frozen()
    nodes = fg.node_list
    n_pairs = 70
    sources = rng.integers(0, fg.n, size=n_pairs).astype(np.int64)
    targets = rng.integers(0, fg.n, size=n_pairs).astype(np.int64)
    sources[0] = targets[0]  # pin a source == target pair
    optimal = _optimal_for_pairs(fg, sources, targets)
    for p in range(n_pairs):
        expected = _bfs_hops(adjacency, nodes[int(sources[p])], nodes[int(targets[p])])
        assert optimal[p] == expected, f"pair {p}"


def test_optimal_for_pairs_many_distinct_targets():
    # More than 63 distinct targets forces multiple bitset chunks.
    graph = random_connected_graph(150, 0.03, np.random.default_rng(31))
    fg = graph.frozen()
    adjacency = {v: sorted(graph.neighbors(v)) for v in graph.nodes()}
    rng = np.random.default_rng(32)
    targets = rng.permutation(fg.n)[:130].astype(np.int64)
    sources = rng.integers(0, fg.n, size=130).astype(np.int64)
    optimal = _optimal_for_pairs(fg, sources, targets)
    nodes = fg.node_list
    for p in range(130):
        expected = _bfs_hops(adjacency, nodes[int(sources[p])], nodes[int(targets[p])])
        assert optimal[p] == expected


def test_optimal_for_pairs_empty():
    graph = path_graph(40)
    fg = graph.frozen()
    empty = np.array([], dtype=np.int64)
    assert _optimal_for_pairs(fg, empty, empty).shape == (0,)
