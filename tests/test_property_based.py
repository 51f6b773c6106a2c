"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.graphs.interval import (
    interval_graph,
    is_chordal,
    is_interval_graph,
    multiple_interval_graph,
)
from repro.graphs.interval_hypergraph import interval_hypergraph
from repro.graphs.hypercube import (
    GeneralizedHypercube,
    hamming_distance,
    paths_are_node_disjoint,
)
from repro.graphs.traversal import (
    bfs_distances,
    connected_components,
    dijkstra,
    is_connected,
    minimum_spanning_tree,
)
from repro.graphs.unit_disk import unit_disk_graph
from repro.labeling.cds import is_connected_dominating_set, marking_process
from repro.labeling.mis import compute_mis, is_maximal_independent_set
from repro.labeling.safety import (
    compute_safety_levels,
    optimally_reachable_set,
)
from repro.temporal.evolving import EvolvingGraph
from repro.temporal.journeys import (
    earliest_arrival,
    earliest_completion_journey,
    fastest_journey,
    is_valid_journey,
    minimum_hop_journey,
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

@st.composite
def edge_lists(draw, max_nodes=10, max_edges=20):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    count = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(count):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    return n, edges


@st.composite
def contact_lists(draw, max_nodes=7, horizon=8, max_contacts=24):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    count = draw(st.integers(min_value=0, max_value=max_contacts))
    contacts = []
    for _ in range(count):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        t = draw(st.integers(min_value=0, max_value=horizon - 1))
        if u != v:
            contacts.append((u, v, t))
    return n, horizon, contacts


@st.composite
def interval_families(draw, max_nodes=8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    families = {}
    for i in range(n):
        count = draw(st.integers(min_value=0, max_value=3))
        intervals = []
        for _ in range(count):
            left = draw(st.floats(min_value=0, max_value=50, allow_nan=False))
            width = draw(st.floats(min_value=0.0, max_value=10, allow_nan=False))
            intervals.append((left, left + width))
        families[i] = intervals
    return families


def build_graph(n, edges):
    g = Graph()
    for node in range(n):
        g.add_node(node)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def build_eg(n, horizon, contacts):
    eg = EvolvingGraph(horizon=horizon, nodes=range(n))
    for u, v, t in contacts:
        eg.add_contact(u, v, t)
    return eg


# ----------------------------------------------------------------------
# graph invariants
# ----------------------------------------------------------------------

@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_components_partition_nodes(data):
    n, edges = data
    g = build_graph(n, edges)
    comps = connected_components(g)
    union = set()
    total = 0
    for comp in comps:
        assert not (union & comp)
        union |= comp
        total += len(comp)
    assert union == set(g.nodes())
    assert total == g.num_nodes


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_bfs_distances_triangle_inequality_on_edges(data):
    n, edges = data
    g = build_graph(n, edges)
    dist = bfs_distances(g, 0)
    for u, v in g.edges():
        if u in dist and v in dist:
            assert abs(dist[u] - dist[v]) <= 1


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_dijkstra_unit_weights_equals_bfs(data):
    n, edges = data
    g = build_graph(n, edges)
    bfs = bfs_distances(g, 0)
    weighted, _ = dijkstra(g, 0)
    assert set(bfs) == set(weighted)
    for node, d in bfs.items():
        assert weighted[node] == float(d)


@given(edge_lists(max_nodes=9, max_edges=25))
@settings(max_examples=60, deadline=None)
def test_mst_has_component_count_edges(data):
    n, edges = data
    g = build_graph(n, edges)
    tree = minimum_spanning_tree(g)
    comps = connected_components(g)
    assert tree.num_edges == g.num_nodes - len(comps)


# ----------------------------------------------------------------------
# interval invariants
# ----------------------------------------------------------------------

@given(interval_families())
@settings(max_examples=60, deadline=None)
def test_multiple_interval_graphs_of_single_intervals_are_interval(families):
    single = {k: v[:1] for k, v in families.items()}
    g = multiple_interval_graph(single)
    assert is_chordal(g)
    assert is_interval_graph(g)


@given(interval_families())
@settings(max_examples=50, deadline=None)
def test_hypergraph_members_pairwise_overlap(families):
    hyper = interval_hypergraph(families)
    for edge in hyper.hyperedges:
        window_lo, window_hi = edge.window
        for member in edge.members:
            assert any(
                lo <= window_hi and window_lo <= hi
                for lo, hi in families[member]
            )


@given(interval_families())
@settings(max_examples=50, deadline=None)
def test_hypergraph_two_section_subgraph_of_interval_graph(families):
    hyper = interval_hypergraph(families)
    pairwise = multiple_interval_graph(families)
    section = hyper.two_section()
    for u, v in section.edges():
        assert pairwise.has_edge(u, v)


# ----------------------------------------------------------------------
# temporal invariants
# ----------------------------------------------------------------------

@given(contact_lists())
@settings(max_examples=60, deadline=None)
def test_earliest_arrival_monotone_in_start(data):
    n, horizon, contacts = data
    eg = build_eg(n, horizon, contacts)
    early = earliest_arrival(eg, 0, start=0)
    late = earliest_arrival(eg, 0, start=2)
    # Starting later can only reach fewer nodes, never earlier.
    assert set(late) <= set(early)
    for node, t in late.items():
        if node != 0:
            assert t >= early[node]


@given(contact_lists())
@settings(max_examples=60, deadline=None)
def test_optimal_journeys_are_valid(data):
    n, horizon, contacts = data
    eg = build_eg(n, horizon, contacts)
    for target in range(1, n):
        journey = earliest_completion_journey(eg, 0, target)
        if journey is not None:
            assert is_valid_journey(eg, journey)
        hops = minimum_hop_journey(eg, 0, target)
        if hops is not None:
            assert is_valid_journey(eg, hops)
        fast = fastest_journey(eg, 0, target)
        if fast is not None:
            assert is_valid_journey(eg, fast)


@given(contact_lists())
@settings(max_examples=60, deadline=None)
def test_journey_optimality_relations(data):
    n, horizon, contacts = data
    eg = build_eg(n, horizon, contacts)
    for target in range(1, n):
        early = earliest_completion_journey(eg, 0, target)
        hops = minimum_hop_journey(eg, 0, target)
        fast = fastest_journey(eg, 0, target)
        if early is None:
            assert hops is None
            continue
        # Reachability agrees across the three variants.
        assert hops is not None
        if target != 0 and early.hops:
            assert fast is not None
            assert hops.hop_count <= early.hop_count
            assert fast.span <= early.span


# ----------------------------------------------------------------------
# hypercube and labeling invariants
# ----------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_generalized_hypercube_disjoint_paths(radices, data):
    gh = GeneralizedHypercube(radices)
    a = tuple(data.draw(st.integers(0, r - 1)) for r in radices)
    b = tuple(data.draw(st.integers(0, r - 1)) for r in radices)
    paths = gh.disjoint_paths(a, b)
    d = hamming_distance(a, b)
    if d == 0:
        assert paths == [[a]]
        return
    assert len(paths) == d
    assert paths_are_node_disjoint(paths)
    for path in paths:
        assert len(path) - 1 == d
        for x, y in zip(path, path[1:]):
            assert hamming_distance(x, y) == 1


@given(edge_lists(max_nodes=9, max_edges=20))
@settings(max_examples=60, deadline=None)
def test_mis_always_maximal_independent(data):
    n, edges = data
    g = build_graph(n, edges)
    mis, _ = compute_mis(g)
    assert is_maximal_independent_set(g, mis)


@given(edge_lists(max_nodes=9, max_edges=24))
@settings(max_examples=60, deadline=None)
def test_marking_is_cds_on_connected_graphs(data):
    n, edges = data
    g = build_graph(n, edges)
    if not is_connected(g) or g.num_nodes < 3:
        return
    black = marking_process(g)
    if black:
        assert is_connected_dominating_set(g, black)


@given(st.sets(st.integers(min_value=0, max_value=15), max_size=5))
@settings(max_examples=40, deadline=None)
def test_safety_levels_sound_for_any_fault_set(fault_ints):
    from repro.graphs.hypercube import address_from_int, binary_addresses

    faults = frozenset(address_from_int(i, 4) for i in fault_ints)
    s = compute_safety_levels(4, faults)
    for u in binary_addresses(4):
        if u in faults:
            assert s.levels[u] == 0
            continue
        reach = optimally_reachable_set(4, faults, u)
        for v in binary_addresses(4):
            if v not in faults and hamming_distance(u, v) <= s.levels[u]:
                assert v in reach


# ----------------------------------------------------------------------
# CSR patch buffer (repro.graphs.delta)
# ----------------------------------------------------------------------

@st.composite
def patch_scripts(draw, max_nodes=8, max_edges=14, max_ops=16):
    n, edges = draw(edge_lists(max_nodes=max_nodes, max_edges=max_edges))
    count = draw(st.integers(min_value=0, max_value=max_ops))
    ops = []
    for _ in range(count):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            ops.append((u, v))
    return n, edges, ops


def apply_script(n, edges, ops):
    """Drive a PatchedGraph and a mirror dict graph through ``ops``.

    Present edges are deleted, absent ones inserted — so every script
    is valid and both delete-of-base and delete-of-pending-insert
    paths get exercised as scripts revisit pairs.
    """
    from repro.graphs.csr import FrozenGraph
    from repro.graphs.delta import PatchedGraph

    mirror = build_graph(n, edges)
    pg = PatchedGraph(FrozenGraph(mirror), threshold=1_000_000)
    for u, v in ops:
        if mirror.has_edge(u, v):
            pg.delete_edge(u, v)
            mirror.remove_edge(u, v)
        else:
            assert pg.insert_edge(u, v) is True
            mirror.add_edge(u, v)
    return pg, mirror


@given(patch_scripts())
@settings(max_examples=60, deadline=None)
def test_patch_merge_equals_refreeze(data):
    from repro.graphs.csr import FrozenGraph

    pg, mirror = apply_script(*data)
    reference = FrozenGraph(mirror)
    merged = pg.merge()
    assert merged.node_list == reference.node_list
    assert np.array_equal(merged.indptr, reference.indptr)
    assert np.array_equal(merged.indices, reference.indices)


@given(patch_scripts())
@settings(max_examples=60, deadline=None)
def test_patch_double_merge_idempotent(data):
    pg, _ = apply_script(*data)
    first = pg.merge()
    second = pg.merge()
    assert first.node_list == second.node_list
    assert np.array_equal(first.indptr, second.indptr)
    assert np.array_equal(first.indices, second.indices)


@given(patch_scripts(max_ops=8))
@settings(max_examples=60, deadline=None)
def test_delete_of_pending_insert_cancels(data):
    n, edges, ops = data
    pg, mirror = apply_script(n, edges, ops)
    absent = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not mirror.has_edge(u, v)
    ]
    if not absent:
        return
    pending_before = pg.pending
    u, v = absent[0]
    assert pg.insert_edge(u, v) is True
    pg.delete_edge(u, v)
    assert pg.pending == pending_before
    assert not pg.has_edge(u, v)


@given(patch_scripts(max_ops=6))
@settings(max_examples=60, deadline=None)
def test_patch_validation_parity_with_graph(data):
    import pytest

    n, edges, ops = data
    pg, mirror = apply_script(n, edges, ops)
    # Duplicate inserts: no-ops on both substrates, version untouched.
    for u, v in list(mirror.edges())[:3]:
        version = pg.version
        assert pg.insert_edge(u, v) is False
        assert pg.version == version
    # Self-loops: same exception type and message as Graph.add_edge.
    with pytest.raises(ValueError) as from_patch:
        pg.insert_edge(0, 0)
    with pytest.raises(ValueError) as from_graph:
        mirror.add_edge(0, 0)
    assert str(from_patch.value) == str(from_graph.value)


# ----------------------------------------------------------------------
# Batched write path (PatchedGraph.apply_batch)
# ----------------------------------------------------------------------

def batch_from_ops(mirror, ops):
    """Split ``ops`` into one valid ``(inserts, deletes)`` batch.

    The first touch of a pair decides its fate — absent pairs become
    inserts, present pairs deletes — and repeat touches are dropped, so
    the batch equals running the inserts then the deletes per-edge.
    """
    seen = set()
    inserts, deletes = [], []
    for u, v in ops:
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        if mirror.has_edge(u, v):
            deletes.append((u, v))
        else:
            inserts.append((u, v))
    return inserts, deletes


def assert_same_patch_state(per_edge, batched, context):
    assert batched.pending == per_edge.pending, context
    a, b = per_edge.snapshot(), batched.snapshot()
    assert a.node_list == b.node_list, context
    assert np.array_equal(a.indptr, b.indptr), context
    assert np.array_equal(a.indices, b.indices), context
    # Rebase discipline is part of the contract: identical thresholds
    # and identical pending counts must rebase identically.
    assert batched.pending == per_edge.pending, context


@given(patch_scripts(), st.sampled_from([0, 2, 1_000_000]))
@settings(max_examples=60, deadline=None)
def test_apply_batch_equals_per_edge(data, threshold):
    from repro.graphs.csr import FrozenGraph
    from repro.graphs.delta import PatchedGraph

    n, edges, ops = data
    mirror = build_graph(n, edges)
    per_edge = PatchedGraph(
        FrozenGraph(build_graph(n, edges)), threshold=threshold
    )
    batched = PatchedGraph(
        FrozenGraph(build_graph(n, edges)), threshold=threshold
    )
    inserts, deletes = batch_from_ops(mirror, ops)
    for u, v in inserts:
        assert per_edge.insert_edge(u, v) is True
        mirror.add_edge(u, v)
    for u, v in deletes:
        per_edge.delete_edge(u, v)
        mirror.remove_edge(u, v)
    result = batched.apply_batch(inserts, deletes)
    # On a patch-free graph every insert is a new pending add and every
    # delete a new pending delete of a base edge, under one version bump.
    assert result.changed == len(inserts) + len(deletes)
    assert batched.pending == len(inserts) + len(deletes)
    assert batched.version == (1 if result.changed else 0)
    assert_same_patch_state(per_edge, batched, (threshold, "round 1"))
    # A second batch on top of live patch state (pending inserts and
    # deletes from round 1 unless a rebase cleared them) exercises the
    # restore and cancel arms; ``changed`` must equal the number of
    # per-edge version bumps the same sequence produces.
    inserts2, deletes2 = batch_from_ops(mirror, list(reversed(ops)))
    version_before = per_edge.version
    for u, v in inserts2:
        assert per_edge.insert_edge(u, v) is True
    for u, v in deletes2:
        per_edge.delete_edge(u, v)
    result2 = batched.apply_batch(inserts2, deletes2)
    assert result2.changed == per_edge.version - version_before
    assert_same_patch_state(per_edge, batched, (threshold, "round 2"))


@given(patch_scripts(max_ops=6))
@settings(max_examples=60, deadline=None)
def test_apply_batch_self_cancellation(data):
    n, edges, ops = data
    pg, mirror = apply_script(n, edges, ops)
    pending = pg.pending
    version = pg.version
    fresh = "fresh-node"
    result = pg.apply_batch([(fresh, 0)], [(fresh, 0)])
    # The delete cancels the batch's own insert: net-nil edge state,
    # but the new endpoint stays interned (deletes keep nodes).
    assert result.changed == 2
    assert result.touched == [(pg.index_of(0), pg.index_of(fresh))]
    assert pg.pending == pending
    assert pg.version == version + 1  # state changed transiently
    assert not pg.has_edge(fresh, 0)
    assert fresh in pg.node_list
    assert pg.snapshot().n == mirror.num_nodes + 1


@given(patch_scripts(max_ops=6))
@settings(max_examples=40, deadline=None)
def test_apply_batch_strict_atomic_on_bad_delete(data):
    import pytest

    from repro.errors import EdgeNotFoundError

    n, edges, ops = data
    pg, mirror = apply_script(n, edges, ops)
    absent = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not mirror.has_edge(u, v)
    ]
    if not absent:
        return
    good = absent[0]
    pending = pg.pending
    with pytest.raises(EdgeNotFoundError):
        pg.apply_batch([good], [(good[0], good[0] + 1000)])
    # Strict batches are atomic for edge state: the valid insert ahead
    # of the bad delete must not have landed.
    assert pg.pending == pending
    assert not pg.has_edge(*good)


@given(
    patch_scripts(max_ops=6),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=3),
    st.sampled_from(["self-loop", "absent delete", "double delete"]),
)
@settings(max_examples=40, deadline=None)
def test_service_rejected_batch_leaves_no_trace(data, anchors, fault):
    """A :class:`GraphService` batch that raises after interning new
    nodes leaves ``node_list``, ``version``, ``pending`` and the
    snapshot arrays as they were."""
    import pytest

    from repro.errors import EdgeNotFoundError
    from repro.serving import GraphService

    n, edges, ops = data
    mirror = build_graph(n, edges)
    service = GraphService(
        build_graph(n, edges), landmarks=[0], threshold=1_000_000
    )
    for u, v in ops:
        if mirror.has_edge(u, v):
            service.delete_edge(u, v)
            mirror.remove_edge(u, v)
        else:
            service.insert_edge(u, v)
            mirror.add_edge(u, v)
    inserts = [(f"fresh{k}", a % n) for k, a in enumerate(anchors)]
    deletes = []
    if fault == "self-loop":
        inserts.append(("fresh0", "fresh0"))
        error = ValueError
    elif fault == "absent delete":
        deletes = [("fresh0", "never-interned")]
        error = EdgeNotFoundError
    else:  # the first delete cancels the batch's own insert
        deletes = [inserts[0], inserts[0]]
        error = EdgeNotFoundError
    nodes = list(service.node_list)
    version = service.version
    pending = service.patched.pending
    before = service.snapshot()
    with pytest.raises(error):
        service.apply_batch(inserts, deletes)
    assert service.node_list == nodes
    assert service.version == version
    assert service.patched.pending == pending
    after = service.snapshot()
    assert after.node_list == before.node_list
    assert np.array_equal(after.indptr, before.indptr)
    assert np.array_equal(after.indices, before.indices)
    assert not service.patched.has_node("fresh0")
