"""Differential mutate/query harness for the incremental serving plane.

Drives randomized interleaved insert/delete/query traces through a
:class:`~repro.serving.state.GraphService` while maintaining an
independent mirror dict graph, and asserts *bit-exactness* against the
full-rebuild references at every step:

* the merged CSR snapshot vs a fresh ``FrozenGraph`` of the mirror
  (node order, ``indptr``, ``indices``);
* every index of the ``INDEXES`` table vs its full-rebuild oracle:
  the repaired NSF levels vs ``nsf_levels_reference``, the landmark
  labels vs ``distance_gateway_labels_reference``, the MIS vs
  ``compute_mis``, the CDS vs ``wu_dai_cds`` (marked and trimmed set),
  all bit-exact, and the warm-started PageRank vs the cold-start
  ``pagerank_scores`` kernel (within fixed-point tolerance);
* ``distances_from`` — the hot-source store, its held arrays repaired
  across writes — and ``distance``, whose unadmitted sources take the
  bidirectional point search, vs a cold BFS of the mirror, and the
  store's repair kernel vs a cold BFS on small random graphs
  (Hypothesis);
* the repair kernel with one rank per landmark vs a cold multi-source
  sweep (Hypothesis), and the rows it reads on two fixed deletions.

Traces run both per-edge (``insert_edge`` / ``delete_edge``) and in
batch form (``apply_batch``), so the vectorized write path is held to
the same ground truth as the scalar one.

Runs across multiple seeds and patch thresholds — including
``threshold=0``, which rebases (merge + clear) on every snapshot, and a
huge threshold that never rebases — so the merge, rebase, and overlay
paths are all exercised against the same ground truth.  The drive also
asserts the steady-state economics: zero ``repro.cache.frozen`` events
(nothing ever goes through the dict-graph refreeze path).
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.csr import FrozenGraph
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.labeling.incremental import repair_bfs_keys, repair_bfs_levels
from repro.labeling.landmarks import select_landmarks
from repro.layering.nsf import nsf_levels_reference
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.observability.telemetry import cache_counts, serving_counts
from repro.serving import GraphService, state
from repro.serving.state import INDEXES

SEEDS = [0, 1, 2, 3, 4]
THRESHOLDS = [0, 4, 1_000_000]


@pytest.fixture
def registry():
    """Swap in an empty global metrics registry for the test."""
    fresh = MetricsRegistry("test-differential")
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def seed_edges(seed, n=40, extra=0.04):
    rng = np.random.default_rng(seed)
    return [tuple(e) for e in random_connected_graph(n, extra, rng).edges()]


def build_graph(edges):
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def assert_state_bit_exact(service, mirror, landmarks, context):
    """The structural invariants, asserted after every step.

    The CSR arrays are bit-exact against a fresh freeze of the mirror,
    and every index's bulk view agrees with its full-rebuild oracle
    (exactly, or within tolerance for PageRank).
    """
    reference = FrozenGraph(mirror)
    snapshot = service.snapshot()
    assert snapshot.node_list == reference.node_list, context
    assert np.array_equal(snapshot.indptr, reference.indptr), context
    assert np.array_equal(snapshot.indices, reference.indices), context
    for name, spec in INDEXES.items():
        assert spec.agrees(
            spec.view(service), spec.oracle(mirror, landmarks)
        ), (name, context)


def drive_trace(service, mirror, rng, steps, new_node_prob=0.06):
    """Apply one randomized mutation per step; yield after each.

    The op mix covers real inserts, duplicate inserts (must be no-ops),
    deletes of base edges, deletes of pending inserts (must cancel),
    and inserts touching brand-new nodes (index growth).
    """
    fresh = 0
    for step in range(steps):
        nodes = list(mirror.nodes())
        roll = rng.random()
        if roll < new_node_prob:
            fresh += 1
            u, v = f"extra{fresh}", rng.choice(nodes)
            assert service.insert_edge(u, v) is True
            mirror.add_edge(u, v)
        elif roll < 0.45:
            u, v = rng.sample(nodes, 2)
            changed = service.insert_edge(u, v)
            assert changed == (not mirror.has_edge(u, v))
            mirror.add_edge(u, v)
        elif roll < 0.85:
            edges = list(mirror.edges())
            if not edges:
                continue
            u, v = rng.choice(edges)
            service.delete_edge(u, v)
            mirror.remove_edge(u, v)
        else:
            # Insert-then-delete in one step: the delete must cancel
            # the pending insert, leaving the edge set unchanged.
            # Sometimes the insert touches a brand-new node, so the
            # cancel drains pending to zero while the node table has
            # grown — deletes keep nodes (like Graph.remove_edge), so
            # the node survives as an isolated row in both worlds.
            if roll < 0.95:
                u, v = rng.sample(nodes, 2)
                if mirror.has_edge(u, v):
                    continue
            else:
                fresh += 1
                u, v = f"extra{fresh}", rng.choice(nodes)
            assert service.insert_edge(u, v) is True
            service.delete_edge(u, v)
            assert not service.has_edge(u, v)
            mirror.add_edge(u, v)
            mirror.remove_edge(u, v)
        yield step


class TestDifferentialTrace:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_exact_at_every_step(self, seed, threshold):
        edges = seed_edges(seed)
        mirror = build_graph(edges)
        landmarks = select_landmarks(mirror, 3)
        service = GraphService(
            build_graph(edges), landmarks=landmarks, threshold=threshold
        )
        rng = random.Random(seed * 101 + threshold)
        assert_state_bit_exact(service, mirror, landmarks, "initial")
        for step in drive_trace(service, mirror, rng, steps=45):
            assert_state_bit_exact(
                service, mirror, landmarks, (seed, threshold, step)
            )

    def test_point_queries_match_bulk_views(self):
        edges = seed_edges(7)
        mirror = build_graph(edges)
        landmarks = select_landmarks(mirror, 3)
        service = GraphService(
            build_graph(edges), landmarks=landmarks, threshold=8
        )
        rng = random.Random(7)
        for _ in drive_trace(service, mirror, rng, steps=20):
            pass
        levels = service.nsf_levels_map()
        labels = service.gateway_labels_map()
        for node in rng.sample(service.node_list, 10):
            assert service.nsf_level(node) == levels[node]
            assert service.gateway_label(node) == labels.get(node)
        ref = bfs_distances(mirror, landmarks[0])
        for node in rng.sample(service.node_list, 10):
            assert service.distance(landmarks[0], node) == ref.get(node)


def drive_batch_trace(service, mirror, rng, steps, batch=6):
    """Apply one randomized ``apply_batch`` per step; yield after each.

    Each batch groups up to ``batch`` operations: inserts of absent
    pairs (occasionally to a brand-new node) and deletes of present
    edges, plus an occasional insert+delete of the same pair inside one
    batch (net-nil, but the endpoints intern).  Batches are built
    against a simulated presence set so every operation is valid at its
    turn under the inserts-then-deletes batch semantics.  Now and then
    a poisoned copy of the step's batch goes first — a brand-new node
    plus an absent delete — and must be rejected without a trace, so
    the step after it is checked against a mirror that never saw it.
    """
    fresh = 0
    for step in range(steps):
        nodes = list(mirror.nodes())
        present = {frozenset(e) for e in mirror.edges()}
        inserts, deletes = [], []
        staged = set()
        for _ in range(rng.randrange(1, batch + 1)):
            roll = rng.random()
            if roll < 0.08:
                fresh += 1
                u, v = f"batch{fresh}", rng.choice(nodes)
                inserts.append((u, v))
                staged.add(frozenset((u, v)))
            elif roll < 0.5:
                u, v = rng.sample(nodes, 2)
                key = frozenset((u, v))
                if key in staged or key in present:
                    continue
                inserts.append((u, v))
                staged.add(key)
            elif roll < 0.9:
                candidates = [
                    e for e in mirror.edges()
                    if frozenset(e) not in staged
                ]
                if not candidates:
                    continue
                u, v = rng.choice(candidates)
                deletes.append((u, v))
                staged.add(frozenset((u, v)))
            else:
                u, v = rng.sample(nodes, 2)
                key = frozenset((u, v))
                if key in staged or key in present:
                    continue
                inserts.append((u, v))
                deletes.append((u, v))
                staged.add(key)
        if rng.random() < 0.2:
            fresh += 1
            with pytest.raises(EdgeNotFoundError):
                service.apply_batch(
                    inserts + [(f"batch{fresh}", rng.choice(nodes))],
                    deletes + [(f"batch{fresh}", "never-interned")],
                )
        version = service.version
        result = service.apply_batch(inserts, deletes)
        # Every operation is valid and state-changing at its turn.
        assert result.changed == len(inserts) + len(deletes)
        assert service.version == version + (1 if result.changed else 0)
        for u, v in inserts:
            mirror.add_edge(u, v)
        for u, v in deletes:
            mirror.remove_edge(u, v)
        yield step


class TestBatchDifferentialTrace:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_trace_bit_exact_at_every_step(self, seed, threshold):
        """The vectorized write path against the same ground truth."""
        edges = seed_edges(seed)
        mirror = build_graph(edges)
        landmarks = select_landmarks(mirror, 3)
        service = GraphService(
            build_graph(edges), landmarks=landmarks, threshold=threshold
        )
        rng = random.Random(seed * 977 + threshold)
        assert_state_bit_exact(service, mirror, landmarks, "initial")
        for step in drive_batch_trace(service, mirror, rng, steps=20):
            assert_state_bit_exact(
                service, mirror, landmarks, (seed, threshold, step)
            )


class TestFreshNodeCancel:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_cancelled_insert_keeps_interned_node(self, threshold):
        """Insert to a brand-new node, then delete the same edge: the
        cancel drains ``pending`` to zero but the node stays interned
        (deletes keep nodes), so ``snapshot()`` must NOT short-circuit
        to the stale base — the snapshot carries the new node as an
        isolated row and every index query stays in bounds.

        Regression: ``snapshot()`` used to return ``self.base``
        whenever ``pending == 0``, omitting the node and making later
        ``nsf_level`` / ``gateway_label`` repairs index past the end
        of the returned snapshot."""
        edges = [("a", "b"), ("b", "c")]
        mirror = build_graph(edges)
        service = GraphService(
            build_graph(edges), landmarks=["a"], threshold=threshold
        )
        assert service.insert_edge("x", "a") is True
        service.delete_edge("x", "a")
        mirror.add_edge("x", "a")
        mirror.remove_edge("x", "a")
        assert service.patched.pending == 0
        assert service.snapshot().n == 4
        assert_state_bit_exact(service, mirror, ["a"], "fresh-node cancel")
        assert service.nsf_level("x") == nsf_levels_reference(mirror)["x"]
        assert service.gateway_label("x") is None  # isolated: unreachable
        assert service.distance("a", "x") is None


def fresh_levels(mirror, source):
    """The oracle: a cold BFS on a fresh freeze of the mirror graph."""
    reference = FrozenGraph(mirror)
    return reference.bfs_levels(reference.index_of(source))


class TestHotSources:
    """The hot-source store behind ``distances_from`` against a cold
    BFS of the mirror at every step.  The store is shrunk to a few
    slots and queried from a slightly larger hot set, so sources are
    admitted, repaired, evicted and re-admitted throughout."""

    SLOTS = 3

    @pytest.mark.parametrize("batched", [False, True], ids=["edges", "batches"])
    @pytest.mark.parametrize("threshold", [8, 1_000_000])
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_distances_match_cold_bfs_at_every_step(
        self, registry, monkeypatch, seed, threshold, batched
    ):
        monkeypatch.setattr(state, "HOT_SOURCES", self.SLOTS)
        edges = seed_edges(seed)
        mirror = build_graph(edges)
        service = GraphService(
            build_graph(edges), landmark_count=2, threshold=threshold
        )
        rng = random.Random(seed * 31 + threshold)
        hot = rng.sample(sorted(mirror.nodes()), self.SLOTS + 2)
        drive = drive_batch_trace if batched else drive_trace
        for step in drive(service, mirror, rng, steps=30):
            for source in rng.choices(hot, k=3):
                levels = service.distances_from(source)
                assert np.array_equal(
                    levels, fresh_levels(mirror, source)
                ), (seed, threshold, step, source)
                assert len(service._hot) <= self.SLOTS
        counts = serving_counts(registry)
        assert counts["repairs"]["distances"]["relax"] > 0
        assert counts["sweeps"] > self.SLOTS  # evicted sources came back
        assert counts["queries"] == {}  # no gateway involved
        assert cache_counts(registry) == {}

    def test_held_arrays_are_read_only(self):
        service = GraphService(build_graph(CYCLE), landmarks=[0])
        levels = service.distances_from(0)
        assert service.distances_from(0) is levels
        with pytest.raises(ValueError):
            levels[1] = 0
        service.delete_edge(0, 1)
        repaired = service.distances_from(0)
        assert not repaired.flags.writeable
        assert levels[1] == 1 and repaired[1] == 19

    @pytest.mark.parametrize("batched", [False, True], ids=["edges", "batches"])
    @pytest.mark.parametrize("threshold", [8, 1_000_000])
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_point_distances_match_cold_bfs_at_every_step(
        self, registry, monkeypatch, seed, threshold, batched
    ):
        """``distance`` from a cold set four times the store's size:
        unadmitted sources take the point search, the rest the store."""
        monkeypatch.setattr(state, "HOT_SOURCES", self.SLOTS)
        edges = seed_edges(seed)
        mirror = build_graph(edges)
        service = GraphService(
            build_graph(edges), landmark_count=2, threshold=threshold
        )
        rng = random.Random(seed * 37 + threshold)
        cold = rng.sample(sorted(mirror.nodes()), 4 * self.SLOTS)
        drive = drive_batch_trace if batched else drive_trace
        for step in drive(service, mirror, rng, steps=30):
            reference = FrozenGraph(mirror)
            for source in rng.choices(cold, k=3):
                target = rng.choice(reference.node_list)
                assert service.distance(source, target) == (
                    reference.bfs_distances(source).get(target)
                ), (seed, threshold, step, source, target)
                assert len(service._hot) <= self.SLOTS
        counts = serving_counts(registry)
        assert counts["point_searches"] > 0
        assert counts["sweeps"] > 0
        assert cache_counts(registry) == {}

    def test_evicts_the_held_source_with_fewest_queries(
        self, registry, monkeypatch
    ):
        monkeypatch.setattr(state, "HOT_SOURCES", 2)
        service = GraphService(build_graph(CYCLE), landmarks=[0])
        hot = service._hot
        for source in (0, 0, 0, 5, 7):
            service.distances_from(source)
        # Free slots admit 0 and 5; 7's one query ties 5's, so it is
        # swept but not held.
        assert 0 in hot and 5 in hot and 7 not in hot
        # Counts outlive a miss: 7's second query passes 5's one, so 7
        # replaces 5, the least-queried held source.
        service.distances_from(7)
        assert 0 in hot and 7 in hot and 5 not in hot
        assert serving_counts(registry)["sweeps"] == 4
        # Through ``distance`` a tie takes the point search instead:
        # 5's second query ties 7's two, its third passes them.
        assert service.distance(5, 0) == 5
        assert 5 not in hot
        counts = serving_counts(registry)
        assert (counts["sweeps"], counts["point_searches"]) == (4, 1)
        assert service.distance(5, 0) == 5
        assert 0 in hot and 5 in hot and 7 not in hot
        counts = serving_counts(registry)
        assert (counts["sweeps"], counts["point_searches"]) == (5, 1)


@st.composite
def toggled_graphs(draw):
    """A small graph, a source, and edge toggles (some growing nodes)."""
    n = draw(st.integers(min_value=1, max_value=8))
    grown = n + draw(st.integers(min_value=0, max_value=2))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = {(min(u, v), max(u, v)) for u, v in draw(st.lists(pair)) if u != v}
    toggle = st.tuples(
        st.integers(min_value=0, max_value=grown - 1),
        st.integers(min_value=0, max_value=grown - 1),
    )
    toggles = {
        (min(u, v), max(u, v))
        for u, v in draw(st.lists(toggle, min_size=1, max_size=6))
        if u != v
    }
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return n, grown, edges, toggles, source


def indexed_snapshot(n, edges):
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for u, v in edges:
        graph.add_edge(u, v)
    return FrozenGraph(graph)


@given(toggled_graphs())
@settings(max_examples=200, deadline=None)
def test_single_seed_repair_matches_cold_bfs(case):
    """``repair_bfs_levels`` (``repair_bfs_keys`` with one seed) is a
    BFS repair: after any set of edge toggles (endpoints possibly new
    nodes) the repaired copy equals a cold sweep of the new graph."""
    n, grown, edges, toggles, source = case
    before = indexed_snapshot(n, edges)
    after = indexed_snapshot(grown, edges ^ toggles)
    levels = before.bfs_levels(source)
    kept = levels.copy()
    repaired = repair_bfs_levels(after, levels, source, sorted(toggles))
    assert np.array_equal(repaired, after.bfs_levels(source))
    assert np.array_equal(levels, kept)


@st.composite
def toggled_landmark_graphs(draw):
    """A small graph, two or more landmarks, and edge toggles: some
    pairs toggled twice, in either orientation, some at new nodes."""
    n = draw(st.integers(min_value=2, max_value=9))
    grown = n + draw(st.integers(min_value=0, max_value=2))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = {
        (min(u, v), max(u, v))
        for u, v in draw(st.lists(st.tuples(node, node))) if u != v
    }
    landmarks = draw(st.lists(node, min_size=2, max_size=4, unique=True))
    grown_node = st.integers(min_value=0, max_value=grown - 1)
    pairs = st.lists(st.tuples(grown_node, grown_node), min_size=1, max_size=8)
    toggles = [(u, v) for u, v in draw(pairs) if u != v]
    if toggles:
        toggles += draw(st.lists(st.sampled_from(toggles), max_size=3))
    return n, grown, edges, landmarks, toggles


def cold_keys(fg, landmarks):
    """The landmark keys (distance * stride + repr rank) of ``fg``, from
    one cold multi-source sweep, and the landmark indices."""
    lms = sorted(landmarks, key=repr)
    seeds = np.array([fg.index[lm] for lm in lms], dtype=np.int64)
    level, nearest = fg.multi_source_labels(seeds)
    rank = np.zeros(fg.n, dtype=np.int64)
    rank[seeds] = np.arange(len(lms))
    key = np.full(fg.n, np.iinfo(np.int64).max, dtype=np.int64)
    reach = level >= 0
    key[reach] = level[reach] * len(lms) + rank[nearest[reach]]
    return key, frozenset(seeds.tolist())


# Landmarks 0 (rank 0) and 5 (rank 1): node 2 is (2, rank 0) through 1
# and node 3 is (1, rank 1), so (2, 3) is one hop apart across ranks
# and supports nothing.  Deleting (1, 2) moves 2 to rank 1 through 3,
# whatever (2, 3) did in between.
ACROSS_RANKS = [(0, 1), (1, 2), (2, 3), (3, 5), (3, 4)]


@given(toggled_landmark_graphs())
@example((6, 6, set(ACROSS_RANKS), [0, 5], [(2, 3)]))
@example((6, 7, set(ACROSS_RANKS), [0, 5], [(1, 2), (6, 4), (2, 3), (3, 2)]))
@settings(max_examples=200, deadline=None)
def test_multi_seed_repair_matches_cold_labels(case):
    """``repair_bfs_keys`` with one rank per landmark (``stride > 1``)
    equals a cold multi-source sweep after any toggles, including pairs
    toggled twice, endpoints that are new nodes, and deleted edges
    between nodes one hop apart at different gateway ranks."""
    n, grown, edges, landmarks, toggles = case
    after_edges = set(edges)
    for u, v in toggles:
        after_edges ^= {(min(u, v), max(u, v))}
    before = indexed_snapshot(n, edges)
    after = indexed_snapshot(grown, after_edges)
    key, seeds = cold_keys(before, landmarks)
    key = np.concatenate(
        [key, np.full(grown - n, np.iinfo(np.int64).max, dtype=np.int64)]
    )
    repair_bfs_keys(after, key, seeds, toggles, stride=len(landmarks))
    assert np.array_equal(key, cold_keys(after, landmarks)[0])


class RowCounter:
    """Snapshot proxy that records the node of every row read."""

    def __init__(self, snapshot):
        self._wrapped = snapshot
        self.rows = []

    def __getattr__(self, name):
        return getattr(self._wrapped, name)

    def neighbor_indices(self, i):
        self.rows.append(i)
        return self._wrapped.neighbor_indices(i)


class TestRepairWork:
    """The repair reads only the rows a change can reach."""

    def test_edge_between_equal_levels_reads_no_row(self):
        """On the 21-cycle from 0, nodes 10 and 11 are both at level 10:
        the deleted edge (10, 11) supported neither, and the keys alone
        show it, so no row is read.  Deleting (9, 10) reads only node
        10's row: its presence check and its support check."""
        cycle = [(i, (i + 1) % 21) for i in range(21)]
        levels = indexed_snapshot(21, cycle).bfs_levels(0)
        for pair, rows in (((10, 11), []), ((9, 10), [10, 10])):
            after = RowCounter(indexed_snapshot(21, set(cycle) - {pair}))
            repaired = repair_bfs_levels(after, levels, 0, [pair])
            assert after.rows == rows, pair
            assert np.array_equal(repaired, after.bfs_levels(0))

    def test_deleted_support_reads_only_the_invalidated_subtree(self):
        """Source 0; 1 and 5 at level 1, 2 and 6 at level 2, 3, 4 and 8
        at level 3.  Deleting (1, 2) cuts 2's only support and so 3's
        and 4's; 6 (beside 2) and 8 (beside 3) keep theirs.  Only the
        rows of 2, 3 and 4 are read, none at or above their levels."""
        edges = [(0, 1), (0, 5), (1, 2), (5, 6), (2, 6), (2, 3), (2, 4),
                 (6, 8), (3, 8)]
        before = indexed_snapshot(9, edges)
        levels = before.bfs_levels(0)
        after = RowCounter(indexed_snapshot(9, set(edges) - {(1, 2)}))
        repaired = repair_bfs_levels(after, levels, 0, [(1, 2)])
        assert np.array_equal(repaired, after.bfs_levels(0))
        assert set(after.rows) == {2, 3, 4}
        assert repaired[[2, 3, 4]].tolist() == [3, 4, 4]


class InjectedFault(RuntimeError):
    """The failure injected into an index repair."""


class FailingSnapshot:
    """Snapshot proxy whose ``fail_at``-th method call raises."""

    def __init__(self, snapshot, fail_at):
        self._wrapped = snapshot
        self._fail_at = fail_at
        self._calls = 0

    def __getattr__(self, name):
        value = getattr(self._wrapped, name)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            self._calls += 1
            if self._calls == self._fail_at:
                raise InjectedFault(name)
            return value(*args, **kwargs)

        return call


CYCLE = [(i, (i + 1) % 20) for i in range(20)]


class TestFailedRepair:
    @pytest.mark.parametrize("name", list(INDEXES))
    def test_failed_repair_rebuilds_on_next_query(self, name):
        """A repair that raises part-way must not leave a half-repaired
        index behind: the error reaches the caller and the next query
        answers from the current snapshot.  On a 20-cycle with landmark
        0, one batch deletes (0, 1) and grows node 20 onto node 10; the
        repair that follows fails at each of its snapshot method calls
        in turn.

        Regressions: a failed label repair left the invalidated nodes
        unreachable for good (phase 1 had already cleared them), and a
        failed PageRank repair on node growth left the node count
        bumped over the old score vector, so every later query raised.
        """
        spec = INDEXES[name]
        mirror = build_graph(CYCLE)
        mirror.remove_edge(0, 1)
        mirror.add_edge(10, 20)
        expected = spec.oracle(mirror, [0])
        fail_at = 1
        while True:
            service = GraphService(build_graph(CYCLE), landmarks=[0])
            spec.view(service)
            service.apply_batch(inserts=[(10, 20)], deletes=[(0, 1)])
            index = service._indexes[name]
            update = index.update

            def update_once(fg, pairs):
                del index.update  # later repairs run unpatched
                return update(FailingSnapshot(fg, fail_at), pairs)

            index.update = update_once
            try:
                spec.view(service)
            except InjectedFault:
                assert spec.agrees(spec.view(service), expected), fail_at
                fail_at += 1
            else:
                break  # the repair makes fewer calls than fail_at
        assert fail_at > 1

    def test_failed_store_repair_drops_the_source(self, registry):
        """The hot-source store under the same injected failures: a
        repair that raises must not leave a half-repaired array.  The
        error reaches the caller, the source is dropped, and the next
        query answers from a fresh sweep."""
        mirror = build_graph(CYCLE)
        mirror.remove_edge(0, 1)
        mirror.add_edge(10, 20)
        expected = fresh_levels(mirror, 0)
        fail_at = 1
        while True:
            service = GraphService(build_graph(CYCLE), landmarks=[0])
            service.distances_from(0)
            service.apply_batch(inserts=[(10, 20)], deletes=[(0, 1)])
            patched = service.patched
            snapshot = patched.snapshot

            def failing_once():
                del patched.snapshot  # later snapshots run unpatched
                return FailingSnapshot(snapshot(), fail_at)

            patched.snapshot = failing_once
            try:
                service.distances_from(0)
            except InjectedFault:
                assert 0 not in service._hot, fail_at
                sweeps = serving_counts(registry)["sweeps"]
                assert np.array_equal(service.distances_from(0), expected)
                assert serving_counts(registry)["sweeps"] == sweeps + 1
                fail_at += 1
            else:
                break  # the repair makes fewer calls than fail_at
        assert fail_at > 1
        assert np.array_equal(service.distances_from(0), expected)


class TestThresholdSemantics:
    def test_threshold_zero_rebases_every_snapshot(self):
        service = GraphService(build_graph(seed_edges(2)), threshold=0)
        rng = random.Random(2)
        mirror = build_graph(seed_edges(2))
        for _ in drive_trace(service, mirror, rng, steps=15):
            service.snapshot()
            assert service.patched.pending == 0

    def test_huge_threshold_never_rebases(self, registry):
        service = GraphService(
            build_graph(seed_edges(3)), threshold=1_000_000
        )
        base = service.patched.base
        mirror = build_graph(seed_edges(3))
        rng = random.Random(3)
        for _ in drive_trace(service, mirror, rng, steps=15):
            service.snapshot()
        assert service.patched.base is base
        assert serving_counts(registry)["patch"].get("rebase", 0) == 0


class TestSteadyStateEconomics:
    def test_drive_never_refreezes(self, registry):
        """The acceptance invariant: a full mutate/query drive records
        zero ``repro.cache.frozen`` events — snapshots come from the
        patch-merge path, never the dict-graph refreeze path."""
        edges = seed_edges(5)
        mirror = build_graph(edges)
        landmarks = select_landmarks(mirror, 3)
        service = GraphService(
            build_graph(edges), landmarks=landmarks, threshold=16
        )
        rng = random.Random(5)
        for _ in drive_trace(service, mirror, rng, steps=30):
            node = rng.choice(service.node_list)
            service.nsf_level(node)
            service.gateway_label(node)
            service.distance(node, rng.choice(service.node_list))
        assert cache_counts(registry) == {}
        counts = serving_counts(registry)
        assert counts["patch"].get("merge", 0) > 0
        assert counts["repairs"].get("nsf", {}).get("full", 0) > 0
        assert counts["repairs"].get("labels", {}).get("relax", 0) > 0


class TestRejectedBatch:
    @pytest.mark.parametrize(
        "inserts,deletes,error",
        [
            ([("new", "a")], [("a", "c")], EdgeNotFoundError),
            ([("new", "a"), ("new", "new")], [], ValueError),
        ],
        ids=["bad-delete", "self-loop-after-new-node"],
    )
    def test_rejected_batch_leaves_service_unchanged(
        self, inserts, deletes, error
    ):
        """A batch the service rejects changes nothing, node table
        included: no node interned, no version bump, no pending patch,
        the same snapshot arrays, and every index still agrees with its
        oracle.

        Regression: the batch interned its insert endpoints before
        validating its deletes, so a rejected batch left ``"new"`` in
        ``node_list`` — an isolated node no committed write created."""
        edges = [("a", "b"), ("b", "c")]
        mirror = build_graph(edges)
        service = GraphService(build_graph(edges), landmarks=["a"])
        assert_state_bit_exact(service, mirror, ["a"], "before")
        nodes = list(service.node_list)
        version = service.version
        pending = service.patched.pending
        snapshot = service.snapshot()
        with pytest.raises(error):
            service.apply_batch(inserts, deletes)
        assert service.node_list == nodes
        assert service.version == version
        assert service.patched.pending == pending
        after = service.snapshot()
        assert after.node_list == snapshot.node_list
        assert np.array_equal(after.indptr, snapshot.indptr)
        assert np.array_equal(after.indices, snapshot.indices)
        assert_state_bit_exact(service, mirror, ["a"], "after")
        with pytest.raises(NodeNotFoundError):
            service.distance("a", "new")


class TestValidationParity:
    def test_self_loop_message_matches_graph(self):
        service = GraphService(build_graph([("a", "b"), ("b", "c")]))
        graph = Graph([("a", "b")])
        with pytest.raises(ValueError) as from_service:
            service.insert_edge("a", "a")
        with pytest.raises(ValueError) as from_graph:
            graph.add_edge("a", "a")
        assert str(from_service.value) == str(from_graph.value)

    def test_duplicate_insert_is_version_noop(self):
        service = GraphService(build_graph([("a", "b"), ("b", "c")]))
        before = service.version
        assert service.insert_edge("a", "b") is False
        assert service.version == before

    def test_absent_delete_raises(self):
        service = GraphService(build_graph([("a", "b"), ("b", "c")]))
        with pytest.raises(EdgeNotFoundError):
            service.delete_edge("a", "c")
        with pytest.raises(EdgeNotFoundError):
            service.delete_edge("a", "missing")
        service.delete_edge("a", "b")
        with pytest.raises(EdgeNotFoundError):
            service.delete_edge("a", "b")
