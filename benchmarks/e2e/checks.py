"""Untimed output checks.

Each check compares what a timed pass produced with an independent
reference — usually the library's ``*_reference`` kernel or the scalar
engine — and raises ``AssertionError`` when they differ.  The workloads
run them outside every timed region and count each one into
``attempted``/``failed`` (see :meth:`e2e.report.Report.check`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

import numpy as np

Node = Hashable
Pair = Tuple[Node, Node]

#: PageRank answers may differ from the cold-start kernel by this much.
PAGERANK_ATOL = 1e-8


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# ----------------------------------------------------------------------
# static-structures
# ----------------------------------------------------------------------
def nsf_levels_match(graph, levels: Dict[Node, int]) -> None:
    from repro.layering.nsf import nsf_levels_reference

    _expect(levels == nsf_levels_reference(graph), "NSF levels differ from reference")


def embedding_certified(graph, structure, rng, targets: int = 16) -> None:
    """The remap structure is certified and greedy toward sampled targets."""
    from repro.remapping.hyperbolic import HyperbolicEmbedding

    embedding = structure.payload
    _expect(isinstance(embedding, HyperbolicEmbedding), "remap payload is no embedding")
    _expect(structure.evidence.get("certified") is True, "embedding not certified")
    nodes = sorted(graph.nodes(), key=repr)
    tree: Dict[Node, list] = {node: [] for node in nodes}
    for node, parent in embedding.tree_parent.items():
        if parent is not None:
            tree[node].append(parent)
            tree[parent].append(node)
    for k in rng.choice(len(nodes), size=min(targets, len(nodes)), replace=False):
        target = nodes[int(k)]
        table = embedding.distance_table(target)
        for node in nodes:
            if node != target:
                _expect(
                    any(table[nb] < table[node] - 1e-9 for nb in tree[node]),
                    f"no greedy step from {node!r} toward {target!r}",
                )


def spanner_stretch_ok(graph, spanner, rng, samples: int = 200, t: int = 3) -> None:
    """Every sampled graph edge has a path of at most ``t`` spanner hops."""
    edges = sorted((tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr)
    for k in rng.choice(len(edges), size=min(samples, len(edges)), replace=False):
        u, v = edges[int(k)]
        frontier, seen = {u}, {u}
        for _ in range(t):
            frontier = {w for x in frontier for w in spanner.neighbors(x)} - seen
            seen |= frontier
        _expect(v in seen, f"spanner stretch above {t} on edge ({u!r}, {v!r})")


def destination_only_sink(orientation, destination: Node) -> None:
    sinks = orientation.sinks()
    _expect(sinks == {destination}, f"sinks after repair: {sorted(sinks)[:5]}")


def vector_mis_matches(graph, mis: Set[Node]) -> None:
    from repro.labeling.mis import distributed_mis

    _expect(mis == distributed_mis(graph)[0], "vector_mis differs from distributed_mis")


def safety_levels_match(dimension: int, faulty, levels: Dict) -> None:
    from repro.labeling.safety import compute_safety_levels

    reference = compute_safety_levels(dimension, faulty).levels
    _expect(levels == reference, "vector safety levels differ from the reference")


# ----------------------------------------------------------------------
# dynamic-dtn
# ----------------------------------------------------------------------
def dynamic_diameter_matches(eg, value: Optional[int]) -> None:
    from repro.temporal.connectivity import dynamic_diameter_reference

    reference = dynamic_diameter_reference(eg, 0)
    _expect(value == reference, f"dynamic diameter {value} != reference {reference}")


def epidemic_matches_general_loop(eg, specs, stats) -> None:
    """The bitset fast path agrees with the general per-message loop."""
    from repro.dtn.routers import EpidemicRouter
    from repro.dtn.simulator import DTNSimulation

    simulation = DTNSimulation(eg, EpidemicRouter(), fast_path=False)
    for spec in specs:
        simulation.add_message(spec)
    _expect(simulation.run() == stats, "epidemic stats differ with fast_path=False")


def same_stats(first: Dict, other: Dict) -> None:
    _expect(first == other, "DTN stats differ between repetitions")


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class Mirror:
    """A dict graph replaying the stream, with reference answers.

    Reference answers are computed lazily and cached per mirror
    version, so a run of queries between two writes costs one reference
    kernel call per query kind.
    """

    def __init__(self, graph, landmarks) -> None:
        self.graph = graph.copy()
        self.landmarks = list(landmarks)
        self.version = 0
        self._cache: Dict[Tuple[str, object], object] = {}

    def _cached(self, key, compute):
        full = (self.version,) + key
        if full not in self._cache:
            self._cache = {k: v for k, v in self._cache.items() if k[0] == self.version}
            self._cache[full] = compute()
        return self._cache[full]

    # -- mutations (the gateway's per-request outcomes) -----------------
    def insert(self, u: Node, v: Node) -> bool:
        if self.graph.has_edge(u, v):
            return False
        self.graph.add_edge(u, v)
        self.version += 1
        return True

    def delete(self, u: Node, v: Node) -> None:
        self.graph.remove_edge(u, v)
        self.version += 1

    def batch(self, inserts: Iterable[Pair], deletes: Iterable[Pair]) -> dict:
        inserts, deletes = list(inserts), list(deletes)
        changed = sum(self.insert(u, v) for u, v in inserts)
        for u, v in deletes:
            self.delete(u, v)
        return {"ops": len(inserts) + len(deletes), "changed": changed + len(deletes)}

    # -- reference answers ----------------------------------------------
    def distance(self, u: Node, v: Node) -> Optional[int]:
        from repro.graphs.traversal import bfs_distances

        return self._cached(("bfs", u), lambda: bfs_distances(self.graph, u)).get(v)

    def nsf_levels(self) -> Dict[Node, int]:
        from repro.layering.nsf import nsf_levels

        return self._cached(("nsf",), lambda: nsf_levels(self.graph))

    def labels(self) -> Dict[Node, Tuple[int, Node]]:
        from repro.labeling.landmarks import distance_gateway_labels

        return self._cached(
            ("labels",), lambda: distance_gateway_labels(self.graph, self.landmarks)
        )

    def pagerank(self) -> Dict[Node, float]:
        from repro.labeling.pagerank import pagerank

        return self._cached(("pagerank",), lambda: pagerank(self.graph)[0])

    def mis(self) -> Set[Node]:
        from repro.labeling.mis import compute_mis

        return self._cached(("mis",), lambda: compute_mis(self.graph)[0])

    def answer_ok(self, kind: str, args: tuple, answer) -> bool:
        """Apply a mutation or compare a query answer with the reference."""
        if kind == "insert":
            return answer == self.insert(*args)
        if kind == "delete":
            return answer == self.delete(*args)
        if kind == "batch":
            return answer == self.batch(*args)
        if kind == "distance":
            return answer == self.distance(*args)
        (node,) = args
        if kind == "nsf_level":
            return answer == self.nsf_levels()[node]
        if kind == "gateway_label":
            return answer == self.labels().get(node)
        if kind == "pagerank_score":
            return abs(answer - self.pagerank()[node]) <= PAGERANK_ATOL
        if kind == "mis_member":
            return answer == (node in self.mis())
        raise ValueError(f"unknown request kind {kind!r}")


def edge_set(fg) -> Set[Pair]:
    """Canonical ``(u, v)`` pairs (``u < v``) of a CSR snapshot."""
    nodes = fg.node_list
    rows = np.repeat(np.arange(fg.n), np.diff(fg.indptr))
    keep = rows < fg.indices
    return {
        (min(nodes[i], nodes[j]), max(nodes[i], nodes[j]))
        for i, j in zip(rows[keep].tolist(), fg.indices[keep].tolist())
    }


def service_matches(service, expected_edges: Set[Pair], graph) -> None:
    """Final edge set and every index equal the references."""
    _expect(edge_set(service.snapshot()) == expected_edges, "final edge set differs")
    mirror_graph = graph.copy()
    for u, v in list(mirror_graph.edges()):
        if (min(u, v), max(u, v)) not in expected_edges:
            mirror_graph.remove_edge(u, v)
    for u, v in expected_edges:
        mirror_graph.add_edge(u, v)
    mirror = Mirror(mirror_graph, service.landmarks)
    _expect(service.nsf_levels_map() == mirror.nsf_levels(), "NSF index differs")
    _expect(service.gateway_labels_map() == mirror.labels(), "label index differs")
    live, reference = service.pagerank_map(), mirror.pagerank()
    _expect(set(live) == set(reference), "PageRank node sets differ")
    _expect(
        all(abs(live[node] - reference[node]) <= PAGERANK_ATOL for node in live),
        "PageRank differs beyond tolerance",
    )
    _expect(service.mis_set() == mirror.mis(), "MIS index differs")
