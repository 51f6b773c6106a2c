"""Multilayer complex networks (Sec. I, [1]).

"Complex networks may consist of multiple layers from application
sessions and social relationships to physical network layers.
Interactions and influences between layers may play important roles in
shaping network structures."

:class:`MultilayerNetwork` holds one :class:`~repro.graphs.graph.Graph`
per named layer over a shared node universe, plus *interlayer coupling*
weights describing how strongly structure in one layer influences
another.  The analysis helpers quantify exactly the influences the
paper points at:

* :meth:`layer_overlap` — edge overlap between two layers (e.g. how
  much of the physical contact graph is explained by the social layer,
  the Sec. III-C observation);
* :meth:`aggregate` — the union ("flattened") graph, optionally
  weighted by how many layers carry each edge;
* :meth:`degree_correlation` — Pearson correlation of per-node degrees
  across layers (socially central people are physically central);
* :func:`social_physical_coupling` — builds the paper's canonical
  two-layer instance: a social-feature layer and the contact layer it
  induces, ready for influence measurements.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph

Node = Hashable
LayerName = str


class MultilayerNetwork:
    """Named layers over a shared node universe."""

    def __init__(self, nodes: Optional[Iterable[Node]] = None) -> None:
        self._nodes: Set[Node] = set(nodes) if nodes is not None else set()
        self._layers: Dict[LayerName, Graph] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        self._nodes.add(node)
        for layer in self._layers.values():
            layer.add_node(node)

    def add_layer(self, name: LayerName, graph: Optional[Graph] = None) -> Graph:
        """Register a layer; its node set is aligned with the universe."""
        if name in self._layers:
            raise ValueError(f"layer {name!r} already exists")
        layer = graph.copy() if graph is not None else Graph()
        for node in layer.nodes():
            self._nodes.add(node)
        for node in self._nodes:
            layer.add_node(node)
        self._layers[name] = layer
        # Align every other layer with possibly new nodes.
        for other in self._layers.values():
            for node in self._nodes:
                other.add_node(node)
        return layer

    def add_edge(self, layer_name: LayerName, u: Node, v: Node, **attrs) -> None:
        """Add an edge, creating the layer on first use."""
        if layer_name not in self._layers:
            self.add_layer(layer_name)
        layer = self._layers[layer_name]
        self._nodes.add(u)
        self._nodes.add(v)
        for other in self._layers.values():
            other.add_node(u)
            other.add_node(v)
        layer.add_edge(u, v, **attrs)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def layer(self, name: LayerName) -> Graph:
        if name not in self._layers:
            raise KeyError(f"no layer named {name!r}")
        return self._layers[name]

    def layer_names(self) -> List[LayerName]:
        return sorted(self._layers)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Set[Node]:
        return set(self._nodes)

    # ------------------------------------------------------------------
    # cross-layer structure
    # ------------------------------------------------------------------
    def aggregate(self, weight_attr: str = "layers") -> Graph:
        """The flattened union graph.

        Each edge carries in ``weight_attr`` the number of layers
        containing it — the paper's "multiple layers shaping structure"
        made measurable.
        """
        union = Graph()
        for node in self._nodes:
            union.add_node(node)
        for layer in self._layers.values():
            for u, v in layer.edges():
                if union.has_edge(u, v):
                    union.set_edge_attr(
                        u, v, weight_attr, union.edge_attr(u, v, weight_attr, 0) + 1
                    )
                else:
                    union.add_edge(u, v, **{weight_attr: 1})
        return union

    def layer_overlap(self, a: LayerName, b: LayerName) -> float:
        """Jaccard overlap of the two layers' edge sets (0..1)."""
        edges_a = {frozenset(e) for e in self.layer(a).edges()}
        edges_b = {frozenset(e) for e in self.layer(b).edges()}
        if not edges_a and not edges_b:
            return 1.0
        union = edges_a | edges_b
        return len(edges_a & edges_b) / len(union)

    def edge_conditional_probability(self, a: LayerName, b: LayerName) -> float:
        """P(edge in b | edge in a): how strongly layer a predicts b."""
        edges_a = {frozenset(e) for e in self.layer(a).edges()}
        if not edges_a:
            return 0.0
        edges_b = {frozenset(e) for e in self.layer(b).edges()}
        return len(edges_a & edges_b) / len(edges_a)

    def degree_correlation(self, a: LayerName, b: LayerName) -> float:
        """Pearson correlation of node degrees across two layers."""
        nodes = sorted(self._nodes, key=repr)
        if len(nodes) < 2:
            return 0.0
        deg_a = [self.layer(a).degree(n) for n in nodes]
        deg_b = [self.layer(b).degree(n) for n in nodes]
        return _pearson(deg_a, deg_b)

    def degree_vector(self, node: Node) -> Dict[LayerName, int]:
        """Per-layer degree of one node."""
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        return {name: layer.degree(node) for name, layer in self._layers.items()}

    def __repr__(self) -> str:
        return (
            f"MultilayerNetwork(n={self.num_nodes}, layers="
            f"{self.layer_names()})"
        )


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def social_physical_coupling(
    profiles: Mapping[Node, Tuple[int, ...]],
    contact_counts: Mapping[frozenset, int],
    strong_threshold: int = 1,
) -> MultilayerNetwork:
    """The paper's canonical two-layer network (Sec. I + Sec. III-C).

    Layer ``"social"``: an edge between people whose feature profiles
    differ in at most one feature (strong social ties).  Layer
    ``"physical"``: an edge between people with at least
    ``strong_threshold`` recorded contacts.  The influence of the
    social layer on the physical one is then measurable via
    :meth:`MultilayerNetwork.edge_conditional_probability`.
    """
    network = MultilayerNetwork(nodes=profiles.keys())
    social = network.add_layer("social")
    physical = network.add_layer("physical")
    people = sorted(profiles, key=repr)
    for i, u in enumerate(people):
        for v in people[i + 1 :]:
            distance = sum(
                1 for x, y in zip(profiles[u], profiles[v]) if x != y
            )
            if distance <= 1:
                social.add_edge(u, v, feature_distance=distance)
    for pair, count in contact_counts.items():
        if count >= strong_threshold:
            u, v = tuple(pair)
            physical.add_edge(u, v, contacts=count)
    return network
