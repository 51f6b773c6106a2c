"""The high-level structure-uncovering API (the paper's contribution).

One entry point per strategy —

* :func:`trim` — structural trimming (Sec. III-A): evolving-graph
  replacement rules, UDG topology control, spanners;
* :func:`layer` — structural layering (Sec. III-B): NSF levels,
  destination-oriented DAGs by link reversal;
* :func:`remap` — structural remapping (Sec. III-C): hyperbolic
  greedy embeddings, social feature spaces;

— plus :class:`StructureAnalyzer`, which inspects a network, decides
which graph models apply (Sec. II) and which structures are present,
and returns a :class:`~repro.core.structures.StructureReport`.  Every
payload is a regular library object, so a report doubles as a handle
into the lower-level machinery.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.structures import Strategy, Structure, StructureKind, StructureReport
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.interval import is_chordal, is_interval_graph
from repro.graphs.metrics import degree_sequence, fit_power_law
from repro.graphs.traversal import is_connected
from repro.graphs.unit_disk import POSITION_ATTR
from repro.observability.tracing import traced
from repro.temporal.evolving import EvolvingGraph

Node = Hashable
AnyNetwork = Union[Graph, EvolvingGraph]


@traced("repro.core.trim")
def trim(
    network: AnyNetwork,
    method: str = "auto",
    **options: Any,
) -> Structure:
    """Uncover a trimmed backbone structure.

    Methods
    -------
    ``"replacement-rule"`` (evolving graphs)
        the Sec. III-A node replacement rule with priorities.
    ``"gabriel"`` / ``"rng"`` / ``"xtc"`` (positioned static graphs)
        localized topology control.
    ``"spanner"`` (static graphs)
        greedy t-spanner; pass ``t=...`` (default 3).
    ``"auto"``
        replacement-rule for evolving graphs; gabriel for positioned
        graphs; spanner otherwise.
    """
    if method == "auto":
        if isinstance(network, EvolvingGraph):
            method = "replacement-rule"
        elif _has_positions(network):
            method = "gabriel"
        else:
            method = "spanner"

    if method == "replacement-rule":
        if not isinstance(network, EvolvingGraph):
            raise TypeError("replacement-rule trimming needs an EvolvingGraph")
        from repro.trimming.static_rules import id_priority, trim_nodes

        priorities = options.get("priorities") or id_priority(network)
        trimmed, removed = trim_nodes(
            network, priorities, options.get("max_intermediates")
        )
        return Structure(
            name="trimmed-evolving-graph",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.TRIMMING,
            payload=trimmed,
            evidence={
                "removed_nodes": removed,
                "nodes": trimmed.num_nodes,
                "contacts": trimmed.num_contacts,
            },
            description="EG after the Sec. III-A node replacement rule",
        )

    if method in ("gabriel", "rng", "xtc"):
        if isinstance(network, EvolvingGraph):
            raise TypeError("topology control needs a static positioned graph")
        from repro.trimming.topology_control import (
            gabriel_graph,
            relative_neighborhood_graph,
            xtc,
        )

        builder = {
            "gabriel": gabriel_graph,
            "rng": relative_neighborhood_graph,
            "xtc": xtc,
        }[method]
        trimmed = builder(network)
        return Structure(
            name=f"{method}-backbone",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.TRIMMING,
            payload=trimmed,
            evidence={
                "edges_before": network.num_edges,
                "edges_after": trimmed.num_edges,
            },
            description=f"{method} topology control backbone",
        )

    if method == "spanner":
        if isinstance(network, EvolvingGraph):
            raise TypeError("spanner trimming needs a static graph")
        from repro.trimming.spanners import greedy_spanner

        t = float(options.get("t", 3.0))
        spanner = greedy_spanner(network, t)
        return Structure(
            name=f"greedy-{t:g}-spanner",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.TRIMMING,
            payload=spanner,
            evidence={
                "t": t,
                "edges_before": network.num_edges,
                "edges_after": spanner.num_edges,
            },
            description=f"greedy {t:g}-spanner",
        )

    raise ValueError(f"unknown trimming method {method!r}")


@traced("repro.core.layer")
def layer(
    network: Graph,
    method: str = "nsf",
    **options: Any,
) -> Structure:
    """Uncover a layered structure.

    Methods
    -------
    ``"nsf"``
        the adjusted-node-degree level labeling of Sec. III-B/IV-A.
    ``"link-reversal"``
        a destination-oriented DAG; pass ``destination=...``.
    """
    if method == "nsf":
        from repro.layering.nsf import nsf_levels, top_level_nodes

        levels = nsf_levels(network)
        return Structure(
            name="nsf-levels",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.LAYERING,
            payload=levels,
            evidence={
                "levels": max(levels.values(), default=0),
                "top_nodes": sorted(top_level_nodes(levels), key=repr),
            },
            description="NSF hierarchy levels by adjusted node degree",
        )

    if method == "link-reversal":
        from repro.layering.link_reversal import (
            full_link_reversal,
            initial_heights,
            orientation_from_heights,
        )

        destination = options.get("destination")
        if destination is None:
            raise ValueError("link-reversal layering needs destination=...")
        heights = options.get("heights") or initial_heights(network, destination)
        result = full_link_reversal(network, destination, heights=heights)
        return Structure(
            name="destination-oriented-dag",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.LAYERING,
            payload=result.orientation,
            evidence={
                "destination": destination,
                "reversal_steps": result.steps,
                "heights": result.heights,
            },
            description="destination-oriented DAG maintained by link reversal",
        )

    raise ValueError(f"unknown layering method {method!r}")


@traced("repro.core.remap")
def remap(
    network: Graph,
    method: str = "hyperbolic",
    **options: Any,
) -> Structure:
    """Uncover a remapped structure.

    Methods
    -------
    ``"hyperbolic"``
        certified greedy embedding into H² (Sec. III-C, Fig. 5).
    ``"feature-space"``
        the F-space generalized hypercube; pass ``profiles=...`` and
        ``radices=...``.
    """
    if method == "hyperbolic":
        from repro.remapping.hyperbolic import embed_tree

        embedding = embed_tree(
            network,
            root=options.get("root"),
            tau=options.get("tau"),
            certify=options.get("certify", True),
        )
        return Structure(
            name="hyperbolic-greedy-embedding",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.REMAPPING,
            payload=embedding,
            evidence={"tau": embedding.tau, "certified": options.get("certify", True)},
            description="greedy embedding of a spanning tree into H²",
        )

    if method == "feature-space":
        from repro.remapping.feature_space import FeatureSpace

        profiles = options.get("profiles")
        radices = options.get("radices")
        if profiles is None or radices is None:
            raise ValueError("feature-space remapping needs profiles= and radices=")
        space = FeatureSpace(profiles, radices, options.get("feature_names"))
        return Structure(
            name="feature-space-hypercube",
            kind=StructureKind.PHYSICAL,
            strategy=Strategy.REMAPPING,
            payload=space,
            evidence={
                "radices": tuple(radices),
                "occupied_profiles": len(space.occupied_profiles()),
                "hypercube_nodes": space.hypercube.num_nodes,
            },
            description="M-space remapped onto a generalized hypercube (F-space)",
        )

    raise ValueError(f"unknown remapping method {method!r}")


def _has_positions(graph: Graph) -> bool:
    return all(
        graph.node_attr(node, POSITION_ATTR) is not None for node in graph.nodes()
    ) and graph.num_nodes > 0


class StructureAnalyzer:
    """Inspect a network and report the structures it supports (Sec. II–III).

    ``analyze`` classifies the graph model (chordal / interval /
    positioned / scale-free / small-world-ish), then applies each
    applicable uncovering strategy and collects the results.
    """

    def __init__(
        self,
        scale_free_kmin: int = 2,
        small_world_clustering: float = 0.2,
    ) -> None:
        self.scale_free_kmin = scale_free_kmin
        self.small_world_clustering = small_world_clustering

    def analyze(self, network: AnyNetwork) -> StructureReport:
        if isinstance(network, EvolvingGraph):
            return self._analyze_evolving(network)
        return self._analyze_static(network)

    # ------------------------------------------------------------------
    def _analyze_static(self, graph: Graph) -> StructureReport:
        report = StructureReport(
            network_summary=f"static graph, n={graph.num_nodes}, m={graph.num_edges}"
        )
        self._classify_models(graph, report)
        # Strategy passes (each guarded: a strategy that does not apply
        # is simply skipped).
        if graph.num_nodes >= 2 and is_connected(graph):
            report.add(layer(graph, "nsf"))
            try:
                report.add(remap(graph, "hyperbolic"))
            except AlgorithmError:
                pass
        if _has_positions(graph):
            report.add(trim(graph, "gabriel"))
        elif graph.num_edges > graph.num_nodes:
            report.add(trim(graph, "spanner"))
        return report

    def _analyze_evolving(self, eg: EvolvingGraph) -> StructureReport:
        from repro.temporal.connectivity import dynamic_diameter

        report = StructureReport(
            network_summary=(
                f"evolving graph, n={eg.num_nodes}, contacts={eg.num_contacts}, "
                f"horizon={eg.horizon}"
            )
        )
        dyn_diameter = dynamic_diameter(eg, 0)
        report.add(
            Structure(
                name="temporal-connectivity",
                kind=StructureKind.LOGICAL,
                strategy=Strategy.MODEL,
                payload=dyn_diameter,
                evidence={"dynamic_diameter": dyn_diameter},
                description="flooding-time (dynamic diameter) profile",
            )
        )
        report.add(trim(eg, "replacement-rule"))
        return report

    # ------------------------------------------------------------------
    def _classify_models(self, graph: Graph, report: StructureReport) -> None:
        if graph.num_nodes == 0:
            return
        chordal = is_chordal(graph)
        if chordal and graph.num_nodes <= 200:
            interval = is_interval_graph(graph)
        else:
            interval = False
        report.add(
            Structure(
                name="graph-model",
                kind=StructureKind.LOGICAL,
                strategy=Strategy.MODEL,
                evidence={
                    "chordal": chordal,
                    "interval": interval,
                    "positioned": _has_positions(graph),
                },
                description="graph-class membership (Sec. II-A)",
            )
        )
        degrees = degree_sequence(graph)
        try:
            fit = fit_power_law(degrees, kmin=self.scale_free_kmin)
            alpha: Optional[float] = fit.alpha
        except ValueError:
            alpha = None
        # One frozen snapshot backs the clustering / connectivity /
        # diameter sweeps; the CSR kernels lift the old n <= 3000
        # clustering cutoff by an order of magnitude.
        fg = graph.frozen()
        clustering = fg.average_clustering() if graph.num_nodes <= 30000 else None
        evidence: Dict[str, Any] = {"power_law_alpha": alpha}
        if clustering is not None:
            evidence["average_clustering"] = round(clustering, 4)
        small_world = (
            clustering is not None
            and clustering >= self.small_world_clustering
            and graph.num_nodes >= 8
            and fg.is_connected()
            and fg.diameter() <= max(6, 2 * int(np.log2(graph.num_nodes)))
        )
        evidence["small_world"] = small_world
        report.add(
            Structure(
                name="degree-structure",
                kind=StructureKind.LOGICAL,
                strategy=Strategy.MODEL,
                evidence=evidence,
                description="degree-distribution and small-world indicators",
            )
        )
