"""Time-evolving graphs: the temporal substrate (Sec. II-B of the paper).

Micro-level: :class:`EvolvingGraph` with per-edge time-unit label sets,
journeys (earliest-completion / minimum-hop / fastest), time-sensitive
connectivity and the dynamic diameter.  Macro-level: contact traces with
contact-duration and inter-contact-time distributions, and the
two-state edge-Markovian process.
"""

from repro.temporal.connectivity import (
    connection_start_times,
    dynamic_diameter,
    ever_snapshot_connected,
    flooding_time,
    is_connected_at,
    is_time_i_connected,
    reachable_set,
    snapshot_connected_pairs,
    temporal_eccentricities,
    temporal_eccentricity,
)
from repro.temporal.frozen import FrozenContacts
from repro.temporal.contacts import (
    ContactRecord,
    ContactTrace,
    ExponentialFit,
    fit_exponential,
    generate_exponential_trace,
)
from repro.temporal.edge_markovian import (
    EdgeMarkovianProcess,
    FloodingMeasurement,
    measure_flooding_times,
)
from repro.temporal.evolving import EvolvingGraph, paper_fig2_evolving_graph
from repro.temporal.incremental import (
    IncrementalReachability,
    incremental_from_contacts,
)
from repro.temporal.weighted_journeys import (
    journey_bottleneck,
    journey_delay,
    max_bandwidth_journey,
    min_delay_journey,
    most_reliable_journey,
)
from repro.temporal.small_world import (
    TemporalSmallWorldReport,
    characteristic_temporal_path_length,
    randomize_contact_times,
    temporal_correlation_coefficient,
    temporal_small_world_report,
)
from repro.temporal.journeys import (
    Journey,
    earliest_arrival,
    earliest_completion_journey,
    fastest_journey,
    foremost_tree,
    is_valid_journey,
    latest_departure,
    minimum_hop_journey,
    temporal_distance,
)

__all__ = [
    "ContactRecord",
    "ContactTrace",
    "FrozenContacts",
    "EdgeMarkovianProcess",
    "EvolvingGraph",
    "ExponentialFit",
    "FloodingMeasurement",
    "IncrementalReachability",
    "Journey",
    "TemporalSmallWorldReport",
    "connection_start_times",
    "dynamic_diameter",
    "earliest_arrival",
    "earliest_completion_journey",
    "ever_snapshot_connected",
    "fastest_journey",
    "fit_exponential",
    "flooding_time",
    "foremost_tree",
    "generate_exponential_trace",
    "incremental_from_contacts",
    "is_connected_at",
    "is_time_i_connected",
    "is_valid_journey",
    "journey_bottleneck",
    "journey_delay",
    "latest_departure",
    "max_bandwidth_journey",
    "measure_flooding_times",
    "min_delay_journey",
    "most_reliable_journey",
    "minimum_hop_journey",
    "paper_fig2_evolving_graph",
    "reachable_set",
    "snapshot_connected_pairs",
    "characteristic_temporal_path_length",
    "randomize_contact_times",
    "temporal_correlation_coefficient",
    "temporal_distance",
    "temporal_small_world_report",
    "temporal_eccentricities",
    "temporal_eccentricity",
]
