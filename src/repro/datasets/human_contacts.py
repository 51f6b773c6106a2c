"""Synthetic human-contact traces (INFOCOM 2006 / MIT Reality stand-in).

Sec. III-C rests on an empirical law confirmed "from several real
traces, including INFOCOM 2006 and MIT Reality Mining": the contact
frequency of two people falls with their social-feature distance.
Those traces cannot be shipped, so this module synthesises contact
traces with the same law, in two interchangeable ways:

* :func:`rate_model_trace` — a direct macro-level model: each pair
  meets as a Poisson process whose rate decays geometrically in the
  pair's feature distance (`rate0 · decay^distance`); fast, exactly
  controllable, ideal for unit tests;
* :func:`mobility_model_trace` — a micro-level model: feature-driven
  community mobility (:mod:`repro.mobility.community`) plus unit-disk
  contact detection; slower but produces the law *emergently*, which
  the Fig. 6 benchmark verifies.

Both return a :class:`~repro.temporal.contacts.ContactTrace` plus the
profile table, ready for :class:`~repro.remapping.feature_space.FeatureSpace`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.mobility.base import Arena
from repro.mobility.community import CommunityMobility, feature_distance, random_profiles
from repro.mobility.trace import collect_contact_trace
from repro.temporal.contacts import ContactTrace, generate_exponential_trace

Profile = Tuple[int, ...]


def rate_model_trace(
    n: int,
    radices: Sequence[int],
    rng: np.random.Generator,
    rate0: float = 0.5,
    decay: float = 0.45,
    duration_mean: float = 0.3,
    end_time: float = 100.0,
) -> Tuple[ContactTrace, Dict[int, Profile]]:
    """Macro-level synthetic trace: pair rate = rate0 · decay^distance.

    ``decay < 1`` enforces the paper's law by construction: profile
    distance 0 pairs (same community) meet most often; each extra
    differing feature multiplies the meeting rate by ``decay``.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    if rate0 <= 0:
        raise ValueError(f"rate0 must be positive, got {rate0}")
    profiles = random_profiles(n, radices, rng)
    pair_rates = {}
    nodes = list(profiles)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            distance = feature_distance(profiles[u], profiles[v])
            pair_rates[frozenset((u, v))] = rate0 * (decay ** distance)
    trace = generate_exponential_trace(
        nodes,
        rate=0.0,
        duration_mean=duration_mean,
        end_time=end_time,
        rng=rng,
        pair_rates=pair_rates,
    )
    return trace, profiles


def mobility_model_trace(
    n: int,
    radices: Sequence[int],
    rng: np.random.Generator,
    arena_side: float = 24.0,
    steps: int = 400,
    radius: float = 2.0,
    home_prob: float = 0.8,
) -> Tuple[ContactTrace, Dict[int, Profile]]:
    """Micro-level synthetic trace: community mobility + unit-disk radio.

    The feature-distance law emerges from co-located home cells rather
    than being imposed on rates; use this for end-to-end experiments.
    """
    profiles = random_profiles(n, radices, rng)
    mobility = CommunityMobility(
        profiles,
        radices,
        Arena(arena_side, arena_side),
        rng,
        home_prob=home_prob,
    )
    trace = collect_contact_trace(mobility, steps, radius)
    return trace, profiles
