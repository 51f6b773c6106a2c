"""Contact traces: the macro-level model of Sec. II-B.

In the system community, per-time-unit edge labels are abstracted as
*contacts* following a distribution induced by a mobility model.  The
two standard measures the paper names are the **contact duration
distribution** and the **inter-contact time distribution**; the
exponential distribution is the common (if imperfect) analytical
choice.

This module defines continuous-time contact records, computes both
empirical distributions, fits exponential rates by maximum likelihood
(with a simple KS goodness-of-fit score), and discretises a trace into
an :class:`~repro.temporal.evolving.EvolvingGraph` so the micro-level
machinery applies to macro-level data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.temporal.evolving import EvolvingGraph

Node = Hashable
Pair = FrozenSet[Node]


@dataclass(frozen=True)
class ContactRecord:
    """One contact: nodes u and v within range during [start, end)."""

    u: Node
    v: Node
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-contact on {self.u!r}")
        if self.end <= self.start:
            raise ValueError(
                f"contact must have positive duration: [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pair(self) -> Pair:
        return frozenset((self.u, self.v))


@dataclass
class ContactTrace:
    """An ordered collection of contact records plus the node universe."""

    records: List[ContactRecord] = field(default_factory=list)
    nodes: set = field(default_factory=set)

    def add(self, record: ContactRecord) -> None:
        self.records.append(record)
        self.nodes.add(record.u)
        self.nodes.add(record.v)

    def add_contact(self, u: Node, v: Node, start: float, end: float) -> None:
        self.add(ContactRecord(u=u, v=v, start=start, end=end))

    @property
    def num_contacts(self) -> int:
        return len(self.records)

    @property
    def end_time(self) -> float:
        return max((r.end for r in self.records), default=0.0)

    # ------------------------------------------------------------------
    # the two macro-level distributions
    # ------------------------------------------------------------------
    def contact_durations(self) -> List[float]:
        """All contact durations (the contact duration distribution)."""
        return [record.duration for record in self.records]

    def inter_contact_times(self) -> List[float]:
        """Per-pair gaps between consecutive contacts, pooled over pairs.

        The inter-contact time of a pair is the time from the end of one
        contact to the start of the next contact of the *same* pair.
        """
        by_pair: Dict[Pair, List[ContactRecord]] = {}
        for record in self.records:
            by_pair.setdefault(record.pair, []).append(record)
        gaps: List[float] = []
        for pair_records in by_pair.values():
            pair_records.sort(key=lambda r: r.start)
            for previous, current in zip(pair_records, pair_records[1:]):
                gap = current.start - previous.end
                if gap > 0:
                    gaps.append(gap)
        return gaps

    def pair_contact_counts(self) -> Dict[Pair, int]:
        """Number of contacts per node pair (contact frequency)."""
        counts: Dict[Pair, int] = {}
        for record in self.records:
            counts[record.pair] = counts.get(record.pair, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # discretisation
    # ------------------------------------------------------------------
    def to_evolving(self, slot: float, horizon: Optional[int] = None) -> EvolvingGraph:
        """Discretise into time units of length ``slot``.

        Edge (u, v) gets label i when the contact overlaps time window
        [i * slot, (i+1) * slot).  The per-record unit windows are
        computed vectorized and inserted in bulk, in record order (first
        touch decides the edge order).
        """
        if slot <= 0:
            raise ValueError(f"slot must be positive, got {slot}")
        if horizon is None:
            horizon = max(1, int(math.ceil(self.end_time / slot)))
        eg = EvolvingGraph(horizon=horizon, nodes=self.nodes)
        starts = np.fromiter((r.start for r in self.records), dtype=np.float64)
        ends = np.fromiter((r.end for r in self.records), dtype=np.float64)
        firsts = np.maximum(np.floor(starts / slot).astype(np.int64), 0)
        lasts = np.minimum(np.ceil(ends / slot).astype(np.int64) - 1, horizon - 1)
        eg._bulk_add_contacts(
            (record.u, record.v, unit)
            for record, first, last in zip(
                self.records, firsts.tolist(), lasts.tolist()
            )
            for unit in range(first, last + 1)
        )
        return eg


@dataclass(frozen=True)
class ExponentialFit:
    """MLE exponential fit with a Kolmogorov–Smirnov distance."""

    rate: float
    n: int
    ks_distance: float

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


def fit_exponential(samples: Sequence[float]) -> ExponentialFit:
    """MLE rate = 1 / mean, plus the KS distance to the fitted CDF.

    The paper notes the exponential is "frequently used due to the
    simplicity of its mathematics" but that e.g. boundaryless random
    waypoint does *not* match it — the KS distance quantifies that
    mismatch in our benchmarks.
    """
    values = [float(x) for x in samples if x > 0]
    if len(values) < 2:
        raise ValueError(f"need at least 2 positive samples, got {len(values)}")
    mean = sum(values) / len(values)
    rate = 1.0 / mean
    data = np.sort(np.asarray(values))
    n = len(data)
    empirical = np.arange(1, n + 1) / n
    model = 1.0 - np.exp(-rate * data)
    ks = float(
        max(
            np.max(np.abs(empirical - model)),
            np.max(np.abs(empirical - 1.0 / n - model)),
        )
    )
    return ExponentialFit(rate=rate, n=n, ks_distance=ks)


def generate_exponential_trace(
    nodes: Sequence[Node],
    rate: float,
    duration_mean: float,
    end_time: float,
    rng: np.random.Generator,
    pair_rates: Optional[Dict[Pair, float]] = None,
) -> ContactTrace:
    """Synthetic trace with exponential inter-contacts per pair.

    Each unordered pair meets as a Poisson process of intensity
    ``rate`` (or its ``pair_rates`` override); contact durations are
    exponential with mean ``duration_mean``.  This is the macro-level
    analytical model of Sec. II-B, and the setting in which the
    time-varying forwarding set of [13] is provably optimal.
    """
    if rate <= 0 and not pair_rates:
        raise ValueError("rate must be positive (or pair_rates supplied)")
    trace = ContactTrace()
    trace.nodes.update(nodes)
    node_list = list(nodes)
    for i, u in enumerate(node_list):
        for v in node_list[i + 1 :]:
            pair = frozenset((u, v))
            pair_rate = (pair_rates or {}).get(pair, rate)
            if pair_rate <= 0:
                continue
            t = float(rng.exponential(1.0 / pair_rate))
            while t < end_time:
                duration = float(rng.exponential(duration_mean))
                trace.add_contact(u, v, t, min(t + max(duration, 1e-9), end_time + duration))
                t += float(rng.exponential(1.0 / pair_rate)) + duration
    return trace
