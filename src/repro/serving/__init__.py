"""Incremental graph serving (ROADMAP item: dynamic environments).

The serving plane keeps the paper's hot structures — the CSR snapshot,
the NSF peel layering (Sec. III-B), the landmark (distance, gateway)
labels (Sec. IV), the PageRank scores, and the MIS and Wu–Dai CDS
backbones (Sec. IV) — *current* under an interleaved stream of edge
mutations and point queries, instead of refreezing per mutation
generation:

* :class:`~repro.serving.state.GraphService` — the synchronous core:
  a :class:`~repro.graphs.delta.PatchedGraph` patch buffer plus the
  lazily-repaired indexes of :data:`~repro.serving.state.INDEXES`,
  with a vectorized ``apply_batch`` write path;
* :class:`~repro.serving.gateway.ServingGateway` — the ``asyncio``
  front-end: a bounded queue coalescing point queries into batched
  kernel sweeps and mutations into netted write barriers (sequence
  order preserved, so read-your-writes survives fire-and-forget
  writes), flushed on a full batch, a fixed ``max_delay`` deadline or
  an idle event loop, with deterministic chaos hooks from
  :mod:`repro.faults`.

Proven correct by the differential mutate/query harness
(``tests/test_incremental_differential.py``) against the full-rebuild
references and by the gateway state machine
(``tests/test_gateway_model.py``) against a sequential oracle, and
benchmarked by ``benchmarks/bench_serving.py`` and
``benchmarks/bench_serving_write.py``.
"""

from repro.serving.gateway import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY,
    ServingGateway,
)
from repro.serving.state import GraphService

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_DELAY",
    "GraphService",
    "ServingGateway",
]
