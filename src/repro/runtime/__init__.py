"""Distributed execution substrate (Sec. IV of the paper).

Three engines run the paper's per-node algorithms with the same
round/message accounting (:class:`RunStats`) and the same fault plans:

* :class:`Network` — synchronous rounds with per-node locality
  enforcement and topology changes mid-run;
* :class:`AsyncNetwork` — the same :class:`NodeAlgorithm` objects
  under randomised bounded delays (view-inconsistency stress);
* :class:`VectorEngine` — the synchronous round model as numpy
  kernels over a CSR snapshot, state-for-state equal to ``Network``.

Plus explicit models of view inconsistency under mobility (delayed and
multi-view oracles).
"""

from repro.runtime.engine import (
    Message,
    Network,
    NodeAlgorithm,
    NodeContext,
    RunStats,
)
from repro.runtime.async_engine import AsyncNetwork
from repro.runtime.vector import (
    ArrayKernel,
    FullReversalKernel,
    MISKernel,
    PartialReversalKernel,
    SafetyLevelKernel,
    VectorEngine,
    hypercube_frozen,
    vector_full_reversal,
    vector_mis,
    vector_partial_reversal,
    vector_safety_levels,
)
from repro.runtime.views import (
    DelayedViewOracle,
    MultiViewOracle,
    inconsistency_rate,
    k_hop_view,
    view_inconsistency,
)

__all__ = [
    "ArrayKernel",
    "AsyncNetwork",
    "DelayedViewOracle",
    "FullReversalKernel",
    "MISKernel",
    "Message",
    "MultiViewOracle",
    "Network",
    "NodeAlgorithm",
    "NodeContext",
    "PartialReversalKernel",
    "RunStats",
    "SafetyLevelKernel",
    "VectorEngine",
    "hypercube_frozen",
    "inconsistency_rate",
    "k_hop_view",
    "vector_full_reversal",
    "vector_mis",
    "vector_partial_reversal",
    "vector_safety_levels",
    "view_inconsistency",
]
