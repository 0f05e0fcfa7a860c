"""Multi-tenant SpMM serving with K-panel request fusion.

The serving layer turns the repeated-SpMM engine
(:class:`~repro.gnn.engine.DistSpMMEngine`) into a request server:
tenants submit dense blocks against shared preprocessed matrices, an
admission/batching scheduler fuses compatible queued requests into one
wide K-panel SpMM, and every request gets back its own output slice —
byte-identical to what an unbatched run would have produced (the
classification-pin argument of DESIGN.md §8).

One deterministic virtual-clock event loop does all of it
(:mod:`repro.serve.scheduler`), dispatching onto a replica fleet
(:mod:`repro.serve.resilience`).  :class:`ServeScheduler` is its
single-executor configuration (:data:`SINGLE_EXECUTOR`) and
:class:`ResilientScheduler` its replicated one, with retries, hedging,
circuit breakers and SLO-aware admission set by a
:class:`ResiliencePolicy`.  :class:`ServePolicy` holds the
fusion/backpressure knobs, :mod:`repro.serve.traces` the seeded
synthetic traces, and ``repro serve --trace`` replays them from the
CLI.
"""

from .request import (
    DONE,
    FAILED,
    REJECTED,
    BatchRecord,
    RejectReason,
    ServeOutcome,
    ServeReport,
    ServeRequest,
)
from .resilience import (
    SINGLE_EXECUTOR,
    CircuitBreaker,
    LoadBalancer,
    Replica,
    ReplicaSet,
    ResilienceReport,
    ResiliencePolicy,
)
from .scheduler import ResilientScheduler, ServePolicy, ServeScheduler
from .traces import (
    DEFAULT_TENANTS,
    TRACE_KINDS,
    bursty_trace,
    diurnal_trace,
    hot_matrix_trace,
    make_trace,
)

__all__ = [
    "BatchRecord",
    "CircuitBreaker",
    "DEFAULT_TENANTS",
    "DONE",
    "FAILED",
    "LoadBalancer",
    "REJECTED",
    "RejectReason",
    "Replica",
    "ReplicaSet",
    "ResiliencePolicy",
    "ResilienceReport",
    "ResilientScheduler",
    "SINGLE_EXECUTOR",
    "ServeOutcome",
    "ServePolicy",
    "ServeReport",
    "ServeRequest",
    "ServeScheduler",
    "TRACE_KINDS",
    "bursty_trace",
    "diurnal_trace",
    "hot_matrix_trace",
    "make_trace",
]
