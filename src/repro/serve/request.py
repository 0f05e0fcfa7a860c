"""Serving request/outcome records for the multi-tenant SpMM engine.

A :class:`ServeRequest` is one tenant's ask: multiply the (shared,
preprocessed) sparse matrix against a private dense block of width K,
arriving at a simulated instant and optionally carrying a completion
deadline.  A :class:`ServeOutcome` is what the scheduler hands back —
the request's slice of the (possibly fused) output panel plus the
simulated timing that produced it.  A :class:`ServeReport` collects
one replay's outcomes and :class:`BatchRecord`\\ s.

Everything here is plain data; the event loop lives in
:mod:`repro.serve.scheduler`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.machine import MachineConfig
from ..errors import ConfigurationError, ShapeError

#: Outcome status values.
DONE = "done"
REJECTED = "rejected"
FAILED = "failed"


class RejectReason(str, enum.Enum):
    """Why a request was rejected (structured; ``str`` for telemetry).

    Attributes:
        QUEUE_FULL: backpressure — the global queue was at
            ``max_queue_depth`` when the request arrived.
        SHED: SLO-aware load shedding — the scheduler dropped it as
            the lowest-priority queued work under pressure.
    """

    QUEUE_FULL = "queue_full"
    SHED = "shed_low_priority"


@dataclass
class ServeRequest:
    """One tenant request: ``C_slice = A @ B`` against a named matrix.

    Attributes:
        request_id: unique id; ties in arrival time are broken by id,
            so a trace replays identically regardless of how it was
            constructed.
        tenant: tenant label — selects the plan-cache namespace charged
            for any cold plan build this request triggers.
        matrix: suite matrix name the request multiplies against.
        B: dense input block, shape ``(A.shape[1], K)``.
        arrival: simulated arrival instant (seconds, virtual clock).
        deadline: optional absolute simulated completion deadline; a
            completion after it is recorded as a deadline miss (the
            request still completes — misses are telemetry, not drops).
        machine: optional per-request machine config; None uses the
            scheduler's.  Requests only fuse with requests on the same
            (matrix content, machine) group.
        priority: SLO class, >= 0; higher is more important.  Under
            shed pressure the scheduler drops lowest-priority queued
            work first; dispatch order ignores it (pure FIFO).
    """

    request_id: int
    tenant: str
    matrix: str
    B: np.ndarray
    arrival: float
    deadline: Optional[float] = None
    machine: Optional[MachineConfig] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ConfigurationError(
                f"priority must be >= 0, got {self.priority}"
            )
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.B.ndim != 2 or self.B.shape[1] < 1:
            raise ShapeError(
                f"request B must be 2-D with >=1 column, got {self.B.shape}"
            )
        if self.arrival < 0:
            raise ConfigurationError(
                f"arrival must be >= 0, got {self.arrival}"
            )
        if self.deadline is not None and self.deadline < self.arrival:
            raise ConfigurationError(
                f"deadline {self.deadline} precedes arrival {self.arrival}"
            )

    @property
    def k(self) -> int:
        """Dense width of this request's block."""
        return int(self.B.shape[1])


@dataclass
class ServeOutcome:
    """What the scheduler produced for one request.

    Attributes:
        request_id / tenant / matrix: copied from the request.
        status: ``"done"``, ``"rejected"`` (backpressure at admission),
            or ``"failed"`` (the underlying simulated SpMM raised).
        batch_id: id of the fused dispatch that served the request
            (None when rejected).
        fused_k: total dense width of that dispatch (equals the
            request's own K when it ran unbatched).
        dispatched: simulated dispatch instant (None when rejected).
        completion: simulated completion instant (arrival for rejects,
            so ``completion - latency`` is always the arrival).
        latency: ``completion - arrival`` (0.0 for rejects).
        deadline_missed: True when a deadline existed and completion
            overran it.
        reject_reason: structured :class:`RejectReason` (None unless
            rejected).
        replica: id of the replica that produced the result (None
            unless done; 0 on the single-executor configuration, which
            is a one-replica fleet — before the two serving loops were
            merged it read None there).
        attempts: dispatch attempts spent on the request's batch (1 on
            the single-executor configuration, which has no retries —
            it read 0 before the loops were merged).
        hedged: True when a hedged backup dispatch was issued for the
            request's group.
        degraded: degradation mode applied under queue pressure (e.g.
            ``"k_panel"``), or None.
        C: the request's own output slice ``A @ B`` (None unless done).
    """

    request_id: int
    tenant: str
    matrix: str
    status: str
    batch_id: Optional[int] = None
    fused_k: int = 0
    dispatched: Optional[float] = None
    completion: float = 0.0
    latency: float = 0.0
    deadline_missed: bool = False
    reject_reason: Optional[RejectReason] = None
    replica: Optional[int] = None
    attempts: int = 0
    hedged: bool = False
    degraded: Optional[str] = None
    C: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def rejected(cls, request: ServeRequest,
                 reason: RejectReason) -> "ServeOutcome":
        """A rejection of ``request``, stamped at its arrival."""
        return cls(
            request_id=request.request_id,
            tenant=request.tenant,
            matrix=request.matrix,
            status=REJECTED,
            completion=request.arrival,
            reject_reason=reason,
        )


@dataclass
class BatchRecord:
    """One fused dispatch: which requests ran together, and when.

    ``seconds`` runs from the dispatch instant to the winning attempt's
    completion (0.0 when every attempt failed).
    """

    batch_id: int
    matrix: str
    tenants: Tuple[str, ...]
    dispatched: float
    fused_k: int
    n_requests: int
    seconds: float


@dataclass
class ServeReport:
    """Everything a trace replay produced.

    ``outcomes`` is ordered by request id, so two replays of one trace
    (fused vs serial, different worker widths) compare positionally.
    """

    fused: bool
    outcomes: List[ServeOutcome] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    peak_queue_depth: int = 0

    def latencies(self) -> List[float]:
        """Completed requests' simulated latencies, in request order."""
        return [o.latency for o in self.outcomes if o.status == DONE]

    def serving_summary(self) -> Dict[str, float]:
        """The telemetry dict consumed by ``PerfLog.record_serve_cell``.

        ``requests_per_sec`` and ``makespan`` are simulated-time
        quantities: completed requests over the span from first arrival
        to last completion.
        """
        from ..bench.telemetry import latency_summary

        done = [o for o in self.outcomes if o.status == DONE]
        failed = [o for o in self.outcomes if o.status == FAILED]
        rejected = [o for o in self.outcomes if o.status == REJECTED]
        summary = latency_summary([o.latency for o in done])
        if done:
            first_arrival = min(
                o.completion - o.latency for o in self.outcomes
            )
            makespan = max(o.completion for o in done) - first_arrival
        else:
            makespan = 0.0
        span = max(makespan, 1e-12)
        return {
            "requests": len(self.outcomes),
            "completed": len(done),
            "rejected": len(rejected),
            "rejected_queue_full": sum(
                1 for o in rejected
                if o.reject_reason is RejectReason.QUEUE_FULL
            ),
            "rejected_shed": sum(
                1 for o in rejected
                if o.reject_reason is RejectReason.SHED
            ),
            "failed": len(failed),
            "batches": len(self.batches),
            "fusion_factor": (
                len(done) / len(self.batches) if self.batches else 0.0
            ),
            "p50_latency": summary["p50"],
            "p95_latency": summary["p95"],
            "p99_latency": summary["p99"],
            "requests_per_sec": len(done) / span if done else 0.0,
            "peak_queue_depth": self.peak_queue_depth,
            "deadline_misses": sum(
                1 for o in self.outcomes if o.deadline_missed
            ),
            "makespan": makespan,
        }
