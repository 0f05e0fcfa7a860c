"""Admission, batching, and K-panel fusion for SpMM serving.

:class:`ServeScheduler` replays a trace of :class:`ServeRequest`\\ s
through a deterministic virtual-clock event loop.  Queued requests
that target the same (matrix content, machine) group are *fused*:
their dense blocks are column-stacked into one wide K-panel, one
planned Two-Face SpMM runs at the fused width, and the output panel is
sliced back per request.  Fusion amortises the per-fetch and
per-multicast fixed costs of the distributed SpMM over the combined
width — the serving-side analogue of the paper's observation that
wider dense matrices communicate more efficiently per byte.

Correctness (DESIGN.md §8): stripe classification depends on K, and a
different classification changes the order stripes accumulate into
``C``.  Every engine therefore pins classification at one canonical
width (``ServePolicy.classify_k``, defaulting to the group's first
request width), so a fused K=64 panel and an unbatched K=8 run execute
the *same* plan shape and each request's output slice is byte-identical
either way.

Determinism: the loop advances on simulated time only — request
arrivals, modelled SpMM seconds, and policy delays.  No wall clock, no
unseeded randomness, and the underlying executor is bit-identical at
any ``REPRO_EXEC_WORKERS`` width, so a fixed trace replays identically
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.machine import MachineConfig
from ..core.model import CostCoefficients
from ..core.plancache import (
    AUTO,
    PlanCache,
    PlanCacheLike,
    PlanCacheNamespace,
    matrix_content_digest,
    resolve_plan_cache,
)
from ..errors import ConfigurationError, ReproError
from ..gnn.engine import DistSpMMEngine
from ..sparse.coo import COOMatrix
from .request import (
    DONE,
    FAILED,
    REJECTED,
    RejectReason,
    ServeOutcome,
    ServeRequest,
)


@dataclass(frozen=True)
class ServePolicy:
    """Admission/batching policy knobs.

    Attributes:
        max_fused_k: cap on the total dense width of one fused
            dispatch; a group whose queued width reaches the cap
            dispatches immediately.  (A single request wider than the
            cap still runs, alone.)
        max_batch_delay: how long (simulated seconds) the scheduler
            holds a group's first request open for late joiners before
            dispatching; 0 disables time-based batching.
        max_queue_depth: backpressure bound — a request arriving while
            this many requests are queued (across all groups) is
            rejected at admission.
        classify_k: canonical classification width pinned on every
            engine.  None pins each group at its first request's width,
            which matches between a fused and an unbatched replay of
            the same trace as long as no request is rejected; set it
            explicitly when comparing replays under heavy backpressure.
        auto_layout: let the autotuner (:mod:`repro.tune`) pick each
            group's process-grid layout at group formation, tuned at
            the saturated fused-panel width (``max_fused_k``).  The
            tuned layout token becomes part of the group key, so
            requests tuned to different layouts are never fused into
            one K-panel.  False (the default) keeps the pre-tuner 1D
            path byte-identical.
    """

    max_fused_k: int = 256
    max_batch_delay: float = 0.05
    max_queue_depth: int = 64
    classify_k: Optional[int] = None
    auto_layout: bool = False

    def __post_init__(self) -> None:
        if self.max_fused_k < 1:
            raise ConfigurationError(
                f"max_fused_k must be >= 1: {self.max_fused_k}"
            )
        if self.max_batch_delay < 0:
            raise ConfigurationError(
                f"max_batch_delay must be >= 0: {self.max_batch_delay}"
            )
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1: {self.max_queue_depth}"
            )
        if self.classify_k is not None and self.classify_k < 1:
            raise ConfigurationError(
                f"classify_k must be >= 1: {self.classify_k}"
            )


@dataclass
class BatchRecord:
    """One fused dispatch: which requests ran together, and when."""

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


class ServeScheduler:
    """Multi-tenant SpMM serving against a fixed set of matrices.

    One scheduler owns one simulated service executor: dispatches are
    serialised on the virtual clock (``free_at``), engines persist
    across :meth:`serve` calls (warm plans), and every tenant gets a
    private :class:`~repro.core.plancache.PlanCacheNamespace` over the
    shared persistent cache.

    Args:
        machine: default simulated cluster for every request.
        matrices: suite name -> loaded matrix; requests reference
            matrices by these names.
        policy: admission/batching policy (default :class:`ServePolicy`).
        stripe_width / coeffs: forwarded to each group's engine.
        plan_cache: the *shared* persistent cache tenants namespace
            into; AUTO resolves ``REPRO_PLAN_CACHE``, None disables
            persistent caching (engines still reuse plans per width).
        tuner: the autotuner consulted when ``policy.auto_layout`` is
            on; built lazily (TwoFace over every legal layout of the
            default machine) when omitted.  Its content-addressed
            decision cache makes repeat group formations a dictionary
            lookup.
    """

    def __init__(
        self,
        machine: MachineConfig,
        matrices: Dict[str, COOMatrix],
        policy: Optional[ServePolicy] = None,
        stripe_width: Optional[int] = None,
        coeffs: Optional[CostCoefficients] = None,
        plan_cache: PlanCacheLike = AUTO,
        tuner=None,
    ):
        if not matrices:
            raise ConfigurationError("scheduler needs at least one matrix")
        self.machine = machine
        self.matrices = dict(matrices)
        self.policy = policy if policy is not None else ServePolicy()
        self.stripe_width = stripe_width
        self.coeffs = coeffs
        parent = resolve_plan_cache(plan_cache)
        if isinstance(parent, PlanCacheNamespace):
            parent = parent.parent
        self._shared_cache: Optional[PlanCache] = parent
        self._tenant_caches: Dict[str, Optional[PlanCacheNamespace]] = {}
        self._engines: Dict[Tuple, DistSpMMEngine] = {}
        self._tuners: Dict[Tuple, object] = {}
        self._group_grids: Dict[Tuple, object] = {}
        if tuner is not None:
            self._tuners[self._machine_shape(tuner.machine)] = tuner

    # ------------------------------------------------------------------
    def tenant_cache(self, tenant: str) -> Optional[PlanCacheNamespace]:
        """The tenant's plan-cache namespace (None when caching is off).

        Namespaces are memoised, so a tenant's LRU and stats persist
        across traces served by this scheduler.
        """
        if self._shared_cache is None:
            return None
        if tenant not in self._tenant_caches:
            self._tenant_caches[tenant] = PlanCacheNamespace(
                self._shared_cache, tenant
            )
        return self._tenant_caches[tenant]

    @staticmethod
    def _machine_shape(machine: MachineConfig) -> Tuple:
        return (
            machine.n_nodes,
            machine.threads_per_node,
            machine.memory_capacity,
        )

    def _tuner_for(self, machine: MachineConfig, pin: int):
        """The (memoised) autotuner for one (machine shape, pin).

        Serving engines execute Two-Face, so the candidate set is
        TwoFace over every legal layout; decisions are shared across
        groups via the tuner's content-addressed cache.  The tuner
        models classification at ``pin`` — the same width the group's
        engine will pin at — so the static 1D configuration is always
        one of its candidates and a tuned group can never be slower
        than the untuned path.  An injected tuner (the ``tuner`` ctor
        arg, stored under the bare machine shape) answers every pin.
        """
        shape = self._machine_shape(machine)
        injected = self._tuners.get(shape)
        if injected is not None:
            return injected
        key = shape + (pin,)
        tuner = self._tuners.get(key)
        if tuner is None:
            from ..tune import Tuner

            tuner = Tuner(
                machine,
                coeffs=self.coeffs,
                algorithms=("TwoFace",),
                stripe_width=self.stripe_width,
                classify_k=pin,
            )
            self._tuners[key] = tuner
        return tuner

    def _group_key(self, request: ServeRequest) -> Tuple:
        if request.matrix not in self.matrices:
            raise ConfigurationError(
                f"request {request.request_id} references unknown matrix "
                f"{request.matrix!r}"
            )
        machine = request.machine or self.machine
        key = (
            matrix_content_digest(self.matrices[request.matrix]),
            machine.n_nodes,
            machine.threads_per_node,
            machine.memory_capacity,
        )
        if not self.policy.auto_layout:
            return key
        # Layout decision at group formation: the tuned token joins
        # the key, so requests whose cells tune to different layouts
        # land in different groups and are never fused.  Tuning is at
        # the saturated dispatch width (the fused-panel cap) rather
        # than the single request's k — throughput is set by the full
        # K-panels — but classification is modelled at the pin the
        # group's engine will actually use (``classify_k`` or the
        # lead's width).  This is self-consistent: a group's lead is
        # the first request whose token formed the group, and that
        # request tuned under its own k.
        pin = (
            self.policy.classify_k
            if self.policy.classify_k is not None
            else request.k
        )
        decision = self._tuner_for(machine, pin).tune(
            self.matrices[request.matrix],
            max(request.k, self.policy.max_fused_k),
        )
        key = key + (decision.grid_token,)
        self._group_grids.setdefault(key, decision.grid)
        return key

    def _engine_for(self, key: Tuple, lead: ServeRequest) -> DistSpMMEngine:
        """The group's engine, built on first dispatch.

        The classification pin is fixed here: the policy's
        ``classify_k`` or, by default, the lead (earliest) request's
        width — identical between fused and serial replays of one
        trace, so their plans accumulate ``C`` in the same order.

        Autotuned groups use the same pin: the layout decision was
        modelled under ``classify_k = lead.k`` (see ``_group_key``), so
        the engine runs exactly the configuration the tuner priced.
        """
        engine = self._engines.get(key)
        if engine is None:
            pin = self.policy.classify_k
            engine = DistSpMMEngine(
                self.matrices[lead.matrix],
                lead.machine or self.machine,
                stripe_width=self.stripe_width,
                coeffs=self.coeffs,
                plan_cache=None,
                classify_k=pin if pin is not None else lead.k,
                grid=self._group_grids.get(key),
            )
            self._engines[key] = engine
        return engine

    def tuner_stats(self) -> Dict[str, dict]:
        """Per-(machine shape, pin) autotuner telemetry (empty off).

        Built tuners are labelled ``p<nodes>t<threads>k<pin>``; an
        injected tuner (no pin of its own) drops the ``k`` suffix.
        """
        return {
            f"p{key[0]}t{key[1]}"
            + (f"k{key[3]}" if len(key) > 3 else ""): tuner.stats()
            for key, tuner in self._tuners.items()
        }

    # ------------------------------------------------------------------
    def serve(
        self, requests: Sequence[ServeRequest], fuse: bool = True
    ) -> ServeReport:
        """Replay ``requests`` through the virtual-clock event loop.

        Args:
            requests: the trace; any order (replay sorts by arrival,
                ties broken by request id).
            fuse: False serves every request unbatched (the serial
                baseline the CLI and benchmarks compare against).

        Returns:
            A :class:`ServeReport` with per-request outcomes in
            request-id order.
        """
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("request ids must be unique")
        pending = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        queues: Dict[Tuple, List[ServeRequest]] = {}
        outcomes: Dict[int, ServeOutcome] = {}
        report = ServeReport(fused=fuse)
        state = {"queued": 0, "free_at": 0.0, "idx": 0, "batch_id": 0}

        def admit_until(t: float) -> None:
            """Admit (or reject) every arrival at or before ``t``."""
            while (
                state["idx"] < len(pending)
                and pending[state["idx"]].arrival <= t
            ):
                req = pending[state["idx"]]
                state["idx"] += 1
                if state["queued"] >= self.policy.max_queue_depth:
                    outcomes[req.request_id] = ServeOutcome(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        matrix=req.matrix,
                        status=REJECTED,
                        completion=req.arrival,
                        reject_reason=RejectReason.QUEUE_FULL,
                    )
                    continue
                queues.setdefault(self._group_key(req), []).append(req)
                state["queued"] += 1
                report.peak_queue_depth = max(
                    report.peak_queue_depth, state["queued"]
                )

        def ready_at(queue: List[ServeRequest]) -> float:
            """When this group is willing to dispatch.

            The queue is in arrival order, so each branch returns a
            time no earlier than every batched member's arrival —
            a dispatch never contains a request from its future.
            """
            first = queue[0]
            if not fuse:
                return first.arrival
            cum = 0
            for req in queue:
                if cum and cum + req.k > self.policy.max_fused_k:
                    # This request does not fit: the batch ahead of it
                    # became full the moment it arrived.
                    return req.arrival
                cum += req.k
                if cum >= self.policy.max_fused_k:
                    return req.arrival
            if state["idx"] >= len(pending):
                # No future joiners exist; dispatch once the whole
                # queue has arrived instead of waiting out the delay.
                return queue[-1].arrival
            return first.arrival + self.policy.max_batch_delay

        def select() -> Tuple[Tuple, float]:
            """The (group, time) of the next dispatch."""
            best_key = None
            best = (float("inf"), -1)
            for key, queue in queues.items():
                t = max(ready_at(queue), state["free_at"])
                cand = (t, queue[0].request_id)
                if best_key is None or cand < best:
                    best_key, best = key, cand
            assert best_key is not None
            return best_key, best[0]

        while state["idx"] < len(pending) or state["queued"]:
            if state["queued"] == 0:
                admit_until(pending[state["idx"]].arrival)
                continue
            # Fixed point: a dispatch at time t must see every arrival
            # <= t (late joiners can pull a group's dispatch earlier by
            # filling its K cap, never push it later).
            while True:
                key, t = select()
                if (
                    state["idx"] < len(pending)
                    and pending[state["idx"]].arrival <= t
                ):
                    admit_until(t)
                    continue
                break
            self._dispatch(key, t, fuse, queues, outcomes, state, report)

        report.outcomes = [
            outcomes[i] for i in sorted(outcomes)
        ]
        return report

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        key: Tuple,
        t: float,
        fuse: bool,
        queues: Dict[Tuple, List[ServeRequest]],
        outcomes: Dict[int, ServeOutcome],
        state: Dict[str, float],
        report: ServeReport,
    ) -> None:
        """Fuse the head of group ``key``'s queue and run it at ``t``."""
        queue = queues[key]
        batch: List[ServeRequest] = []
        fused_k = 0
        for req in queue:
            if batch and (
                not fuse or fused_k + req.k > self.policy.max_fused_k
            ):
                break
            batch.append(req)
            fused_k += req.k
            if not fuse:
                break
        del queue[: len(batch)]
        if not queue:
            del queues[key]
        state["queued"] -= len(batch)

        lead = batch[0]
        engine = self._engine_for(key, lead)
        cache = self.tenant_cache(lead.tenant)
        if len(batch) == 1:
            B = lead.B
        else:
            B = np.concatenate([r.B for r in batch], axis=1)
        batch_id = int(state["batch_id"])
        state["batch_id"] += 1
        try:
            C, seconds = engine.multiply(B, plan_cache=cache)
        except ReproError:
            # A failed dispatch consumes no simulated executor time,
            # but the clock still advances to the dispatch instant so
            # batch timestamps stay monotone.
            state["free_at"] = max(state["free_at"], t)
            for req in batch:
                outcomes[req.request_id] = ServeOutcome(
                    request_id=req.request_id,
                    tenant=req.tenant,
                    matrix=req.matrix,
                    status=FAILED,
                    batch_id=batch_id,
                    fused_k=fused_k,
                    dispatched=t,
                    completion=t,
                    latency=t - req.arrival,
                    deadline_missed=(
                        req.deadline is not None and t > req.deadline
                    ),
                )
            report.batches.append(
                BatchRecord(
                    batch_id, lead.matrix,
                    tuple(r.tenant for r in batch), t, fused_k,
                    len(batch), 0.0,
                )
            )
            return
        completion = t + seconds
        state["free_at"] = completion
        offset = 0
        for req in batch:
            piece = C[:, offset:offset + req.k]
            offset += req.k
            outcomes[req.request_id] = ServeOutcome(
                request_id=req.request_id,
                tenant=req.tenant,
                matrix=req.matrix,
                status=DONE,
                batch_id=batch_id,
                fused_k=fused_k,
                dispatched=t,
                completion=completion,
                latency=completion - req.arrival,
                deadline_missed=(
                    req.deadline is not None and completion > req.deadline
                ),
                C=np.ascontiguousarray(piece),
            )
        report.batches.append(
            BatchRecord(
                batch_id, lead.matrix, tuple(r.tenant for r in batch),
                t, fused_k, len(batch), seconds,
            )
        )
