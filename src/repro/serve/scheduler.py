"""The serving event loop: admission, K-panel fusion, and dispatch.

:class:`ServeScheduler` replays a trace of :class:`ServeRequest`\\ s
through a deterministic virtual-clock event loop.  Queued requests
that target the same (matrix content, machine) group are *fused*:
their dense blocks are column-stacked into one wide K-panel, one
planned Two-Face SpMM runs at the fused width, and the output panel is
sliced back per request.  Fusion amortises the per-fetch and
per-multicast fixed costs of the distributed SpMM over the combined
width — the serving-side analogue of the paper's observation that
wider dense matrices communicate more efficiently per byte.

One loop serves every configuration (DESIGN.md §8): each dispatch is
routed onto a :class:`~repro.serve.resilience.ReplicaSet` under a
:class:`~repro.serve.resilience.ResiliencePolicy`.  The plain
:class:`ServeScheduler` runs the policy value
:data:`~repro.serve.resilience.SINGLE_EXECUTOR` (one replica, no
retries, hedge or timeout; shed and degrade unreachable), and
:class:`ResilientScheduler` runs the caller's policy, faults and
per-replica grids (DESIGN.md §12).

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

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cluster.faults import FaultConfig, resilience_stats
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
from ..errors import ConfigurationError, ExecutorCrashError, ReproError
from ..gnn.engine import DistSpMMEngine
from ..sparse.coo import COOMatrix
from .request import (
    DONE,
    FAILED,
    BatchRecord,
    RejectReason,
    ServeOutcome,
    ServeReport,
    ServeRequest,
)
from .resilience import (
    SINGLE_EXECUTOR,
    LoadBalancer,
    Replica,
    ReplicaSet,
    ResiliencePolicy,
    ResilienceReport,
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


class _Attempt(NamedTuple):
    """One dispatch attempt: ``C`` is None when it failed."""

    rid: int
    C: Optional[np.ndarray]
    charged: float
    start: float
    completion: float


class ServeScheduler:
    """Multi-tenant SpMM serving against a fixed set of matrices.

    This constructor is the single-executor configuration: one
    simulated service executor (:data:`SINGLE_EXECUTOR`) serialises
    dispatches on its virtual clock (``free_at``).  Engines persist
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

    #: What :meth:`serve` returns.  A plain :class:`ServeReport` has no
    #: fleet counters, so single-executor telemetry reads 0 replicas.
    report_type = ServeReport

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
        self._setup(
            machine, matrices, policy, SINGLE_EXECUTOR, machine.faults,
            stripe_width, coeffs, plan_cache, tuner=tuner,
        )

    def _setup(self, machine, matrices, policy, resilience, faults,
               stripe_width, coeffs, plan_cache, tuner=None, grids=None):
        if not matrices:
            raise ConfigurationError("scheduler needs at least one matrix")
        # Group keys and tuned layouts come from the fault-free base
        # machine; faults belong to the replicas.
        self.machine = replace(machine, faults=None)
        self.matrices = dict(matrices)
        self.policy = policy if policy is not None else ServePolicy()
        self.resilience = resilience
        self.faults = faults
        self.grids = grids
        self.stripe_width = stripe_width
        self.coeffs = coeffs
        parent = resolve_plan_cache(plan_cache)
        if isinstance(parent, PlanCacheNamespace):
            parent = parent.parent
        self._shared_cache: Optional[PlanCache] = parent
        self._tenant_caches: Dict[str, Optional[PlanCacheNamespace]] = {}
        # (replica id, group key) -> engine; outlives each replay's fleet.
        self._engines: Dict[Tuple, DistSpMMEngine] = {}
        self._tuners: Dict[Tuple, object] = {}
        self._group_grids: Dict[Tuple, object] = {}
        if tuner is not None:
            self._tuners[self._machine_shape(tuner.machine)] = tuner
        self._new_fleet()

    def _new_fleet(self) -> None:
        """A fresh replica set: clocks, breakers, EWMAs and crash
        epochs restart, while engines (and their plans) persist."""
        self.replicas = ReplicaSet(
            self.machine, self.resilience.n_replicas, self.faults,
            self.resilience, grids=self.grids,
        )
        self.balancer = LoadBalancer(self.replicas)

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

    def _engine_for(self, rep: Replica, key: Tuple,
                    lead: ServeRequest) -> DistSpMMEngine:
        """The replica's engine for one request group, built on its
        first dispatch.

        The engine runs on the lead's own machine when it has one, under
        the replica's faults.  The classification pin is fixed here: the
        policy's ``classify_k`` or, by default, the lead (earliest)
        request's width — identical between fused and serial replays of
        one trace and across replicas, so their plans accumulate ``C``
        in the same order.

        Autotuned groups use the same pin: the layout decision was
        modelled under ``classify_k = lead.k`` (see ``_group_key``), so
        the engine runs exactly the configuration the tuner priced.
        """
        engine = self._engines.get((rep.rid, key))
        if engine is None:
            pin = self.policy.classify_k
            engine = DistSpMMEngine(
                self.matrices[lead.matrix],
                rep.machine_for(lead.machine),
                stripe_width=self.stripe_width,
                coeffs=self.coeffs,
                plan_cache=None,
                classify_k=pin if pin is not None else lead.k,
                grid=(
                    rep.grid if rep.grid is not None
                    else self._group_grids.get(key)
                ),
            )
            self._engines[(rep.rid, key)] = engine
        return engine

    def _cached_widths(self, key: Tuple) -> set:
        """Fused widths some replica already holds a plan for."""
        widths: set = set()
        for rep in self.replicas:
            engine = self._engines.get((rep.rid, key))
            if engine is not None:
                widths.update(engine._plans)
        return widths

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

        Every replay starts a fresh fleet at virtual time 0; engines
        (and their plans) persist across calls.

        Args:
            requests: the trace; any order (replay sorts by arrival,
                ties broken by request id).
            fuse: False serves every request unbatched (the serial
                baseline the CLI and benchmarks compare against).

        Returns:
            A :attr:`report_type` with per-request outcomes in
            request-id order.
        """
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("request ids must be unique")
        self._new_fleet()
        pending = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        queues: Dict[Tuple, List[ServeRequest]] = {}
        outcomes: Dict[int, ServeOutcome] = {}
        report = ResilienceReport(fused=fuse)
        state = {"queued": 0, "idx": 0, "batch_id": 0}

        def admit_until(t: float) -> None:
            """Admit (or reject) every arrival at or before ``t``."""
            while (
                state["idx"] < len(pending)
                and pending[state["idx"]].arrival <= t
            ):
                req = pending[state["idx"]]
                state["idx"] += 1
                if state["queued"] >= self.policy.max_queue_depth:
                    outcomes[req.request_id] = ServeOutcome.rejected(
                        req, RejectReason.QUEUE_FULL
                    )
                    continue
                queues.setdefault(self._group_key(req), []).append(req)
                state["queued"] += 1
                report.peak_queue_depth = max(
                    report.peak_queue_depth, state["queued"]
                )
                self._shed(queues, outcomes, state, report)

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
            free = min(rep.free_at for rep in self.replicas)
            best_key = None
            best = (float("inf"), -1)
            for key, queue in queues.items():
                t = max(ready_at(queue), free)
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

        report.outcomes = [outcomes[i] for i in sorted(outcomes)]
        for rep in self.replicas:
            report.replica_stats[rep.rid] = rep.describe()
            report.breaker_opens += rep.breaker.opens
            report.probes += rep.stats.probes
        if self.report_type is ServeReport:
            return ServeReport(
                fuse, report.outcomes, report.batches,
                report.peak_queue_depth,
            )
        return report

    # ------------------------------------------------------------------
    def _shed(self, queues, outcomes, state, report) -> None:
        """Drop lowest-priority queued work once pressure crosses the
        shed threshold (latest arrival first within a priority class;
        ``protect_priority`` work is never shed)."""
        limit = self.policy.max_queue_depth * (
            self.resilience.shed_queue_fraction
        )
        while state["queued"] > limit:
            victim_key = None
            victim = None
            for key, queue in queues.items():
                for req in queue:
                    if req.priority >= self.resilience.protect_priority:
                        continue
                    better = victim is None or (
                        (req.priority, -req.arrival, -req.request_id)
                        < (victim.priority, -victim.arrival,
                           -victim.request_id)
                    )
                    if better:
                        victim_key, victim = key, req
            if victim is None:
                return
            queues[victim_key].remove(victim)
            if not queues[victim_key]:
                del queues[victim_key]
            state["queued"] -= 1
            report.shed += 1
            outcomes[victim.request_id] = ServeOutcome.rejected(
                victim, RejectReason.SHED
            )

    def _panel_cap(self, key: Tuple, queue: List[ServeRequest],
                   queued: int) -> Tuple[int, Optional[str]]:
        """The fused-width cap for one dispatch, and how it degraded.

        Under queue pressure, prefer a fused width whose plan some
        replica already holds; failing that, halve the K-panel cap.
        """
        cap = self.policy.max_fused_k
        pressure = queued / self.policy.max_queue_depth
        if len(queue) < 2 or pressure < self.resilience.degrade_queue_fraction:
            return cap, None
        widths, cum = [], 0
        for req in queue:
            if cum and cum + req.k > cap:
                break
            cum += req.k
            widths.append(cum)
        full = widths[-1]
        cached = self._cached_widths(key)
        if full in cached:
            return cap, None
        stale = max((w for w in widths[:-1] if w in cached), default=None)
        if stale is not None:
            return stale, "stale_plan"
        cap = max(queue[0].k, cap // 2)
        return cap, ("k_panel" if cap < full else None)

    def _attempt(self, rep: Replica, key: Tuple, lead: ServeRequest,
                 B: np.ndarray, start: float,
                 report: ResilienceReport) -> _Attempt:
        """Run one dispatch attempt on ``rep`` starting at ``start``.

        The replica's clock, stats, EWMAs, and breaker are all updated
        here.  A crash charges ``crash_detect_seconds``, a timeout
        exactly ``timeout``, and any other failure nothing.
        """
        res = self.resilience
        epoch = rep.next_epoch
        rep.next_epoch += 1
        engine = self._engine_for(rep, key, lead)
        tenant = (
            lead.tenant if len(self.replicas) == 1
            else f"replica{rep.rid}/{lead.tenant}"
        )
        before = resilience_stats().snapshot()
        C = None
        try:
            C, seconds = engine.multiply(
                B, plan_cache=self.tenant_cache(tenant),
                machine=rep.machine_for_epoch(engine.machine, epoch),
            )
        except ExecutorCrashError:
            charged = res.crash_detect_seconds
            rep.stats.crashes += 1
            report.crashes += 1
        except ReproError:
            charged = 0.0
        else:
            charged = seconds
            if res.timeout is not None and seconds > res.timeout:
                charged, C = res.timeout, None
                rep.stats.timeouts += 1
                report.timeouts += 1
        after = resilience_stats().snapshot()
        rep.stats.rget_failures += after[0] - before[0]
        rep.stats.rget_retries += after[1] - before[1]
        rep.stats.lane_fallbacks += after[3] - before[3]
        rep.free_at = start + charged
        ok = C is not None
        rep.stats.dispatches += 1
        rep.stats.busy_seconds += charged
        if ok:
            rep.stats.successes += 1
            rep.observe_latency(charged, res.ewma_alpha)
            self.replicas.observe_fleet(charged)
        else:
            rep.stats.failures += 1
        rep.breaker.record(rep.free_at, ok)
        rep.breaker.check_drift(
            rep.free_at, rep.latency_ewma, self.replicas.fleet_ewma
        )
        return _Attempt(rep.rid, C, charged, start, rep.free_at)

    def _dispatch(self, key: Tuple, t: float, fuse: bool, queues,
                  outcomes, state, report: ResilienceReport) -> None:
        """Fuse the head of group ``key``'s queue and run it at ``t``:
        degrade, balance, hedge, retry, then record the outcomes."""
        res = self.resilience
        self.replicas.run_probes(t)
        queue = queues[key]
        cap, degraded = (
            self._panel_cap(key, queue, state["queued"]) if fuse
            else (self.policy.max_fused_k, None)
        )
        batch: List[ServeRequest] = []
        fused_k = 0
        for req in queue:
            if batch and (not fuse or fused_k + req.k > cap):
                break
            batch.append(req)
            fused_k += req.k
        del queue[: len(batch)]
        if not queue:
            del queues[key]
        state["queued"] -= len(batch)

        lead = batch[0]
        if len(batch) == 1:
            B = lead.B
        else:
            B = np.concatenate([r.B for r in batch], axis=1)
        batch_id = int(state["batch_id"])
        state["batch_id"] += 1
        if degraded is not None:
            report.degraded_dispatches += 1

        # --- primary attempt -----------------------------------------
        primary = self.balancer.order(t)[0]
        tried = [primary.rid]
        first = self._attempt(
            primary, key, lead, B, max(primary.free_at, t), report
        )
        win = first if first.C is not None else None
        attempts = 1
        hedged = False
        last_failure = first.completion

        # --- hedge ----------------------------------------------------
        if (
            res.hedge_delay is not None
            and len(self.replicas) > 1
            and (win is None or first.completion > t + res.hedge_delay)
            and attempts <= res.max_retries
        ):
            backup = self.balancer.order(
                t + res.hedge_delay, exclude=tuple(tried)
            )[0]
            if backup.rid != primary.rid:
                tried.append(backup.rid)
                second = self._attempt(
                    backup, key, lead, B,
                    max(backup.free_at, t + res.hedge_delay), report,
                )
                attempts += 1
                hedged = True
                report.hedges += 1
                # The earliest success wins; every other participant's
                # charged seconds are wasted.
                if second.C is not None and (
                    win is None or second.completion < win.completion
                ):
                    if win is not None:
                        report.hedge_wasted_seconds += win.charged
                    win = second
                    report.hedge_wins += 1
                else:
                    report.hedge_wasted_seconds += (
                        second.charged if win is not None
                        else first.charged + second.charged
                    )
                    last_failure = max(last_failure, second.completion)

        # --- retry-with-backoff --------------------------------------
        retry_index = 0
        while win is None and attempts <= res.max_retries:
            retry_index += 1
            backoff = res.retry_backoff_base * (2 ** (retry_index - 1))
            earliest = last_failure + backoff
            rep = self.balancer.order(earliest, exclude=tuple(tried))[0]
            if rep.rid not in tried:
                tried.append(rep.rid)
            retry = self._attempt(
                rep, key, lead, B, max(rep.free_at, earliest), report,
            )
            attempts += 1
            report.retries += 1
            if retry.C is not None:
                win = retry
            else:
                last_failure = retry.completion

        # --- record outcomes -----------------------------------------
        status = DONE if win is not None else FAILED
        winner = win.rid if win is not None else None
        completion = win.completion if win is not None else last_failure
        report.routing_trace.append((
            batch_id, winner if winner is not None else -1,
            attempts, hedged, status,
        ))
        offset = 0
        for req in batch:
            piece = None
            if win is not None:
                piece = np.ascontiguousarray(
                    win.C[:, offset:offset + req.k]
                )
            offset += req.k
            outcomes[req.request_id] = ServeOutcome(
                request_id=req.request_id,
                tenant=req.tenant,
                matrix=req.matrix,
                status=status,
                batch_id=batch_id,
                fused_k=fused_k,
                dispatched=t,
                completion=completion,
                latency=completion - req.arrival,
                deadline_missed=(
                    req.deadline is not None
                    and completion > req.deadline
                ),
                replica=winner,
                attempts=attempts,
                hedged=hedged,
                degraded=degraded,
                C=piece,
            )
        report.batches.append(
            BatchRecord(
                batch_id, lead.matrix, tuple(r.tenant for r in batch),
                t, fused_k, len(batch),
                (win.start - t) + win.charged if win is not None else 0.0,
            )
        )


class ResilientScheduler(ServeScheduler):
    """The serving loop over N replicas: the replicated configuration.

    Same trace in as :class:`ServeScheduler`, a
    :class:`~repro.serve.resilience.ResilienceReport` out; dispatches
    route through the :class:`~repro.serve.resilience.LoadBalancer`
    with the caller's timeouts, retries, hedging, circuit breakers and
    SLO-aware admission.  Grouping, classification pins and tuned
    layouts are exactly those of the single-executor configuration.

    Args:
        machine: base cluster every replica clones (fault seeds vary).
        matrices: suite name -> loaded matrix.
        policy: admission/fusion policy.
        resilience: the fleet knobs (:class:`ResiliencePolicy`).
        faults: fault config injected into the replicas; None uses the
            machine's own (fault-free when it has none).  Replica
            ``rid`` runs under ``seed + rid``.
        stripe_width / coeffs / plan_cache: forwarded to engines; the
            shared persistent cache is namespaced per replica *and*
            tenant (``replica<rid>/<tenant>``) when there are several
            replicas.
        grids: optional per-replica process grids (length
            ``n_replicas``).
    """

    report_type = ResilienceReport

    def __init__(
        self,
        machine: MachineConfig,
        matrices: Dict[str, COOMatrix],
        policy: Optional[ServePolicy] = None,
        resilience: Optional[ResiliencePolicy] = None,
        faults: Optional[FaultConfig] = None,
        stripe_width: Optional[int] = None,
        coeffs: Optional[CostCoefficients] = None,
        plan_cache: PlanCacheLike = AUTO,
        grids: Optional[Sequence] = None,
    ):
        self._setup(
            machine, matrices, policy,
            resilience if resilience is not None else ResiliencePolicy(),
            faults if faults is not None else machine.faults,
            stripe_width, coeffs, plan_cache, grids=grids,
        )
