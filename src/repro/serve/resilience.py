"""The replica fleet the serving event loop dispatches onto.

:class:`~repro.serve.scheduler.ServeScheduler` runs the one serving
event loop (DESIGN.md §8).  Every dispatch consults the objects defined
here; a :class:`ResiliencePolicy` value configures them, and the plain
single-executor scheduler is the value :data:`SINGLE_EXECUTOR` (one
replica, no retries, no hedge, no timeout, shed and degrade
unreachable).  DESIGN.md §12 specifies the replicated configurations:

* A :class:`ReplicaSet` runs N independent simulated executors.  Each
  replica gets its own seeded :class:`~repro.cluster.faults.FaultPlan`
  (``seed + rid``), its own plan-cache namespace
  (``replica<rid>/<tenant>``), its own engines, and an optional
  per-replica process grid — so replicas fail *independently*.
* A :class:`LoadBalancer` orders replicas per dispatch by a
  health-weighted score: earliest availability (the replica's virtual
  ``free_at``) plus its expected service time — the replica's own
  latency EWMA scaled by a health factor fed by periodic synthetic
  probes (cadence ``probe_interval``) that measure the replica's
  static fault profile (compute skew × worst incoming link).
* Request execution has per-attempt *timeouts* (a dispatch whose
  simulated service time exceeds ``timeout`` charges exactly
  ``timeout`` seconds and its result is discarded), bounded
  *retry-with-exponential-backoff* across replicas, and optional
  *hedged dispatch*: when the primary has not completed by
  ``hedge_delay``, a backup runs on the next-best replica, the first
  success wins, and every non-winning hedge participant's charged
  seconds land in the ``hedge_wasted_seconds`` counter.
* A per-replica :class:`CircuitBreaker` (closed → open → half-open,
  virtual-clock cooldowns) quarantines replicas whose recent failure
  rate or service-latency drift (EWMA vs the fleet's) exceeds
  thresholds.
* Admission is SLO-aware: requests carry ``priority``/``deadline``;
  under queue pressure the scheduler *degrades* (prefers fused widths
  whose plans are already cached — ``"stale_plan"`` — or halves the
  fused K-panel cap — ``"k_panel"``) and, past the shed threshold,
  drops the lowest-priority queued work
  (:class:`~repro.serve.request.RejectReason.SHED`) instead of
  rejecting new arrivals outright.
* A :class:`ResilienceReport` carries the fleet's counters and routing
  trace.

Determinism contract: every decision — routing order, retry schedule,
breaker transitions, shed victims — is a pure function of the virtual
clock, the request trace, and the fault seeds.  The underlying
executor is bit-identical at any ``REPRO_EXEC_WORKERS`` width, so a
fixed trace replays with identical routing traces and counters
everywhere; and because injected faults never corrupt results (PR 5's
exactness contract), every *completed* request's ``C`` slice is
byte-identical to its fault-free run.

Executor crashes are injected per dispatch *attempt*: each attempt
threads a fresh ``crash_epoch`` into the replica's
:class:`~repro.cluster.faults.FaultConfig` (via ``dataclasses.replace``,
which perturbs no other fault stream), so whether attempt ``n`` on
replica ``r`` crashes is a fixed function of ``(seed + r, n)``.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.faults import FaultConfig, compile_faults
from ..cluster.machine import MachineConfig
from ..errors import ConfigurationError
from .request import DONE, ServeReport

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the serving fleet (all times are simulated seconds).

    Attributes:
        n_replicas: independent simulated executors behind the balancer.
        timeout: per-attempt service-time cap; an attempt whose
            simulated seconds exceed it charges exactly ``timeout``
            and counts as a failure.  None disables timeouts.
        max_retries: re-dispatches after the first attempt (hedge
            included) before a group is marked FAILED.
        retry_backoff_base: backoff before the first retry; doubles
            per subsequent retry.
        hedge_delay: issue a backup dispatch on the next-best replica
            when the primary has not completed this long after the
            dispatch instant.  None disables hedging.
        crash_detect_seconds: virtual seconds to detect an injected
            executor crash (the failed attempt's only charge).
        probe_interval: cadence of synthetic health probes.
        probe_cost: nominal probe service time; a probe observes
            ``probe_cost × static slowness`` of the replica.
        ewma_alpha: smoothing of latency/health EWMAs.
        breaker_window: recent attempts per replica the failure-rate
            trigger looks at.
        breaker_failure_threshold: open the breaker when the windowed
            failure rate reaches this (window must be full).
        breaker_cooldown: open → half-open after this long.
        breaker_drift_factor: open when a replica's service-latency
            EWMA exceeds this multiple of the fleet EWMA (the p99-drift
            analogue on smoothed service time).
        degrade_queue_fraction: queue pressure (fraction of
            ``max_queue_depth``) at which dispatches degrade
            (stale-plan width preference, then K-panel halving).
            Pressure never exceeds 1, so any larger value (``inf``)
            never degrades.
        shed_queue_fraction: pressure above which the lowest-priority
            queued requests are shed; at 1 admission's queue bound is
            reached first, so nothing is shed.
        protect_priority: requests with ``priority >= protect_priority``
            are never shed.
    """

    n_replicas: int = 2
    timeout: Optional[float] = None
    max_retries: int = 4
    retry_backoff_base: float = 2e-3
    hedge_delay: Optional[float] = None
    crash_detect_seconds: float = 1e-3
    probe_interval: float = 0.25
    probe_cost: float = 1e-4
    ewma_alpha: float = 0.3
    breaker_window: int = 8
    breaker_failure_threshold: float = 0.5
    breaker_cooldown: float = 0.5
    breaker_drift_factor: float = 4.0
    degrade_queue_fraction: float = 0.75
    shed_queue_fraction: float = 0.9
    protect_priority: int = 1

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1: {self.n_replicas}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0: {self.max_retries}"
            )
        for name in (
            "retry_backoff_base", "crash_detect_seconds", "probe_cost",
            "breaker_cooldown",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0: {getattr(self, name)}"
                )
        for name in ("timeout", "hedge_delay"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive (or None): {value}"
                )
        if self.probe_interval <= 0:
            raise ConfigurationError(
                f"probe_interval must be positive: {self.probe_interval}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}"
            )
        if self.breaker_window < 1:
            raise ConfigurationError(
                f"breaker_window must be >= 1: {self.breaker_window}"
            )
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ConfigurationError(
                "breaker_failure_threshold must be in (0, 1]: "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_drift_factor < 1.0:
            raise ConfigurationError(
                "breaker_drift_factor must be >= 1: "
                f"{self.breaker_drift_factor}"
            )
        if not self.degrade_queue_fraction > 0.0:
            raise ConfigurationError(
                "degrade_queue_fraction must be positive: "
                f"{self.degrade_queue_fraction}"
            )
        if not 0.0 < self.shed_queue_fraction <= 1.0:
            raise ConfigurationError(
                "shed_queue_fraction must be in (0, 1]: "
                f"{self.shed_queue_fraction}"
            )
        if self.protect_priority < 0:
            raise ConfigurationError(
                f"protect_priority must be >= 0: {self.protect_priority}"
            )


#: The plain single-executor configuration of the serving loop: one
#: replica that is never retried, hedged, timed out, degraded or shed,
#: whose failed dispatches (crashes included) charge no time, and which
#: runs no periodic health probes (a lone replica has no one to be
#: ranked against).
SINGLE_EXECUTOR = ResiliencePolicy(
    n_replicas=1,
    max_retries=0,
    crash_detect_seconds=0.0,
    probe_interval=math.inf,
    degrade_queue_fraction=math.inf,
    shed_queue_fraction=1.0,
)


class CircuitBreaker:
    """Per-replica closed → open → half-open breaker (virtual clock).

    ``allow(t)`` gates dispatch; ``record(t, ok)`` feeds outcomes.  The
    breaker opens when the windowed failure rate reaches the threshold
    or when :meth:`check_drift` sees the replica's service-latency EWMA
    drift past ``drift_factor`` × the fleet's.  After ``cooldown``
    virtual seconds it half-opens: one probe dispatch is allowed, and
    its outcome closes or re-opens the breaker.
    """

    def __init__(self, window: int, failure_threshold: float,
                 cooldown: float, drift_factor: float):
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.drift_factor = drift_factor
        self.state = CLOSED
        self.opens = 0
        self._open_until = 0.0
        self._outcomes: collections.deque = collections.deque(maxlen=window)

    def allow(self, t: float) -> bool:
        """May a dispatch go to this replica at virtual time ``t``?"""
        if self.state == OPEN:
            if t < self._open_until:
                return False
            self.state = HALF_OPEN
        return True

    def record(self, t: float, ok: bool) -> None:
        """Feed one attempt outcome observed at time ``t``."""
        if self.state == HALF_OPEN:
            if ok:
                self.state = CLOSED
                self._outcomes.clear()
            else:
                self._trip(t)
            return
        self._outcomes.append(ok)
        if len(self._outcomes) == self.window:
            failures = sum(1 for o in self._outcomes if not o)
            if failures / self.window >= self.failure_threshold:
                self._trip(t)

    def check_drift(self, t: float, replica_ewma: Optional[float],
                    fleet_ewma: Optional[float]) -> None:
        """Open on service-latency drift vs the fleet (both EWMAs must
        exist; a lone replica never drifts against itself)."""
        if (
            self.state == CLOSED
            and replica_ewma is not None
            and fleet_ewma is not None
            and fleet_ewma > 0.0
            and replica_ewma > self.drift_factor * fleet_ewma
        ):
            self._trip(t)

    def _trip(self, t: float) -> None:
        self.state = OPEN
        self.opens += 1
        self._open_until = t + self.cooldown
        self._outcomes.clear()

    def describe(self) -> Dict[str, object]:
        return {"state": self.state, "opens": self.opens}


@dataclass
class ReplicaStats:
    """Per-replica counters (all deterministic under a fixed trace)."""

    dispatches: int = 0
    successes: int = 0
    failures: int = 0
    crashes: int = 0
    timeouts: int = 0
    probes: int = 0
    busy_seconds: float = 0.0
    rget_failures: int = 0
    rget_retries: int = 0
    lane_fallbacks: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Replica:
    """One simulated service executor behind the balancer.

    Owns its machine (per-replica fault seed), its virtual ``free_at``
    clock, its breaker, and its health/latency EWMAs; its engines (one
    per request group) are held by the scheduler, so they outlive one
    replay's fleet.  The plan-cache namespace is applied at
    dispatch time by labelling the tenant ``replica<rid>/<tenant>``
    (the bare tenant on a one-replica fleet).
    """

    def __init__(self, rid: int, machine: MachineConfig,
                 fault_config: Optional[FaultConfig],
                 breaker: CircuitBreaker, grid=None):
        self.rid = rid
        self.fault_config = fault_config
        self.machine = replace(machine, faults=fault_config)
        self.grid = grid
        self.breaker = breaker
        self.free_at = 0.0
        self.latency_ewma: Optional[float] = None
        self.health: float = 1.0
        self.next_probe_at = 0.0
        self.next_epoch = 0
        self.stats = ReplicaStats()
        # Static fault profile for synthetic probes: mean compute skew
        # times the worst incoming link multiplier.  Crash decisions
        # are per-epoch, so compiling here (epoch 0) never raises.
        plan = (
            compile_faults(fault_config, machine.n_nodes)
            if fault_config is not None else None
        )
        if plan is None:
            self.static_slowness = 1.0
        else:
            skews = [
                plan.compute_skew(r) for r in range(machine.n_nodes)
            ]
            self.static_slowness = (sum(skews) / len(skews)) * max(
                plan.worst_incoming_scale(r)
                for r in range(machine.n_nodes)
            )

    def machine_for(self, machine: Optional[MachineConfig]) -> MachineConfig:
        """A request's own ``machine`` (None: the replica's) under this
        replica's faults."""
        if machine is None:
            return self.machine
        return replace(machine, faults=self.fault_config)

    def machine_for_epoch(self, machine: MachineConfig,
                          epoch: int) -> MachineConfig:
        """``machine`` with a fresh crash epoch threaded into this
        replica's faults."""
        if self.fault_config is None:
            return machine
        return replace(
            machine, faults=replace(self.fault_config, crash_epoch=epoch)
        )

    def observe_latency(self, sample: float, alpha: float) -> None:
        if self.latency_ewma is None:
            self.latency_ewma = sample
        else:
            self.latency_ewma = (
                alpha * sample + (1.0 - alpha) * self.latency_ewma
            )

    def describe(self) -> Dict[str, object]:
        info = self.stats.as_dict()
        info.update(self.breaker.describe())
        info["health"] = self.health
        info["latency_ewma"] = self.latency_ewma
        info["free_at"] = self.free_at
        return info


class ReplicaSet:
    """N independent replicas with derived fault seeds.

    Replica ``rid`` gets ``seed + rid``: every fault draw mixes the
    seed through splitmix64, so consecutive seeds yield independent
    fault streams — replicas straggle, degrade, and crash on their own
    schedules.
    """

    def __init__(self, machine: MachineConfig, n: int,
                 fault_config: Optional[FaultConfig],
                 policy: ResiliencePolicy,
                 grids: Optional[Sequence] = None):
        if grids is not None and len(grids) not in (0, n):
            raise ConfigurationError(
                f"grids must have one entry per replica ({n}), "
                f"got {len(grids)}"
            )
        self.policy = policy
        self.fleet_ewma: Optional[float] = None
        self.replicas: List[Replica] = []
        for rid in range(n):
            rep_faults = (
                replace(fault_config, seed=fault_config.seed + rid)
                if fault_config is not None else None
            )
            breaker = CircuitBreaker(
                policy.breaker_window,
                policy.breaker_failure_threshold,
                policy.breaker_cooldown,
                policy.breaker_drift_factor,
            )
            grid = grids[rid] if grids else None
            self.replicas.append(
                Replica(rid, machine, rep_faults, breaker, grid=grid)
            )

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return iter(self.replicas)

    def __getitem__(self, rid: int) -> Replica:
        return self.replicas[rid]

    def observe_fleet(self, sample: float) -> None:
        alpha = self.policy.ewma_alpha
        if self.fleet_ewma is None:
            self.fleet_ewma = sample
        else:
            self.fleet_ewma = (
                alpha * sample + (1.0 - alpha) * self.fleet_ewma
            )

    def run_probes(self, t: float) -> int:
        """Run every synthetic probe due at or before ``t``.

        A probe observes ``probe_cost × static slowness`` and folds the
        slowness into the replica's health EWMA.  Probes are
        out-of-band: they consume no executor time.
        """
        ran = 0
        alpha = self.policy.ewma_alpha
        for rep in self.replicas:
            while rep.next_probe_at <= t:
                rep.next_probe_at += self.policy.probe_interval
                rep.health = (
                    alpha * rep.static_slowness
                    + (1.0 - alpha) * rep.health
                )
                rep.stats.probes += 1
                ran += 1
        return ran


class LoadBalancer:
    """Health-weighted replica ordering for one dispatch.

    The score of a replica at time ``t`` is when it could *finish* the
    work: ``max(free_at, t)`` plus its expected service time — its own
    latency EWMA (the fleet's while it has no samples) scaled by the
    probe-fed health factor.  Breaker-blocked replicas are excluded
    unless every replica is blocked (then all are eligible: serving
    degraded beats serving nothing).  Ties break on replica id.
    """

    def __init__(self, replica_set: ReplicaSet):
        self.replica_set = replica_set

    def _score(self, rep: Replica, t: float) -> float:
        base = rep.latency_ewma
        if base is None:
            base = self.replica_set.fleet_ewma or 0.0
        return max(rep.free_at, t) + rep.health * base

    def order(self, t: float,
              exclude: Tuple[int, ...] = ()) -> List[Replica]:
        """Replicas to try at ``t``, best first; ``exclude`` demotes
        (never removes) already-tried replicas."""
        eligible = [
            rep for rep in self.replica_set if rep.breaker.allow(t)
        ]
        if not eligible:
            eligible = list(self.replica_set)
        return sorted(
            eligible,
            key=lambda rep: (
                rep.rid in exclude, self._score(rep, t), rep.rid,
            ),
        )


@dataclass
class ResilienceReport(ServeReport):
    """A :class:`~repro.serve.request.ServeReport` plus the fleet's
    counters and the deterministic routing trace.

    The serving loop always counts into one; the plain single-executor
    scheduler hands back only its :class:`ServeReport` part.
    """

    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_wasted_seconds: float = 0.0
    crashes: int = 0
    timeouts: int = 0
    shed: int = 0
    degraded_dispatches: int = 0
    probes: int = 0
    breaker_opens: int = 0
    replica_stats: Dict[int, Dict[str, object]] = field(
        default_factory=dict
    )
    #: One tuple per dispatched group:
    #: ``(batch_id, winner_replica, attempts, hedged, status)``.
    #: Replaying the same trace with the same seeds must reproduce
    #: this list exactly, at any worker-pool width.
    routing_trace: List[Tuple[int, int, int, bool, str]] = field(
        default_factory=list
    )

    @property
    def availability(self) -> float:
        """Completed fraction of all submitted requests (1.0 empty)."""
        if not self.outcomes:
            return 1.0
        done = sum(1 for o in self.outcomes if o.status == DONE)
        return done / len(self.outcomes)

    def counter_trace(self) -> Tuple:
        """Everything that must replay identically: the routing trace
        plus retry/hedge/breaker/shed counters."""
        return (
            tuple(self.routing_trace),
            self.retries,
            self.hedges,
            self.hedge_wins,
            round(self.hedge_wasted_seconds, 12),
            self.crashes,
            self.timeouts,
            self.shed,
            self.degraded_dispatches,
            self.breaker_opens,
        )

    def serving_summary(self) -> Dict[str, float]:
        summary = super().serving_summary()
        summary.update({
            "availability": self.availability,
            "replicas": len(self.replica_stats),
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_wasted_seconds": self.hedge_wasted_seconds,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "degraded": self.degraded_dispatches,
            "probes": self.probes,
            "breaker_opens": self.breaker_opens,
        })
        return summary
