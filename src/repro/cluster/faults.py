"""Deterministic fault injection for the simulated cluster.

The paper's schedule assumes a healthy Slingshot fabric: one-sided gets
never fail, links deliver nominal bandwidth, and no node straggles.
Real deployments of fine-grained RMA are exactly the opposite — the
one-sided half is the fragile half — so this module lets the simulated
cluster degrade on purpose, under a hard determinism contract:

* Every fault decision is a pure function of the fault seed and
  *structural* coordinates (rank, link endpoints, per-rank request
  sequence numbers, attempt index).  Nothing depends on wall clock,
  Python hash seeds, thread interleaving, or pool width — so a fixed
  seed yields bitwise-identical simulated seconds, traffic counters,
  event logs, and ``C`` at any ``REPRO_EXEC_WORKERS`` width and under
  either ``REPRO_SCATTER`` kernel.
* With faults disabled (``FaultConfig`` absent or all rates zero) every
  consumer takes its original code path, byte for byte.

Fault classes (compiled once per run into a :class:`FaultPlan`):

* **Transient rget failures** — each one-sided request attempt fails
  with probability ``rget_failure_rate``; the executor retries with
  exponential backoff (charged to the simulated async lane) and falls
  back to the sync multicast lane when the attempt budget is exhausted.
* **Per-link bandwidth degradation** — each ordered link is degraded
  with probability ``link_degradation_rate``; transfer costs over a
  degraded link are multiplied by ``link_degradation_factor``.
* **Straggler nodes** — each rank straggles with probability
  ``straggler_rate``; its compute charges are multiplied by the
  clock-skew factor ``straggler_skew``.
* **Memory pressure** — each rank is squeezed with probability
  ``memory_pressure_rate``; a ``memory_pressure_fraction`` slice of its
  ledger capacity is pinned at cluster construction, forcing the
  executor's stripe re-chunking (or a genuine simulated OOM).
* **Executor crashes** — each *dispatch* (identified by the caller's
  ``crash_epoch`` sequence number) crashes a deterministically-drawn
  rank with probability ``executor_crash_rate``, raising
  :class:`~repro.errors.ExecutorCrashError` before any work runs.  The
  serving resilience tier threads a fresh epoch per dispatch attempt
  and retries the lost request group on another replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

#: Distinct decision streams, mixed into the hash so e.g. the straggler
#: draw for rank 3 never correlates with the squeeze draw for rank 3.
_STREAM_RGET = 0x1
_STREAM_LINK = 0x2
_STREAM_STRAGGLER = 0x3
_STREAM_SQUEEZE = 0x4
_STREAM_CRASH = 0x5

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x):
    """The splitmix64 finaliser: a high-quality 64-bit bijection
    (``uint64`` scalar or array; arithmetic wraps mod 2**64)."""
    x = x + _GOLDEN
    x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> 31)


def _u01(seed: int, *keys):
    """A uniform draw in [0, 1) keyed by ``(seed, *keys)``.

    Counter-based (no RNG state), so decisions are independent of the
    order in which they are asked for — the property that makes fault
    injection width- and mode-blind.  A key may be an integer array:
    the keys broadcast and every element is the draw the same scalar
    keys give, so a whole table of decisions is one pass.
    """
    with np.errstate(over="ignore"):  # uint64 scalars warn on wrap-around
        h = _mix64(np.uint64(seed & _MASK64))
        for key in keys:
            key = (
                np.uint64(key & _MASK64) if isinstance(key, int)
                else np.asarray(key).astype(np.uint64)
            )
            h = _mix64(h ^ (key * _GOLDEN))
    u = (h >> 11) * (1.0 / (1 << 53))
    return u if u.ndim else float(u)


@dataclass(frozen=True)
class FaultConfig:
    """Seeded description of the faults to inject into one run.

    Attributes:
        seed: the fault seed; all decisions derive from it.
        rget_failure_rate: per-attempt failure probability of one-sided
            requests.
        rget_max_attempts: attempts per request before the executor
            gives up on the one-sided lane and falls back to a sync
            multicast (>= 1).
        rget_backoff_base: simulated seconds of backoff before the
            first retry; doubles per subsequent retry.
        link_degradation_rate: probability an ordered link (src, dst)
            is degraded for the whole run.
        link_degradation_factor: transfer-cost multiplier on degraded
            links (>= 1).
        straggler_rate: probability a rank is a straggler.
        straggler_skew: compute clock-skew multiplier of stragglers
            (>= 1).
        memory_pressure_rate: probability a rank's memory is squeezed.
        memory_pressure_fraction: fraction of ledger capacity pinned on
            squeezed ranks (in [0, 1)).
        executor_crash_rate: per-dispatch probability that the executor
            crashes (``ExecutorCrashError``) before producing a result.
            Deliberately *not* moved by :meth:`from_intensity` — a
            crash aborts the run, so single-executor chaos sweeps keep
            their exactness contract; the serving resilience tier opts
            in explicitly.
        crash_epoch: the dispatch sequence number the crash draw is
            keyed on.  Callers issuing multiple dispatches against one
            logical config thread a fresh epoch per attempt via
            ``dataclasses.replace`` (changing it perturbs no other
            fault decision — every other stream ignores it).
    """

    seed: int = 0
    rget_failure_rate: float = 0.0
    rget_max_attempts: int = 4
    rget_backoff_base: float = 5.0e-5
    link_degradation_rate: float = 0.0
    link_degradation_factor: float = 4.0
    straggler_rate: float = 0.0
    straggler_skew: float = 3.0
    memory_pressure_rate: float = 0.0
    memory_pressure_fraction: float = 0.25
    executor_crash_rate: float = 0.0
    crash_epoch: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"fault seed must be >= 0: {self.seed}")
        if self.rget_max_attempts < 1:
            raise ConfigurationError(
                f"rget_max_attempts must be >= 1: {self.rget_max_attempts}"
            )
        if self.crash_epoch < 0:
            raise ConfigurationError(
                f"crash_epoch must be >= 0: {self.crash_epoch}"
            )
        for name in (
            "rget_failure_rate", "link_degradation_rate",
            "straggler_rate", "memory_pressure_rate",
            "executor_crash_rate",
        ):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1]: {rate}"
                )
        for name in ("link_degradation_factor", "straggler_skew"):
            factor = getattr(self, name)
            if not (math.isfinite(factor) and factor >= 1.0):
                raise ConfigurationError(
                    f"{name} must be a finite multiplier >= 1: {factor}"
                )
        if not (
            math.isfinite(self.rget_backoff_base)
            and self.rget_backoff_base >= 0.0
        ):
            raise ConfigurationError(
                "rget_backoff_base must be finite and >= 0: "
                f"{self.rget_backoff_base}"
            )
        if not (
            math.isfinite(self.memory_pressure_fraction)
            and 0.0 <= self.memory_pressure_fraction < 1.0
        ):
            raise ConfigurationError(
                "memory_pressure_fraction must be in [0, 1): "
                f"{self.memory_pressure_fraction}"
            )

    @property
    def active(self) -> bool:
        """True when any fault class can actually fire."""
        return (
            self.rget_failure_rate > 0.0
            or self.link_degradation_rate > 0.0
            or self.straggler_rate > 0.0
            or self.memory_pressure_rate > 0.0
            or self.executor_crash_rate > 0.0
        )

    @classmethod
    def from_intensity(
        cls, intensity: float, seed: int = 0, **overrides
    ) -> "FaultConfig":
        """A config whose four rates all equal ``intensity``.

        The ``repro chaos`` sweep knob: one scalar moves every fault
        class together.  Keyword overrides replace individual fields.
        """
        if not (math.isfinite(intensity) and 0.0 <= intensity <= 1.0):
            raise ConfigurationError(
                f"fault intensity must be in [0, 1]: {intensity}"
            )
        config = cls(
            seed=seed,
            rget_failure_rate=intensity,
            link_degradation_rate=intensity,
            straggler_rate=intensity,
            memory_pressure_rate=intensity,
        )
        return replace(config, **overrides) if overrides else config


class FaultPlan:
    """The compiled, per-run schedule of fault decisions.

    Static decisions (stragglers, degraded links, squeezed ranks) are
    drawn once at construction; per-request decisions (rget failures)
    are answered on demand from the counter-based hash.  Everything is
    a pure function of ``(config.seed, structural coordinates)``.
    """

    def __init__(self, config: FaultConfig, n_nodes: int):
        if n_nodes <= 0:
            raise ConfigurationError(f"n_nodes must be positive: {n_nodes}")
        self.config = config
        self.n_nodes = n_nodes
        seed = config.seed
        ranks = np.arange(n_nodes)
        self._skew = tuple(np.where(
            _u01(seed, _STREAM_STRAGGLER, ranks) < config.straggler_rate,
            config.straggler_skew, 1.0,
        ).tolist())
        self._squeeze = tuple(np.where(
            _u01(seed, _STREAM_SQUEEZE, ranks) < config.memory_pressure_rate,
            config.memory_pressure_fraction, 0.0,
        ).tolist())
        #: Ordered links ``[src, dst]`` drawn degraded, and their dense
        #: cost-multiplier table (1.0 elsewhere).
        self._degraded = (
            _u01(seed, _STREAM_LINK, ranks[:, None], ranks[None, :])
            < config.link_degradation_rate
        ) & (ranks[:, None] != ranks[None, :])
        self._scale = np.where(
            self._degraded, config.link_degradation_factor, 1.0
        )
        self._worst_incoming = tuple(self._scale.max(axis=0).tolist())

    # ------------------------------------------------------------------
    def rget_failed_attempts(
        self, origin: int, targets, first_seq: int = 0,
        attempts: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """How many attempts of each one-sided request fail in a row.

        Request ``i`` is the origin's ``first_seq + i``-th (its own
        sequence number, so the answer never depends on how other
        ranks' requests interleave) and goes to ``targets[i]``.  The
        count runs over ``attempts`` in order — by default the whole
        budget ``0..rget_max_attempts-1`` — and stops at the first
        success, so it equals ``len(attempts)`` exactly when the budget
        is exhausted.  One array draw for the whole table.
        """
        targets = np.asarray(targets)
        rate = self.config.rget_failure_rate
        if rate <= 0.0:
            return np.zeros(len(targets), dtype=np.int64)
        if attempts is None:
            attempts = range(self.config.rget_max_attempts)
        fails = _u01(
            self.config.seed, _STREAM_RGET, origin, targets[:, None],
            first_seq + np.arange(len(targets))[:, None],
            np.asarray(attempts)[None, :],
        ) < rate
        return np.logical_and.accumulate(fails, axis=1).sum(axis=1)

    def rget_attempt_fails(
        self, origin: int, target: int, request_index: int, attempt: int
    ) -> bool:
        """Does attempt ``attempt`` of the origin's ``request_index``-th
        one-sided request (to ``target``) fail?"""
        return bool(
            self.rget_failed_attempts(
                origin, [target], request_index, attempts=(attempt,)
            )[0]
        )

    def crash_rank(self) -> Optional[int]:
        """The rank crashed by this dispatch, or None.

        Keyed on ``config.crash_epoch`` alone (plus the crash stream),
        so whether dispatch ``n`` crashes is identical no matter which
        replica, pool width, or transport executes it — and threading a
        fresh epoch per retry re-rolls only this decision.
        """
        rate = self.config.executor_crash_rate
        if rate <= 0.0:
            return None
        if _u01(self.config.seed, _STREAM_CRASH, self.config.crash_epoch) >= rate:
            return None
        return int(
            _u01(self.config.seed, _STREAM_CRASH, self.config.crash_epoch, 0xF)
            * self.n_nodes
        )

    def link_scale(self, src, dst):
        """Transfer-cost multiplier of the ordered link ``src -> dst``
        (either end may be an array of ranks)."""
        scale = self._scale[src, dst]
        return scale if scale.ndim else float(scale)

    def worst_incoming_scale(self, rank: int) -> float:
        """The slowest link into ``rank`` (collective-step multiplier:
        a ring/tree collective moves at the pace of the worst hop)."""
        return self._worst_incoming[rank]

    def compute_skew(self, rank: int) -> float:
        """Clock-skew multiplier of ``rank``'s compute charges."""
        return self._skew[rank]

    def squeeze_fraction(self, rank: int) -> float:
        """Fraction of ``rank``'s ledger capacity pinned by pressure."""
        return self._squeeze[rank]

    # ------------------------------------------------------------------
    def straggler_ranks(self) -> Tuple[int, ...]:
        return tuple(
            rank for rank, skew in enumerate(self._skew) if skew > 1.0
        )

    def squeezed_ranks(self) -> Tuple[int, ...]:
        return tuple(
            rank for rank, frac in enumerate(self._squeeze) if frac > 0.0
        )

    def degraded_links(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(map(tuple, np.argwhere(self._degraded).tolist()))

    def describe(self) -> dict:
        """Summary counts for reports and the ``repro chaos`` table."""
        return {
            "seed": self.config.seed,
            "stragglers": len(self.straggler_ranks()),
            "degraded_links": int(self._degraded.sum()),
            "squeezed_nodes": len(self.squeezed_ranks()),
        }


def compile_faults(
    config: Optional[FaultConfig], n_nodes: int
) -> Optional[FaultPlan]:
    """Compile ``config`` for an ``n_nodes`` cluster; None stays None.

    An inactive config (all rates zero) also compiles to None so every
    consumer keeps its exact fault-free code path.
    """
    if config is None or not config.active:
        return None
    return FaultPlan(config, n_nodes)


# ----------------------------------------------------------------------
# Resilience counters
# ----------------------------------------------------------------------
@dataclass
class ResilienceStats:
    """Counters of the executor's reactions to injected faults.

    Attributes:
        rget_failures: one-sided request attempts that failed.
        retries: failed attempts that were re-issued (with backoff).
        backoff_seconds: simulated seconds spent backing off.
        lane_fallbacks: requests whose retry budget ran out and were
            served by the sync multicast lane instead.
        rechunked_stripes: async stripes whose fetch was split to fit
            squeezed memory.
        rechunk_pieces: total pieces those stripes were split into.
    """

    rget_failures: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    lane_fallbacks: int = 0
    rechunked_stripes: int = 0
    rechunk_pieces: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> Tuple:
        return (
            self.rget_failures,
            self.retries,
            self.backoff_seconds,
            self.lane_fallbacks,
            self.rechunked_stripes,
            self.rechunk_pieces,
        )

    def merge_from(self, other: "ResilienceStats") -> None:
        """Fold another record in (rank-order folding of pooled bodies)."""
        self.rget_failures += other.rget_failures
        self.retries += other.retries
        self.backoff_seconds += other.backoff_seconds
        self.lane_fallbacks += other.lane_fallbacks
        self.rechunked_stripes += other.rechunked_stripes
        self.rechunk_pieces += other.rechunk_pieces

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class OneSidedOutcome(NamedTuple):
    """What a rank's one-sided requests cost under fault injection.

    Attributes:
        async_seconds: the origin's one-sided lane — timeouts of failed
            attempts, backoffs, and the gets that succeeded.
        sync_seconds: the origin's collective lane — fallback
            multicasts it received.
        failed: per piece, attempts that failed before it was served.
        fallback: per piece, whether its attempt budget ran out.
        root_costs: ``(owner, seconds)`` per fallen-back piece, piece
            order — what each owner pays to push the rows.
        stats: counter deltas (re-chunk fields are the caller's).
    """

    async_seconds: float
    sync_seconds: float
    failed: np.ndarray
    fallback: np.ndarray
    root_costs: Tuple[Tuple[int, float], ...]
    stats: ResilienceStats


def resolve_onesided(
    faults, net, origin: int, targets: np.ndarray, nbytes: np.ndarray,
    n_chunks, request_of: Optional[np.ndarray] = None,
) -> OneSidedOutcome:
    """The retry / backoff / fallback policy of one-sided requests.

    The single definition every resilient lane charges by (the Two-Face
    executor, ``AsyncCoarse`` and the shared-memory driver).  A *piece*
    is one ``MPI_Rget`` as issued — a whole request, or one part of a
    request re-chunked to fit squeezed memory — and takes the origin's
    next request sequence number.  Per piece, in order: each failed
    attempt burns its timeout (the full modelled transfer time before
    the failure is detected) and is followed by an exponential backoff
    and a retry — or, once ``rget_max_attempts`` have failed, by the
    owner pushing the rows down the sync multicast lane at collective
    rates; a successful attempt pays the transfer.  Everything moves
    over the (possibly degraded) link from the piece's owner.

    Attempt outcomes are one array draw.  Float folds are left to right
    exactly as a ``+=`` loop over attempts, pieces and requests would
    run them: the pieces of one request continue one accumulator,
    request totals are folded with ``cumsum`` — so the seconds are
    bit-identical to that loop's.

    Args:
        faults: the run's :class:`FaultPlan` (or a layer's view of it).
        net: the interconnect cost model.
        targets / nbytes / n_chunks: per piece, owning rank, payload
            bytes and rget chunks.
        request_of: per piece, the (ascending) request it belongs to;
            None when every request is one piece.
    """
    config = faults.config
    budget = config.rget_max_attempts
    n = len(targets)
    failed = faults.rget_failed_attempts(origin, targets)
    fallback = failed >= budget
    n_failed = int(failed.sum())
    n_fallback = int(np.count_nonzero(fallback))
    stats = ResilienceStats(
        rget_failures=n_failed, retries=n_failed - n_fallback,
        lane_fallbacks=n_fallback,
    )
    if not n:
        return OneSidedOutcome(0.0, 0.0, failed, fallback, (), stats)
    scales = faults.link_scale(targets, origin)
    get_cost = scales * net.rget_time(nbytes, n_chunks=n_chunks)
    push_cost = np.where(fallback, scales * net.bcast_time(nbytes, 1), 0.0)
    backoffs = [
        config.rget_backoff_base * (2 ** retry) for retry in range(budget - 1)
    ]
    if request_of is None:
        request_of = np.arange(n)
        rounds = [slice(None)]
    else:
        # Round r holds every request's r-th piece: distinct requests,
        # so each round is one vector update of the accumulators.
        first = np.flatnonzero(np.diff(request_of, prepend=-1))
        nth = np.arange(n) - np.repeat(first, np.diff(np.append(first, n)))
        rounds = [np.flatnonzero(nth == r) for r in range(int(nth.max()) + 1)]
    async_seconds = np.zeros(int(request_of[-1]) + 1)
    sync_seconds = np.zeros_like(async_seconds)
    for pieces in rounds:
        requests = request_of[pieces]
        fails = failed[pieces]
        acc = async_seconds[requests]
        for attempt in range(budget):
            acc += np.where(fails >= attempt, get_cost[pieces], 0.0)
            if attempt + 1 < budget:
                acc += np.where(fails > attempt, backoffs[attempt], 0.0)
        async_seconds[requests] = acc
        sync_seconds[requests] += push_cost[pieces]
    if backoffs:
        stats.backoff_seconds = float(np.cumsum(np.where(
            failed[:, None] > np.arange(budget - 1), backoffs, 0.0
        ))[-1])
    return OneSidedOutcome(
        float(np.cumsum(async_seconds)[-1]),
        float(np.cumsum(sync_seconds)[-1]),
        failed, fallback,
        tuple(zip(targets[fallback].tolist(), push_cost[fallback].tolist())),
        stats,
    )


#: Process-global counters; pooled rank bodies fill local records that
#: the executor folds back in rank order (same discipline as
#: :data:`repro.sparse.ops.SCATTER_STATS`).
RESILIENCE_STATS = ResilienceStats()


def resilience_stats() -> ResilienceStats:
    """The process-global resilience counters."""
    return RESILIENCE_STATS


def reset_resilience_stats() -> None:
    """Zero the process-global counters (test/bench hygiene)."""
    RESILIENCE_STATS.reset()
