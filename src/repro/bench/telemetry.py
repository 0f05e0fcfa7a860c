"""Machine-readable performance telemetry (the CLI's ``--out`` JSON).

Commands that report a perf record (``repro chaos``, ``serve``,
``grid-sweep``, ``tune``) collect per-cell host wall seconds, simulated
seconds, and transfer-cache counters into a :class:`PerfLog` and write
one JSON document.  The schema (see the README's "Benchmark telemetry"
section):

```
{
  "schema": "repro-perf/10",
  "label": "<free-form document label, e.g. chaos-web-TwoFace>",
  "cells": [
    {"schema": "repro-perf/10",
     "name": ..., "matrix": ..., "algorithm": ..., "k": ...,
     "n_nodes": ..., "grid": ...,
     "wall_seconds": ..., "simulated_seconds": ...,
     "cache_hits": ..., "cache_recomputes": ...,
     "arena_hits": ..., "arena_grows": ...,
     "plan_hits": ..., "plan_misses": ..., "plan_evictions": ...,
     "plan_invalidations": ..., "plan_stores": ...,
     "scatter_segmented": ..., "scatter_atomic": ...,
     "sync_csr_hits": ..., "sync_csr_builds": ...,
     "fault_rget_failures": ..., "fault_retries": ...,
     "fault_backoff_seconds": ..., "fault_lane_fallbacks": ...,
     "fault_rechunks": ..., "fault_rechunk_pieces": ...,
     "events_dropped": ...,
     "serve_requests": ..., "serve_completed": ...,
     "serve_rejected": ..., "serve_failed": ...,
     "serve_batches": ..., "serve_fusion_factor": ...,
     "serve_p50_latency": ..., "serve_p99_latency": ...,
     "serve_requests_per_sec": ..., "serve_peak_queue_depth": ...,
     "serve_deadline_misses": ...,
     "serve_availability": ..., "serve_replicas": ...,
     "serve_rejected_queue_full": ..., "serve_rejected_shed": ...,
     "serve_retries": ..., "serve_hedges": ...,
     "serve_hedge_wins": ..., "serve_hedge_wasted_seconds": ...,
     "serve_crashes": ..., "serve_timeouts": ...,
     "serve_shed": ..., "serve_degraded": ...,
     "serve_breaker_opens": ..., "serve_probes": ...,
     "comm_total_bytes": ..., "comm_row_bytes": ...,
     "comm_col_bytes": ..., "comm_fiber_bytes": ...,
     "tune_chosen": ..., "tune_predicted_seconds": ...,
     "tune_observed_seconds": ..., "tune_regret": ...,
     "tune_probed": ..., "tune_cache_hits": ...,
     "tune_cache_misses": ..., "tune_cache_invalidations": ...,
     "tune_recalibrations": ...,
     "transport": ...},
    ...
  ],
  "experiments": {"<name>": {...free-form...}, ...}
}
```

Simulated seconds are the paper-fidelity numbers and must not move when
host-side performance work lands; wall seconds are the quantity being
optimised.  Cache counters come from
:func:`repro.core.formats.transfer_cache_stats`; arena counters from
:func:`repro.cluster.buffers.arena_stats` (schema ``repro-perf/2``
added them — an all-hits, zero-grows cell means the fetch-buffer arena
served every stripe without allocating); plan-cache counters from
:func:`repro.core.plancache.plan_cache_stats` (schema ``repro-perf/3``
— a ``plan_hits > 0`` cell skipped classification entirely); scatter
and sync-CSR counters from :func:`repro.sparse.ops.scatter_stats`
(schema ``repro-perf/4`` — ``scatter_segmented``/``scatter_atomic``
record which kernel served each stripe scatter, and a cell with
``sync_csr_builds == 0`` reused memoised scipy handles throughout);
resilience counters from :func:`repro.cluster.faults.resilience_stats`
(schema ``repro-perf/5`` — the ``fault_*`` fields record how much
injected-fault recovery a cell needed: one-sided failures, retries and
the backoff seconds they cost, sync-lane fallbacks, and stripe
re-chunks under memory pressure; ``events_dropped`` counts comm events
lost to the per-run recording cap so a truncated event log is visible
rather than silent).

Schema ``repro-perf/6`` adds the serving layer (:mod:`repro.serve`):
every emitted cell record carries its own ``schema`` field so chaos
and serve logs are self-describing when records are compared across
documents, and the ``serve_*`` fields record one trace replay —
request/batch counts, the fusion factor (completed requests per fused
SpMM), p50/p99 simulated latency, simulated requests/sec, the peak
admission-queue depth, and deadline misses.  The shared percentile
helpers (:func:`percentile`, :func:`latency_summary`) are the one
aggregation path for serving latency and sweep summaries.

Schema ``repro-perf/7`` adds process grids (:mod:`repro.dist.grid`):
``grid`` is the layout cache token of the run (``"1d"``,
``"1.5d:r{p_r}c{c}"``, ``"2d:r{p_r}x{p_c}"``; empty when not
recorded), ``comm_total_bytes`` is the run's total simulated traffic,
and the ``comm_row_bytes``/``comm_col_bytes``/``comm_fiber_bytes``
counters split that traffic by grid dimension — row-communicator
volume (1D runs and the intra-layer lanes of 1.5D), column-communicator
volume (intra-layer lanes of 2D), and the depth-fiber allreduce that
sums partial ``C`` blocks.  These come from
``TrafficStats.dim_bytes``; dimensions a layout does not exercise stay
zero.

Schema ``repro-perf/8`` adds the autotuner (:mod:`repro.tune`): the
``tune_*`` fields record a tuned cell's decision — the chosen
``"Algorithm@layout"`` label, the model's predicted simulated seconds
next to the observed run, the regret against the best candidate the
document also measured (0.0 when the tuner picked the winner), whether
the top-2 probe ran, and the tuner's decision-cache and drift-feedback
counters (hits/misses/invalidations, recalibrations).  Untuned cells
leave the fields at their zero/empty defaults.

Schema ``repro-perf/9`` adds the pluggable transport layer
(:mod:`repro.transport`): ``transport`` names the data plane that
executed the cell (``"sim"``, ``"shm"``; empty = the
default simulator, recorded before the field existed).  The meaning of
``wall_seconds`` depends on it — for ``sim`` cells it is host time
spent *running the simulator*, while for ``shm`` cells it is the
makespan of real OS processes doing the actual SpMM (the slowest
worker's barrier-to-barrier time), directly comparable across worker
counts.  ``simulated_seconds`` is ``None`` for non-sim transports:
real data planes measure time instead of modelling it (see
``docs/transports.md``).

Schema ``repro-perf/10`` adds the serving fleet's counters
(:mod:`repro.serve.resilience`): ``serve_availability`` is the
completed fraction of submitted requests, ``serve_replicas`` the
replica count behind the balancer, and the remaining new counters
record how hard the fleet worked — per-reason rejection splits
(``serve_rejected_queue_full`` / ``serve_rejected_shed``), dispatch
retries, hedged dispatches and their wins plus the duplicated seconds
charged to losers (``serve_hedge_wasted_seconds``), injected executor
crashes and per-attempt timeouts survived, SLO sheds and degraded
dispatches (stale-plan / half-K-panel), circuit-breaker opens, and
synthetic health probes run.  Single-executor serve cells (a plain
:class:`~repro.serve.ServeReport`) leave them at their zero defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..cluster.buffers import arena_stats
from ..cluster.faults import resilience_stats
from ..core.formats import transfer_cache_stats
from ..core.plancache import plan_cache_stats
from ..sparse.ops import scatter_stats

PERF_SCHEMA = "repro-perf/10"


# ----------------------------------------------------------------------
# Shared percentile helpers (serving latency, sweep summaries)
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    The single aggregation routine behind every latency/summary
    percentile in the repo (serving p50/p99, sweep summaries, matrix
    bandwidth stats) so documents stay comparable across PRs.  Returns
    NaN for an empty input — the table renderer shows it as missing.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100]: {q}")
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def latency_summary(values) -> Dict[str, float]:
    """p50/p95/p99 of ``values`` as a dict (NaN entries when empty)."""
    return {
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
    }


@dataclass
class PerfCell:
    """One measured (matrix, algorithm, K) cell."""

    name: str
    matrix: str
    algorithm: str
    k: int
    n_nodes: int
    wall_seconds: Optional[float]
    simulated_seconds: Optional[float]
    cache_hits: int = 0
    cache_recomputes: int = 0
    arena_hits: int = 0
    arena_grows: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    plan_invalidations: int = 0
    plan_stores: int = 0
    scatter_segmented: int = 0
    scatter_atomic: int = 0
    sync_csr_hits: int = 0
    sync_csr_builds: int = 0
    fault_rget_failures: int = 0
    fault_retries: int = 0
    fault_backoff_seconds: float = 0.0
    fault_lane_fallbacks: int = 0
    fault_rechunks: int = 0
    fault_rechunk_pieces: int = 0
    events_dropped: int = 0
    serve_requests: int = 0
    serve_completed: int = 0
    serve_rejected: int = 0
    serve_failed: int = 0
    serve_batches: int = 0
    serve_fusion_factor: float = 0.0
    serve_p50_latency: float = 0.0
    serve_p99_latency: float = 0.0
    serve_requests_per_sec: float = 0.0
    serve_peak_queue_depth: int = 0
    serve_deadline_misses: int = 0
    serve_availability: float = 0.0
    serve_replicas: int = 0
    serve_rejected_queue_full: int = 0
    serve_rejected_shed: int = 0
    serve_retries: int = 0
    serve_hedges: int = 0
    serve_hedge_wins: int = 0
    serve_hedge_wasted_seconds: float = 0.0
    serve_crashes: int = 0
    serve_timeouts: int = 0
    serve_shed: int = 0
    serve_degraded: int = 0
    serve_breaker_opens: int = 0
    serve_probes: int = 0
    grid: str = ""
    comm_total_bytes: int = 0
    comm_row_bytes: int = 0
    comm_col_bytes: int = 0
    comm_fiber_bytes: int = 0
    tune_chosen: str = ""
    tune_predicted_seconds: float = 0.0
    tune_observed_seconds: float = 0.0
    tune_regret: float = 0.0
    tune_probed: bool = False
    tune_cache_hits: int = 0
    tune_cache_misses: int = 0
    tune_cache_invalidations: int = 0
    tune_recalibrations: int = 0
    transport: str = ""


@dataclass
class PerfLog:
    """Accumulates perf cells and free-form experiment records."""

    label: str
    cells: List[PerfCell] = field(default_factory=list)
    experiments: Dict[str, Any] = field(default_factory=dict)

    def record_cell(
        self,
        name: str,
        matrix: str,
        algorithm: str,
        k: int,
        n_nodes: int,
        wall_seconds: Optional[float],
        simulated_seconds: Optional[float],
        cache_snapshot: Optional[tuple] = None,
        arena_snapshot: Optional[tuple] = None,
        plan_snapshot: Optional[tuple] = None,
        scatter_snapshot: Optional[tuple] = None,
        resilience_snapshot: Optional[tuple] = None,
        events_dropped: int = 0,
        traffic=None,
        grid: str = "",
        transport: str = "",
    ) -> PerfCell:
        """Append one cell record.

        Args:
            cache_snapshot: ``(hits, recomputes)`` taken *before* the
                cell ran; the deltas against the current global counters
                are stored.  Omit to record zeros.
            arena_snapshot: ``(hits, grows)`` from
                :meth:`~repro.cluster.buffers.ArenaStats.snapshot`
                taken before the cell ran; deltas are stored likewise.
            plan_snapshot: ``(hits, misses, evictions, invalidations,
                stores)`` from
                :meth:`~repro.core.plancache.PlanCacheStats.snapshot`
                taken before the cell ran; deltas are stored likewise.
            scatter_snapshot: ``(segmented_calls, atomic_calls,
                sync_csr_hits, sync_csr_builds)`` from
                :meth:`~repro.sparse.ops.ScatterStats.snapshot` taken
                before the cell ran; deltas are stored likewise.
            resilience_snapshot: ``(rget_failures, retries,
                backoff_seconds, lane_fallbacks, rechunked_stripes,
                rechunk_pieces)`` from
                :meth:`~repro.cluster.faults.ResilienceStats.snapshot`
                taken before the cell ran; deltas are stored likewise.
            events_dropped: comm events lost to the recording cap for
                this cell's run (``TrafficStats.events_dropped``).
            traffic: the run's ``TrafficStats``; fills
                ``comm_total_bytes`` and the per-grid-dimension
                ``comm_{row,col,fiber}_bytes`` counters from
                ``dim_bytes``.  Omit to record zeros.
            grid: the run's grid cache token (e.g. ``"2d:r16x16"``;
                empty = not recorded, 1D runs record ``"1d"``).
            transport: the data plane that executed the cell
                (``"sim"``, ``"shm"``; empty = default
                simulator).  Changes what ``wall_seconds`` means — see
                the module docstring.
        """
        hits = recomputes = 0
        if cache_snapshot is not None:
            stats = transfer_cache_stats()
            hits = stats.hits - cache_snapshot[0]
            recomputes = stats.recomputes - cache_snapshot[1]
        a_hits = a_grows = 0
        if arena_snapshot is not None:
            arenas = arena_stats()
            a_hits = arenas.hits - arena_snapshot[0]
            a_grows = arenas.grows - arena_snapshot[1]
        plan_deltas = (0, 0, 0, 0, 0)
        if plan_snapshot is not None:
            plan_deltas = tuple(
                now - before
                for now, before in zip(
                    plan_cache_stats().snapshot(), plan_snapshot
                )
            )
        scatter_deltas = (0, 0, 0, 0)
        if scatter_snapshot is not None:
            scatter_deltas = tuple(
                now - before
                for now, before in zip(
                    scatter_stats().snapshot(), scatter_snapshot
                )
            )
        resil_deltas = (0, 0, 0.0, 0, 0, 0)
        if resilience_snapshot is not None:
            resil_deltas = tuple(
                now - before
                for now, before in zip(
                    resilience_stats().snapshot(), resilience_snapshot
                )
            )
        cell = PerfCell(
            name=name,
            matrix=matrix,
            algorithm=algorithm,
            k=k,
            n_nodes=n_nodes,
            wall_seconds=wall_seconds,
            simulated_seconds=simulated_seconds,
            cache_hits=hits,
            cache_recomputes=recomputes,
            arena_hits=a_hits,
            arena_grows=a_grows,
            plan_hits=plan_deltas[0],
            plan_misses=plan_deltas[1],
            plan_evictions=plan_deltas[2],
            plan_invalidations=plan_deltas[3],
            plan_stores=plan_deltas[4],
            scatter_segmented=scatter_deltas[0],
            scatter_atomic=scatter_deltas[1],
            sync_csr_hits=scatter_deltas[2],
            sync_csr_builds=scatter_deltas[3],
            fault_rget_failures=resil_deltas[0],
            fault_retries=resil_deltas[1],
            fault_backoff_seconds=resil_deltas[2],
            fault_lane_fallbacks=resil_deltas[3],
            fault_rechunks=resil_deltas[4],
            fault_rechunk_pieces=resil_deltas[5],
            events_dropped=events_dropped,
            grid=grid,
            comm_total_bytes=(
                int(traffic.total_bytes) if traffic is not None else 0
            ),
            comm_row_bytes=(
                int(traffic.dim_bytes.get("row", 0))
                if traffic is not None else 0
            ),
            comm_col_bytes=(
                int(traffic.dim_bytes.get("col", 0))
                if traffic is not None else 0
            ),
            comm_fiber_bytes=(
                int(traffic.dim_bytes.get("fiber", 0))
                if traffic is not None else 0
            ),
            transport=transport,
        )
        self.cells.append(cell)
        return cell

    def record_serve_cell(
        self,
        name: str,
        matrix: str,
        algorithm: str,
        k: int,
        n_nodes: int,
        serving: Dict[str, Any],
        wall_seconds: Optional[float] = None,
        simulated_seconds: Optional[float] = None,
    ) -> PerfCell:
        """Append one serving-replay cell.

        Args:
            serving: a summary dict as produced by
                ``repro.serve.ServeReport.serving_summary()`` — any of
                the ``serve_*`` field names (without the prefix) are
                picked up: ``requests``, ``completed``, ``rejected``,
                ``failed``, ``batches``, ``fusion_factor``,
                ``p50_latency``, ``p99_latency``, ``requests_per_sec``,
                ``peak_queue_depth``, ``deadline_misses``, and (from a
                :class:`~repro.serve.resilience.ResilienceReport`)
                ``availability``, ``replicas``,
                ``rejected_queue_full``, ``rejected_shed``,
                ``retries``, ``hedges``, ``hedge_wins``,
                ``hedge_wasted_seconds``, ``crashes``, ``timeouts``,
                ``shed``, ``degraded``, ``breaker_opens``, and
                ``probes``.  Unknown keys are ignored so the summary
                can carry extra detail for ``experiments`` records.
            simulated_seconds: defaults to the summary's ``makespan``.
        """
        if simulated_seconds is None:
            simulated_seconds = serving.get("makespan")
        cell = PerfCell(
            name=name,
            matrix=matrix,
            algorithm=algorithm,
            k=k,
            n_nodes=n_nodes,
            wall_seconds=wall_seconds,
            simulated_seconds=simulated_seconds,
            serve_requests=int(serving.get("requests", 0)),
            serve_completed=int(serving.get("completed", 0)),
            serve_rejected=int(serving.get("rejected", 0)),
            serve_failed=int(serving.get("failed", 0)),
            serve_batches=int(serving.get("batches", 0)),
            serve_fusion_factor=float(serving.get("fusion_factor", 0.0)),
            serve_p50_latency=float(serving.get("p50_latency", 0.0)),
            serve_p99_latency=float(serving.get("p99_latency", 0.0)),
            serve_requests_per_sec=float(
                serving.get("requests_per_sec", 0.0)
            ),
            serve_peak_queue_depth=int(
                serving.get("peak_queue_depth", 0)
            ),
            serve_deadline_misses=int(serving.get("deadline_misses", 0)),
            serve_availability=float(serving.get("availability", 0.0)),
            serve_replicas=int(serving.get("replicas", 0)),
            serve_rejected_queue_full=int(
                serving.get("rejected_queue_full", 0)
            ),
            serve_rejected_shed=int(serving.get("rejected_shed", 0)),
            serve_retries=int(serving.get("retries", 0)),
            serve_hedges=int(serving.get("hedges", 0)),
            serve_hedge_wins=int(serving.get("hedge_wins", 0)),
            serve_hedge_wasted_seconds=float(
                serving.get("hedge_wasted_seconds", 0.0)
            ),
            serve_crashes=int(serving.get("crashes", 0)),
            serve_timeouts=int(serving.get("timeouts", 0)),
            serve_shed=int(serving.get("shed", 0)),
            serve_degraded=int(serving.get("degraded", 0)),
            serve_breaker_opens=int(serving.get("breaker_opens", 0)),
            serve_probes=int(serving.get("probes", 0)),
        )
        self.cells.append(cell)
        return cell

    def record_tune_cell(
        self,
        name: str,
        matrix: str,
        k: int,
        n_nodes: int,
        chosen: str,
        predicted_seconds: float,
        observed_seconds: Optional[float] = None,
        regret: float = 0.0,
        probed: bool = False,
        tuner_stats: Optional[Dict[str, Any]] = None,
        grid: str = "",
        wall_seconds: Optional[float] = None,
    ) -> PerfCell:
        """Append one autotuner decision cell (schema ``repro-perf/8``).

        Args:
            chosen: the decision label, ``"Algorithm@layout"``.
            predicted_seconds: the model's simulated-seconds estimate
                for the chosen candidate.
            observed_seconds: the chosen candidate's measured simulated
                seconds, when the caller executed it; also stored as
                the cell's ``simulated_seconds``.
            regret: ``observed / best_observed - 1`` against the best
                candidate the caller also measured (0.0 = tuner picked
                the winner).
            probed: whether the top-2 probe decided this cell.
            tuner_stats: a :meth:`repro.tune.Tuner.stats` dict; fills
                the decision-cache and recalibration counters.
            grid: the chosen layout's cache token.
        """
        stats = tuner_stats or {}
        cache = stats.get("decision_cache", {})
        algorithm = chosen.split("@", 1)[0] if chosen else ""
        cell = PerfCell(
            name=name,
            matrix=matrix,
            algorithm=algorithm,
            k=k,
            n_nodes=n_nodes,
            wall_seconds=wall_seconds,
            simulated_seconds=observed_seconds,
            grid=grid,
            tune_chosen=chosen,
            tune_predicted_seconds=float(predicted_seconds),
            tune_observed_seconds=float(observed_seconds or 0.0),
            tune_regret=float(regret),
            tune_probed=bool(probed),
            tune_cache_hits=int(cache.get("hits", 0)),
            tune_cache_misses=int(cache.get("misses", 0)),
            tune_cache_invalidations=int(cache.get("invalidations", 0)),
            tune_recalibrations=int(stats.get("recalibrations", 0)),
        )
        self.cells.append(cell)
        return cell

    def record_experiment(self, name: str, payload: Dict[str, Any]) -> None:
        """Attach a free-form experiment record (e.g. a repeat bench)."""
        self.experiments[name] = payload

    def to_document(self) -> Dict[str, Any]:
        # Each cell record repeats the schema tag so a record copied
        # out of its document (chaos logs, serve logs, spreadsheets)
        # stays self-describing and comparable across PRs.
        return {
            "schema": PERF_SCHEMA,
            "label": self.label,
            "cells": [
                {"schema": PERF_SCHEMA, **asdict(cell)}
                for cell in self.cells
            ],
            "experiments": self.experiments,
        }

    def write(self, path) -> None:
        """Write the JSON document (sorted keys, ASCII) to ``path``."""
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.to_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def load_perf_json(path) -> Dict[str, Any]:
    """Load a document written by :meth:`PerfLog.write`."""
    with open(path, "r", encoding="ascii") as handle:
        return json.load(handle)
