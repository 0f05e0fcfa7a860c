"""Two-Face preprocessing: classification + matrix construction.

Builds a :class:`~repro.core.plan.TwoFacePlan` from a distributed sparse
matrix, and models the preprocessing cost the paper reports in Table 6
(``t_norm`` with and without I/O).

The paper's preprocessing is single-node and unoptimised ("a pessimistic
bound", §7.3); the cost model here mirrors that: a per-nonzero pass to
bucket nonzeros into stripes, a per-stripe scoring/sorting term, a
per-nonzero construction pass, and — for the I/O-inclusive number — a
textual Matrix Market read plus a binary write of the preprocessed
structures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..cluster.machine import MachineConfig
from ..dist.matrices import DistSparseMatrix
from ..errors import ConfigurationError
from ..runtime.pool import get_plan_pool
from ..runtime.threads import max_coalescing_gap
from ..sparse.coo import COOMatrix
from .classifier import RankClassification, classify_rank_stripes
from .formats import (
    build_async_stripe_matrix,
    build_sync_local_matrix,
)
from .model import CostCoefficients
from .plan import RankPlan, TwoFacePlan
from .stripes import RankStripeStats, StripeGeometry, compute_rank_stripe_stats

#: Fraction of node memory the sync-side dense-stripe buffers may use
#: before the memory fallback starts flipping stripes to async.
SYNC_MEMORY_FRACTION = 0.85


@dataclass(frozen=True)
class PreprocessCostModel:
    """Analytic cost of the (single-node, unparallelised) preprocessing.

    The constants carry the same ~100-400x workload scale factor as the
    network/compute models (see ``repro.cluster.network``): the analogue
    matrices are that much smaller than the paper's inputs, so per-unit
    costs are inflated to keep the Table 6 ratios (preprocessing time
    over one SpMM) in the paper's range.

    Attributes:
        per_nnz_classify: bucketing + scoring cost per nonzero (s).
        per_nnz_build: construction cost per nonzero (s).
        per_stripe: scoring/sort cost per stripe (s).
        mtx_read_rate: textual Matrix Market parse rate (B/s).
        binary_write_rate: preprocessed binary write rate (B/s).
        mtx_bytes_per_nnz: average text bytes per nonzero entry.
    """

    per_nnz_classify: float = 5.0e-6
    per_nnz_build: float = 6.0e-6
    per_stripe: float = 2.0e-4
    mtx_read_rate: float = 8.0e5
    binary_write_rate: float = 4.0e6
    mtx_bytes_per_nnz: float = 25.0

    def classify_build_time(self, nnz: int, n_stripes: int) -> float:
        """Modelled preprocessing time excluding file I/O."""
        return (
            nnz * (self.per_nnz_classify + self.per_nnz_build)
            + n_stripes * self.per_stripe
        )

    def io_time(self, nnz: int, preprocessed_bytes: int) -> float:
        """Modelled text-read + binary-write time."""
        read = nnz * self.mtx_bytes_per_nnz / self.mtx_read_rate
        write = preprocessed_bytes / self.binary_write_rate
        return read + write


@dataclass
class PreprocessReport:
    """Timing record of one preprocessing run.

    Attributes:
        modeled_seconds: modelled single-node preprocessing time,
            excluding I/O (Table 6's numerator for ``t_norm``).
        modeled_seconds_with_io: including Matrix Market read and binary
            write (numerator for ``t_norm_I/O``).
        wall_seconds: actual Python wall-clock spent building the plan
            (informational; not comparable to simulated SpMM time).
        n_stripes_scored: stripes considered across all ranks.
        memory_flips: stripes flipped async by the memory fallback.
        cache_hit: True when the plan came out of a plan cache instead
            of being classified/constructed (the modelled numbers are
            re-derived from the plan and match a cold build exactly).
    """

    modeled_seconds: float
    modeled_seconds_with_io: float
    wall_seconds: float
    n_stripes_scored: int
    memory_flips: int
    cache_hit: bool = False


def preprocess(
    A: DistSparseMatrix,
    k: int,
    stripe_width: int,
    coeffs: Optional[CostCoefficients] = None,
    machine: Optional[MachineConfig] = None,
    panel_height: int = 32,
    cost_model: Optional[PreprocessCostModel] = None,
    force_all_async: bool = False,
    force_all_sync: bool = False,
    classify_override: Optional[Callable] = None,
    plan_workers: Optional[int] = None,
    classify_k: Optional[int] = None,
    grid=None,
) -> Tuple[TwoFacePlan, PreprocessReport]:
    """Classify stripes and build the Two-Face representation.

    The per-rank body (stripe stats → classification → matrix
    construction → schedule finalisation) is pure per rank, so it fans
    out across the planning worker pool (``REPRO_PLAN_WORKERS``) and
    the results are folded back in rank order — the plan and report are
    bitwise identical to a serial build at any pool width.

    Args:
        A: 1D-partitioned sparse matrix.
        k: dense column count the plan targets.
        stripe_width: sparse-stripe width ``W``.
        coeffs: model coefficients; Table 3 defaults if omitted.
        machine: machine description; enables the memory fallback and
            must match ``A``'s partition width when given.
        panel_height: sync row-panel height (Table 2 default 32).
        cost_model: preprocessing cost model for Table 6 numbers.
        force_all_async: classify every remote stripe async (builds the
            Async Fine-Grained baseline's plan).
        force_all_sync: classify every remote stripe sync.
        classify_override: ``f(stats, geometry, k) -> async_mask`` hook
            replacing the model-based classifier (used by calibration
            and ablations); local-input stripes are never async
            regardless of the mask.
        plan_workers: planning pool width; defaults to
            ``REPRO_PLAN_WORKERS`` (itself defaulting to
            ``REPRO_EXEC_WORKERS``; 1 = serial).
        classify_k: when set, score and classify stripes (and evaluate
            the §6.3 memory fallback) *as if* the dense width were this
            value, while transfer schedules and execution still target
            the real ``k``.  Pinning the classification at one
            canonical width makes plans built for different widths
            accumulate into ``C`` in the same order — the property the
            serving layer's K-panel fusion relies on for byte-identical
            per-request output slices (DESIGN.md §8).
        grid: process-grid layout to stamp into the plan (None = plain
            1D).  Classification itself sees only the layer-local
            ``A``; the grid is metadata carried for serialisation and
            cache keying.

    Returns:
        ``(plan, report)``.
    """
    if force_all_async and force_all_sync:
        raise ConfigurationError(
            "force_all_async and force_all_sync are mutually exclusive"
        )
    if k <= 0:
        raise ConfigurationError(f"K must be positive: {k}")
    if stripe_width <= 0:
        raise ConfigurationError(
            f"stripe width must be positive: {stripe_width}"
        )
    if panel_height <= 0:
        raise ConfigurationError(
            f"panel height must be positive: {panel_height}"
        )
    if classify_k is not None and classify_k <= 0:
        raise ConfigurationError(
            f"classify_k must be positive: {classify_k}"
        )
    score_k = k if classify_k is None else classify_k
    coeffs = coeffs if coeffs is not None else CostCoefficients()
    cost_model = cost_model if cost_model is not None else PreprocessCostModel()
    n, m = A.shape
    p = A.partition.n_parts
    if machine is not None and machine.n_nodes != p:
        raise ConfigurationError(
            f"machine has {machine.n_nodes} nodes but A is partitioned "
            f"into {p}"
        )
    geometry = StripeGeometry(n, m, p, stripe_width)
    gap = max_coalescing_gap(k)

    started = time.perf_counter()

    def plan_rank(rank: int) -> RankPlan:
        """Build one rank's plan; pure (reads only shared inputs)."""
        slab = A.slab(rank)
        stats, classification = classify_slab(
            rank, slab, geometry, coeffs, score_k, machine
        )
        if force_all_async:
            classification = _force_mask(stats, classification, all_async=True)
        elif force_all_sync:
            classification = _force_mask(stats, classification, all_async=False)
        elif classify_override is not None:
            mask = np.asarray(
                classify_override(stats, geometry, score_k), dtype=bool
            )
            classification = _masked_classification(stats, classification, mask)

        async_mask = classification.async_mask
        async_matrix = build_async_stripe_matrix(
            rank, slab, stats, async_mask
        )
        # Everything else is sync/local-input, taken in storage order.
        keep = np.empty(slab.nnz, dtype=bool)
        keep[stats.nnz_order] = np.repeat(~async_mask, stats.nnz)
        sync_local = build_sync_local_matrix(
            rank, slab, keep, panel_height
        )
        # Finalise the one-sided transfer schedules now: they depend only
        # on plan-time quantities (row ids, owner block offsets, K), so
        # every later execution reuses them instead of rebuilding.
        async_matrix.finalize_schedules(geometry.col_partition, gap)
        return RankPlan(
            rank=rank,
            sync_local=sync_local,
            async_matrix=async_matrix,
            classification=classification,
            sync_stripe_gids=stats.gids[classification.sync_mask],
        )

    rank_plans = get_plan_pool(plan_workers).map(plan_rank, p)

    # Fold the shared outputs back in ascending rank order, so every
    # destination list comes out sorted without a second pass and the
    # result is identical to a serial build at any pool width.
    destinations: Dict[int, list] = {}
    for rank_plan in rank_plans:
        for gid in rank_plan.sync_stripe_gids.tolist():
            destinations.setdefault(gid, []).append(rank_plan.rank)

    plan = TwoFacePlan(
        geometry=geometry,
        coeffs=coeffs,
        k=k,
        panel_height=panel_height,
        ranks=rank_plans,
        stripe_destinations=destinations,
        grid=grid,
    )
    wall = time.perf_counter() - started
    report = derive_report(
        plan, A.nnz, cost_model=cost_model, wall_seconds=wall,
        cache_hit=False,
    )
    return plan, report


def derive_report(
    plan: TwoFacePlan,
    nnz: int,
    cost_model: Optional[PreprocessCostModel] = None,
    wall_seconds: float = 0.0,
    cache_hit: bool = False,
) -> PreprocessReport:
    """Reconstruct the preprocessing report from a finished plan.

    Every report quantity except the host wall clock is a pure function
    of the plan (stripe counts, memory flips, the cost model and nnz),
    so a cache hit can surface the same modelled Table 6 numbers a cold
    build would have reported, without re-running classification.
    """
    cost_model = cost_model if cost_model is not None else PreprocessCostModel()
    total_stripes = sum(
        r.classification.n_sync
        + r.classification.n_async
        + r.classification.n_local
        for r in plan.ranks
    )
    total_flips = sum(r.classification.memory_flips for r in plan.ranks)
    modeled = cost_model.classify_build_time(nnz, total_stripes)
    modeled_io = modeled + cost_model.io_time(nnz, plan.plan_nbytes())
    return PreprocessReport(
        modeled_seconds=modeled,
        modeled_seconds_with_io=modeled_io,
        wall_seconds=wall_seconds,
        n_stripes_scored=total_stripes,
        memory_flips=total_flips,
        cache_hit=cache_hit,
    )


def classify_slab(
    rank: int, slab: COOMatrix, geometry: StripeGeometry,
    coeffs: CostCoefficients, score_k: int,
    machine: Optional[MachineConfig] = None,
) -> Tuple[RankStripeStats, RankClassification]:
    """One rank's slab → stripe statistics → §4.2 classification, with
    the §6.3 memory fallback when ``machine`` is given; forced variants
    are applied on top by the caller.  The planner and the tuner's
    pricing both call this, so what is priced is what is planned."""
    stats = compute_rank_stripe_stats(rank, slab, geometry)
    budget = None
    if machine is not None:
        # What the slab and the resident B and C blocks leave free.
        dense_blocks = 2 * slab.shape[0] * score_k * 8
        free = machine.memory_capacity - slab.nbytes() - dense_blocks
        budget = max(0, int(free * SYNC_MEMORY_FRACTION))
    return stats, classify_rank_stripes(
        stats, geometry, coeffs, score_k, sync_memory_budget=budget
    )


def _force_mask(stats, classification: RankClassification, all_async: bool):
    """Override a classification to all-async or all-sync."""
    mask = classification.remote_mask.copy() if all_async else np.zeros(
        len(classification.remote_mask), dtype=bool
    )
    return _masked_classification(stats, classification, mask)


def _masked_classification(
    stats, classification: RankClassification, mask: np.ndarray
):
    """Rebuild a classification from an explicit async mask."""
    mask = mask & classification.remote_mask
    rows_async = int(stats.rows_needed[mask].sum())
    nnz_async = int(stats.nnz[mask].sum())
    n_async = int(np.count_nonzero(mask))
    n_remote = int(np.count_nonzero(classification.remote_mask))
    return RankClassification(
        rank=classification.rank,
        async_mask=mask,
        remote_mask=classification.remote_mask,
        n_sync=n_remote - n_async,
        n_async=n_async,
        n_local=len(mask) - n_remote,
        rows_async=rows_async,
        nnz_async=nnz_async,
        memory_flips=0,
    )
