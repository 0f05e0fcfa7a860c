"""Async Coarse-Grained baseline: one-sided whole-block MPI_Get.

Each node determines which blocks of ``B`` its nonzeros touch and pulls
each of those blocks with a one-sided MPI_Get, then computes locally.
Compared to AllGather it skips blocks it does not need at all, but a
block with even one needed row is transferred whole — so for matrices
whose nonzeros touch every block (social networks) it degenerates into
full replication paid at the expensive one-sided rate (paper Figs. 7-9
show it trailing the field).
"""

from __future__ import annotations

import numpy as np

from ..cluster.faults import RESILIENCE_STATS
from ..cluster.simmpi import _OneSidedBatch
from ..dist.blocked import bucket_blocks
from .allgather import multiply_slabs
from .base import DistSpMMAlgorithm, RunContext
from .schedule import BlockSchedule, lane_seconds


class AsyncCoarse(DistSpMMAlgorithm):
    """Sparsity-aware only at block granularity (Table 4: MPI_Get).

    Under fault injection the whole-block gets go through the same
    retry / backoff / fallback policy as the Two-Face async lane
    (:func:`~repro.cluster.faults.resolve_onesided`); a block whose
    attempt budget runs out arrives via a sync multicast from its owner
    instead (the breakdown then shows sync-lane time the healthy run
    never has).
    """

    name = "AsyncCoarse"

    def schedule(self, col_part, k: int, nnz_rb) -> BlockSchedule:
        """The layer's schedule; ``nnz_rb`` are its stored nonzeros per
        (rank, block)."""
        return BlockSchedule.async_coarse(col_part, k, nnz_rb)

    def _execute(self, ctx: RunContext) -> None:
        _, nnz_rb = bucket_blocks(
            ctx.A.global_matrix, ctx.A.partition, ctx.B.partition
        )
        schedule = self.schedule(ctx.B.partition, ctx.k, nnz_rb)
        nnz, rows = multiply_slabs(ctx)
        outcomes = schedule.resolve(ctx.cluster.faults, ctx.machine.network)
        replayed = 0
        try:
            for rank, (owners, nbytes, outcome) in enumerate(
                zip(schedule.owners, schedule.get_bytes, outcomes)
            ):
                if len(owners):
                    # Whole-block gets have nothing to re-chunk: one
                    # piece per request, all resident until the compute
                    # is done.
                    _OneSidedBatch(
                        rank, owners, nbytes, np.ones_like(nbytes),
                        schedule.label, True,
                        None if outcome is None else outcome.failed,
                        None if outcome is None else outcome.fallback,
                        streamed=False, detail=f"{schedule.label}:block",
                    ).apply(ctx.mpi)
                if outcome is not None:
                    RESILIENCE_STATS.merge_from(outcome.stats)
                replayed += 1
        finally:
            # Ranks before a simulated OOM keep their charges.
            lane_seconds(
                schedule, ctx.machine, ctx.threads, ctx.k, nnz, rows,
                ctx.cluster.faults, upto=replayed,
            ).charge(ctx.breakdown.nodes)
