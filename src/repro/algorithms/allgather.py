"""AllGather baseline: full replication of ``B`` before computing.

Each node broadcasts its block of ``B`` to all others with a single
MPI_Allgather and then computes its whole slab locally.  Simple and
latency-light, but it transfers every row of ``B`` to every node whether
needed or not, and the replicated ``B`` must fit per node — which is why
this baseline cannot run kmer at K=128 in the paper (Fig. 2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..cluster.buffers import local_arena
from ..runtime.pool import get_exec_pool
from ..sparse.csr import CSRMatrix
from ..sparse.ops import spmm_row_panels
from .base import DistSpMMAlgorithm, RunContext
from .schedule import BlockSchedule, book_counters, lane_seconds


def multiply_slabs(ctx: RunContext) -> Tuple[np.ndarray, np.ndarray]:
    """``C.block(r) = slab(r) @ B`` on every rank, with the whole panel
    visible (pool-mapped; a rank writes only its own block).

    Returns per (step, rank) stored nonzeros and output rows written:
    the one whole-slab step :func:`~.schedule.lane_seconds` prices.
    """

    def rank_body(rank: int) -> Tuple[int, int]:
        slab = ctx.A.slab(rank)
        if not slab.nnz:
            return 0, 0
        done = spmm_row_panels(
            CSRMatrix.from_coo(slab), ctx.B.data, ctx.C.block(rank),
            arena=local_arena(), fresh=True,  # C arrives zeroed
        )
        return slab.nnz, done.rows_written

    nnz, rows = np.array(get_exec_pool().map(rank_body, ctx.n_nodes)).T
    return nnz[None], rows[None]


class AllGather(DistSpMMAlgorithm):
    """Sparsity-unaware full replication (Table 4: MPI_Allgather)."""

    name = "Allgather"

    def schedule(self, col_part, k: int, nnz_rb=None) -> BlockSchedule:
        """The layer's schedule (the block tables are not needed)."""
        return BlockSchedule.allgather(col_part, k)

    def _execute(self, ctx: RunContext) -> None:
        schedule = self.schedule(ctx.B.partition, ctx.k)
        landed = 0
        try:
            # Replicate B everywhere; this is where OOM strikes.
            for rank in range(ctx.n_nodes):
                ctx.cluster.node(rank).memory.allocate(
                    schedule.label, int(schedule.resident[rank])
                )
                landed += 1
        finally:
            book_counters(
                schedule, ctx.mpi.traffic, range(ctx.n_nodes),
                upto=landed, log=ctx.mpi._log,
            )
        nnz, rows = multiply_slabs(ctx)
        lane_seconds(
            schedule, ctx.machine, ctx.threads, ctx.k, nnz, rows,
            ctx.cluster.faults,
        ).charge(ctx.breakdown.nodes)
