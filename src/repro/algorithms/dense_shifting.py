"""Dense shifting (DS) — the paper's main baseline [Bharadwaj et al.].

DS replicates ``c`` consecutive blocks of ``B`` per node with an
MPI_Allgather over *replication groups* of ``c`` ranks, then performs
``p / c`` computation steps, cyclically shifting the whole ``c``-block
bundle between groups with MPI_Sendrecv after each step.  Total
communication volume is nearly independent of ``c`` (every node still
sees all of ``B``); larger ``c`` buys fewer synchronised steps at the
price of ``c`` resident blocks — which is what makes DS4/DS8 run out of
memory on large matrices and large K (paper Figs. 9, 11).
"""

from __future__ import annotations

from ..cluster.buffers import local_arena
from ..dist.blocked import BlockedMatrix
from ..errors import ConfigurationError
from ..runtime.pool import get_exec_pool
from .base import DistSpMMAlgorithm, RunContext
from .schedule import BlockSchedule, book_counters, lane_seconds


class DenseShifting(DistSpMMAlgorithm):
    """DS with replication factor ``c`` (DS1/DS2/DS4/DS8 in the paper)."""

    def __init__(self, replication: int = 2):
        if replication < 1:
            raise ConfigurationError(
                f"replication factor must be >= 1: {replication}"
            )
        self.replication = replication
        self.name = f"DS{replication}"

    def schedule(self, col_part, k: int, nnz_rb=None) -> BlockSchedule:
        """The layer's schedule (the block tables are not needed)."""
        return BlockSchedule.dense_shifting(col_part, k, self.replication)

    # ------------------------------------------------------------------
    def _execute(self, ctx: RunContext) -> None:
        p = ctx.n_nodes
        schedule = self.schedule(ctx.B.partition, ctx.k)
        for rank in range(p):
            ctx.cluster.node(rank).memory.allocate(
                schedule.label, int(schedule.resident[rank])
            )

        blocked = BlockedMatrix.build(
            ctx.A.global_matrix, ctx.A.partition, ctx.B.partition
        )
        first, last = schedule.held

        def rank_body(rank: int) -> None:
            # Writes only C.block(rank), so a rank's steps need no
            # barrier between them: held bundles in step order, each
            # bundle's blocks in ascending order.
            c_block, arena = ctx.C.block(rank), local_arena()
            for lo, hi in zip(first[:, rank].tolist(), last[:, rank].tolist()):
                blocked.multiply_into(
                    c_block, ctx.B.data, rank, lo, hi, arena=arena
                )

        get_exec_pool().map(rank_body, p)
        book_counters(schedule, ctx.mpi.traffic, range(p))
        lane_seconds(
            schedule, ctx.machine, ctx.threads, ctx.k,
            *schedule.step_work(blocked), ctx.cluster.faults,
        ).charge(ctx.breakdown.nodes)

    def _extras(self, ctx: RunContext) -> dict:
        return {"replication": self.replication}
