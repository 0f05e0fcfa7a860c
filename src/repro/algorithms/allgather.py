"""AllGather baseline: full replication of ``B`` before computing.

Each node broadcasts its block of ``B`` to all others with a single
MPI_Allgather and then computes its whole slab locally.  Simple and
latency-light, but it transfers every row of ``B`` to every node whether
needed or not, and the replicated ``B`` must fit per node — which is why
this baseline cannot run kmer at K=128 in the paper (Fig. 2).
"""

from __future__ import annotations

from ..cluster.buffers import local_arena
from ..runtime.pool import get_exec_pool
from ..sparse.csr import CSRMatrix
from ..sparse.ops import spmm_row_panels
from .base import DistSpMMAlgorithm, RunContext


class AllGather(DistSpMMAlgorithm):
    """Sparsity-unaware full replication (Table 4: MPI_Allgather)."""

    name = "Allgather"

    def _execute(self, ctx: RunContext) -> None:
        compute = ctx.machine.compute
        k = ctx.k
        faults = ctx.cluster.faults

        # Replicate B everywhere; this is where OOM strikes.
        ctx.mpi.allgather(ctx.B.blocks(), label="B_replica")
        gather_time = ctx.machine.network.allgather_time(
            ctx.B.partition.max_size() * k * 8, ctx.n_nodes
        )

        def rank_body(rank: int) -> float:
            # Writes only C.block(rank); pool-safe.
            slab = ctx.A.slab(rank)
            done = spmm_row_panels(
                CSRMatrix.from_coo(slab), ctx.B.data, ctx.C.block(rank),
                arena=local_arena(), fresh=True,  # C arrives zeroed
            )
            seconds = compute.sync_panel_time(
                slab.nnz, k, done.rows_written, ctx.threads.total
            )
            if faults is not None:
                seconds *= faults.compute_skew(rank)
            return seconds

        comp_times = get_exec_pool().map(rank_body, ctx.n_nodes)
        for rank in range(ctx.n_nodes):
            node = ctx.breakdown.node(rank)
            if faults is None:
                node.sync_comm += gather_time
            else:
                # Ring steps pace at the participant's worst hop.
                node.sync_comm += (
                    gather_time * faults.worst_incoming_scale(rank)
                )
            node.sync_comp += comp_times[rank]
