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

from typing import Optional, Tuple

import numpy as np

from ..cluster.buffers import local_arena
from ..cluster.faults import RESILIENCE_STATS, resolve_onesided
from ..cluster.simmpi import CommAccount, _OneSidedBatch
from ..dist.blocked import bucket_blocks
from ..runtime.pool import get_exec_pool
from ..sparse.csr import CSRMatrix
from ..sparse.ops import spmm_row_panels
from .base import DistSpMMAlgorithm, RunContext


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

    def _execute(self, ctx: RunContext) -> None:
        net = ctx.machine.network
        compute = ctx.machine.compute
        k = ctx.k
        faults = ctx.cluster.faults
        _, nnz_rb = bucket_blocks(
            ctx.A.global_matrix, ctx.A.partition, ctx.B.partition
        )

        def rank_body(
            rank: int,
        ) -> Optional[Tuple]:
            # Writes only C.block(rank); SimMPI mutations deferred into
            # the account, replayed in rank order below.
            slab = ctx.A.slab(rank)
            if slab.nnz == 0:
                return None
            account = CommAccount()
            needed_blocks = np.flatnonzero(nnz_rb[rank])
            owners = needed_blocks[needed_blocks != rank]
            get_time = 0.0
            sync_time = 0.0
            root_costs = ()
            resil = None
            if faults is None:
                for owner in owners.tolist():
                    block = ctx.B.block(owner)
                    ctx.mpi.get_block(
                        rank, owner, block, label="B_got",
                        charge_time=False, account=account,
                    )
                    get_time += net.rget_time(int(block.nbytes), n_chunks=1)
            elif len(owners):
                # Whole-block gets have nothing to re-chunk: one piece
                # per request, all resident until the compute is done.
                nbytes = np.array(
                    [int(ctx.B.block(o).nbytes) for o in owners.tolist()]
                )
                outcome = resolve_onesided(
                    faults, net, rank, owners, nbytes, 1
                )
                account.ops.append(_OneSidedBatch(
                    rank, owners, nbytes, np.ones_like(nbytes), "B_got",
                    True, outcome.failed, outcome.fallback,
                    streamed=False, detail="B_got:block",
                ))
                get_time, sync_time, root_costs, resil = (
                    outcome.async_seconds, outcome.sync_seconds,
                    outcome.root_costs, outcome.stats,
                )

            done = spmm_row_panels(
                CSRMatrix.from_coo(slab), ctx.B.data, ctx.C.block(rank),
                arena=local_arena(), fresh=True,  # C arrives zeroed
            )
            comp_time = compute.sync_panel_time(
                slab.nnz, k, done.rows_written, ctx.threads.total
            )
            if faults is not None:
                comp_time *= faults.compute_skew(rank)
            return account, get_time, comp_time, sync_time, root_costs, resil

        records = get_exec_pool().map(rank_body, ctx.n_nodes)
        for rank, record in enumerate(records):
            if record is None:
                continue
            account, get_time, comp_time, sync_time, root_costs, resil = (
                record
            )
            ctx.mpi.apply_account(account)
            node = ctx.breakdown.node(rank)
            # A couple of threads issue the gets concurrently.
            node.async_comm += get_time / ctx.threads.async_comm
            node.sync_comp += comp_time
            if resil is not None:
                RESILIENCE_STATS.merge_from(resil)
                node.sync_comm += sync_time
                for owner, cost in root_costs:
                    ctx.breakdown.node(owner).sync_comm += cost
