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

import math
from typing import Tuple

import numpy as np

from ..cluster.buffers import local_arena
from ..dist.blocked import BlockedMatrix
from ..errors import ConfigurationError
from ..runtime.pool import get_exec_pool
from .base import DistSpMMAlgorithm, RunContext


def ds_held_blocks(p: int, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """The bundle each rank holds at each step, as ``(first, last)`` of
    shape ``(n_groups, p)``: rank ``r`` computes with ``B`` blocks
    ``first[s, r] .. last[s, r] - 1`` at step ``s`` — its own
    replication group's, then one cyclic shift per step.
    """
    n_groups = math.ceil(p / c)
    steps = np.arange(n_groups)[:, None]
    first = (np.arange(p) // c + steps) % n_groups * c
    return first, np.minimum(first + c, p)


def ds_step_seconds(
    nnz_rb: np.ndarray, rows_rb: np.ndarray, c: int, k: int, compute,
    threads: int,
) -> np.ndarray:
    """Fault-free compute seconds of every (step, rank) of DS(``c``),
    shape ``(n_groups, p)``: the panel time of the held bundle's pieces
    (``nnz_rb`` / ``rows_rb`` of a :class:`BlockedMatrix`).  The
    simulator charges these and the tuner predicts with them.
    """
    p = len(nnz_rb)
    held = ds_held_blocks(p, c)[0] // c
    ranks = np.arange(p)
    bounds = np.arange(0, p, c)
    return compute.sync_panel_time(
        np.add.reduceat(nnz_rb, bounds, axis=1)[ranks, held], k,
        np.add.reduceat(rows_rb, bounds, axis=1)[ranks, held], threads,
    )


class DenseShifting(DistSpMMAlgorithm):
    """DS with replication factor ``c`` (DS1/DS2/DS4/DS8 in the paper)."""

    def __init__(self, replication: int = 2):
        if replication < 1:
            raise ConfigurationError(
                f"replication factor must be >= 1: {replication}"
            )
        self.replication = replication
        self.name = f"DS{replication}"

    # ------------------------------------------------------------------
    def _execute(self, ctx: RunContext) -> None:
        p = ctx.n_nodes
        c = min(self.replication, p)
        n_groups = math.ceil(p / c)
        net = ctx.machine.network
        k = ctx.k
        faults = ctx.cluster.faults
        max_block_bytes = ctx.B.partition.max_size() * k * 8

        # Replica bundle (c blocks) plus a same-sized receive bundle:
        # the cyclic shift is double-buffered, as in the reference
        # implementation, so peak footprint is ~2c blocks.
        bundle_blocks = c + (c if n_groups > 1 else 0)
        for rank in range(p):
            ctx.cluster.node(rank).memory.allocate(
                "DS_replicas", (bundle_blocks - 1) * max_block_bytes
            )

        blocked = BlockedMatrix.build(
            ctx.A.global_matrix, ctx.A.partition, ctx.B.partition
        )
        first, last = ds_held_blocks(p, c)

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

        # Initial intra-group allgather.
        if c > 1:
            gather_cost = net.allgather_time(max_block_bytes, c)
            gathered_bytes = (c - 1) * max_block_bytes
            for rank in range(p):
                cost = gather_cost
                if faults is not None:
                    cost *= faults.worst_incoming_scale(rank)
                ctx.breakdown.node(rank).sync_comm += cost
                ctx.mpi.traffic._recv(rank, gathered_bytes)
            ctx.mpi.traffic.collective_bytes += p * gathered_bytes
            ctx.mpi.traffic.collective_ops += n_groups

        step_seconds = ds_step_seconds(
            blocked.nnz_rb, blocked.rows_rb, c, k, ctx.machine.compute,
            ctx.threads.total,
        )
        if faults is not None:
            step_seconds *= [faults.compute_skew(r) for r in range(p)]
        shift_bytes = c * max_block_bytes
        shift_cost = net.p2p_time(shift_bytes)
        for step, comp_times in enumerate(step_seconds):
            step_max = float(comp_times.max(initial=0.0))
            is_last = step == n_groups - 1
            for rank in range(p):
                node = ctx.breakdown.node(rank)
                node.sync_comp += comp_times[rank]
                # Barrier wait shows up inside the communication phase.
                node.sync_comm += step_max - comp_times[rank]
                if not is_last:
                    cost = shift_cost
                    if faults is not None:
                        # Rank r receives the bundle its neighbour held.
                        cost *= faults.link_scale((rank + 1) % p, rank)
                    node.sync_comm += cost
                    ctx.mpi.traffic.p2p_bytes += shift_bytes
                    ctx.mpi.traffic.p2p_messages += 1
                    ctx.mpi.traffic._recv(rank, shift_bytes)

    def _extras(self, ctx: RunContext) -> dict:
        return {"replication": self.replication}
