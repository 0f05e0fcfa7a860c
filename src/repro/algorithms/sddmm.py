"""Distributed SDDMM: the paper's §9 extension.

Sampled Dense-Dense Matrix Multiplication computes
``S = A (*) (X @ Y^T)`` — one dot product per nonzero of ``A``.  Its
communication pattern is *identical* to SpMM's under 1D partitioning:
``X`` rows and the sparse output are node-local, and the only remote
accesses are to rows of ``Y`` indexed by nonzero column ids — exactly
the role ``B`` plays in SpMM.  Two-Face therefore applies unchanged:
the same stripes, the same classification, even the same preprocessed
plan, with only the local kernels swapped (dot products instead of
row accumulations; no atomics, since every output value has a single
writer).

Two algorithms are provided: :class:`TwoFaceSDDMM` (reusing the SpMM
plan machinery) and :class:`AllGatherSDDMM` (full replication of ``Y``)
as the sparsity-unaware baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..cluster.machine import Cluster, MachineConfig
from ..cluster.simmpi import SimMPI, TrafficStats
from ..core.executor import TWOFACE_SETUP_SECONDS, sync_transfers
from ..core.model import CostCoefficients
from ..core.plan import TwoFacePlan
from ..core.preprocess import preprocess
from ..dist.matrices import DistDenseMatrix, DistSparseMatrix
from ..dist.oned import RowPartition
from ..errors import OutOfMemoryError, PartitionError, ShapeError
from ..runtime.threads import ThreadConfig, max_coalescing_gap
from ..runtime.trace import TimeBreakdown
from ..sparse.coo import COOMatrix
from ..sparse.ops import _dot_rows
from ..sparse.suite import stripe_width_for
from .base import BASE_SETUP_SECONDS


@dataclass
class SDDMMResult:
    """Outcome of one distributed SDDMM execution.

    Attributes:
        algorithm: algorithm name.
        S: sparse result (``A``'s pattern, computed values) or None.
        seconds: simulated makespan.
        breakdown: per-node lane components.
        traffic: byte/message counts.
        failed / failure: OOM reporting, as for SpMM.
        extras: algorithm-specific diagnostics.
    """

    algorithm: str
    S: Optional[COOMatrix]
    seconds: float
    breakdown: TimeBreakdown
    traffic: TrafficStats
    failed: bool = False
    failure: Optional[str] = None
    extras: Dict[str, Any] = field(default_factory=dict)


def _validate(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> None:
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ShapeError(f"X {X.shape} / Y {Y.shape} must share K")
    if A.shape[0] != X.shape[0] or A.shape[1] != Y.shape[0]:
        raise ShapeError(
            f"A {A.shape} incompatible with X {X.shape} / Y {Y.shape}"
        )


class _SDDMMBase:
    """Distribution and failure plumbing shared by SDDMM algorithms."""

    name = "abstract-sddmm"

    def run(
        self,
        A: COOMatrix,
        X: np.ndarray,
        Y: np.ndarray,
        machine: MachineConfig,
        threads: Optional[ThreadConfig] = None,
    ) -> SDDMMResult:
        """Distribute, execute, and collect the SDDMM result."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        _validate(A, X, Y)
        # SDDMM writes one value per coordinate; duplicate coordinates
        # are summed up-front so the output pattern is well-defined.
        A = A.sum_duplicates()
        threads = threads or ThreadConfig.for_machine(
            machine.threads_per_node
        )
        cluster = Cluster(machine)
        mpi = SimMPI(cluster)
        breakdown = TimeBreakdown.zeros(machine.n_nodes)
        for node in breakdown.nodes:
            node.other += BASE_SETUP_SECONDS
        try:
            row_part = RowPartition(A.shape[0], machine.n_nodes)
            col_part = RowPartition(A.shape[1], machine.n_nodes)
            A_dist = DistSparseMatrix(A, row_part, cluster, label="A_slab")
            X_dist = DistDenseMatrix(X, row_part, cluster, label="X_block")
            Y_dist = DistDenseMatrix(Y, col_part, cluster, label="Y_block")
            # Sparse output: same footprint as A's values.
            for rank in range(machine.n_nodes):
                cluster.node(rank).memory.allocate(
                    "S_vals", A_dist.slab(rank).nnz * 8
                )
            values = self._execute(
                A, A_dist, X_dist, Y_dist, mpi, threads, breakdown
            )
        except OutOfMemoryError as oom:
            return SDDMMResult(
                algorithm=self.name, S=None, seconds=float("nan"),
                breakdown=breakdown, traffic=mpi.traffic,
                failed=True, failure=str(oom),
            )
        S = COOMatrix(A.rows, A.cols, values, A.shape, _validated=True)
        return SDDMMResult(
            algorithm=self.name,
            S=S,
            seconds=breakdown.makespan,
            breakdown=breakdown,
            traffic=mpi.traffic,
            extras=self._extras(),
        )

    def _extras(self) -> Dict[str, Any]:
        return {}

    def _execute(self, A, A_dist, X_dist, Y_dist, mpi, threads, breakdown):
        raise NotImplementedError


class AllGatherSDDMM(_SDDMMBase):
    """Sparsity-unaware baseline: replicate all of ``Y`` first."""

    name = "AllgatherSDDMM"

    def _execute(self, A, A_dist, X_dist, Y_dist, mpi, threads, breakdown):
        compute = mpi.cluster.config.compute
        k = Y_dist.k
        mpi.allgather(Y_dist.blocks(), label="Y_replica")
        gather_time = mpi.network.allgather_time(
            Y_dist.partition.max_size() * k * 8, mpi.n_nodes
        )
        values = np.zeros(A.nnz, dtype=np.float64)
        order = np.argsort(A_dist.partition.owners_of(A.rows), kind="stable")
        position = 0
        for rank in range(mpi.n_nodes):
            slab = A_dist.slab(rank)
            row_lo, _ = A_dist.partition.bounds(rank)
            if slab.nnz:
                vals = slab.vals * _dot_rows(
                    X_dist.data[slab.rows + row_lo], Y_dist.data[slab.cols]
                )
                values[order[position : position + slab.nnz]] = vals
            position += slab.nnz
            node = breakdown.node(rank)
            node.sync_comm += gather_time
            node.sync_comp += compute.sddmm_panel_time(
                slab.nnz, k, threads.total
            )
        return values


class TwoFaceSDDMM(_SDDMMBase):
    """Two-Face applied to SDDMM: same plan, swapped kernels.

    Args:
        stripe_width / coeffs: as for SpMM Two-Face.
        plan: a precomputed plan — including one produced for *SpMM* on
            the same matrix, node count, and K, since the communication
            structure is identical.
    """

    name = "TwoFaceSDDMM"

    def __init__(
        self,
        stripe_width: Optional[int] = None,
        coeffs: Optional[CostCoefficients] = None,
        plan: Optional[TwoFacePlan] = None,
    ):
        self.stripe_width = stripe_width
        self.coeffs = coeffs
        self.plan = plan
        self.last_plan: Optional[TwoFacePlan] = None

    def _extras(self) -> Dict[str, Any]:
        plan = self.last_plan
        if plan is None:
            return {}
        return {
            "sync_stripes": plan.total_sync_stripes(),
            "async_stripes": plan.total_async_stripes(),
        }

    def _execute(self, A, A_dist, X_dist, Y_dist, mpi, threads, breakdown):
        k = Y_dist.k
        plan = self.plan
        if plan is None:
            width = self.stripe_width or stripe_width_for(A.shape[0])
            plan, _ = preprocess(
                A_dist, k=k, stripe_width=width, coeffs=self.coeffs,
                machine=mpi.cluster.config, panel_height=threads.panel_height,
            )
        elif plan.n_nodes != mpi.n_nodes or plan.k != k:
            raise PartitionError(
                f"plan (p={plan.n_nodes}, K={plan.k}) does not match run "
                f"(p={mpi.n_nodes}, K={k})"
            )
        self.last_plan = plan
        for node in breakdown.nodes:
            node.other += TWOFACE_SETUP_SECONDS

        net = mpi.network
        compute = mpi.cluster.config.compute
        # Phase 1: identical collective transfers of dense (Y) stripes.
        sync_transfers(plan, mpi, breakdown, k)

        # Phases 2+3: per-rank value computation.
        values = np.zeros(A.nnz, dtype=np.float64)
        owners = A_dist.partition.owners_of(A.rows)
        order = np.argsort(owners, kind="stable")
        boundaries = np.searchsorted(
            owners[order], np.arange(mpi.n_nodes + 1)
        )
        max_gap = max_coalescing_gap(k)
        for rank in range(mpi.n_nodes):
            rank_plan = plan.rank_plan(rank)
            node = breakdown.node(rank)
            ledger = mpi.cluster.node(rank).memory
            row_lo, _ = A_dist.partition.bounds(rank)
            slab = A_dist.slab(rank)
            slab_order = order[boundaries[rank] : boundaries[rank + 1]]
            slab_values = np.zeros(slab.nnz, dtype=np.float64)
            key_to_pos = _nnz_position_index(slab)

            # Async stripes: fetch Y rows, dot products, no atomics.
            comm_seconds = 0.0
            for stripe in rank_plan.async_matrix.stripes:
                block_start, _ = Y_dist.partition.bounds(stripe.owner)
                schedule = stripe.ensure_schedule(block_start, max_gap)
                packed = schedule.packed
                if (len(schedule.fetched_ids) == 0 and stripe.nnz) or (
                    np.any(
                        schedule.fetched_ids[packed]
                        != stripe.nonzeros.cols
                    )
                ):
                    raise PartitionError(
                        f"stripe {stripe.gid}: fetched rows do not cover "
                        "the stripe's c_ids"
                    )
                fetched = mpi.rget_row_chunks(
                    rank, stripe.owner, Y_dist.block(stripe.owner),
                    schedule.chunk_offsets, schedule.chunk_sizes,
                    label="async_rows",
                    rows=schedule.fetched_ids - block_start,
                    charge_time=False,
                )
                comm_seconds += net.rget_time(
                    int(fetched.nbytes), n_chunks=schedule.n_chunks
                )
                vals = stripe.nonzeros.vals * _dot_rows(
                    X_dist.data[stripe.nonzeros.rows + row_lo],
                    fetched[packed],
                )
                _scatter_values(
                    slab_values, key_to_pos, stripe.nonzeros, vals, slab
                )
                node.async_comp += compute.sddmm_stripe_time(
                    stripe.nnz, k, threads.async_comp, n_stripes=1
                )
                ledger.free("async_rows")
            node.async_comm += comm_seconds / threads.async_comm

            # Sync/local row panels: coverage is guaranteed by the same
            # multicast metadata as SpMM.
            sync_coo = rank_plan.sync_local.csr.to_coo()
            if sync_coo.nnz:
                vals = sync_coo.vals * _dot_rows(
                    X_dist.data[sync_coo.rows + row_lo],
                    Y_dist.data[sync_coo.cols],
                )
                _scatter_values(
                    slab_values, key_to_pos, sync_coo, vals, slab
                )
            node.sync_comp += compute.sddmm_panel_time(
                sync_coo.nnz, k, threads.sync_comp
            )
            values[slab_order] = slab_values
        return values


def _nnz_position_index(slab: COOMatrix) -> Dict[str, np.ndarray]:
    """Sorted (row, col) key index into the slab's nonzero storage."""
    keys = slab.rows * slab.shape[1] + slab.cols
    order = np.argsort(keys, kind="stable")
    return {"keys": keys[order], "positions": order}


def _scatter_values(
    out: np.ndarray,
    index: Dict[str, np.ndarray],
    coo: COOMatrix,
    vals: np.ndarray,
    slab: COOMatrix,
) -> None:
    """Write per-nonzero values back to slab storage order."""
    keys = coo.rows * slab.shape[1] + coo.cols
    pos = np.searchsorted(index["keys"], keys)
    if np.any(index["keys"][pos] != keys):
        raise PartitionError("plan nonzeros do not match the slab")
    out[index["positions"][pos]] = vals
