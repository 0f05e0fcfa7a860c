"""Execution of a distributed SpMM on a process grid (1.5D / 2D).

The grid layouts (:mod:`repro.dist.grid`) decompose one SpMM over
``p = p_r * depth`` ranks into ``depth`` independent 1D sub-problems
("layers"): layer ``g`` owns a subset of the columns of ``A`` (and the
matching rows of ``B``) and runs the *unchanged* 1D algorithm —
AllGather, DenseShifting, or Two-Face — over its ``p_r`` ranks against
the compacted column space.  Each layer produces a partial ``C`` over
the full row space; the partials are summed in layer order and the
reduction is one allreduce per ``C`` row block across the grid's depth
dimension (fibers for 1.5D, grid rows for 2D), counted and priced by
:mod:`repro.algorithms.schedule` as the tuner and shm count it.

The machinery here is three views plus a driver:

* :class:`SubFaultPlan` — a fault plan scoped to a layer, remapping the
  layer's local ranks onto the run's global fault plan so injected
  stragglers/link degradations hit the same physical nodes regardless
  of layout.
* :class:`SubCluster` — a cluster view over a layer's ranks.  The
  underlying :class:`~repro.cluster.machine.SimNode` objects are
  *shared* with the parent cluster, so clocks and memory ledgers land
  globally; only the rank numbering is local.
* the per-layer :class:`~repro.cluster.simmpi.SimMPI` — each layer gets
  its own traffic/event recorder, absorbed into the parent instance
  (with rank remapping and per-dimension byte attribution) after the
  layer executes.

Algorithms participate through
``DistSpMMAlgorithm._grid_layer_algorithm``, which lets e.g. Two-Face
re-scale its classifier coefficients to the sub-communicator size
before planning a layer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

import numpy as np

from ..cluster.faults import resilience_stats
from ..cluster.machine import Cluster, MachineConfig, SimNode
from ..dist.grid import ProcessGrid
from ..transport.sim import SimTransport
from ..dist.matrices import DistDenseMatrix, DistSparseMatrix
from ..dist.oned import RowPartition
from ..errors import ConfigurationError, OutOfMemoryError
from ..runtime.threads import ThreadConfig
from ..runtime.trace import TimeBreakdown
from ..sparse.coo import COOMatrix
from .schedule import book_reduction, reduction_seconds


class SubFaultPlan:
    """A layer-local view of the run's global fault plan.

    Algorithms address ranks ``0..p_r-1`` inside a layer; this view
    maps them back to the global ranks the fault plan was compiled
    for, so the same physical node misbehaves identically under every
    grid layout.
    """

    def __init__(self, parent, ranks: Sequence[int]):
        self.parent = parent
        self.config = parent.config
        self._global = np.asarray(ranks)

    def link_scale(self, src, dst):
        """Multiplier of the local link ``src -> dst``."""
        return self.parent.link_scale(self._global[src], self._global[dst])

    def worst_incoming_scale(self, rank: int) -> float:
        """Worst incoming-link multiplier of local ``rank``."""
        return self.parent.worst_incoming_scale(self._global[rank])

    def compute_skew(self, rank: int) -> float:
        """Compute-skew multiplier of local ``rank``."""
        return self.parent.compute_skew(self._global[rank])

    def squeeze_fraction(self, rank: int) -> float:
        """Memory-pressure fraction of local ``rank``."""
        return self.parent.squeeze_fraction(self._global[rank])

    def rget_failed_attempts(self, origin: int, targets, first_seq: int = 0):
        """Failed-attempt counts of a local origin's requests."""
        return self.parent.rget_failed_attempts(
            self._global[origin], self._global[targets], first_seq
        )

    def describe(self) -> dict:
        """The global plan's summary (faults are per-run, not per-layer)."""
        return self.parent.describe()


class SubCluster:
    """A cluster view over one layer's ranks.

    Nodes are shared with the parent cluster — a clock advance or a
    ledger charge through the view is a clock advance or ledger charge
    on the global simulation.
    """

    def __init__(
        self,
        parent: Cluster,
        ranks: Sequence[int],
        config: MachineConfig,
        faults,
    ):
        if config.n_nodes != len(ranks):
            raise ConfigurationError(
                f"sub-cluster config covers {config.n_nodes} nodes but "
                f"{len(ranks)} ranks were given"
            )
        self.parent = parent
        self.ranks = tuple(ranks)
        self.config = config
        self.nodes: List[SimNode] = [parent.node(r) for r in ranks]
        self.faults = faults

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, rank: int) -> SimNode:
        """The (globally shared) node of local ``rank``."""
        if not 0 <= rank < self.n_nodes:
            raise ConfigurationError(
                f"rank {rank} out of range 0..{self.n_nodes - 1}"
            )
        return self.nodes[rank]


def column_subset(A: COOMatrix, col_ids: np.ndarray) -> COOMatrix:
    """Restrict ``A`` to the (sorted) global columns ``col_ids``.

    The kept columns are compacted to ``0..len(col_ids)-1`` — the
    column space a grid layer's 1D sub-problem runs in.  Row space is
    unchanged.
    """
    n_sub = int(len(col_ids))
    if n_sub == A.shape[1]:
        return A
    if n_sub == 0:
        return COOMatrix.empty((A.shape[0], 0))
    lut = np.full(A.shape[1], -1, dtype=np.int64)
    lut[col_ids] = np.arange(n_sub)
    pos = lut[A.cols]
    sel = pos >= 0
    return COOMatrix(
        A.rows[sel], pos[sel], A.vals[sel],
        (A.shape[0], n_sub), _validated=True,
    )


def run_on_grid(
    algorithm,
    A: COOMatrix,
    B: np.ndarray,
    machine: MachineConfig,
    threads: ThreadConfig,
    grid: ProcessGrid,
):
    """Run ``algorithm`` under a non-trivial grid layout.

    Called from ``DistSpMMAlgorithm.run`` once inputs are validated;
    returns the same :class:`~repro.algorithms.base.SpMMResult`
    contract (``failed=True`` on simulated OOM).
    """
    from .base import SpMMResult  # cycle: base dispatches here

    grid.validate_nodes(machine.n_nodes)
    cluster = Cluster(machine)
    parent_mpi = SimTransport(cluster)
    breakdown = TimeBreakdown.zeros(machine.n_nodes)
    resil_before = (
        resilience_stats().snapshot() if cluster.faults is not None
        else None
    )
    sub_machine = replace(machine, n_nodes=grid.p_r)
    row_part = RowPartition(A.shape[0], grid.p_r)
    k = B.shape[1]
    layer_algo = algorithm._grid_layer_algorithm(grid)
    partials: List[np.ndarray] = []
    layer_extras: List[dict] = []
    try:
        for layer in range(grid.depth):
            ranks = grid.layer_ranks(layer)
            col_ids = grid.layer_col_ids(layer, B.shape[0])
            A_sub = column_subset(A, col_ids)
            B_sub = np.ascontiguousarray(B[col_ids])
            faults_view = (
                SubFaultPlan(cluster.faults, ranks)
                if cluster.faults is not None else None
            )
            subcluster = SubCluster(cluster, ranks, sub_machine, faults_view)
            sub_mpi = SimTransport(subcluster)
            sub_breakdown = TimeBreakdown(
                nodes=[breakdown.nodes[r] for r in ranks]
            )
            try:
                col_part = RowPartition(len(col_ids), grid.p_r)
                A_dist = DistSparseMatrix(
                    A_sub, row_part, subcluster, label="A_slab"
                )
                B_dist = DistDenseMatrix(
                    B_sub, col_part, subcluster, label="B_block"
                )
                C_dist = DistDenseMatrix.zeros(
                    A.shape[0], k, row_part, subcluster, label="C_block"
                )
                from .base import RunContext

                sub_ctx = RunContext(
                    machine=sub_machine,
                    cluster=subcluster,
                    mpi=sub_mpi,
                    A=A_dist,
                    B=B_dist,
                    C=C_dist,
                    threads=threads,
                    breakdown=sub_breakdown,
                )
                layer_algo._setup_cost(sub_ctx)
                layer_algo._execute(sub_ctx)
            finally:
                # Keep whatever the layer moved, even on a mid-layer OOM.
                parent_mpi.absorb(sub_mpi, ranks, dim=grid.intra_dim)
            partials.append(C_dist.data)
            layer_extras.append(layer_algo._extras(sub_ctx))
        C = partials[0]
        for other in partials[1:]:
            C += other
        book_reduction(grid, row_part, k, parent_mpi.traffic, parent_mpi._log)
        totals = np.array([node.total for node in breakdown.nodes])
        waits = reduction_seconds(
            grid, row_part, k, machine.network, totals, cluster.faults
        )
        for node, seconds in zip(breakdown.nodes, waits.tolist()):
            node.sync_comm += seconds
    except OutOfMemoryError as oom:
        result = SpMMResult(
            algorithm=algorithm.name,
            C=None,
            seconds=float("nan"),
            breakdown=breakdown,
            traffic=parent_mpi.traffic,
            failed=True,
            failure=str(oom),
            extras={"grid": grid.describe()},
            events=parent_mpi,
        )
        algorithm._attach_fault_extras(result, cluster, resil_before)
        return result
    extras = {"grid": grid.describe(), "layers": layer_extras}
    result = SpMMResult(
        algorithm=algorithm.name,
        C=C,
        seconds=breakdown.makespan,
        breakdown=breakdown,
        traffic=parent_mpi.traffic,
        extras=extras,
        events=parent_mpi,
    )
    algorithm._attach_fault_extras(result, cluster, resil_before)
    return result

