"""Common interface for distributed SpMM algorithms.

Every algorithm in the comparison (Table 4) takes a global sparse ``A``
and dense ``B``, distributes them under 1D partitioning onto a fresh
simulated cluster, executes, and returns an :class:`SpMMResult` with the
numerically correct ``C``, a per-node time breakdown, and traffic stats.
Runs whose working set exceeds node memory come back as failed results
(the paper's missing data points), never as exceptions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..cluster.faults import ResilienceStats, resilience_stats
from ..cluster.machine import Cluster, MachineConfig
from ..cluster.simmpi import SimMPI, TrafficStats
from ..dist.matrices import DistDenseMatrix, DistSparseMatrix
from ..dist.oned import RowPartition
from ..errors import OutOfMemoryError, ShapeError
from ..runtime.threads import ThreadConfig
from ..runtime.trace import TimeBreakdown
from ..sparse.coo import COOMatrix

#: Simulated cost of setting up MPI structures before communication
#: (windows, datatypes, queues) — the paper's "Other" category.
BASE_SETUP_SECONDS = 1.0e-5


@dataclass
class SpMMResult:
    """Outcome of one distributed SpMM execution.

    Attributes:
        algorithm: algorithm name.
        C: the computed output (global array) or None on failure.
        seconds: simulated makespan.
        breakdown: per-node lane components.
        traffic: byte/message counts by category.
        failed: True when the run could not complete.
        failure: human-readable failure reason (e.g. OOM details).
        extras: algorithm-specific diagnostics.
        events: recorded communication operations, in issue order
            (capped; see ``repro.cluster.simmpi.MAX_RECORDED_EVENTS``).
            Constructed from a list, or from the :class:`SimMPI` that
            recorded them — then the event objects are only built when
            this attribute is first read (always the same list, so
            holders of an earlier read see later appends).
    """

    algorithm: str
    C: Optional[np.ndarray]
    seconds: float
    breakdown: TimeBreakdown
    traffic: TrafficStats
    failed: bool = False
    failure: Optional[str] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    events: Any = field(default_factory=list, repr=False)

    def speedup_over(self, other: "SpMMResult") -> float:
        """``other.seconds / self.seconds`` (paper-style speedup)."""
        if self.failed or other.failed:
            raise ValueError("cannot compare failed results")
        return other.seconds / self.seconds


def _read_events(self: SpMMResult) -> list:
    source = self._event_source
    return source.events if isinstance(source, SimMPI) else source


def _store_events(self: SpMMResult, source) -> None:
    self._event_source = source


# Installed after the dataclass machinery so ``events=`` stays the
# constructor keyword while reads go through the lazy accessor.
SpMMResult.events = property(_read_events, _store_events)


@dataclass
class RunContext:
    """Everything an algorithm body needs, pre-distributed."""

    machine: MachineConfig
    cluster: Cluster
    mpi: SimMPI
    A: DistSparseMatrix
    B: DistDenseMatrix
    C: DistDenseMatrix
    threads: ThreadConfig
    breakdown: TimeBreakdown

    @property
    def n_nodes(self) -> int:
        return self.machine.n_nodes

    @property
    def k(self) -> int:
        return self.B.k


class DistSpMMAlgorithm(abc.ABC):
    """Base class: distribution, memory charging, failure capture."""

    #: Display name; subclasses override (e.g. ``"DS4"``).
    name: str = "abstract"

    def run(
        self,
        A: COOMatrix,
        B: np.ndarray,
        machine: MachineConfig,
        threads: Optional[ThreadConfig] = None,
        grid=None,
        transport=None,
    ) -> SpMMResult:
        """Distribute inputs, execute, and collect the result.

        Args:
            A: global sparse matrix, shape ``(n, m)``.
            B: global dense input, shape ``(m, K)``.
            machine: simulated machine description.
            threads: per-node thread split; derived from the machine's
                thread count when omitted.
            grid: optional process-grid layout
                (:mod:`repro.dist.grid`).  ``None`` and ``Grid1D`` take
                the identical 1D code path (byte-identical output,
                simulated seconds, and traffic events); 1.5D/2D layouts
                run each depth layer as a 1D sub-problem and reduce the
                partial outputs across the depth dimension.
            transport: data-plane selection (:mod:`repro.transport`):
                ``None``/``"sim"`` for the simulator (byte-identical to
                the pre-transport path), ``"shm"`` for real OS
                processes over shared memory (wall-clock seconds), or a
                constructed transport instance.

        Returns:
            The result; ``failed=True`` on simulated OOM.
        """
        if transport is not None:
            from ..transport import get_transport

            resolved = get_transport(transport)
            if not (isinstance(resolved, type)
                    and issubclass(resolved, SimMPI)):
                # Executor transport (shm/mpi): it owns distribution,
                # worker lifecycle, and timing end to end.
                return resolved.run_algorithm(
                    self, A, B, machine, threads=threads, grid=grid
                )
        B = np.ascontiguousarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != A.shape[1]:
            raise ShapeError(
                f"B shape {B.shape} incompatible with A shape {A.shape}"
            )
        threads = threads or ThreadConfig.for_machine(machine.threads_per_node)
        if grid is not None:
            grid.validate_nodes(machine.n_nodes)
            if grid.depth > 1:
                from .gridrun import run_on_grid

                return run_on_grid(self, A, B, machine, threads, grid)
        from ..transport.sim import SimTransport

        cluster = Cluster(machine)
        mpi = SimTransport(cluster)
        breakdown = TimeBreakdown.zeros(machine.n_nodes)
        resil_before = (
            resilience_stats().snapshot() if cluster.faults is not None
            else None
        )
        try:
            row_part = RowPartition(A.shape[0], machine.n_nodes)
            col_part = RowPartition(B.shape[0], machine.n_nodes)
            A_dist = DistSparseMatrix(A, row_part, cluster, label="A_slab")
            B_dist = DistDenseMatrix(B, col_part, cluster, label="B_block")
            C_dist = DistDenseMatrix.zeros(
                A.shape[0], B.shape[1], row_part, cluster, label="C_block"
            )
            ctx = RunContext(
                machine=machine,
                cluster=cluster,
                mpi=mpi,
                A=A_dist,
                B=B_dist,
                C=C_dist,
                threads=threads,
                breakdown=breakdown,
            )
            self._setup_cost(ctx)
            self._execute(ctx)
        except OutOfMemoryError as oom:
            result = SpMMResult(
                algorithm=self.name,
                C=None,
                seconds=float("nan"),
                breakdown=breakdown,
                traffic=mpi.traffic,
                failed=True,
                failure=str(oom),
                events=mpi,
            )
            self._attach_fault_extras(result, cluster, resil_before)
            return result
        result = SpMMResult(
            algorithm=self.name,
            C=ctx.C.data,
            seconds=breakdown.makespan,
            breakdown=breakdown,
            traffic=mpi.traffic,
            extras=self._extras(ctx),
            events=mpi,
        )
        self._attach_fault_extras(result, cluster, resil_before)
        return result

    @staticmethod
    def _attach_fault_extras(
        result: SpMMResult, cluster: Cluster, resil_before
    ) -> None:
        """Record this run's fault plan and resilience-counter deltas."""
        if cluster.faults is None or resil_before is None:
            return
        delta = ResilienceStats(
            *(
                now - before
                for now, before in zip(
                    resilience_stats().snapshot(), resil_before
                )
            )
        )
        result.extras["faults"] = cluster.faults.describe()
        result.extras["resilience"] = delta.as_dict()

    # ------------------------------------------------------------------
    def _grid_layer_algorithm(self, grid) -> "DistSpMMAlgorithm":
        """The algorithm instance that runs one grid layer.

        The default is the algorithm itself — the baselines are written
        against local ranks only, so they run unchanged inside a layer
        sub-communicator.  Subclasses whose planning depends on the
        communicator size (Two-Face's stripe classifier) return a
        re-scaled clone instead.
        """
        return self

    # ------------------------------------------------------------------
    def _setup_cost(self, ctx: RunContext) -> None:
        """Charge baseline setup time; subclasses may extend."""
        for node in ctx.breakdown.nodes:
            node.other += BASE_SETUP_SECONDS

    def _extras(self, ctx: RunContext) -> Dict[str, Any]:
        """Algorithm-specific diagnostics attached to the result."""
        return {}

    @abc.abstractmethod
    def _execute(self, ctx: RunContext) -> None:
        """Perform the distributed SpMM, filling ``ctx.C`` and the
        breakdown. Raise :class:`OutOfMemoryError` on memory exhaustion.
        """
