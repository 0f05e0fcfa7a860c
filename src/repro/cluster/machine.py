"""Simulated machine: nodes, clocks, and memory accounting.

Each simulated node owns a clock (advanced by the cost models as data
moves and kernels run) and a memory ledger (so algorithms whose working
set exceeds node capacity fail with :class:`~repro.errors.OutOfMemoryError`,
reproducing the paper's missing data points).

The default configuration mirrors the paper's platform at 1/4096 scale:
32 nodes, 128 threads each, 256 GiB / 4096 = 64 MiB of DRAM per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, ExecutorCrashError, OutOfMemoryError
from .faults import FaultConfig, compile_faults
from .network import ComputeModel, NetworkModel

#: Simulated DRAM per node.  Chosen so that capacity relative to the
#: analogue matrices' dense working sets mirrors Delta's 256 GiB relative
#: to the paper's inputs: full replication of B for the largest matrix at
#: K=128 must not fit (AllGather OOMs on kmer, Fig. 2), high-replication
#: dense-shifting bundles must fail at K=512 (Fig. 9) while DS2 always
#: fits, and at K=512 the B-to-capacity ratio sits near 1 for the
#: social/trace matrices (so Two-Face's memory fallback engages the way
#: it does on Delta) and well above 1 for kmer.
DEFAULT_NODE_MEMORY = 48 * 1024**2
#: Ratio between a Delta node's DRAM and a simulated node's.
MEMORY_SCALE = (256 * 1024**3) // DEFAULT_NODE_MEMORY


@dataclass(frozen=True)
class MachineConfig:
    """Static description of the simulated cluster.

    Attributes:
        n_nodes: MPI ranks (the paper default is 32, max 64).
        threads_per_node: OpenMP threads per rank (the paper uses 128).
        memory_capacity: simulated DRAM per node, bytes.
        network: interconnect cost model.
        compute: local-kernel cost model.
        faults: optional seeded fault-injection config; None (the
            default) keeps the machine perfectly healthy and every
            consumer on its fault-free code path.
    """

    n_nodes: int = 32
    threads_per_node: int = 128
    memory_capacity: int = DEFAULT_NODE_MEMORY
    network: NetworkModel = field(default_factory=NetworkModel)
    compute: ComputeModel = field(default_factory=ComputeModel)
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError(f"n_nodes must be positive: {self.n_nodes}")
        if self.threads_per_node <= 0:
            raise ConfigurationError(
                f"threads_per_node must be positive: {self.threads_per_node}"
            )
        if self.memory_capacity <= 0:
            raise ConfigurationError("memory_capacity must be positive")


class MemoryLedger:
    """Tracks a node's simulated allocations against its capacity.

    Allocations are named so tests can inspect what an algorithm charged.
    ``peak`` records the high-water mark, which is what decides OOM.
    """

    def __init__(self, node: int, capacity: int):
        self._node = node
        self._capacity = int(capacity)
        self._allocations: Dict[str, int] = {}
        self._current = 0
        self.peak = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def current(self) -> int:
        return self._current

    def allocations(self) -> Dict[str, int]:
        """Copy of live allocations (name -> bytes)."""
        return dict(self._allocations)

    def allocate(self, name: str, nbytes: int) -> None:
        """Charge ``nbytes`` under ``name``; additive if name exists.

        Raises:
            OutOfMemoryError: if the new total exceeds node capacity.
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative allocation: {nbytes}")
        new_total = self._current + nbytes
        if new_total > self._capacity:
            raise OutOfMemoryError(self._node, new_total, self._capacity)
        self._allocations[name] = self._allocations.get(name, 0) + int(nbytes)
        self._current = new_total
        self.peak = max(self.peak, new_total)

    def free(self, name: str) -> int:
        """Release everything charged under ``name``; returns the bytes."""
        nbytes = self._allocations.pop(name, 0)
        self._current -= nbytes
        return nbytes

    def allocate_streamed(self, name: str, sizes: np.ndarray) -> int:
        """Charge a stream of requests that reuse one buffer.

        Equivalent, mutation for mutation, to ``allocate(name,
        sizes[0])`` followed by ``free(name); allocate(name, size)``
        for every later size — each request's bytes are released when
        the next one lands, and the last stays charged under ``name``.
        Instead of raising, the replay stops before the first
        allocation that does not fit (its predecessor already freed)
        and returns how many were charged; calling
        ``allocate(name, sizes[n])`` then raises exactly the
        :class:`OutOfMemoryError` the per-request sequence would have.
        """
        if not len(sizes) or self._current + int(sizes[0]) > self._capacity:
            return 0
        self.allocate(name, int(sizes[0]))
        rest = sizes[1:]
        if not len(rest):
            return 1
        self.free(name)
        base = self._current
        over = np.flatnonzero(base + rest > self._capacity)
        fit = int(over[0]) if len(over) else len(rest)
        if fit:
            self.peak = max(self.peak, base + int(rest[:fit].max()))
        if fit == len(rest):
            self.allocate(name, int(rest[-1]))
        return 1 + fit

    def allocate_stacked(self, name: str, sizes: np.ndarray) -> int:
        """Charge a stream of requests that all stay resident.

        Equivalent to ``allocate(name, size)`` for every size in turn,
        with the same early stop and return value as
        :meth:`allocate_streamed`.
        """
        totals = self._current + np.cumsum(sizes)
        fit = int(np.searchsorted(totals, self._capacity, side="right"))
        if fit:
            self.allocate(name, int(totals[fit - 1]) - self._current)
        return fit


class SimNode:
    """One simulated rank: a clock plus a memory ledger."""

    def __init__(self, rank: int, config: MachineConfig):
        self.rank = rank
        self.config = config
        self.time = 0.0
        self.memory = MemoryLedger(rank, config.memory_capacity)

    def advance(self, seconds: float) -> None:
        """Spend ``seconds`` of simulated time on this node."""
        if seconds < 0:
            raise ConfigurationError(f"cannot advance time by {seconds}")
        self.time += seconds

    def sync_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t`` (never back)."""
        self.time = max(self.time, t)


#: Ledger label of memory pinned by injected pressure (a co-tenant /
#: fragmentation stand-in); lives for the whole run.
FAULT_PRESSURE_LABEL = "fault_pressure"


class Cluster:
    """The set of simulated nodes plus barrier/makespan helpers.

    A :class:`~repro.cluster.faults.FaultConfig` on the machine config
    is compiled here into the run's :class:`~repro.cluster.faults.FaultPlan`
    (``self.faults``; None on a healthy machine), and any memory-pressure
    squeezes are pinned on the affected ledgers immediately.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.nodes: List[SimNode] = [
            SimNode(rank, config) for rank in range(config.n_nodes)
        ]
        self.faults = compile_faults(config.faults, config.n_nodes)
        if self.faults is not None:
            crashed = self.faults.crash_rank()
            if crashed is not None:
                raise ExecutorCrashError(
                    crashed, self.faults.config.crash_epoch
                )
            for node in self.nodes:
                fraction = self.faults.squeeze_fraction(node.rank)
                if fraction > 0.0:
                    node.memory.allocate(
                        FAULT_PRESSURE_LABEL,
                        int(config.memory_capacity * fraction),
                    )

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def node(self, rank: int) -> SimNode:
        if not 0 <= rank < self.n_nodes:
            raise ConfigurationError(
                f"rank {rank} out of range 0..{self.n_nodes - 1}"
            )
        return self.nodes[rank]

    def barrier(self) -> float:
        """Synchronise all clocks to the latest one; returns that time."""
        latest = max(node.time for node in self.nodes)
        for node in self.nodes:
            node.sync_to(latest)
        return latest

    def makespan(self) -> float:
        """Latest clock across nodes (total simulated execution time)."""
        return max(node.time for node in self.nodes)

    def reset_clocks(self) -> None:
        """Zero every node clock (memory ledgers are left untouched)."""
        for node in self.nodes:
            node.time = 0.0
