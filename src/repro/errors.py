"""Exception hierarchy for the Two-Face reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(ReproError, ValueError):
    """An operand's shape is incompatible with the requested operation."""


class FormatError(ReproError, ValueError):
    """A sparse-matrix payload violates its format invariants."""


class PartitionError(ReproError, ValueError):
    """A distributed partition is malformed or incompatible."""


class OutOfMemoryError(ReproError, MemoryError):
    """A simulated node exceeded its memory capacity.

    This reproduces the paper's missing data points: AllGather on *kmer* at
    K=128 and the high-replication dense-shifting runs (DS4/DS8) at large K
    exceed single-node capacity on Delta and therefore report no result.
    """

    def __init__(self, node: int, needed_bytes: int, capacity_bytes: int):
        self.node = node
        self.needed_bytes = needed_bytes
        self.capacity_bytes = capacity_bytes
        super().__init__(
            f"simulated node {node} needs {needed_bytes} B "
            f"but has capacity {capacity_bytes} B"
        )


class CommunicationError(ReproError, RuntimeError):
    """The simulated communication layer was used incorrectly."""


class CalibrationError(ReproError, RuntimeError):
    """Cost-model calibration failed (e.g. singular regression system)."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm or machine configuration is invalid."""


class ExecutorCrashError(ReproError, RuntimeError):
    """An injected ``executor_crash`` fault killed a simulated executor
    mid-batch.

    The whole in-flight request group is lost; the serving loop
    (:mod:`repro.serve.scheduler`) catches this and, when its policy
    allows retries, retries the group on another replica.
    Deterministic: whether a given dispatch
    crashes is a pure function of the fault seed and the dispatch's
    ``crash_epoch`` (see :class:`repro.cluster.faults.FaultConfig`).
    """

    def __init__(self, rank: int, epoch: int):
        self.rank = rank
        self.epoch = epoch
        super().__init__(
            f"injected executor crash on rank {rank} (crash epoch {epoch})"
        )
