"""Network and compute cost models for the simulated cluster.

The paper runs on NCSA Delta (Slingshot interconnect, dual-socket EPYC
nodes).  We replace the physical machine with analytic cost models in the
LogGP tradition: every transfer costs a per-message latency ``alpha`` plus
``beta`` seconds per byte, with separate (alpha, beta) pairs for
point-to-point, collective, and one-sided traffic.  One-sided RMA carries
much higher per-message overhead and a worse effective per-byte rate —
the paper's calibrated model found beta_A / beta_S ~ 18.5 on Delta
(Table 3), and the defaults here are chosen to land in that regime.

These parameters are the *ground truth* of the simulated machine.  The
Two-Face preprocessing model (``repro.core.model``) never reads them
directly; it is calibrated against simulated runs by linear regression,
exactly as the paper calibrates against Delta.

Scaling note: the synthetic evaluation matrices are ~400x smaller (in
rows) than the paper's SuiteSparse inputs, while message *counts* (which
scale with stripes, not rows) stay comparable.  To keep the paper's
payload-dominated regime, per-byte and per-operation costs are the
physical Slingshot/EPYC values multiplied by ~400, and per-message
latencies are kept physical.  Simulated seconds therefore land within an
order of magnitude of the paper's Table 5 despite the smaller inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class NetworkModel:
    """Analytic communication costs of the simulated interconnect.

    Attributes:
        alpha_p2p: per-message latency of a point-to-point transfer (s).
        beta_p2p: per-byte cost of a point-to-point transfer (s/B).
        alpha_coll: per-participant latency term of a collective step (s).
        beta_coll: per-byte cost inside a collective (s/B); collectives
            pipeline well, so this is the cheapest per-byte rate.
        alpha_rget: software + round-trip overhead of one one-sided
            request (s); dominated by library/driver latency.
        beta_rget: per-byte cost of one-sided payloads (s/B); much worse
            than ``beta_coll`` because small messages defeat pipelining.
    """

    alpha_p2p: float = 3.0e-6
    beta_p2p: float = 2.4e-8
    alpha_coll: float = 4.0e-6
    beta_coll: float = 2.0e-8
    alpha_rget: float = 2.5e-5
    beta_rget: float = 3.7e-7

    def __post_init__(self) -> None:
        for name in (
            "alpha_p2p", "beta_p2p", "alpha_coll", "beta_coll",
            "alpha_rget", "beta_rget",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative: {value}"
                )

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def p2p_time(self, nbytes: int) -> float:
        """Cost of one point-to-point message (MPI_Sendrecv leg)."""
        return self.alpha_p2p + self.beta_p2p * nbytes

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def allgather_time(self, nbytes_per_rank: int, n_ranks: int) -> float:
        """Cost of a ring MPI_Allgather, per participant.

        Each rank forwards ``n_ranks - 1`` blocks of ``nbytes_per_rank``.
        """
        if n_ranks <= 1:
            return 0.0
        steps = n_ranks - 1
        return steps * (self.alpha_coll + self.beta_coll * nbytes_per_rank)

    def allreduce_time(self, nbytes: int, n_ranks: int) -> float:
        """Cost of a ring MPI_Allreduce of ``nbytes``, per participant.

        The standard reduce-scatter + allgather ring: ``2 (n - 1)``
        steps, each moving ``nbytes / n``.  This is the reduction cost
        of the 1.5D depth fibers and the 2D grid rows — the term the
        grid layouts trade against the ``~|B|`` dense-input traffic of
        the 1D layout.
        """
        if n_ranks <= 1:
            return 0.0
        steps = 2 * (n_ranks - 1)
        return steps * (self.alpha_coll + self.beta_coll * nbytes / n_ranks)

    def bcast_time(self, nbytes, n_destinations):
        """Cost of a (multi)cast of ``nbytes`` to ``n_destinations``.

        Modelled as a scatter-allgather broadcast: latency grows with
        ``log2`` of the group size, and each participant handles the
        payload roughly twice (scatter leg + allgather leg).  The
        per-participant latency term is what makes long series of
        wide multicasts expensive — the paper's observed bottleneck for
        twitter/friendster (§7.2).

        The tree depth ``ceil(log2(n + 1))`` is exactly ``n``'s bit
        length.  Both arguments may be integer arrays (one entry per
        multicast); each element then goes through the same IEEE
        operations, in the same order, as a scalar call.
        """
        if np.ndim(n_destinations) == 0:
            if n_destinations <= 0:
                return 0.0
            depth = int(n_destinations).bit_length()
            return depth * self.alpha_coll + 2.0 * self.beta_coll * nbytes
        # frexp's exponent of an integer n >= 1 is its bit length.
        depth = np.frexp(n_destinations)[1]
        cost = depth * self.alpha_coll + 2.0 * self.beta_coll * nbytes
        return np.where(np.greater(n_destinations, 0), cost, 0.0)

    # ------------------------------------------------------------------
    # One-sided
    # ------------------------------------------------------------------
    def rget_time(self, nbytes, n_chunks=1):
        """Cost of one MPI_Rget with an indexed datatype of ``n_chunks``.

        Row coalescing (§5.2.3) reduces ``n_chunks``; each chunk adds a
        fraction of the request overhead because the datatype engine
        walks it separately.  Both arguments may be equal-length integer
        arrays (one entry per request); each element then goes through
        the same IEEE operations, in the same order, as a scalar call.
        """
        if (
            n_chunks <= 0 if isinstance(n_chunks, int)
            else np.any(np.less_equal(n_chunks, 0))
        ):
            raise ConfigurationError(f"n_chunks must be positive: {n_chunks}")
        chunk_overhead = 0.15 * self.alpha_rget * (n_chunks - 1)
        return self.alpha_rget + chunk_overhead + self.beta_rget * nbytes

    def scaled(self, **factors: float) -> "NetworkModel":
        """Return a copy with named parameters multiplied by factors.

        Example: ``model.scaled(beta_rget=2.0)`` doubles the one-sided
        per-byte cost.  Used by sensitivity studies and degradation
        configs; multipliers must be finite and non-negative so a
        corrupted config fails here, not deep inside a simulation.
        """
        updates = {}
        for name, factor in factors.items():
            if not hasattr(self, name):
                raise ConfigurationError(f"unknown network parameter {name!r}")
            if not (math.isfinite(factor) and factor >= 0):
                raise ConfigurationError(
                    f"multiplier for {name} must be finite and "
                    f"non-negative: {factor}"
                )
            updates[name] = getattr(self, name) * factor
        return replace(self, **updates)


@dataclass(frozen=True)
class ComputeModel:
    """Analytic local-compute costs of a simulated node.

    Attributes:
        fma_time: seconds per scalar multiply-accumulate per thread.
        atomic_time: extra seconds per scalar element accumulated into
            shared ``C`` with a synchronised operation.
        stripe_overhead: per-stripe software cost on the async path
            (queue pop, ``UniqueColIDs`` scan, request setup) (s).
        panel_overhead: per-row-panel scheduling cost on the sync path
            (s); far smaller because panels are plain loop iterations.
        async_efficiency: utilisation factor of async-compute threads
            (atomics and irregular access waste cycles).
        sync_efficiency: utilisation factor of sync-compute threads.
    """

    fma_time: float = 1.2e-6
    atomic_time: float = 2.0e-6
    stripe_overhead: float = 4.0e-6
    panel_overhead: float = 1.0e-7
    async_efficiency: float = 0.55
    sync_efficiency: float = 0.9

    def __post_init__(self) -> None:
        if not 0 < self.async_efficiency <= 1:
            raise ConfigurationError("async_efficiency must be in (0, 1]")
        if not 0 < self.sync_efficiency <= 1:
            raise ConfigurationError("sync_efficiency must be in (0, 1]")
        for name in (
            "fma_time", "atomic_time", "stripe_overhead", "panel_overhead"
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative: {value}"
                )

    def sync_panel_time(
        self, nnz: int, k: int, rows_flushed: int, n_threads: int
    ) -> float:
        """Thread-seconds / threads for row-panel compute (Algorithm 2)."""
        if n_threads <= 0:
            raise ConfigurationError(f"n_threads must be positive: {n_threads}")
        work = (
            nnz * k * self.fma_time
            + rows_flushed * k * self.atomic_time
        )
        return work / (n_threads * self.sync_efficiency)

    def async_stripe_time(
        self, nnz: int, k: int, n_threads: int, n_stripes: int = 1
    ) -> float:
        """Compute time for async stripes (Algorithm 3): atomic per nnz."""
        if n_threads <= 0:
            raise ConfigurationError(f"n_threads must be positive: {n_threads}")
        work = nnz * k * (self.fma_time + self.atomic_time)
        return (
            work / (n_threads * self.async_efficiency)
            + n_stripes * self.stripe_overhead
        )

    def sddmm_panel_time(self, nnz: int, k: int, n_threads: int) -> float:
        """Row-panel SDDMM compute: FMA chain per nonzero, no atomics
        (every sparse output value has exactly one writer)."""
        if n_threads <= 0:
            raise ConfigurationError(f"n_threads must be positive: {n_threads}")
        return nnz * k * self.fma_time / (n_threads * self.sync_efficiency)

    def sddmm_stripe_time(
        self, nnz: int, k: int, n_threads: int, n_stripes: int = 1
    ) -> float:
        """Async-stripe SDDMM compute: irregular access but no atomics."""
        if n_threads <= 0:
            raise ConfigurationError(f"n_threads must be positive: {n_threads}")
        work = nnz * k * self.fma_time
        return (
            work / (n_threads * self.async_efficiency)
            + n_stripes * self.stripe_overhead
        )

    def scaled(self, **factors: float) -> "ComputeModel":
        """Return a copy with named parameters multiplied by factors."""
        updates = {}
        for name, factor in factors.items():
            if not hasattr(self, name):
                raise ConfigurationError(f"unknown compute parameter {name!r}")
            if not (math.isfinite(factor) and factor >= 0):
                raise ConfigurationError(
                    f"multiplier for {name} must be finite and "
                    f"non-negative: {factor}"
                )
            updates[name] = getattr(self, name) * factor
        return replace(self, **updates)
