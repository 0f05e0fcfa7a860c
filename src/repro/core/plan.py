"""The Two-Face execution plan: everything preprocessing produces.

A :class:`TwoFacePlan` bundles, for every rank, the sync/local-input
matrix, the async stripe matrix, and the classification summary — plus
the global dense-stripe *metadata*: for each dense stripe, the list of
nodes that will receive it in a collective multicast (paper §5.1: "for
each dense stripe of B, the preprocessing step generates metadata
containing a list of nodes that are destinations of the collective
transfer of that stripe").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from ..errors import PartitionError
from ..runtime.threads import max_coalescing_gap
from .classifier import RankClassification
from .formats import AsyncStripeMatrix, SyncLocalMatrix
from .model import CostCoefficients
from .stripes import StripeGeometry


@dataclass
class RankPlan:
    """One rank's share of the plan."""

    rank: int
    sync_local: SyncLocalMatrix
    async_matrix: AsyncStripeMatrix
    classification: RankClassification
    #: Global stripe ids this rank must receive synchronously.
    sync_stripe_gids: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def nnz(self) -> int:
        return self.sync_local.nnz + self.async_matrix.nnz


@dataclass(frozen=True)
class SyncProgram:
    """The plan's dense-stripe multicasts as one batched program.

    Derived from :attr:`TwoFacePlan.stripe_destinations` (which stays
    the source of truth and the serialised form) and the geometry's
    stripe table: the stripes with at least one receiver other than
    their owner, in ascending gid — the order the sync lane issues
    them.  Execution, accounting and pricing all read these arrays.

    Attributes:
        n_nodes: ranks of the plan.
        owners: root rank of each multicast.
        col_lo / col_hi: the dense rows (columns of ``A``) it carries.
        recv_ptr / recv_ranks: receiver CSR — multicast ``i`` goes to
            ``recv_ranks[recv_ptr[i]:recv_ptr[i + 1]]`` (owner
            excluded, order as in ``stripe_destinations``).
    """

    n_nodes: int
    owners: np.ndarray
    col_lo: np.ndarray
    col_hi: np.ndarray
    recv_ptr: np.ndarray
    recv_ranks: np.ndarray

    @classmethod
    def build(
        cls, geometry: StripeGeometry,
        stripe_destinations: Dict[int, List[int]],
    ) -> "SyncProgram":
        gids = np.array(
            sorted(g for g, d in stripe_destinations.items() if d),
            dtype=np.int64,
        )
        dests = [stripe_destinations[g] for g in gids.tolist()]
        counts = np.fromiter(map(len, dests), np.int64, len(dests))
        ranks = np.fromiter(
            chain.from_iterable(dests), np.int64, int(counts.sum())
        )
        stripe_of = np.repeat(np.arange(len(gids)), counts)
        remote = ranks != geometry.owners_of_stripes(gids)[stripe_of]
        fanout = np.bincount(stripe_of[remote], minlength=len(gids))
        gids, fanout = gids[fanout > 0], fanout[fanout > 0]
        return cls(
            geometry.n_parts, geometry.owners_of_stripes(gids),
            *geometry.col_bounds_of(gids),
            np.concatenate(([0], np.cumsum(fanout))), ranks[remote],
        )

    def prefix(self, n_casts: int) -> "SyncProgram":
        """The program of the first ``n_casts`` multicasts only (what
        was issued when a receiver ran out of memory mid-lane)."""
        return SyncProgram(
            self.n_nodes, self.owners[:n_casts], self.col_lo[:n_casts],
            self.col_hi[:n_casts], self.recv_ptr[:n_casts + 1],
            self.recv_ranks[:self.recv_ptr[n_casts]],
        )

    @property
    def fanout(self) -> np.ndarray:
        """Receivers per multicast (all >= 1)."""
        return np.diff(self.recv_ptr)

    @cached_property
    def fold(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, ptr)`` grouping the lane's cost terms — per
        multicast the owner's, then one per receiver — by the node
        that pays them, issue order kept: node ``r`` pays terms
        ``order[ptr[r]:ptr[r + 1]]``."""
        payers = np.insert(self.recv_ranks, self.recv_ptr[:-1], self.owners)
        order = np.argsort(payers, kind="stable")
        return order, np.searchsorted(
            payers[order], np.arange(self.n_nodes + 1)
        )

    def payload_bytes(self, k: int) -> np.ndarray:
        """Bytes each multicast carries at dense width ``k`` — the only
        quantity of the lane that depends on the run."""
        return (self.col_hi - self.col_lo) * (k * 8)

    def received_bytes(self, k: int) -> np.ndarray:
        """Bytes each rank receives over the whole lane at width ``k``
        (int64; the float64 sums are exact below 2**53 B)."""
        return np.bincount(
            self.recv_ranks, np.repeat(self.payload_bytes(k), self.fanout),
            self.n_nodes,
        ).astype(np.int64)


@dataclass
class TwoFacePlan:
    """Complete preprocessing output for one (matrix, machine, K) tuple.

    Attributes:
        geometry: stripe geometry used.
        coeffs: model coefficients used for classification.
        k: dense column count the plan was built for.
        panel_height: sync row-panel height.
        ranks: per-rank plans, rank order.
        stripe_destinations: gid -> sorted destination ranks of the
            collective transfer (empty / absent gid = no multicast).
        grid: process-grid layout the plan was built for (None = the
            plain 1D layout; for a 1.5D/2D run this is the full grid
            while the plan itself covers one ``p_r``-rank layer).
    """

    geometry: StripeGeometry
    coeffs: CostCoefficients
    k: int
    panel_height: int
    ranks: List[RankPlan]
    stripe_destinations: Dict[int, List[int]]
    grid: object = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.geometry.n_parts

    @cached_property
    def sync_program(self) -> SyncProgram:
        """The multicast table of ``stripe_destinations``: built once,
        derived state that is never serialised."""
        return SyncProgram.build(self.geometry, self.stripe_destinations)

    @property
    def grid_spec(self):
        """The plan's grid, with None normalised to ``Grid1D``."""
        if self.grid is not None:
            return self.grid
        from ..dist.grid import Grid1D

        return Grid1D(self.geometry.n_parts)

    def rank_plan(self, rank: int) -> RankPlan:
        if not 0 <= rank < len(self.ranks):
            raise PartitionError(f"rank {rank} out of range")
        return self.ranks[rank]

    # ------------------------------------------------------------------
    # Cached transfer schedules
    # ------------------------------------------------------------------
    @property
    def finalized(self) -> bool:
        """True when every async stripe carries its transfer schedule."""
        return all(r.async_matrix.finalized for r in self.ranks)

    def ensure_finalized(self) -> None:
        """Precompute any missing transfer schedules (idempotent).

        The schedules depend only on the plan's own geometry and K, so
        they are part of the preprocessing product; :func:`preprocess`
        builds them eagerly and this method exists for plans assembled
        by other paths (hand-built tests, legacy deserialisation).
        """
        gap = max_coalescing_gap(self.k)
        for rank_plan in self.ranks:
            rank_plan.async_matrix.finalize_schedules(
                self.geometry.col_partition, gap
            )

    # ------------------------------------------------------------------
    # Aggregates used by reporting and tests
    # ------------------------------------------------------------------
    def total_sync_stripes(self) -> int:
        return sum(r.classification.n_sync for r in self.ranks)

    def total_async_stripes(self) -> int:
        return sum(r.classification.n_async for r in self.ranks)

    def total_local_stripes(self) -> int:
        return sum(r.classification.n_local for r in self.ranks)

    def total_async_rows(self) -> int:
        """Dense rows moved one-sided across all ranks (sum of L_A)."""
        return sum(r.classification.rows_async for r in self.ranks)

    def multicast_fanouts(self) -> List[int]:
        """Recipient count of every collective transfer (§7.2 profile)."""
        return [len(d) for d in self.stripe_destinations.values() if d]

    def mean_multicast_fanout(self) -> float:
        fanouts = self.multicast_fanouts()
        return float(np.mean(fanouts)) if fanouts else 0.0

    def sync_recv_rows(self, rank: int) -> int:
        """Dense rows rank receives via multicast (its remote sync gids)."""
        lo, hi = self.geometry.col_bounds_of(
            self.rank_plan(rank).sync_stripe_gids
        )
        return int((hi - lo).sum())

    def plan_nbytes(self) -> int:
        """Memory footprint of the preprocessed representation.

        Counts the Fig. 6 matrices and multicast metadata only — the
        cached transfer schedules are derivable accelerator state and
        are excluded so the Table 6 I/O cost model matches the paper's
        bespoke on-disk format.
        """
        total = 0
        for r in self.ranks:
            total += r.sync_local.nbytes() + r.async_matrix.nbytes()
        total += sum(
            8 * len(d) for d in self.stripe_destinations.values()
        )
        return total
