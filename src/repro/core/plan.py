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
from typing import Dict, List

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
