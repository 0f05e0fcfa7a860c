"""Megatile and sparse/dense stripe geometry (paper §4.1, Fig. 5).

The sparse matrix ``A`` (N rows, M columns, p nodes) is logically split
into *megatiles* of ``N/p`` consecutive rows by ``M/p`` consecutive
columns.  Each megatile is subdivided column-wise into *sparse stripes*
of width ``W``.  All sparse stripes covering the same column range share
one *dense stripe*: the corresponding group of rows of the dense input
``B``, owned by exactly one node.

Stripes are indexed globally: stripe ``g`` covers one column range and is
owned by the node hosting those ``B`` rows.  The pair ``(rank, g)``
identifies one sparse stripe (rank's megatile-row restricted to that
column range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..dist.oned import RowPartition
from ..errors import ConfigurationError, PartitionError
from ..sparse.coo import COOMatrix


class StripeGeometry:
    """Maps columns of ``A`` to stripes and stripes to owners.

    Args:
        n_rows: rows of ``A``.
        n_cols: columns of ``A`` (= rows of ``B``).
        n_parts: number of nodes ``p``.
        stripe_width: sparse-stripe width ``W`` in columns.
    """

    def __init__(
        self, n_rows: int, n_cols: int, n_parts: int, stripe_width: int
    ):
        if stripe_width <= 0:
            raise ConfigurationError(
                f"stripe width must be positive: {stripe_width}"
            )
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.n_parts = int(n_parts)
        self.stripe_width = int(stripe_width)
        self.row_partition = RowPartition(n_rows, n_parts)
        self.col_partition = RowPartition(n_cols, n_parts)

        # (owner, first column, end column) of every stripe, by gid:
        # ceil(width / W) stripes per part, none for an empty part.
        edges = self.col_partition.edges()
        counts = -(-np.diff(edges) // self.stripe_width)
        self._stripe_offset = np.concatenate(([0], np.cumsum(counts)))
        self._owners = np.repeat(np.arange(n_parts), counts)
        local = np.arange(len(self._owners)) - self._stripe_offset[self._owners]
        self._starts = edges[self._owners] + local * self.stripe_width
        self._stops = np.minimum(
            self._starts + self.stripe_width, edges[self._owners + 1]
        )

    # ------------------------------------------------------------------
    @property
    def n_stripes(self) -> int:
        """Total stripes across all megatile columns."""
        return len(self._owners)

    def stripes_of_part(self, part: int) -> range:
        """Global stripe ids whose dense stripe lives on ``part``."""
        if not 0 <= part < self.n_parts:
            raise PartitionError(f"part {part} out of range")
        return range(
            int(self._stripe_offset[part]),
            int(self._stripe_offset[part + 1]),
        )

    def _checked(self, gids) -> np.ndarray:
        gids = np.asarray(gids, dtype=np.int64)
        bad = (gids < 0) | (gids >= self.n_stripes)
        if bad.any():
            self._check_gid(int(gids[bad].flat[0]))
        return gids

    def _check_gid(self, gid: int) -> None:
        if not 0 <= gid < self.n_stripes:
            raise PartitionError(
                f"stripe {gid} out of range 0..{self.n_stripes - 1}"
            )

    def owners_of_stripes(self, gids: np.ndarray) -> np.ndarray:
        """Owner node of the dense stripe of every stripe in ``gids``."""
        return self._owners[self._checked(gids)]

    def col_bounds_of(self, gids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open global column ranges ``(starts, stops)`` of
        ``gids`` (narrower than ``stripe_width`` at a part's edge)."""
        gids = self._checked(gids)
        return self._starts[gids], self._stops[gids]

    def owner_of_stripe(self, gid: int) -> int:
        """Node owning the dense stripe of global stripe ``gid``."""
        self._check_gid(gid)
        return int(self._owners[gid])

    def col_bounds(self, gid: int) -> Tuple[int, int]:
        """Half-open global column range ``[start, stop)`` of ``gid``."""
        self._check_gid(gid)
        return int(self._starts[gid]), int(self._stops[gid])

    def width_of(self, gid: int) -> int:
        """Column count of stripe ``gid`` (≤ ``stripe_width`` at edges)."""
        lo, hi = self.col_bounds(gid)
        return hi - lo

    def stripes_of_cols(self, cols: np.ndarray) -> np.ndarray:
        """Vectorised column -> global stripe id."""
        cols = np.asarray(cols, dtype=np.int64)
        if len(cols) and not 0 <= cols.min() <= cols.max() < self.n_cols:
            raise PartitionError("column index outside the matrix")
        return np.searchsorted(self._starts, cols, side="right") - 1


@dataclass
class RankStripeStats:
    """Per-stripe statistics of one rank's slab of ``A``.

    Arrays are aligned: entry ``i`` describes the rank's sparse stripe
    with global id ``gids[i]`` (only stripes holding at least one of the
    rank's nonzeros appear).

    Attributes:
        rank: the owning node of these sparse stripes.
        gids: global stripe ids present in the slab, ascending.
        owners: dense-stripe owner node per stripe.
        nnz: nonzeros per stripe (the model's ``n_i``).
        rows_needed: unique dense-input rows per stripe (``l_i``).
        is_local: True where the dense stripe is rank-local (no
            communication; the *local-input* category).
        nnz_order: the slab's nonzeros in ascending (stripe, column,
            row) order — stripe by stripe, column-major within each;
            equal coordinates keep their storage order.
        nnz_group_starts: start offsets of each stripe's group within
            ``nnz_order`` (length ``len(gids) + 1``).
    """

    rank: int
    gids: np.ndarray
    owners: np.ndarray
    nnz: np.ndarray
    rows_needed: np.ndarray
    is_local: np.ndarray
    nnz_order: np.ndarray
    nnz_group_starts: np.ndarray

    @property
    def n_stripes(self) -> int:
        return int(len(self.gids))

    def stripe_nonzeros(self, idx: int, slab: COOMatrix) -> COOMatrix:
        """Extract stripe ``idx``'s nonzeros from the rank's slab."""
        lo = int(self.nnz_group_starts[idx])
        hi = int(self.nnz_group_starts[idx + 1])
        return slab.select(self.nnz_order[lo:hi])


def compute_rank_stripe_stats(
    rank: int, slab: COOMatrix, geometry: StripeGeometry
) -> RankStripeStats:
    """Order one rank's nonzeros by stripe and measure each stripe.

    The one sort of plan construction.  Stripe ids ascend with the
    column, so the slab's stable (column, row) order *is* its
    ``np.lexsort((rows, cols, gids))`` order; a stripe is a run of
    equal gids in it, ``rows_needed`` counts a run's column changes,
    and the plan's async side is the same order restricted to the
    async stripes.  The slab itself may be in any order.

    Args:
        rank: slab owner (determines which stripes are local-input).
        slab: the rank's row-rebased slab; columns are global.
        geometry: stripe geometry of the full matrix.

    Returns:
        Per-stripe statistics (empty arrays for an empty slab).
    """
    order = slab.lex_order(col_major=True)
    cols = slab.cols[order]
    nnz_gids = geometry.stripes_of_cols(cols)
    new_gid = np.ones(len(cols), dtype=bool)
    new_gid[1:] = nnz_gids[1:] != nnz_gids[:-1]
    new_col = np.ones(len(cols), dtype=bool)
    new_col[1:] = cols[1:] != cols[:-1]
    group_starts = np.append(np.flatnonzero(new_gid), len(cols))
    gids = nnz_gids[group_starts[:-1]]
    col_rank = np.concatenate(([0], np.cumsum(new_col)))
    owners = geometry.owners_of_stripes(gids)
    return RankStripeStats(
        rank=rank,
        gids=gids,
        owners=owners,
        nnz=np.diff(group_starts),
        rows_needed=np.diff(col_rank[group_starts]),
        is_local=(owners == rank),
        nnz_order=order,
        nnz_group_starts=group_starts,
    )
