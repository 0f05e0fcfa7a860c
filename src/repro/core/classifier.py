"""Stripe classification (paper §4.2).

Each node independently classifies its remote-input stripes: sort by
``z_i`` ascending and flip stripes to asynchronous while the cumulative
flipped cost stays below the budget ``S_T (beta_S W K + alpha_S)``.  The
result approximately equalises the synchronous and asynchronous lane
times while minimising the number of (constant-cost) synchronous
stripes.

A memory-pressure fallback (paper §6.3) flips *additional* stripes to
async when the dense stripes a node would receive synchronously do not
fit in its remaining memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .model import CostCoefficients
from .stripes import RankStripeStats, StripeGeometry


@dataclass
class RankClassification:
    """Classification outcome for one rank.

    Attributes:
        rank: the node.
        async_mask: aligned with ``stats.gids``; True = asynchronous.
            Local-input stripes are always False (they are neither sync
            nor async — they need no communication).
        remote_mask: aligned with ``stats.gids``; True where the stripe's
            dense stripe is remote (communication required).
        n_sync / n_async / n_local: stripe counts by category.
        rows_async: total dense rows fetched one-sided (``L_A``).
        nnz_async: total nonzeros in async stripes (``N_A``).
        memory_flips: stripes flipped async by the memory fallback.
    """

    rank: int
    async_mask: np.ndarray
    remote_mask: np.ndarray
    n_sync: int
    n_async: int
    n_local: int
    rows_async: int
    nnz_async: int
    memory_flips: int

    @property
    def sync_mask(self) -> np.ndarray:
        """True where a stripe is synchronous (remote, not async)."""
        return self.remote_mask & ~self.async_mask


def classify_rank_stripes(
    stats: RankStripeStats,
    geometry: StripeGeometry,
    coeffs: CostCoefficients,
    k: int,
    sync_memory_budget: Optional[int] = None,
    dense_itemsize: int = 8,
) -> RankClassification:
    """Classify one rank's stripes as sync/async/local-input.

    Args:
        stats: per-stripe statistics of the rank's slab.
        geometry: stripe geometry (for widths).
        coeffs: calibrated model coefficients.
        k: dense-matrix column count.
        sync_memory_budget: bytes available for synchronously received
            dense stripes; ``None`` disables the fallback.
        dense_itemsize: bytes per dense element.

    Returns:
        The classification, including ``L_A`` and ``N_A`` for the plan.
    """
    if k <= 0:
        raise ConfigurationError(f"K must be positive: {k}")
    remote = ~stats.is_local
    n_remote = int(np.count_nonzero(remote))
    async_mask = np.zeros(stats.n_stripes, dtype=bool)
    memory_flips = 0

    if n_remote:
        w = geometry.stripe_width
        scores = coeffs.stripe_scores(stats.rows_needed, stats.nnz, w, k)
        remote_idx = np.flatnonzero(remote)
        order = remote_idx[np.argsort(scores[remote_idx], kind="stable")]
        budget = coeffs.sync_budget(n_remote, w, k)
        cumulative = np.cumsum(scores[order])
        # Greatest r with sum of the first r scores within budget.
        n_flip = int(np.searchsorted(cumulative, budget, side="right"))
        async_mask[order[:n_flip]] = True

        if sync_memory_budget is not None:
            lo, hi = geometry.col_bounds_of(stats.gids)
            widths = hi - lo
            sync_bytes = int(
                (widths * remote * ~async_mask).sum() * k * dense_itemsize
            )
            pos = n_flip
            while sync_bytes > sync_memory_budget and pos < len(order):
                idx = order[pos]
                async_mask[idx] = True
                sync_bytes -= int(widths[idx]) * k * dense_itemsize
                memory_flips += 1
                pos += 1

    rows_async = int(stats.rows_needed[async_mask].sum())
    nnz_async = int(stats.nnz[async_mask].sum())
    n_async = int(np.count_nonzero(async_mask))
    return RankClassification(
        rank=stats.rank,
        async_mask=async_mask,
        remote_mask=remote,
        n_sync=n_remote - n_async,
        n_async=n_async,
        n_local=stats.n_stripes - n_remote,
        rows_async=rows_async,
        nnz_async=nnz_async,
        memory_flips=memory_flips,
    )
