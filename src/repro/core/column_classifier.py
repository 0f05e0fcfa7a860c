"""Column-based stripe classification — the §4.2 alternative.

The paper's classifier ranks each node's own stripes by ``z_i``.  §4.2
sketches an alternative it leaves for future work: "analyze columns of
stripes in the sparse matrix and classify a stripe as synchronous when
its corresponding dense stripe is needed by many nodes and, therefore,
is likely to benefit from optimized multicast operations."

This module implements that heuristic.  It is *global*: the fan-out of
a dense stripe (how many nodes hold nonzeros in its column range) is a
property of the whole matrix, so the decision is computed once and all
nodes classify the same column range the same way — unlike the paper's
per-node rule, which can make stripe column ``g`` synchronous on one
node and asynchronous on another.

The ``ablation_column_classifier`` row of ``benchmarks/paper.py``
evaluates it against the paper's model-based rule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..dist.matrices import DistSparseMatrix
from ..errors import ConfigurationError
from ..sparse.coo import sorted_distinct
from .stripes import StripeGeometry, compute_rank_stripe_stats


def stripe_fanouts(
    A: DistSparseMatrix, geometry: StripeGeometry
) -> np.ndarray:
    """Number of nodes needing each dense stripe (including its owner).

    Args:
        A: the 1D-partitioned sparse matrix.
        geometry: stripe geometry.

    Returns:
        ``int64`` array of length ``geometry.n_stripes``; entry ``g``
        counts the ranks whose slab has at least one nonzero in stripe
        ``g``'s column range.
    """
    fanout = np.zeros(geometry.n_stripes, dtype=np.int64)
    for rank in range(A.partition.n_parts):
        slab = A.slab(rank)
        if slab.nnz == 0:
            continue
        gids = sorted_distinct(geometry.stripes_of_cols(slab.cols))
        fanout[gids] += 1
    return fanout


def column_fanout_override(
    A: DistSparseMatrix,
    geometry: StripeGeometry,
    min_fanout: int = 3,
) -> Callable:
    """Build a ``classify_override`` from dense-stripe fan-outs.

    Stripes whose dense stripe is needed by at least ``min_fanout``
    nodes stay synchronous (they benefit from a multicast); all other
    remote stripes go asynchronous.

    Args:
        A: the partitioned matrix (fan-outs are computed here, once).
        geometry: stripe geometry; must match the one used during
            preprocessing.
        min_fanout: synchronous threshold (2 = any sharing at all).

    Returns:
        A function usable as ``preprocess(..., classify_override=...)``.
    """
    if min_fanout < 1:
        raise ConfigurationError(
            f"min_fanout must be at least 1: {min_fanout}"
        )
    fanout = stripe_fanouts(A, geometry)

    def override(stats, override_geometry, k):
        if override_geometry.n_stripes != geometry.n_stripes:
            raise ConfigurationError(
                "column_fanout_override built for a different geometry"
            )
        async_mask = fanout[stats.gids] < min_fanout
        return async_mask & ~stats.is_local

    return override


def auto_min_fanout(
    A: DistSparseMatrix,
    geometry: StripeGeometry,
    target_sync_fraction: float = 0.5,
) -> int:
    """Pick ``min_fanout`` so roughly a target fraction of remote
    stripes stays synchronous (a simple installation-time tuning rule).
    """
    if not 0.0 < target_sync_fraction <= 1.0:
        raise ConfigurationError(
            f"target_sync_fraction must be in (0, 1]: {target_sync_fraction}"
        )
    fanout = stripe_fanouts(A, geometry)
    samples = []
    for rank in range(A.partition.n_parts):
        stats = compute_rank_stripe_stats(rank, A.slab(rank), geometry)
        remote = ~stats.is_local
        if remote.any():
            samples.append(fanout[stats.gids[remote]])
    if not samples:
        return 1
    values = np.concatenate(samples)
    threshold = np.quantile(values, 1.0 - target_sync_fraction)
    return max(1, int(np.ceil(threshold)))
