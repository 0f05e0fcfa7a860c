"""Synthetic sparse-matrix generators.

The paper evaluates on eight large SuiteSparse matrices (Table 1).  Those
inputs are not available offline, so :mod:`repro.sparse.suite` builds
scaled-down analogues from the structural generators here.  Each generator
targets one structural *class*, because which communication flavour wins
(collectives vs. one-sided; Fig. 2) is decided by structure, not size:

* :func:`banded` — FEM/mesh matrices (queen, stokes): nonzeros hug the
  diagonal, so under 1D partitioning almost all input rows are local.
* :func:`block_local_power_law` — web crawls (web, arabic): host-locality
  blocks near the diagonal plus a power-law sprinkling of remote links.
* :func:`hub_skewed` — traffic traces (mawi): a handful of extremely hot
  rows/columns and an otherwise ultra-sparse body; induces load imbalance.
* :func:`uniform_random` — k-mer/de Bruijn graphs (kmer): near-uniform,
  very low density, few nonzeros per stripe.
* :func:`rmat` — social networks (twitter, friendster): skewed power-law
  degrees with nonzeros spread across the whole matrix, so most dense
  stripes are needed by most nodes.

All generators take an explicit ``seed`` and are deterministic for a
given argument tuple.  Each draws coordinates, keeps the distinct ones
in ascending (row, col) order with
:func:`~repro.sparse.coo.distinct_coords` (one fused int64 key built
in place, sorted in place, split by one ``np.divmod``; ``np.lexsort``
when ``n_rows * n_cols`` overflows int64), and only then draws values
from the same generator.  ``np.unique`` is not used: on numpy >= 2.3
it hashes integer keys, 20-60x slower than the sort here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .coo import COOMatrix, distinct_coords


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dedupe(
    rows: np.ndarray, cols: np.ndarray, n: int, m: int,
    rng: np.random.Generator,
) -> COOMatrix:
    """The ``n x m`` matrix of the distinct drawn coordinates, row-major,
    with uniform(0.1, 1.0) values drawn from ``rng`` afterwards."""
    rows, cols = distinct_coords(rows, cols, (n, m))
    vals = rng.uniform(0.1, 1.0, size=len(rows))
    return COOMatrix(rows, cols, vals, (n, m))


def erdos_renyi(
    n_rows: int, n_cols: int, nnz: int, seed: Optional[int] = None
) -> COOMatrix:
    """Uniformly random matrix with approximately ``nnz`` nonzeros."""
    if nnz < 0:
        raise ConfigurationError(f"nnz must be non-negative, got {nnz}")
    if nnz > n_rows * n_cols:
        raise ConfigurationError(
            f"cannot place {nnz} nonzeros in a {n_rows}x{n_cols} matrix"
        )
    rng = _rng(seed)
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    return _dedupe(rows, cols, n_rows, n_cols, rng)


def uniform_random(
    n: int, avg_degree: float, seed: Optional[int] = None
) -> COOMatrix:
    """Square near-uniform matrix with ``avg_degree`` nonzeros per row.

    This is the *kmer*-class structure: so sparse that every stripe needs
    only a few dense rows, which favours fine-grained one-sided fetches.
    """
    nnz = int(round(n * avg_degree))
    return erdos_renyi(n, n, nnz, seed=seed)


def banded(
    n: int,
    bandwidth: int,
    avg_degree: float,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Square banded matrix: nonzeros within ``bandwidth`` of the diagonal.

    This is the *queen/stokes*-class structure.  Under 1D partitioning a
    narrow band means nearly every needed dense-input row is node-local,
    and the few remote stripes sit at partition boundaries.
    """
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive: {bandwidth}")
    rng = _rng(seed)
    nnz = int(round(n * avg_degree))
    rows = rng.integers(0, n, size=nnz)
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=nnz)
    cols = np.clip(rows + offsets, 0, n - 1)
    # Guarantee a full diagonal so no row is empty.
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    return _dedupe(rows, cols, n, n, rng)


def block_local_power_law(
    n: int,
    avg_degree: float,
    block_size: int,
    local_fraction: float = 0.85,
    alpha: float = 1.6,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Web-crawl-like matrix: diagonal-block locality + power-law columns.

    ``local_fraction`` of each row's links land inside its diagonal block
    of ``block_size`` (pages of the same host); the remainder target
    columns drawn from a Zipf-like distribution with exponent ``alpha``
    (popular pages).  This is the *web/arabic*-class structure: mostly
    local stripes, a few globally hot dense stripes worth multicasting,
    and a long sparse tail best served one-sided.
    """
    if not 0.0 <= local_fraction <= 1.0:
        raise ConfigurationError(
            f"local_fraction must be in [0, 1]: {local_fraction}"
        )
    if block_size <= 0:
        raise ConfigurationError(f"block_size must be positive: {block_size}")
    rng = _rng(seed)
    nnz = int(round(n * avg_degree))
    rows = rng.integers(0, n, size=nnz)
    local_mask = rng.random(nnz) < local_fraction
    cols = np.empty(nnz, dtype=np.int64)

    block_start = (rows // block_size) * block_size
    block_len = np.minimum(block_start + block_size, n) - block_start
    cols_local = block_start + (
        rng.random(nnz) * block_len
    ).astype(np.int64)
    cols[local_mask] = cols_local[local_mask]

    n_remote = int(np.count_nonzero(~local_mask))
    cols[~local_mask] = zipf_column_sample(n, n_remote, alpha, rng)

    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    return _dedupe(rows, cols, n, n, rng)


def zipf_column_sample(
    n: int, count: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` column ids with a Zipf(alpha) popularity profile.

    Column popularity rank is a fixed pseudo-random permutation of the id
    space, so hot columns are scattered rather than clustered at 0.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    # Inverse-CDF sampling of a truncated zeta distribution.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(count)
    sampled_ranks = np.searchsorted(cdf, draws)
    # Scatter ranks across the id space deterministically.
    perm = np.random.default_rng(0xC0FFEE ^ n).permutation(n)
    return perm[sampled_ranks]


def hub_skewed(
    n: int,
    avg_degree: float,
    n_hubs: int,
    hub_fraction: float = 0.15,
    warm_fraction: float = 0.5,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Traffic-trace-like matrix (*mawi* class).

    Three nonzero populations reproduce the trace structure:

    * *hubs* — ``hub_fraction`` of nonzeros hit one of ``n_hubs`` ultra
      hot columns (backbone endpoints); these dense columns end up in
      synchronous stripes.
    * *warm region* — ``warm_fraction`` of nonzeros pair rows from one
      hot row region (the nodes owning the heavy flows) with a moderate
      set of warm columns.  The resulting stripes are moderately dense:
      cheap-looking to a stripe classifier, expensive to compute
      column-major — the paper's mawi async-compute pathology, plus the
      load imbalance that ruins everyone's scaling on this matrix.
    * *body* — the remaining nonzeros, uniform background noise.
    """
    if n_hubs <= 0 or n_hubs > n:
        raise ConfigurationError(f"n_hubs must be in 1..{n}: {n_hubs}")
    if hub_fraction + warm_fraction > 1.0:
        raise ConfigurationError(
            "hub_fraction + warm_fraction must be <= 1"
        )
    rng = _rng(seed)
    nnz = int(round(n * avg_degree))
    hub_ids = rng.choice(n, size=n_hubs, replace=False)

    n_hub_nnz = int(round(nnz * hub_fraction))
    n_warm = int(round(nnz * warm_fraction))
    n_body = nnz - n_hub_nnz - n_warm

    hub_cols = rng.choice(hub_ids, size=n_hub_nnz)
    hub_rows = rng.integers(0, n, size=n_hub_nnz)

    # Hot rows cluster in one region of the matrix (a few unlucky nodes).
    hot_lo = n // 8
    hot_hi = max(hot_lo + 1, n // 4)
    warm_cols_pool = rng.choice(n, size=max(4, n // 16), replace=False)
    warm_rows = rng.integers(hot_lo, hot_hi, size=n_warm)
    warm_cols = rng.choice(warm_cols_pool, size=n_warm)

    body_rows = rng.integers(0, n, size=n_body)
    body_cols = rng.integers(0, n, size=n_body)

    rows = np.concatenate([hub_rows, warm_rows, body_rows])
    cols = np.concatenate([hub_cols, warm_cols, body_cols])
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    return _dedupe(rows, cols, n, n, rng)


def rmat(
    scale: int,
    avg_degree: float,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Recursive-MATrix (R-MAT) power-law graph generator.

    Produces the *twitter/friendster*-class structure: heavy-tailed
    degrees with edges spread across the whole adjacency matrix, so most
    dense stripes are needed by many nodes and collectives win.

    Args:
        scale: matrix dimension is ``2**scale``.
        avg_degree: target nonzeros per row.
        a, b, c: R-MAT quadrant probabilities (d = 1 - a - b - c).
        seed: RNG seed.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ConfigurationError(f"invalid R-MAT probabilities {(a, b, c, d)}")
    n = 1 << scale
    nnz = int(round(n * avg_degree))
    rng = _rng(seed)
    rows = np.zeros(nnz, dtype=np.int64)
    cols = np.zeros(nnz, dtype=np.int64)
    for _ in range(scale):
        rows <<= 1
        cols <<= 1
        draws = rng.random(nnz)
        # Quadrants: a=(0,0) b=(0,1) c=(1,0) d=(1,1).
        in_b = (draws >= a) & (draws < a + b)
        in_c = (draws >= a + b) & (draws < a + b + c)
        in_d = draws >= a + b + c
        cols += (in_b | in_d).astype(np.int64)
        rows += (in_c | in_d).astype(np.int64)
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    return _dedupe(rows, cols, n, n, rng)


def diagonal(n: int, value: float = 1.0) -> COOMatrix:
    """Identity-patterned matrix, useful as a fixture."""
    idx = np.arange(n, dtype=np.int64)
    return COOMatrix(idx, idx.copy(), np.full(n, value), (n, n))
