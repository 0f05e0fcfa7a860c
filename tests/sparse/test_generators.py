"""Unit tests for the synthetic matrix generators."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gnn.data import planted_partition
from repro.sparse import (
    banded,
    block_local_power_law,
    compute_stats,
    diagonal,
    erdos_renyi,
    hub_skewed,
    rmat,
    suite,
    uniform_random,
)


class TestErdosRenyi:
    def test_shape_and_rough_nnz(self):
        m = erdos_renyi(100, 200, 500, seed=1)
        assert m.shape == (100, 200)
        # Dedup removes a few collisions but most survive.
        assert 400 <= m.nnz <= 500

    def test_deterministic(self):
        assert erdos_renyi(50, 50, 100, seed=9) == erdos_renyi(50, 50, 100, seed=9)

    def test_different_seeds_differ(self):
        assert erdos_renyi(50, 50, 100, seed=1) != erdos_renyi(50, 50, 100, seed=2)

    def test_zero_nnz(self):
        assert erdos_renyi(10, 10, 0, seed=1).nnz == 0

    def test_negative_nnz_rejected(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(10, 10, -1)

    def test_too_many_nnz_rejected(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(3, 3, 10)

    def test_values_in_range(self):
        m = erdos_renyi(30, 30, 100, seed=4)
        assert m.vals.min() >= 0.1 and m.vals.max() <= 1.0


class TestBanded:
    def test_band_respected(self):
        m = banded(128, bandwidth=8, avg_degree=6, seed=2)
        assert np.all(np.abs(m.rows - m.cols) <= 8)

    def test_full_diagonal(self):
        m = banded(64, bandwidth=4, avg_degree=3, seed=2)
        diag_present = set(m.rows[m.rows == m.cols])
        assert diag_present == set(range(64))

    def test_no_empty_rows(self):
        m = banded(64, bandwidth=4, avg_degree=3, seed=2)
        assert len(np.unique(m.rows)) == 64

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            banded(16, bandwidth=0, avg_degree=2)

    def test_locality_stat(self):
        stats = compute_stats(banded(512, bandwidth=8, avg_degree=6, seed=1),
                              blocks=8)
        assert stats.diag_block_fraction > 0.9


class TestBlockLocalPowerLaw:
    def test_shape(self):
        m = block_local_power_law(256, 8, block_size=32, seed=3)
        assert m.shape == (256, 256)

    def test_mostly_local(self):
        m = block_local_power_law(
            512, 10, block_size=64, local_fraction=0.9, seed=3
        )
        same_block = (m.rows // 64) == (m.cols // 64)
        assert np.mean(same_block) > 0.7

    def test_zero_local_fraction(self):
        m = block_local_power_law(
            128, 6, block_size=16, local_fraction=0.0, seed=3
        )
        assert m.nnz > 0

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            block_local_power_law(64, 4, block_size=8, local_fraction=1.5)

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            block_local_power_law(64, 4, block_size=0)

    def test_column_skew_exists(self):
        m = block_local_power_law(
            512, 10, block_size=64, local_fraction=0.5, alpha=1.8, seed=3
        )
        stats = compute_stats(m)
        assert stats.col_gini > 0.2


class TestHubSkewed:
    def test_shape_and_diag(self):
        m = hub_skewed(256, 4, n_hubs=4, seed=5)
        assert m.shape == (256, 256)
        assert len(np.unique(m.rows)) == 256  # diagonal guarantees coverage

    def test_column_skew(self):
        m = hub_skewed(512, 6, n_hubs=4, hub_fraction=0.3, seed=5)
        stats = compute_stats(m)
        assert stats.col_gini > 0.3
        assert stats.max_col_nnz > 10 * stats.avg_degree

    def test_hot_row_region(self):
        m = hub_skewed(512, 6, n_hubs=4, warm_fraction=0.6, seed=5)
        row_counts = np.bincount(m.rows, minlength=512)
        hot = row_counts[64:128].mean()
        cold = row_counts[256:].mean()
        assert hot > 2 * cold

    def test_invalid_hubs(self):
        with pytest.raises(ConfigurationError):
            hub_skewed(64, 4, n_hubs=0)
        with pytest.raises(ConfigurationError):
            hub_skewed(64, 4, n_hubs=100)

    def test_invalid_fractions(self):
        with pytest.raises(ConfigurationError):
            hub_skewed(64, 4, n_hubs=2, hub_fraction=0.6, warm_fraction=0.6)


class TestRmat:
    def test_shape_power_of_two(self):
        m = rmat(7, avg_degree=6, seed=6)
        assert m.shape == (128, 128)

    def test_degree_skew(self):
        m = rmat(9, avg_degree=8, seed=6)
        stats = compute_stats(m)
        assert stats.row_gini > 0.2  # heavy-tailed

    def test_spread_globally(self):
        m = rmat(9, avg_degree=8, seed=6)
        stats = compute_stats(m, blocks=8)
        assert stats.diag_block_fraction < 0.5

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigurationError):
            rmat(4, 2, a=0.5, b=0.4, c=0.2)

    def test_deterministic(self):
        assert rmat(6, 4, seed=1) == rmat(6, 4, seed=1)


class TestDiagonal:
    def test_identity(self):
        m = diagonal(5)
        np.testing.assert_array_equal(m.to_dense(), np.eye(5))

    def test_scaled(self):
        m = diagonal(3, value=2.5)
        np.testing.assert_array_equal(m.to_dense(), 2.5 * np.eye(3))


class TestUniformRandom:
    def test_degree(self):
        m = uniform_random(1000, avg_degree=3.0, seed=2)
        assert 2.0 <= m.nnz / 1000 <= 3.0  # dedup shaves a little

    def test_low_skew(self):
        stats = compute_stats(uniform_random(1000, 4.0, seed=2))
        assert stats.col_gini < 0.5



#: sha1 of (rows, cols, vals) of generated inputs, captured while the
#: generators still removed duplicates with ``np.unique``: every
#: benchmark input, paper table and test passes through these bytes.
PINNED_DIGESTS = {
    "arabic/tiny/3": "e1b93e3e522dd65e2b27ef07532c0c1c68f4ddc5",
    "arabic/tiny/7": "0a6a91c343e159e8df1207aad040f35f09977446",
    "arabic/small/3": "3be1b585f41b6c50d01e4b7aef9e00f0c7c6c4cd",
    "arabic/small/7": "172ecac7429b90d34f06038095f815f5c2816ba2",
    "friendster/tiny/3": "f0d2a48269864e4fccc6e663a3eb63ed4d371aed",
    "friendster/tiny/7": "2a3e6dbc6ae1d697e680d766d31e8e5a1d51c99c",
    "friendster/small/3": "64136d9aafd97705f34c595c1db181527fcb5bd2",
    "friendster/small/7": "c3568ad80baad6297477da86f9e3db4c1a8162ed",
    "kmer/tiny/3": "d1e2c5b243ae15f2f88cf0ca2bd6271c02e39843",
    "kmer/tiny/7": "95a4912e881ce426c748dfab54b4515ac782c920",
    "kmer/small/3": "7c4ff2fc38dc3966ac04ef97c0660f6ae0679d5b",
    "kmer/small/7": "c781f35780a2b1ffea13b93e482be3c3ff9f93dc",
    "mawi/tiny/3": "2d05f81604f9f052c31f2d90ac2521775a2d68da",
    "mawi/tiny/7": "0004fd9af22c0020b205fe0dd109c232f8b07e18",
    "mawi/small/3": "cdf5296254d6bd9bdab0a444687801069182ced0",
    "mawi/small/7": "7cfdfe67861266ecd1481db844ebaf13d11fd54d",
    "queen/tiny/3": "6f8eb5750dbe7972d6572d2407878c09366ccb35",
    "queen/tiny/7": "43926af07d3ddc71d57bb2d8a843ba7f5af77e4f",
    "queen/small/3": "32bda0d5266a7b547b34f7e5ab124eb454b43e9a",
    "queen/small/7": "ee94f0ef68153b2702e02b03a0590be29e0da674",
    "stokes/tiny/3": "f900ccc0340f0187033d4305edb40ab67b4db68f",
    "stokes/tiny/7": "f5b39c86c5187132e5469dfd256ffb50fc659a47",
    "stokes/small/3": "45851833864ec8065d00e5630122a95389134449",
    "stokes/small/7": "5531aea2f6abe8a9d999b986522d7fc61fad4a80",
    "twitter/tiny/3": "8fb0c8a01b3954eca093fe440ab291feba12e6a8",
    "twitter/tiny/7": "db64f2db1b780cfd1c54f404b99f82cf85b54fa2",
    "twitter/small/3": "5c05da0dc867ddad8bbdb57c17c31b20dbbf0ef9",
    "twitter/small/7": "bb4864ec5cbad1d64de79ccf9d8868ca015c716e",
    "web/tiny/3": "a8b6725b370b6a646b2b633a493d155f2a71ffac",
    "web/tiny/7": "08ccc1888ae30859179eb879f88d8a8083a313fc",
    "web/small/3": "967303f2a3cd7e1dd782e907f8a3bfd92622d4fe",
    "web/small/7": "9350e164759dad7d64e875fc082f156b597590d9",
    "queen/default/3": "6df3cbce8d336bd69347480ecbb8d60881be93ef",
    "queen/default/7": "0c55674a0c5e06e781370db3fe403cc720697b8d",
    "planted_partition/512/3": "27da4f0173c651b920a9ab4052b7c948a442702c",
    "erdos_renyi/300x1000/5": "be9d568fd1252d842e8a35208b1839f44012f184",
}


def _pinned_input(case):
    name, size, seed = case.split("/")
    if name == "planted_partition":
        return planted_partition(int(size), seed=int(seed)).adjacency
    if name == "erdos_renyi":
        n_rows, n_cols = (int(v) for v in size.split("x"))
        return erdos_renyi(n_rows, n_cols, 4000, seed=int(seed))
    return suite.load(name, size, int(seed))


@pytest.mark.parametrize("case", list(PINNED_DIGESTS))
def test_generated_bytes_pinned(case):
    matrix = _pinned_input(case)
    h = hashlib.sha1()
    for array in (matrix.rows, matrix.cols, matrix.vals):
        h.update(array.tobytes())
    assert h.hexdigest() == PINNED_DIGESTS[case]


def test_overflowing_fused_key_keeps_distinct_pairs():
    """``n_rows * n_cols >= 2**63`` would wrap ``row * n_cols + col``;
    the generator must still return exactly the distinct drawn pairs,
    row-major (a set of the same draws is the oracle)."""
    n = 2**33
    m = erdos_renyi(n, n, 20, seed=1)
    rng = np.random.default_rng(1)
    rows = rng.integers(0, n, size=20)
    cols = rng.integers(0, n, size=20)
    expected = sorted(set(zip(rows.tolist(), cols.tolist())))
    assert list(zip(m.rows.tolist(), m.cols.tolist())) == expected
    assert m.shape == (n, n)
