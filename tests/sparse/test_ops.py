"""Unit tests for local SpMM kernels and coalescing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    SCATTER_ENV,
    ScatterStats,
    build_reduce_order,
    coalesce_row_id_arrays,
    coalesce_row_ids,
    coalesced_transfer_rows,
    erdos_renyi,
    expand_chunks,
    scatter_add,
    scatter_add_auto,
    scatter_add_segmented,
    scatter_mode,
    spmm_column_major,
    spmm_reference,
    spmm_row_panels,
    unique_col_ids,
)
from repro.sparse.ops import _coalesce_row_ids_reference


def dense_oracle(A: COOMatrix, B: np.ndarray) -> np.ndarray:
    return A.to_dense() @ B


class TestReference:
    def test_matches_dense_product(self, tiny_matrix, rng):
        B = rng.standard_normal((64, 5))
        np.testing.assert_allclose(
            spmm_reference(tiny_matrix, B), dense_oracle(tiny_matrix, B)
        )

    def test_rectangular(self, tiny_rect_matrix, rng):
        B = rng.standard_normal((80, 3))
        np.testing.assert_allclose(
            spmm_reference(tiny_rect_matrix, B),
            dense_oracle(tiny_rect_matrix, B),
        )

    def test_shape_mismatch(self, tiny_matrix, rng):
        with pytest.raises(ShapeError):
            spmm_reference(tiny_matrix, rng.standard_normal((63, 4)))

    def test_empty_matrix(self, rng):
        A = COOMatrix.empty((5, 5))
        B = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(spmm_reference(A, B), np.zeros((5, 4)))


class TestScatterAdd:
    def test_chunked_equals_unchunked(self, rng):
        rows = rng.integers(0, 10, size=100)
        vals = rng.standard_normal(100)
        B_rows = rng.standard_normal((100, 3))
        C1 = np.zeros((10, 3))
        scatter_add(C1, rows, vals, B_rows)
        C2 = np.zeros((10, 3))
        np.add.at(C2, rows, vals[:, None] * B_rows)
        np.testing.assert_allclose(C1, C2)

    def test_accumulates_into_existing(self, rng):
        C = np.ones((4, 2))
        scatter_add(C, np.array([1]), np.array([2.0]), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(C[1], [7.0, 9.0])

    @pytest.mark.parametrize("extra", [0, 1])
    def test_length_at_and_past_chunk_edge(self, rng, monkeypatch, extra):
        """len(rows) exactly at / one past a chunk boundary."""
        monkeypatch.setattr("repro.sparse.ops._SCATTER_CHUNK_ELEMS", 12)
        k = 3  # chunk = 12 // 3 = 4 rows
        n = 2 * 4 + extra
        rows = rng.integers(0, 6, size=n)
        vals = rng.standard_normal(n)
        B_rows = rng.standard_normal((n, k))
        C = np.zeros((6, k))
        scatter_add(C, rows, vals, B_rows)
        expected = np.zeros((6, k))
        np.add.at(expected, rows, vals[:, None] * B_rows)
        np.testing.assert_array_equal(C, expected)

    def test_zero_column_c(self, rng):
        """K=0 must not divide by zero or misindex."""
        C = np.zeros((5, 0))
        rows = rng.integers(0, 5, size=7)
        scatter_add(C, rows, rng.standard_normal(7), np.zeros((7, 0)))
        assert C.shape == (5, 0)

    def test_arena_path_bitwise_identical(self, rng, monkeypatch):
        """Arena-backed chunks equal the allocating path bit for bit."""
        from repro.cluster.buffers import FetchArena

        monkeypatch.setattr("repro.sparse.ops._SCATTER_CHUNK_ELEMS", 10)
        rows = rng.integers(0, 8, size=23)
        vals = rng.standard_normal(23)
        B_rows = rng.standard_normal((23, 5))
        plain = np.zeros((8, 5))
        scatter_add(plain, rows, vals, B_rows)
        arena = FetchArena()
        pooled = np.zeros((8, 5))
        scatter_add(pooled, rows, vals, B_rows, arena=arena)
        np.testing.assert_array_equal(plain, pooled)
        # Chunks after the first reuse the grown slot.
        assert arena.grows >= 1
        assert arena.hits >= 1


def atomic_oracle(rows, vals, B_rows, n_out):
    C = np.zeros((n_out, B_rows.shape[1]))
    np.add.at(C, rows, vals[:, None] * B_rows)
    return C


class TestBuildReduceOrder:
    def test_empty(self):
        order, seg_starts, out_rows = build_reduce_order(np.zeros(0, int))
        assert len(order) == len(seg_starts) == len(out_rows) == 0
        assert order.dtype == seg_starts.dtype == out_rows.dtype == np.int64

    def test_geometry(self, rng):
        rows = rng.integers(0, 12, size=64)
        order, seg_starts, out_rows = build_reduce_order(rows)
        # A permutation grouping equal rows, stable within each group.
        assert sorted(order.tolist()) == list(range(64))
        sorted_rows = rows[order]
        assert np.all(np.diff(sorted_rows) >= 0)
        np.testing.assert_array_equal(out_rows, np.unique(rows))
        np.testing.assert_array_equal(sorted_rows[seg_starts], out_rows)
        for row in out_rows:
            members = order[sorted_rows == row]
            np.testing.assert_array_equal(members, np.sort(members))

    def test_all_duplicates_single_segment(self):
        order, seg_starts, out_rows = build_reduce_order(np.full(9, 3))
        np.testing.assert_array_equal(order, np.arange(9))
        np.testing.assert_array_equal(seg_starts, [0])
        np.testing.assert_array_equal(out_rows, [3])


class TestSegmentedScatter:
    """Pins ``scatter_add_segmented`` against the ``np.add.at`` oracle."""

    def check(self, rows, vals, B_rows, n_out):
        got = np.zeros((n_out, B_rows.shape[1]))
        scatter_add_segmented(got, rows, vals, B_rows)
        np.testing.assert_allclose(
            got, atomic_oracle(rows, vals, B_rows, n_out), rtol=1e-12
        )
        return got

    def test_empty_stripe(self):
        stats = ScatterStats()
        C = np.ones((3, 2))
        scatter_add_segmented(
            C, np.zeros(0, int), np.zeros(0), np.zeros((0, 2)), stats=stats
        )
        np.testing.assert_array_equal(C, np.ones((3, 2)))
        assert stats.segmented_calls == 1

    def test_single_row(self, rng):
        self.check(np.array([4]), np.array([2.5]),
                   rng.standard_normal((1, 3)), 6)

    def test_all_duplicate_rows(self, rng):
        n = 50
        self.check(np.full(n, 2), rng.standard_normal(n),
                   rng.standard_normal((n, 4)), 5)

    def test_unsorted_coo_order(self, rng):
        n = 200
        rows = rng.permutation(np.repeat(np.arange(10), 20))
        self.check(rows, rng.standard_normal(n),
                   rng.standard_normal((n, 3)), 10)

    def test_masked_partial_keep(self, rng):
        """The masked path multiplies vals by keep before scattering."""
        n = 80
        rows = rng.integers(0, 7, size=n)
        vals = rng.standard_normal(n)
        keep = rng.integers(0, 2, size=n).astype(np.float64)
        B_rows = rng.standard_normal((n, 3))
        self.check(rows, vals * keep, B_rows, 7)

    def test_precomputed_schedule_matches_derived(self, rng):
        n = 120
        rows = rng.integers(0, 9, size=n)
        vals = rng.standard_normal(n)
        B_rows = rng.standard_normal((n, 4))
        derived = np.zeros((9, 4))
        scatter_add_segmented(derived, rows, vals, B_rows)
        order, seg_starts, out_rows = build_reduce_order(rows)
        precomputed = np.zeros((9, 4))
        scatter_add_segmented(
            precomputed, rows, vals, B_rows,
            order=order, seg_starts=seg_starts, out_rows=out_rows,
        )
        np.testing.assert_array_equal(derived, precomputed)

    def test_arena_path_bitwise_identical(self, rng):
        from repro.cluster.buffers import FetchArena

        n = 64
        rows = rng.integers(0, 8, size=n)
        vals = rng.standard_normal(n)
        B_rows = rng.standard_normal((n, 5))
        plain = np.zeros((8, 5))
        scatter_add_segmented(plain, rows, vals, B_rows)
        arena = FetchArena()
        pooled = np.zeros((8, 5))
        scatter_add_segmented(pooled, rows, vals, B_rows, arena=arena)
        np.testing.assert_array_equal(plain, pooled)
        assert arena.grows >= 1
        # Steady state: a second arena pass allocates nothing.
        grows = arena.grows
        scatter_add_segmented(pooled, rows, vals, B_rows, arena=arena)
        assert arena.grows == grows

    def test_repeated_runs_byte_identical(self, rng):
        """The stable permutation fixes summation order across runs."""
        n = 300
        rows = rng.integers(0, 11, size=n)
        vals = rng.standard_normal(n)
        B_rows = rng.standard_normal((n, 6))
        results = []
        for _ in range(3):
            C = np.zeros((11, 6))
            scatter_add_segmented(C, rows, vals, B_rows)
            results.append(C.tobytes())
        assert results[0] == results[1] == results[2]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_matches_atomic(self, data):
        n = data.draw(st.integers(min_value=0, max_value=120))
        n_out = data.draw(st.integers(min_value=1, max_value=15))
        k = data.draw(st.integers(min_value=0, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n_out, size=n)
        vals = rng.standard_normal(n)
        B_rows = rng.standard_normal((n, k))
        got = np.zeros((n_out, k))
        scatter_add_segmented(got, rows, vals, B_rows)
        np.testing.assert_allclose(
            got, atomic_oracle(rows, vals, B_rows, n_out),
            rtol=1e-12, atol=1e-13,
        )


class TestScatterKnob:
    def test_default_is_segmented(self, monkeypatch):
        monkeypatch.delenv(SCATTER_ENV, raising=False)
        assert scatter_mode() == "segmented"

    def test_empty_value_is_segmented(self, monkeypatch):
        monkeypatch.setenv(SCATTER_ENV, "")
        assert scatter_mode() == "segmented"

    def test_atomic_value(self, monkeypatch):
        monkeypatch.setenv(SCATTER_ENV, "atomic")
        assert scatter_mode() == "atomic"

    def test_invalid_value_rejected(self, monkeypatch):
        monkeypatch.setenv(SCATTER_ENV, "turbo")
        with pytest.raises(ConfigurationError):
            scatter_mode()

    @pytest.mark.parametrize("mode,field", [
        ("segmented", "segmented_calls"), ("atomic", "atomic_calls"),
    ])
    def test_auto_dispatch_counts(self, rng, monkeypatch, mode, field):
        monkeypatch.setenv(SCATTER_ENV, mode)
        stats = ScatterStats()
        rows = rng.integers(0, 5, size=20)
        C = np.zeros((5, 3))
        scatter_add_auto(
            C, rows, rng.standard_normal(20),
            rng.standard_normal((20, 3)), stats=stats,
        )
        assert getattr(stats, field) == 1
        assert stats.segmented_calls + stats.atomic_calls == 1

    def test_modes_allclose_on_spmm(self, tiny_matrix, rng, monkeypatch):
        B = rng.standard_normal((64, 5))
        monkeypatch.setenv(SCATTER_ENV, "segmented")
        segmented = spmm_reference(tiny_matrix, B)
        monkeypatch.setenv(SCATTER_ENV, "atomic")
        atomic = spmm_reference(tiny_matrix, B)
        np.testing.assert_allclose(segmented, atomic, rtol=1e-12)


class TestRowPanelKernel:
    def test_matches_reference(self, tiny_matrix, rng):
        B = rng.standard_normal((64, 8))
        csr = CSRMatrix.from_coo(tiny_matrix)
        C = np.zeros((64, 8))
        spmm_row_panels(csr, B, C, panel_height=16)
        np.testing.assert_allclose(C, dense_oracle(tiny_matrix, B))

    def test_accumulates(self, fixed_coo, rng):
        B = rng.standard_normal((8, 4))
        csr = CSRMatrix.from_coo(fixed_coo)
        C = np.ones((8, 4))
        spmm_row_panels(csr, B, C)
        np.testing.assert_allclose(C, 1.0 + dense_oracle(fixed_coo, B))

    @pytest.mark.parametrize("k", [1, 8, 512])
    @pytest.mark.parametrize("kernel", [True, False])
    def test_fresh_and_accumulating_bytes_are_scipys(
        self, tiny_matrix, rng, monkeypatch, k, kernel
    ):
        # fresh: C's contents are discarded and the rows summed in
        # place; otherwise scratch + one add.  Either way the bytes of
        # scipy's ``C += A @ B`` (allclose without its C kernel).
        from repro.cluster.buffers import FetchArena
        from repro.sparse import ops

        if not kernel:
            monkeypatch.setattr(ops, "_csr_matvecs", None)
        B = rng.standard_normal((64, k))
        csr = CSRMatrix.from_coo(tiny_matrix)
        product = csr.to_scipy() @ B
        start = rng.standard_normal((64, k))
        for fresh, want in ((True, 0.0 + product), (False, start + product)):
            for arena in (None, FetchArena()):
                C = start.copy()
                spmm_row_panels(csr, B, C, arena=arena, fresh=fresh)
                if kernel:
                    assert C.tobytes() == want.tobytes()
                else:
                    np.testing.assert_allclose(
                        C, want, rtol=1e-12, atol=1e-12
                    )
        C = start.copy()  # an empty operand still defines a fresh C
        spmm_row_panels(CSRMatrix.empty((64, 64)), B, C, fresh=True)
        assert not C.any()

    def test_stats_atomic_ops_count_nonempty_rows(self, fixed_coo, rng):
        B = rng.standard_normal((8, 2))
        csr = CSRMatrix.from_coo(fixed_coo)
        stats = spmm_row_panels(csr, B, np.zeros((8, 2)))
        assert stats.nnz_processed == 7
        assert stats.atomic_ops == 5  # rows 0, 2, 3, 5, 7

    def test_empty_returns_zero_stats(self, rng):
        csr = CSRMatrix.empty((4, 4))
        stats = spmm_row_panels(csr, rng.standard_normal((4, 2)), np.zeros((4, 2)))
        assert stats.nnz_processed == 0
        assert stats.atomic_ops == 0

    def test_panel_height_validation(self, fixed_coo, rng):
        csr = CSRMatrix.from_coo(fixed_coo)
        with pytest.raises(ShapeError):
            spmm_row_panels(csr, rng.standard_normal((8, 2)), np.zeros((8, 2)),
                            panel_height=0)

    def test_panel_height_does_not_change_values(self, tiny_matrix, rng):
        B = rng.standard_normal((64, 4))
        csr = CSRMatrix.from_coo(tiny_matrix)
        results = []
        for h in (1, 7, 64):
            C = np.zeros((64, 4))
            spmm_row_panels(csr, B, C, panel_height=h)
            results.append(C)
        np.testing.assert_allclose(results[0], results[1])
        np.testing.assert_allclose(results[0], results[2])


class TestColumnMajorKernel:
    def _packed(self, A: COOMatrix, B: np.ndarray):
        ids = unique_col_ids(A)
        row_map = -np.ones(B.shape[0], dtype=np.int64)
        row_map[ids] = np.arange(len(ids))
        return B[ids], row_map

    def test_matches_reference(self, tiny_matrix, rng):
        B = rng.standard_normal((64, 6))
        B_rows, row_map = self._packed(tiny_matrix, B)
        C = np.zeros((64, 6))
        stats = spmm_column_major(tiny_matrix, B_rows, row_map, C)
        np.testing.assert_allclose(C, dense_oracle(tiny_matrix, B))
        assert stats.atomic_ops == tiny_matrix.nnz

    def test_missing_rows_raise(self, fixed_coo, rng):
        B = rng.standard_normal((8, 2))
        row_map = -np.ones(8, dtype=np.int64)  # nothing fetched
        with pytest.raises(ShapeError):
            spmm_column_major(fixed_coo, B[:0], row_map, np.zeros((8, 2)))

    def test_empty_stripe(self, rng):
        A = COOMatrix.empty((4, 4))
        stats = spmm_column_major(
            A, np.zeros((0, 2)), -np.ones(4, dtype=np.int64), np.zeros((4, 2))
        )
        assert stats.nnz_processed == 0

    def test_shape_mismatch(self, fixed_coo, rng):
        B = rng.standard_normal((8, 2))
        B_rows, row_map = self._packed(fixed_coo, B)
        with pytest.raises(ShapeError):
            spmm_column_major(fixed_coo, B_rows, row_map, np.zeros((8, 3)))

    def test_rows_written(self, fixed_coo, rng):
        B = rng.standard_normal((8, 2))
        B_rows, row_map = self._packed(fixed_coo, B)
        stats = spmm_column_major(fixed_coo, B_rows, row_map, np.zeros((8, 2)))
        assert stats.rows_written == 5


class TestUniqueColIds:
    def test_sorted_unique(self, fixed_coo):
        ids = unique_col_ids(fixed_coo)
        assert list(ids) == [0, 1, 3, 4, 5, 6]

    def test_empty(self):
        assert len(unique_col_ids(COOMatrix.empty((3, 3)))) == 0


class TestCoalescing:
    def test_paper_example_adjacent_only(self):
        chunks = coalesce_row_ids(np.array([2, 3, 6, 8]), max_gap=1)
        assert chunks == [(2, 2), (6, 1), (8, 1)]

    def test_paper_example_gap_two(self):
        chunks = coalesce_row_ids(np.array([2, 3, 6, 8]), max_gap=2)
        assert chunks == [(2, 2), (6, 3)]

    def test_single_row(self):
        assert coalesce_row_ids(np.array([5])) == [(5, 1)]

    def test_empty(self):
        assert coalesce_row_ids(np.array([], dtype=np.int64)) == []

    def test_all_adjacent(self):
        assert coalesce_row_ids(np.arange(10)) == [(0, 10)]

    def test_huge_gap_merges_everything(self):
        chunks = coalesce_row_ids(np.array([0, 100]), max_gap=1000)
        assert chunks == [(0, 101)]

    def test_unsorted_rejected(self):
        with pytest.raises(ShapeError):
            coalesce_row_ids(np.array([3, 1]))

    def test_duplicates_rejected(self):
        with pytest.raises(ShapeError):
            coalesce_row_ids(np.array([1, 1]))

    def test_invalid_gap(self):
        with pytest.raises(ShapeError):
            coalesce_row_ids(np.array([1]), max_gap=0)

    def test_chunks_cover_all_ids(self, rng):
        ids = np.unique(rng.integers(0, 1000, size=200))
        for gap in (1, 2, 5):
            chunks = coalesce_row_ids(ids, max_gap=gap)
            covered = set()
            for start, size in chunks:
                covered.update(range(start, start + size))
            assert set(ids) <= covered

    def test_transfer_rows_at_least_ids(self, rng):
        ids = np.unique(rng.integers(0, 500, size=80))
        chunks = coalesce_row_ids(ids, max_gap=3)
        assert coalesced_transfer_rows(chunks) >= len(ids)

    def test_gap1_transfers_exactly_ids(self, rng):
        ids = np.unique(rng.integers(0, 500, size=80))
        chunks = coalesce_row_ids(ids, max_gap=1)
        assert coalesced_transfer_rows(chunks) == len(ids)

#: Sorted-unique row-id arrays for the coalescing property tests.
row_id_arrays = st.lists(
    st.integers(0, 2000), min_size=0, max_size=120, unique=True
).map(lambda ids: np.array(sorted(ids), dtype=np.int64))


class TestCoalesceArrays:
    """The vectorised formulation against the scalar reference."""

    @settings(max_examples=60, deadline=None)
    @given(ids=row_id_arrays, max_gap=st.sampled_from([1, 2, 4]))
    def test_matches_scalar_reference(self, ids, max_gap):
        offsets, sizes = coalesce_row_id_arrays(ids, max_gap=max_gap)
        expected = _coalesce_row_ids_reference(ids, max_gap=max_gap)
        assert list(zip(offsets.tolist(), sizes.tolist())) == expected

    @pytest.mark.parametrize(
        "max_gap,expected",
        [
            (1, [(2, 2), (6, 1), (8, 1)]),
            (2, [(2, 2), (6, 3)]),
            (4, [(2, 7)]),
        ],
    )
    def test_paper_example(self, max_gap, expected):
        """§5.2.3's running example {2, 3, 6, 8} at several gaps."""
        ids = np.array([2, 3, 6, 8])
        offsets, sizes = coalesce_row_id_arrays(ids, max_gap=max_gap)
        assert list(zip(offsets.tolist(), sizes.tolist())) == expected
        assert coalesce_row_ids(ids, max_gap=max_gap) == expected

    def test_empty_returns_int64(self):
        offsets, sizes = coalesce_row_id_arrays(np.array([], dtype=np.int64))
        assert offsets.dtype == np.int64 and sizes.dtype == np.int64
        assert len(offsets) == 0 and len(sizes) == 0

    def test_validation_mirrors_scalar(self):
        with pytest.raises(ShapeError):
            coalesce_row_id_arrays(np.array([3, 1]))
        with pytest.raises(ShapeError):
            coalesce_row_id_arrays(np.array([1, 1]))
        with pytest.raises(ShapeError):
            coalesce_row_id_arrays(np.array([1]), max_gap=0)


class TestExpandChunks:
    def test_expansion_covers_chunks_in_order(self):
        offsets = np.array([2, 6], dtype=np.int64)
        sizes = np.array([2, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            expand_chunks(offsets, sizes), [2, 3, 6, 7, 8]
        )

    @settings(max_examples=60, deadline=None)
    @given(ids=row_id_arrays, max_gap=st.sampled_from([1, 2, 4]))
    def test_roundtrips_coalescing(self, ids, max_gap):
        """Expanding the chunks yields every id (plus gap filler)."""
        offsets, sizes = coalesce_row_id_arrays(ids, max_gap=max_gap)
        fetched = expand_chunks(offsets, sizes)
        assert fetched.dtype == np.int64
        # Sorted ascending, ids a subsequence, gap-1 exact.
        assert np.all(np.diff(fetched) > 0)
        assert np.all(np.isin(ids, fetched))
        if max_gap == 1:
            np.testing.assert_array_equal(fetched, ids)

    def test_empty(self):
        out = expand_chunks(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert out.dtype == np.int64 and len(out) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            expand_chunks(np.array([0, 5]), np.array([2]))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ShapeError):
            expand_chunks(np.array([0]), np.array([0]))


class TestKernelStats:
    def test_kernel_stats_merge(self):
        from repro.sparse import KernelStats

        merged = KernelStats(1, 2, 3).merge(KernelStats(10, 20, 30))
        assert (merged.nnz_processed, merged.atomic_ops, merged.rows_written) \
            == (11, 22, 33)
