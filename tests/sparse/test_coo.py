"""Unit tests for the COO format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.sparse import COOMatrix, erdos_renyi
from repro.sparse.coo import distinct_coords, sorted_distinct


class TestConstruction:
    def test_basic_construction(self, fixed_coo):
        assert fixed_coo.shape == (8, 8)
        assert fixed_coo.nnz == 7

    def test_empty(self):
        m = COOMatrix.empty((5, 3))
        assert m.nnz == 0
        assert m.shape == (5, 3)
        assert m.to_dense().shape == (5, 3)

    def test_arrays_cast_to_canonical_dtypes(self):
        m = COOMatrix(
            np.array([0], dtype=np.int32),
            np.array([0], dtype=np.int16),
            np.array([1], dtype=np.float32),
            (1, 1),
        )
        assert m.rows.dtype == np.int64
        assert m.cols.dtype == np.int64
        assert m.vals.dtype == np.float64

    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    def test_negative_shape_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix.empty((-1, 3))

    def test_row_out_of_bounds_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(np.array([5]), np.array([0]), np.array([1.0]), (5, 5))

    def test_col_out_of_bounds_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(np.array([0]), np.array([9]), np.array([1.0]), (5, 5))

    def test_negative_coordinate_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(np.array([-1]), np.array([0]), np.array([1.0]), (5, 5))

    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((6, 9))
        dense[dense < 0.5] = 0.0
        m = COOMatrix.from_dense(dense)
        np.testing.assert_allclose(m.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ShapeError):
            COOMatrix.from_dense(np.ones(4))

    def test_from_scipy(self, fixed_coo):
        again = COOMatrix.from_scipy(fixed_coo.to_scipy())
        assert again == fixed_coo


class TestProperties:
    def test_density(self, fixed_coo):
        assert fixed_coo.density == pytest.approx(7 / 64)

    def test_density_empty_shape(self):
        assert COOMatrix.empty((0, 0)).density == 0.0

    def test_nbytes_counts_all_arrays(self, fixed_coo):
        assert fixed_coo.nbytes() == 7 * (8 + 8 + 8)


class TestOrdering:
    def test_row_major_sort(self, fixed_coo):
        m = fixed_coo.sorted_row_major()
        keys = list(zip(m.rows, m.cols))
        assert keys == sorted(keys)

    def test_col_major_sort(self, fixed_coo):
        m = fixed_coo.sorted_col_major()
        keys = list(zip(m.cols, m.rows))
        assert keys == sorted(keys)

    def test_sorting_preserves_values(self, tiny_matrix):
        assert tiny_matrix.sorted_col_major() == tiny_matrix


class TestSlicing:
    def test_row_slab_rebases_rows(self, fixed_coo):
        slab = fixed_coo.row_slab(2, 6)
        assert slab.shape == (4, 8)
        assert set(slab.rows) == {0, 1, 3}  # global rows 2, 3, 5

    def test_row_slab_keeps_global_cols(self, fixed_coo):
        slab = fixed_coo.row_slab(5, 8)
        assert set(slab.cols) == {1, 5, 6}

    def test_row_slab_empty_range(self, fixed_coo):
        slab = fixed_coo.row_slab(4, 4)
        assert slab.nnz == 0
        assert slab.shape == (0, 8)

    def test_row_slab_bounds_check(self, fixed_coo):
        with pytest.raises(ShapeError):
            fixed_coo.row_slab(3, 100)
        with pytest.raises(ShapeError):
            fixed_coo.row_slab(-1, 3)
        with pytest.raises(ShapeError):
            fixed_coo.row_slab(5, 3)

    def test_col_slab(self, fixed_coo):
        slab = fixed_coo.col_slab(4, 7)
        assert slab.shape == (8, 3)
        # Global cols 4, 5, 6 become 0, 1, 2.
        assert set(slab.cols) <= {0, 1, 2}
        assert slab.nnz == 4

    def test_select_mask(self, fixed_coo):
        picked = fixed_coo.select(fixed_coo.vals > 4)
        assert picked.nnz == 3
        assert picked.shape == fixed_coo.shape

    def test_slabs_cover_matrix(self, tiny_matrix):
        total = sum(
            tiny_matrix.row_slab(lo, lo + 16).nnz for lo in range(0, 64, 16)
        )
        assert total == tiny_matrix.nnz


class TestDuplicates:
    def test_sum_duplicates(self):
        m = COOMatrix(
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([2.0, 3.0, 4.0]),
            (2, 2),
        )
        summed = m.sum_duplicates()
        assert summed.nnz == 2
        assert summed.to_dense()[0, 1] == 5.0

    def test_sum_duplicates_empty(self):
        m = COOMatrix.empty((3, 3))
        assert m.sum_duplicates().nnz == 0

    def test_to_dense_sums_duplicates(self):
        m = COOMatrix(
            np.array([1, 1]), np.array([1, 1]), np.array([1.5, 2.5]), (3, 3)
        )
        assert m.to_dense()[1, 1] == 4.0


class TestEquality:
    def test_equal_up_to_order(self, fixed_coo):
        perm = np.array([3, 1, 0, 2, 6, 5, 4])
        reordered = COOMatrix(
            fixed_coo.rows[perm],
            fixed_coo.cols[perm],
            fixed_coo.vals[perm],
            fixed_coo.shape,
        )
        assert reordered == fixed_coo

    def test_not_equal_different_value(self, fixed_coo):
        other = COOMatrix(
            fixed_coo.rows, fixed_coo.cols, fixed_coo.vals + 1.0,
            fixed_coo.shape,
        )
        assert other != fixed_coo

    def test_not_equal_different_shape(self, fixed_coo):
        other = COOMatrix(
            fixed_coo.rows, fixed_coo.cols, fixed_coo.vals, (9, 9)
        )
        assert other != fixed_coo

    def test_eq_other_type(self, fixed_coo):
        assert fixed_coo.__eq__(42) is NotImplemented


class TestIteration:
    def test_nonzeros_iterator(self, fixed_coo):
        entries = list(fixed_coo.nonzeros())
        assert len(entries) == 7
        assert entries[0] == (0, 0, 1.0)
        assert all(isinstance(r, int) for r, _, _ in entries)

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(32, 32, 100, seed=5)
        b = erdos_renyi(32, 32, 100, seed=5)
        assert a == b


_INT64 = st.integers(-(2**63), 2**63 - 1)


class TestSortedDistinct:
    """The generators' distinct-keys kernel against ``np.unique``."""

    @pytest.mark.parametrize("keys", [
        [], [5], [7] * 9, [-(2**63), 2**63 - 1, 0, 2**63 - 1],
    ], ids=["empty", "single", "all-equal", "extremes"])
    def test_edge_cases(self, keys):
        keys = np.array(keys, dtype=np.int64)
        out = sorted_distinct(keys.copy())
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.unique(keys))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_INT64, max_size=64), st.lists(
        st.integers(-3, 3), max_size=64
    ))
    def test_equals_np_unique(self, wide, narrow):
        # Narrow draws force duplicates, wide ones reach the int64 ends.
        keys = np.array(wide + narrow, dtype=np.int64)
        np.testing.assert_array_equal(
            sorted_distinct(keys.copy()), np.unique(keys)
        )


class TestDistinctCoords:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=40
    ))
    def test_fused_and_lexsort_paths_agree(self, pairs):
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        cols = np.array([c for _, c in pairs], dtype=np.int64)
        expected = sorted(set(pairs))
        for shape in [(8, 6), (2**32, 2**31)]:  # fused key; overflow
            r, c = distinct_coords(rows, cols, shape)
            assert list(zip(r.tolist(), c.tolist())) == expected
