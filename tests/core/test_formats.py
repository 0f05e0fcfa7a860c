"""Unit tests for the Two-Face sparse representations (Fig. 6)."""

import numpy as np
import pytest

from repro.core import (
    AsyncStripe,
    AsyncStripeMatrix,
    SyncLocalMatrix,
    build_sync_local_matrix,
)
from repro.errors import FormatError
from repro.sparse import COOMatrix, CSRMatrix
from tests.core.test_plan_construction import oracle_async_matrix


@pytest.fixture
def slab(fixed_coo):
    """Treat the fixture as one rank's slab (local rows, global cols)."""
    return fixed_coo


class TestSyncLocalMatrix:
    def test_build_from_selection(self, slab):
        sel = np.array([0, 2, 4])  # entries (0,0), (2,4), (5,1)
        m = build_sync_local_matrix(0, slab, sel, panel_height=4)
        assert m.nnz == 3
        assert m.csr.shape == slab.shape

    def test_row_major_order(self, slab):
        sel = np.arange(slab.nnz)
        m = build_sync_local_matrix(0, slab, sel, panel_height=2)
        coo = m.csr.to_coo()
        keys = list(zip(coo.rows, coo.cols))
        assert keys == sorted(keys)

    def test_panel_pointers(self, slab):
        m = build_sync_local_matrix(
            0, slab, np.arange(slab.nnz), panel_height=3
        )
        assert list(m.panel_bounds) == [0, 3, 6, 8]
        assert m.n_panels == 3

    def test_nonempty_rows(self, slab):
        m = build_sync_local_matrix(
            0, slab, np.arange(slab.nnz), panel_height=4
        )
        assert m.nonempty_rows() == 5

    def test_empty_selection(self, slab):
        m = build_sync_local_matrix(
            0, slab, np.zeros(0, dtype=np.int64), panel_height=4
        )
        assert m.nnz == 0
        assert m.nonempty_rows() == 0

    def test_invalid_panel_height(self, slab):
        with pytest.raises(FormatError):
            SyncLocalMatrix(0, CSRMatrix.empty((4, 4)), panel_height=0)

    def test_nbytes(self, slab):
        m = build_sync_local_matrix(
            0, slab, np.arange(slab.nnz), panel_height=4
        )
        assert m.nbytes() > 0


class TestAsyncStripe:
    def _stripe(self, slab, gid=3, owner=1):
        sel = np.array([1, 5])  # (0,5) and (5,5)
        coo = COOMatrix(
            slab.rows[sel], slab.cols[sel], slab.vals[sel], slab.shape
        ).sorted_col_major()
        return AsyncStripe(
            gid=gid, owner=owner, nonzeros=coo, row_ids=np.unique(coo.cols)
        )

    def test_rows_needed(self, slab):
        stripe = self._stripe(slab)
        assert stripe.rows_needed == 1  # both nonzeros share col 5
        assert stripe.nnz == 2

    def test_transfer_chunks_relative_to_block(self, slab):
        stripe = self._stripe(slab)
        chunks = stripe.transfer_chunks(block_start=4, max_gap=1)
        assert chunks == [(1, 1)]  # global row 5 = local 1 in block at 4

    def test_transfer_chunks_below_block_rejected(self, slab):
        stripe = self._stripe(slab)
        with pytest.raises(FormatError):
            stripe.transfer_chunks(block_start=6, max_gap=1)


class TestAsyncStripeMatrix:
    def test_build_groups_by_stripe(self, slab):
        sels = {
            2: (1, np.array([1, 5])),
            0: (0, np.array([0])),
        }
        m = oracle_async_matrix(0, slab, sels)
        assert m.n_stripes == 2
        assert [s.gid for s in m.stripes] == [0, 2]  # ascending gid
        assert m.nnz == 3

    def test_column_major_within_stripe(self, slab):
        sels = {1: (1, np.array([0, 1, 4, 5]))}
        m = oracle_async_matrix(0, slab, sels)
        coo = m.stripes[0].nonzeros
        keys = list(zip(coo.cols, coo.rows))
        assert keys == sorted(keys)

    def test_row_ids_sorted_unique(self, slab):
        sels = {0: (1, np.array([1, 5, 2]))}
        m = oracle_async_matrix(0, slab, sels)
        ids = m.stripes[0].row_ids
        assert np.all(np.diff(ids) > 0)

    def test_total_rows_needed(self, slab):
        sels = {
            0: (1, np.array([0])),       # col 0
            1: (2, np.array([1, 5])),    # col 5 (shared)
        }
        m = oracle_async_matrix(0, slab, sels)
        assert m.total_rows_needed == 2

    def test_stripe_pointers(self, slab):
        sels = {
            0: (1, np.array([0])),
            1: (2, np.array([1, 5, 2])),
        }
        m = oracle_async_matrix(0, slab, sels)
        assert list(m.stripe_pointers()) == [0, 1, 4]

    def test_unordered_gids_rejected(self, slab):
        good = oracle_async_matrix(
            0, slab, {0: (1, np.array([0])), 1: (2, np.array([1]))}
        )
        with pytest.raises(FormatError):
            AsyncStripeMatrix(0, list(reversed(good.stripes)))

    def test_duplicate_gids_rejected(self, slab):
        good = oracle_async_matrix(0, slab, {0: (1, np.array([0]))})
        with pytest.raises(FormatError):
            AsyncStripeMatrix(0, [good.stripes[0], good.stripes[0]])

    def test_empty(self, slab):
        m = oracle_async_matrix(0, slab, {})
        assert m.n_stripes == 0
        assert m.nnz == 0
        assert list(m.stripe_pointers()) == [0]


def _async_stripe(slab, sel, gid=3, owner=1):
    coo = COOMatrix(
        slab.rows[sel], slab.cols[sel], slab.vals[sel], slab.shape
    ).sorted_col_major()
    return AsyncStripe(
        gid=gid, owner=owner, nonzeros=coo, row_ids=np.unique(coo.cols)
    )


class TestTransferSchedule:
    def test_build_schedule_fields(self, slab):
        # Columns 0, 4, 5 with block at 0, gap 2 -> chunks (0,1), (4,2).
        stripe = _async_stripe(slab, np.array([0, 1, 2, 4, 5]))
        schedule = stripe.build_schedule(block_start=0, max_gap=2)
        np.testing.assert_array_equal(schedule.chunk_offsets, [0, 4])
        np.testing.assert_array_equal(schedule.chunk_sizes, [2, 2])
        np.testing.assert_array_equal(schedule.fetched_ids, [0, 1, 4, 5])
        np.testing.assert_array_equal(
            schedule.fetched_ids[schedule.packed], stripe.nonzeros.cols
        )
        assert schedule.chunks() == [(0, 2), (4, 2)]
        assert schedule.n_chunks == 2

    def test_schedule_matches_transfer_chunks(self, slab):
        stripe = _async_stripe(slab, np.arange(slab.nnz))
        for gap in (1, 2, 4):
            schedule = stripe.build_schedule(block_start=0, max_gap=gap)
            assert schedule.chunks() == stripe.transfer_chunks(0, gap)

    def test_below_block_rejected(self, slab):
        stripe = _async_stripe(slab, np.array([1, 5]))
        with pytest.raises(FormatError):
            stripe.build_schedule(block_start=6, max_gap=1)


class TestScheduleCaching:
    def test_ensure_schedule_counts_recompute_then_hits(self, slab):
        from repro.core import (
            reset_transfer_cache_stats,
            transfer_cache_stats,
        )

        reset_transfer_cache_stats()
        stripe = _async_stripe(slab, np.array([1, 5]))
        first = stripe.ensure_schedule(0, 1)
        second = stripe.ensure_schedule(0, 1)
        assert first is second
        assert transfer_cache_stats().snapshot() == (1, 1)

    def test_finalize_schedules_matches_per_stripe_build(self, slab):
        m = oracle_async_matrix(
            0, slab,
            {1: (0, np.array([0, 2, 3])), 2: (0, np.array([1, 5]))},
        )
        from repro.dist import RowPartition

        expected = [
            s.build_schedule(0, 2) for s in m.stripes
        ]
        m.finalize_schedules(RowPartition(8, 1), max_gap=2)
        assert m.finalized
        for stripe, want in zip(m.stripes, expected):
            got = stripe.schedule
            np.testing.assert_array_equal(
                got.chunk_offsets, want.chunk_offsets
            )
            np.testing.assert_array_equal(got.chunk_sizes, want.chunk_sizes)
            np.testing.assert_array_equal(got.fetched_ids, want.fetched_ids)
            np.testing.assert_array_equal(got.packed, want.packed)

    def test_finalize_idempotent(self, slab):
        from repro.dist import RowPartition

        m = oracle_async_matrix(0, slab, {1: (0, np.array([0, 2]))})
        m.finalize_schedules(RowPartition(8, 1), max_gap=1)
        schedule = m.stripes[0].schedule
        m.finalize_schedules(RowPartition(8, 1), max_gap=1)
        assert m.stripes[0].schedule is schedule


class TestReduceScheduleCaching:
    def test_build_matches_reduce_order(self, slab):
        from repro.sparse import build_reduce_order

        stripe = _async_stripe(slab, np.array([0, 1, 2, 4, 5]))
        schedule = stripe.build_reduce_schedule()
        order, seg_starts, out_rows = build_reduce_order(
            stripe.nonzeros.rows
        )
        np.testing.assert_array_equal(schedule.order, order)
        np.testing.assert_array_equal(schedule.seg_starts, seg_starts)
        np.testing.assert_array_equal(schedule.out_rows, out_rows)
        assert schedule.n_segments == len(out_rows)
        assert schedule.nbytes() > 0

    def test_ensure_caches(self, slab):
        stripe = _async_stripe(slab, np.array([1, 5]))
        first = stripe.ensure_reduce_schedule()
        assert stripe.ensure_reduce_schedule() is first

    def test_program_values_identity_keyed(self, slab):
        """Shallow plan clones (the attention layer's value remaps)
        share the rank program, which is pure geometry; the permuted
        values are keyed on the clone's own arrays, so a fresh value
        array must recompute rather than serve the original's memo."""
        import copy

        from repro.dist import RowPartition

        m = oracle_async_matrix(
            0, slab,
            {1: (0, np.array([0, 2, 3])), 2: (0, np.array([1, 5]))},
        )
        m.finalize_schedules(RowPartition(8, 1), max_gap=2)
        program = m.program()
        vals = np.concatenate([s.nonzeros.vals for s in m.stripes])
        perm = m.values(program)
        assert m.values(program) is perm
        np.testing.assert_array_equal(perm, vals[program.perm])

        clone = copy.copy(m)
        clone.stripes = []
        for stripe in m.stripes:
            remapped = copy.copy(stripe)
            nz = stripe.nonzeros
            remapped.nonzeros = COOMatrix(
                nz.rows, nz.cols, nz.vals * 2.0, nz.shape
            )
            clone.stripes.append(remapped)
        assert clone.program() is program  # geometry is shared
        perm2 = clone.values(program)
        assert perm2 is not perm
        np.testing.assert_array_equal(perm2, 2.0 * vals[program.perm])
        assert m.values(program) is perm  # the original's memo survives

    def test_finalize_builds_reduce_schedules(self, slab):
        from repro.dist import RowPartition

        m = oracle_async_matrix(
            0, slab,
            {1: (0, np.array([0, 2, 3])), 2: (0, np.array([1, 5]))},
        )
        assert not m.finalized
        m.finalize_schedules(RowPartition(8, 1), max_gap=2)
        assert m.finalized
        for stripe in m.stripes:
            assert stripe.reduce_schedule is not None
        # Idempotent: a second pass keeps the same objects.
        kept = [s.reduce_schedule for s in m.stripes]
        m.finalize_schedules(RowPartition(8, 1), max_gap=2)
        assert [s.reduce_schedule for s in m.stripes] == kept

    def test_missing_reduce_schedule_unfinalizes(self, slab):
        from repro.dist import RowPartition

        m = oracle_async_matrix(0, slab, {1: (0, np.array([0, 2]))})
        m.finalize_schedules(RowPartition(8, 1), max_gap=1)
        m.stripes[0].reduce_schedule = None
        assert not m.finalized


class TestSyncComputeMemos:
    def _matrix(self, slab):
        return build_sync_local_matrix(
            0, slab, np.arange(slab.nnz), panel_height=4
        )

    def test_scipy_handle_memoised_with_counters(self, slab):
        from repro.sparse import ScatterStats

        m = self._matrix(slab)
        stats = ScatterStats()
        first = m.scipy_handle(stats=stats)
        second = m.scipy_handle(stats=stats)
        assert first is second
        assert (stats.sync_csr_builds, stats.sync_csr_hits) == (1, 1)

    def test_scipy_handle_rebuilds_on_csr_swap(self, slab):
        """A value-remapped clone swaps ``csr``; the stale handle must
        not survive the shallow copy."""
        import copy

        from repro.sparse import ScatterStats

        m = self._matrix(slab)
        stats = ScatterStats()
        m.scipy_handle(stats=stats)
        clone = copy.copy(m)
        new_csr = copy.copy(m.csr)
        new_csr.data = m.csr.data * 3.0
        clone.csr = new_csr
        handle = clone.scipy_handle(stats=stats)
        np.testing.assert_array_equal(handle.data, m.csr.data * 3.0)
        assert stats.sync_csr_builds == 2
        # The original keeps its own memo.
        np.testing.assert_array_equal(
            m.scipy_handle(stats=stats).data, m.csr.data
        )

    def test_masked_handle_shares_index_arrays(self, slab, rng):
        m = self._matrix(slab)
        keep = rng.integers(0, 2, size=m.nnz).astype(np.float64)
        base = m.scipy_handle()
        masked = m.masked_handle(keep)
        assert np.shares_memory(masked.indices, base.indices)
        assert np.shares_memory(masked.indptr, base.indptr)
        np.testing.assert_array_equal(masked.data, base.data * keep)

    def test_nonempty_rows_memoised(self, slab):
        m = self._matrix(slab)
        assert m.nonempty_rows() == 5
        cached = m._nonempty
        assert m.nonempty_rows() == 5
        assert m._nonempty is cached


class TestPackedRowIndices:
    def test_clips_instead_of_overflowing(self):
        """A c_id above every fetched id must map in-range (the caller
        then detects non-coverage as a mismatch, not an IndexError)."""
        from repro.core import packed_row_indices

        fetched = np.array([2, 3, 6], dtype=np.int64)
        cols = np.array([2, 6, 9], dtype=np.int64)
        packed = packed_row_indices(fetched, cols)
        assert packed.dtype == np.int64
        assert packed.max() <= len(fetched) - 1
        # The in-coverage entries still land on their rows.
        assert fetched[packed[0]] == 2
        assert fetched[packed[1]] == 6

    def test_empty_fetched(self):
        from repro.core import packed_row_indices

        packed = packed_row_indices(
            np.zeros(0, dtype=np.int64), np.array([1, 2], dtype=np.int64)
        )
        assert len(packed) == 2  # all zeros, caller must check coverage
