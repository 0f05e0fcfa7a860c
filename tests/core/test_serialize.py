"""Unit tests for plan persistence (§7.3's bespoke binary format)."""

import io

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import TwoFace
from repro.core import preprocess
from repro.core.serialize import PLAN_FORMAT_VERSION, load_plan, save_plan
from repro.dist import DistSparseMatrix, RowPartition
from repro.errors import FormatError
from repro.sparse import erdos_renyi, spmm_reference, write_arrays


@pytest.fixture
def plan(tiny_matrix):
    dist = DistSparseMatrix(tiny_matrix, RowPartition(64, 4))
    plan, _ = preprocess(dist, k=16, stripe_width=4)
    return plan


def roundtrip(plan):
    buf = io.BytesIO()
    save_plan(plan, buf)
    buf.seek(0)
    return load_plan(buf)


class TestRoundtrip:
    def test_geometry_preserved(self, plan):
        again = roundtrip(plan)
        assert again.geometry.n_rows == plan.geometry.n_rows
        assert again.geometry.n_cols == plan.geometry.n_cols
        assert again.geometry.n_parts == plan.geometry.n_parts
        assert again.geometry.stripe_width == plan.geometry.stripe_width
        assert again.k == plan.k
        assert again.panel_height == plan.panel_height

    def test_coefficients_preserved(self, plan):
        again = roundtrip(plan)
        assert again.coeffs == plan.coeffs

    def test_destinations_preserved(self, plan):
        again = roundtrip(plan)
        assert again.stripe_destinations == plan.stripe_destinations

    def test_sync_matrices_preserved(self, plan):
        again = roundtrip(plan)
        for rank in range(plan.n_nodes):
            a = plan.rank_plan(rank).sync_local
            b = again.rank_plan(rank).sync_local
            assert a.nnz == b.nnz
            np.testing.assert_array_equal(a.csr.indptr, b.csr.indptr)
            np.testing.assert_array_equal(a.csr.indices, b.csr.indices)
            np.testing.assert_array_equal(a.csr.data, b.csr.data)
            np.testing.assert_array_equal(
                plan.rank_plan(rank).sync_stripe_gids,
                again.rank_plan(rank).sync_stripe_gids,
            )

    def test_async_matrices_preserved(self, plan):
        again = roundtrip(plan)
        for rank in range(plan.n_nodes):
            a = plan.rank_plan(rank).async_matrix
            b = again.rank_plan(rank).async_matrix
            assert a.n_stripes == b.n_stripes
            for sa, sb in zip(a.stripes, b.stripes):
                assert sa.gid == sb.gid
                assert sa.owner == sb.owner
                assert sa.nonzeros == sb.nonzeros
                np.testing.assert_array_equal(sa.row_ids, sb.row_ids)

    def test_classification_preserved(self, plan):
        again = roundtrip(plan)
        for rank in range(plan.n_nodes):
            a = plan.rank_plan(rank).classification
            b = again.rank_plan(rank).classification
            np.testing.assert_array_equal(a.async_mask, b.async_mask)
            np.testing.assert_array_equal(a.remote_mask, b.remote_mask)
            assert (a.n_sync, a.n_async, a.n_local) == (
                b.n_sync, b.n_async, b.n_local
            )
            assert a.rows_async == b.rows_async
            assert a.nnz_async == b.nnz_async

    def test_file_path_roundtrip(self, plan, tmp_path):
        path = tmp_path / "plan.twoface"
        written = save_plan(plan, path)
        assert written == path.stat().st_size
        again = load_plan(path)
        assert again.total_async_stripes() == plan.total_async_stripes()


class TestBitExactRoundtrip:
    """Property test: serialise(load(serialise(plan))) is a fixpoint.

    ``plan_digest`` hashes the full v2 container bytes, so digest
    equality means every geometry field, coefficient, destination list,
    rank matrix, and cached schedule survived bit-for-bit.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape,parts", [(64, 4), (96, 3), (128, 8)])
    @pytest.mark.parametrize("k,width", [(8, 4), (32, 16)])
    def test_digest_fixpoint(self, seed, shape, parts, k, width):
        from repro.core.serialize import plan_digest

        matrix = erdos_renyi(shape, shape, shape * 10, seed=seed)
        dist = DistSparseMatrix(matrix, RowPartition(shape, parts))
        plan, _ = preprocess(dist, k=k, stripe_width=width)
        again = roundtrip(plan)
        assert plan_digest(again) == plan_digest(plan)
        # And the round trip of the round trip, for good measure.
        assert plan_digest(roundtrip(again)) == plan_digest(plan)

    def test_digest_distinguishes_plans(self, plan, tiny_matrix):
        from repro.core.serialize import plan_digest

        dist = DistSparseMatrix(tiny_matrix, RowPartition(64, 4))
        other, _ = preprocess(dist, k=32, stripe_width=4)
        assert plan_digest(other) != plan_digest(plan)


class TestExecutability:
    def test_loaded_plan_runs_identically(self, tiny_matrix, rng):
        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        B = rng.standard_normal((64, 16))
        algo = TwoFace(stripe_width=4)
        original = algo.run(tiny_matrix, B, machine)
        loaded = roundtrip(algo.last_plan)
        replay = TwoFace(plan=loaded).run(tiny_matrix, B, machine)
        np.testing.assert_allclose(replay.C, original.C)
        assert replay.seconds == pytest.approx(original.seconds)
        np.testing.assert_allclose(
            replay.C, spmm_reference(tiny_matrix, B)
        )

    def test_empty_rank_plans_roundtrip(self, rng):
        """A matrix whose last rank has no nonzeros still round-trips."""
        A = erdos_renyi(64, 64, 50, seed=1).row_slab(0, 64)
        # Force all nonzeros into the top quarter.
        import numpy as np

        mask = A.rows < 16
        from repro.sparse import COOMatrix

        A = COOMatrix(A.rows[mask], A.cols[mask], A.vals[mask], (64, 64))
        dist = DistSparseMatrix(A, RowPartition(64, 4))
        plan, _ = preprocess(dist, k=8, stripe_width=8)
        again = roundtrip(plan)
        assert again.rank_plan(3).nnz == 0


class TestScheduleRoundtrip:
    """Version 2: the cached transfer schedules travel with the plan."""

    def test_plan_finalized_by_preprocess(self, plan):
        assert plan.finalized

    def test_schedules_preserved(self, plan):
        again = roundtrip(plan)
        assert again.finalized
        for rank in range(plan.n_nodes):
            a = plan.rank_plan(rank).async_matrix
            b = again.rank_plan(rank).async_matrix
            for sa, sb in zip(a.stripes, b.stripes):
                np.testing.assert_array_equal(
                    sa.schedule.chunk_offsets, sb.schedule.chunk_offsets
                )
                np.testing.assert_array_equal(
                    sa.schedule.chunk_sizes, sb.schedule.chunk_sizes
                )
                np.testing.assert_array_equal(
                    sa.schedule.fetched_ids, sb.schedule.fetched_ids
                )
                np.testing.assert_array_equal(
                    sa.schedule.packed, sb.schedule.packed
                )

    def test_loaded_plan_executes_without_recomputes(
        self, tiny_matrix, rng
    ):
        """The §7.3 promise: a deserialised plan runs fully cached —
        bit-identical C and identical lane times, zero rebuilds."""
        from repro.core import (
            reset_transfer_cache_stats,
            transfer_cache_stats,
        )

        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        B = rng.standard_normal((64, 16))
        algo = TwoFace(stripe_width=4)
        fresh = algo.run(tiny_matrix, B, machine)
        loaded = roundtrip(algo.last_plan)

        reset_transfer_cache_stats()
        replay = TwoFace(plan=loaded).run(tiny_matrix, B, machine)
        stats = transfer_cache_stats()
        assert stats.recomputes == 0
        assert stats.hits == loaded.total_async_stripes()

        # Bit-identical output, identical simulated lane times per node.
        np.testing.assert_array_equal(replay.C, fresh.C)
        assert replay.seconds == fresh.seconds
        for a, b in zip(fresh.breakdown.nodes, replay.breakdown.nodes):
            assert a.sync_comm == b.sync_comm
            assert a.sync_comp == b.sync_comp
            assert a.async_comm == b.async_comm
            assert a.async_comp == b.async_comp
            assert a.other == b.other

    def test_unfinalized_stripe_rejected_at_pack(self, plan):
        from repro.core.serialize import _pack_rank

        target = None
        for rank_plan in plan.ranks:
            if rank_plan.async_matrix.stripes:
                target = rank_plan
                break
        if target is None:
            pytest.skip("plan has no async stripes")
        target.async_matrix.stripes[0].schedule = None
        with pytest.raises(FormatError):
            _pack_rank({}, "r0", target)


def _stripe_pairs(plan_a, plan_b):
    for rank in range(plan_a.n_nodes):
        a = plan_a.rank_plan(rank).async_matrix
        b = plan_b.rank_plan(rank).async_matrix
        yield from zip(a.stripes, b.stripes)


class TestReduceScheduleRoundtrip:
    """Version 3: the cached reduction schedules travel with the plan."""

    def test_reduce_schedules_preserved(self, plan):
        again = roundtrip(plan)
        assert again.finalized
        for sa, sb in _stripe_pairs(plan, again):
            np.testing.assert_array_equal(
                sa.reduce_schedule.order, sb.reduce_schedule.order
            )
            np.testing.assert_array_equal(
                sa.reduce_schedule.seg_starts, sb.reduce_schedule.seg_starts
            )
            np.testing.assert_array_equal(
                sa.reduce_schedule.out_rows, sb.reduce_schedule.out_rows
            )

    def test_missing_reduce_schedule_rejected_at_pack(self, plan):
        from repro.core.serialize import _pack_rank

        target = None
        for rank_plan in plan.ranks:
            if rank_plan.async_matrix.stripes:
                target = rank_plan
                break
        if target is None:
            pytest.skip("plan has no async stripes")
        target.async_matrix.stripes[0].reduce_schedule = None
        with pytest.raises(FormatError):
            _pack_rank({}, "r0", target)

    def test_plan_cache_key_invalidated_by_version_bump(
        self, tiny_matrix, monkeypatch
    ):
        """Bumping PLAN_FORMAT_VERSION changes every cache key, so all
        previously cached plans (e.g. the PR 3 v2 entries) miss."""
        from repro.core import plancache

        dist = DistSparseMatrix(tiny_matrix, RowPartition(64, 4))
        key_now = plancache.plan_cache_key(dist, k=16, stripe_width=4)
        monkeypatch.setattr(
            plancache, "PLAN_FORMAT_VERSION", PLAN_FORMAT_VERSION - 1
        )
        key_previous = plancache.plan_cache_key(dist, k=16, stripe_width=4)
        assert key_now != key_previous


class TestGridRoundtrip:
    """Version 4: the process-grid layout travels with the plan."""

    def test_grid_preserved(self, plan):
        from dataclasses import replace as dc_replace

        from repro.dist.grid import Grid2D

        gridded = dc_replace(plan, grid=Grid2D(p_r=4, p_c=2))
        again = roundtrip(gridded)
        assert again.grid == Grid2D(p_r=4, p_c=2)
        assert again.grid_spec == Grid2D(p_r=4, p_c=2)

    def test_default_plan_has_1d_grid_spec(self, plan):
        from repro.dist.grid import Grid1D

        assert plan.grid is None
        assert plan.grid_spec == Grid1D(plan.geometry.n_parts)
        again = roundtrip(plan)
        # 1D serialises as the degenerate code and loads back as None,
        # keeping the digest a fixpoint.
        assert again.grid is None
        assert again.grid_spec == Grid1D(plan.geometry.n_parts)

    def test_gridded_plan_digest_differs(self, plan):
        from dataclasses import replace as dc_replace

        from repro.core.serialize import plan_digest
        from repro.dist.grid import Grid15D

        gridded = dc_replace(plan, grid=Grid15D(p_r=4, c=2))
        assert plan_digest(gridded) != plan_digest(plan)

    def test_plan_cache_key_carries_grid(self, tiny_matrix):
        """Grid layouts key separately; None and Grid1D share a key
        (both are the plain 1D layout), so pre-grid cache entries are
        exactly the 1D entries."""
        from repro.core.plancache import plan_cache_key
        from repro.dist.grid import Grid1D, Grid2D

        dist = DistSparseMatrix(tiny_matrix, RowPartition(64, 4))
        key_none = plan_cache_key(dist, k=16, stripe_width=4)
        key_1d = plan_cache_key(
            dist, k=16, stripe_width=4, grid=Grid1D(4)
        )
        key_2d = plan_cache_key(
            dist, k=16, stripe_width=4, grid=Grid2D(p_r=4, p_c=2)
        )
        key_2d_other = plan_cache_key(
            dist, k=16, stripe_width=4, grid=Grid2D(p_r=2, p_c=2)
        )
        assert key_none == key_1d
        assert key_2d != key_none
        assert key_2d_other != key_2d


class TestErrors:
    def test_not_a_plan_container(self, tmp_path):
        path = tmp_path / "other.bin"
        write_arrays({"something": np.zeros(3, dtype=np.int64)}, path)
        with pytest.raises(FormatError):
            load_plan(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_pre_v4_container_rejected(self, plan, version):
        """Containers older than the current format are refused by
        name, not migrated: the plan-cache key carries the version, so
        they are never looked up, and a stray one is rebuilt."""
        from repro.sparse import read_arrays

        buf = io.BytesIO()
        save_plan(plan, buf)
        buf.seek(0)
        arrays = read_arrays(buf)
        # v1-v3 meta held 7 ints; v4 appended layout_code/p_r/depth.
        arrays["meta"] = arrays["meta"][:7].copy()
        arrays["meta"][0] = version
        buf2 = io.BytesIO()
        write_arrays(arrays, buf2)
        buf2.seek(0)
        with pytest.raises(FormatError, match=f"version {version} "):
            load_plan(buf2)

    def test_bad_version(self, plan):
        buf = io.BytesIO()
        save_plan(plan, buf)
        buf.seek(0)
        from repro.sparse import read_arrays

        arrays = read_arrays(buf)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = PLAN_FORMAT_VERSION + 1
        buf2 = io.BytesIO()
        write_arrays(arrays, buf2)
        buf2.seek(0)
        with pytest.raises(FormatError):
            load_plan(buf2)

    def test_missing_rank_detected(self, plan):
        buf = io.BytesIO()
        save_plan(plan, buf)
        buf.seek(0)
        from repro.sparse import read_arrays

        arrays = read_arrays(buf)
        arrays = {
            key: val for key, val in arrays.items()
            if not key.startswith("r3.")
        }
        buf2 = io.BytesIO()
        write_arrays(arrays, buf2)
        buf2.seek(0)
        with pytest.raises(FormatError):
            load_plan(buf2)
