"""Differential tests of single-sort plan construction.

The planner orders each rank's slab once and reads everything else off
that order.  The code it replaced — one selection, one ``lexsort`` and
one ``np.unique`` per stripe, a CSR built by sorting twice, stripe
stats from two sorts, a slab split of ``p`` mask passes — lives on here
as the oracle, and every product of the new construction is compared
with it bit for bit.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.core import (
    AsyncStripe,
    AsyncStripeMatrix,
    SyncLocalMatrix,
    classify_rank_stripes,
    compute_rank_stripe_stats,
    load_plan,
    preprocess,
    save_plan,
)
from repro.core.model import CostCoefficients
from repro.core.plan import RankPlan, TwoFacePlan
from repro.core.preprocess import (
    SYNC_MEMORY_FRACTION,
    _force_mask,
    _masked_classification,
)
from repro.core.serialize import plan_digest
from repro.core.stripes import RankStripeStats, StripeGeometry
from repro.dist import DistSparseMatrix, RowPartition
from repro.errors import FormatError, PartitionError
from repro.runtime.pool import shutdown_plan_pool
from repro.runtime.threads import max_coalescing_gap
from repro.sparse import COOMatrix, CSRMatrix


# ----------------------------------------------------------------------
# The replaced code, kept as the oracle
# ----------------------------------------------------------------------
def oracle_split(matrix: COOMatrix, partition: RowPartition):
    """One boolean-mask pass over the whole matrix per rank."""
    slabs = []
    for start, stop in partition.all_bounds():
        mask = (matrix.rows >= start) & (matrix.rows < stop)
        slabs.append(COOMatrix(
            matrix.rows[mask] - start, matrix.cols[mask], matrix.vals[mask],
            (stop - start, matrix.shape[1]),
        ))
    return slabs


def oracle_stats(rank, slab, geometry) -> RankStripeStats:
    """Two sorts: a stable argsort by stripe, then a lexsort by
    (stripe, col) to count the distinct columns."""
    empty = np.zeros(0, dtype=np.int64)
    if slab.nnz == 0:
        return RankStripeStats(
            rank, empty, empty, empty, empty, np.zeros(0, dtype=bool),
            empty, np.zeros(1, dtype=np.int64),
        )
    gids_per_nnz = geometry.stripes_of_cols(slab.cols)
    order = np.argsort(gids_per_nnz, kind="stable")
    sorted_gids = gids_per_nnz[order]
    gids, group_starts = np.unique(sorted_gids, return_index=True)
    group_starts = np.append(group_starts, len(sorted_gids))
    pair_order = np.lexsort((slab.cols, gids_per_nnz))
    pg, pc = gids_per_nnz[pair_order], slab.cols[pair_order]
    first = np.ones(len(pg), dtype=bool)
    first[1:] = (pg[1:] != pg[:-1]) | (pc[1:] != pc[:-1])
    rows_needed = np.bincount(
        np.searchsorted(gids, pg), weights=first, minlength=len(gids)
    ).astype(np.int64)
    owners = np.array(
        [geometry.owner_of_stripe(int(g)) for g in gids], dtype=np.int64
    )
    return RankStripeStats(
        rank=rank, gids=gids, owners=owners, nnz=np.diff(group_starts),
        rows_needed=rows_needed, is_local=owners == rank,
        nnz_order=order, nnz_group_starts=group_starts,
    )


def oracle_csr(coo: COOMatrix) -> CSRMatrix:
    """``sum_duplicates().sorted_row_major()``: sort, ``np.add.at`` the
    duplicate runs, sort again, ``np.add.at`` the row counts."""
    order = np.lexsort((coo.cols, coo.rows))
    r, c, v = coo.rows[order], coo.cols[order], coo.vals[order]
    if len(r):
        new_group = np.ones(len(r), dtype=bool)
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        sums = np.zeros(int(new_group.sum()))
        np.add.at(sums, np.cumsum(new_group) - 1, v)
        r, c, v = r[new_group], c[new_group], sums
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
    indptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    return CSRMatrix(np.cumsum(indptr), c, v, coo.shape)


def oracle_async_matrix(rank, slab, stripe_selections) -> AsyncStripeMatrix:
    """The per-stripe constructor: for every ``gid -> (owner, slab
    indices)`` one column-major ``lexsort`` and one ``np.unique``."""
    stripes = []
    for gid in sorted(stripe_selections):
        owner, sel = stripe_selections[gid]
        rows, cols, vals = slab.rows[sel], slab.cols[sel], slab.vals[sel]
        order = np.lexsort((rows, cols))
        stripes.append(AsyncStripe(
            gid=int(gid), owner=int(owner),
            nonzeros=COOMatrix(
                rows[order], cols[order], vals[order], slab.shape
            ),
            row_ids=np.unique(cols),
        ))
    return AsyncStripeMatrix(rank=rank, stripes=stripes)


def oracle_plan(
    A, k, stripe_width, machine=None, panel_height=32,
    force_all_async=False, force_all_sync=False, classify_override=None,
    classify_k=None,
) -> TwoFacePlan:
    """``preprocess`` as it was: stripe by stripe, schedules built by
    each stripe's own ``build_schedule`` / ``build_reduce_schedule``."""
    score_k = k if classify_k is None else classify_k
    coeffs = CostCoefficients()
    geometry = StripeGeometry(*A.shape, A.partition.n_parts, stripe_width)
    gap = max_coalescing_gap(k)
    ranks, destinations = [], {}
    for rank, slab in enumerate(oracle_split(A.global_matrix, A.partition)):
        stats = oracle_stats(rank, slab, geometry)
        budget = None
        if machine is not None:
            free = (
                machine.memory_capacity - A.slab(rank).nbytes()
                - 2 * A.partition.size(rank) * score_k * 8
            )
            budget = max(0, int(free * SYNC_MEMORY_FRACTION))
        cls = classify_rank_stripes(
            stats, geometry, coeffs, score_k, sync_memory_budget=budget
        )
        if force_all_async or force_all_sync:
            cls = _force_mask(stats, cls, all_async=force_all_async)
        elif classify_override is not None:
            cls = _masked_classification(stats, cls, np.asarray(
                classify_override(stats, geometry, score_k), dtype=bool
            ))
        starts = stats.nnz_group_starts
        stripe_of_nnz = np.repeat(
            np.arange(stats.n_stripes), np.diff(starts)
        )
        sync_sel = stats.nnz_order[~cls.async_mask[stripe_of_nnz]]
        sync_local = SyncLocalMatrix(
            rank, oracle_csr(slab.select(sync_sel)), panel_height
        )
        async_matrix = oracle_async_matrix(rank, slab, {
            int(stats.gids[i]): (
                int(stats.owners[i]),
                stats.nnz_order[starts[i]:starts[i + 1]],
            )
            for i in np.flatnonzero(cls.async_mask)
        })
        for stripe in async_matrix.stripes:
            stripe.schedule = stripe.build_schedule(
                geometry.col_partition.bounds(stripe.owner)[0], gap
            )
            stripe.reduce_schedule = stripe.build_reduce_schedule()
        sync_gids = stats.gids[cls.sync_mask]
        for gid in sync_gids.tolist():
            destinations.setdefault(gid, []).append(rank)
        ranks.append(RankPlan(
            rank, sync_local, async_matrix, cls, sync_stripe_gids=sync_gids
        ))
    return TwoFacePlan(
        geometry=geometry, coeffs=coeffs, k=k, panel_height=panel_height,
        ranks=ranks, stripe_destinations=destinations,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def matrices(draw, min_rows=1):
    """Small COO matrices in every shape the planner must not trip on:
    unsorted, duplicate-carrying, hypersparse rows, empty column
    ranges (hence empty stripes and ranks without async stripes)."""
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_rows, 40))
    m = draw(st.integers(1, 48))
    nnz = draw(st.integers(0, 160))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, m, size=nnz)
    shape = draw(st.sampled_from(["uniform", "hypersparse", "banded", "gap"]))
    if shape == "hypersparse" and nnz:
        rows = rows[0] + np.zeros(nnz, dtype=np.int64)  # one live row
    elif shape == "banded":
        cols = np.clip(rows * m // n + rng.integers(-2, 3, nnz), 0, m - 1)
    elif shape == "gap":
        cols = cols // 4  # columns beyond m/4 (most stripes) stay empty
    if draw(st.booleans()) and nnz:  # duplicate coordinates
        again = rng.integers(0, nnz, size=max(1, nnz // 3))
        rows = np.concatenate([rows, rows[again]])
        cols = np.concatenate([cols, cols[again]])
    vals = rng.standard_normal(len(rows))
    if draw(st.booleans()):  # row-major storage, else as generated
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    return COOMatrix(rows, cols, vals, (n, m))


def assert_matrix_bits(got: COOMatrix, want: COOMatrix):
    assert got.shape == want.shape
    for name in ("rows", "cols", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_plans_bitwise(got: TwoFacePlan, want: TwoFacePlan):
    assert got.stripe_destinations == want.stripe_destinations
    for g, w in zip(got.ranks, want.ranks):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(g.sync_local.csr, name), getattr(w.sync_local.csr, name)
            assert a.tobytes() == b.tobytes(), (g.rank, name)
        np.testing.assert_array_equal(g.sync_stripe_gids, w.sync_stripe_gids)
        gc, wc = g.classification, w.classification
        np.testing.assert_array_equal(gc.async_mask, wc.async_mask)
        np.testing.assert_array_equal(gc.remote_mask, wc.remote_mask)
        assert (
            gc.n_sync, gc.n_async, gc.n_local, gc.rows_async, gc.nnz_async,
            gc.memory_flips,
        ) == (
            wc.n_sync, wc.n_async, wc.n_local, wc.rows_async, wc.nnz_async,
            wc.memory_flips,
        )
        assert len(g.async_matrix.stripes) == len(w.async_matrix.stripes)
        for gs, ws in zip(g.async_matrix.stripes, w.async_matrix.stripes):
            assert (gs.gid, gs.owner) == (ws.gid, ws.owner)
            assert_matrix_bits(gs.nonzeros, ws.nonzeros)
            assert gs.row_ids.tobytes() == ws.row_ids.tobytes()
        gp, wp = g.async_matrix.program(), w.async_matrix.program()
        assert gp.n_rows == wp.n_rows or not gp.n_stripes
        for name in (
            "owners", "nnz_ptr", "row_ptr", "chunk_ptr", "seg_ptr",
            "chunk_offsets", "chunk_sizes", "fetched_ids", "packed",
            "order", "seg_starts", "out_rows",
        ):
            np.testing.assert_array_equal(
                getattr(gp, name), getattr(wp, name), err_msg=name
            )
    assert plan_digest(got) == plan_digest(want)


# ----------------------------------------------------------------------
# Layer by layer
# ----------------------------------------------------------------------
class TestSlabSplit:
    @settings(max_examples=120, deadline=None)
    @given(matrices(min_rows=4), st.integers(1, 4))
    def test_matches_mask_passes(self, matrix, p):
        partition = RowPartition(matrix.shape[0], p)
        got = DistSparseMatrix(matrix, partition).slabs
        for slab, want in zip(got, oracle_split(matrix, partition)):
            assert_matrix_bits(slab, want)

    def test_sorted_rows_are_cut_as_views(self):
        matrix = COOMatrix([0, 1, 2, 3], [3, 2, 1, 0], [1., 2., 3., 4.], (4, 4))
        slabs = DistSparseMatrix(matrix, RowPartition(4, 2)).slabs
        assert all(np.shares_memory(s.cols, matrix.cols) for s in slabs)
        assert all(np.shares_memory(s.vals, matrix.vals) for s in slabs)
        assert slabs[1].rows.tolist() == [0, 1]

    def test_empty_ranks_still_rejected(self):
        matrix = COOMatrix([0], [0], [1.0], (2, 2))
        with pytest.raises(PartitionError, match="would own no rows"):
            DistSparseMatrix(matrix, RowPartition(2, 3))

    def test_ledger_charges_unchanged(self):
        from repro.cluster.machine import Cluster

        matrix = COOMatrix([3, 0, 2, 0], [0, 1, 2, 3], np.ones(4), (4, 4))
        cluster = Cluster(MachineConfig(n_nodes=2))
        dist = DistSparseMatrix(matrix, RowPartition(4, 2), cluster)
        assert [cluster.node(r).memory.current for r in range(2)] == [
            slab.nbytes() for slab in oracle_split(matrix, dist.partition)
        ]


class TestStripeGeometryArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 9))
    def test_array_forms_are_the_scalar_forms(self, m, p, width):
        geometry = StripeGeometry(8, m, p, width)
        gids = np.arange(geometry.n_stripes)
        owners = geometry.owners_of_stripes(gids)
        lo, hi = geometry.col_bounds_of(gids)
        for g in gids.tolist():
            assert geometry.owner_of_stripe(g) == owners[g]
            assert geometry.col_bounds(g) == (lo[g], hi[g])
            assert geometry.width_of(g) == hi[g] - lo[g]
        # the stripes tile the columns, part by part
        cols = np.arange(m)
        np.testing.assert_array_equal(
            geometry.owners_of_stripes(geometry.stripes_of_cols(cols)),
            geometry.col_partition.owners_of(cols),
        )
        assert np.all(lo[geometry.stripes_of_cols(cols)] <= cols)
        assert np.all(cols < hi[geometry.stripes_of_cols(cols)])

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_out_of_range_gid_is_named(self, bad):
        geometry = StripeGeometry(16, 16, 2, 2)
        for call in (
            geometry.owner_of_stripe, geometry.col_bounds, geometry.width_of,
        ):
            with pytest.raises(PartitionError, match=f"stripe {bad} out"):
                call(bad)
        for call in (geometry.owners_of_stripes, geometry.col_bounds_of):
            with pytest.raises(PartitionError, match=f"stripe {bad} out"):
                call(np.array([0, bad, 99]))


class TestStripeStats:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.integers(1, 4), st.integers(1, 9), st.integers(0, 3))
    def test_matches_two_sort_stats(self, slab, p, width, rank):
        geometry = StripeGeometry(slab.shape[0] * p, slab.shape[1], p, width)
        got = compute_rank_stripe_stats(rank, slab, geometry)
        want = oracle_stats(rank, slab, geometry)
        for name in (
            "gids", "owners", "nnz", "rows_needed", "is_local",
            "nnz_group_starts",
        ):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        # nnz_order: the oracle's stripe groups, each column-major with
        # storage order among equal coordinates — the order the
        # per-stripe constructor went on to establish stripe by stripe.
        assert got.nnz_order.dtype == np.int64
        np.testing.assert_array_equal(
            got.nnz_order, np.lexsort((slab.rows, slab.cols))
        )
        for i in range(want.n_stripes):
            lo, hi = want.nnz_group_starts[i], want.nnz_group_starts[i + 1]
            sel = want.nnz_order[lo:hi]
            resorted = sel[np.lexsort((slab.rows[sel], slab.cols[sel]))]
            np.testing.assert_array_equal(got.nnz_order[lo:hi], resorted)


class TestCsrBuild:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_matches_double_sort(self, coo):
        got, want = CSRMatrix.from_coo(coo), oracle_csr(coo)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not np.shares_memory(got.data, coo.vals)
        assert not np.shares_memory(got.indices, coo.cols)

    def test_row_major_input_is_not_sorted(self, monkeypatch):
        coo = COOMatrix([0, 0, 1, 1], [1, 1, 0, 2], [1., 2., 3., 4.], (2, 3))
        monkeypatch.setattr(
            COOMatrix, "sorted_row_major",
            lambda self: pytest.fail("row-major input was sorted"),
        )
        csr = CSRMatrix.from_coo(coo)  # duplicate (0, 1) folded, no sort
        assert csr.indptr.tolist() == [0, 1, 3]
        assert csr.data.tolist() == [3.0, 3.0, 4.0]

    def test_other_input_is_sorted_once(self, monkeypatch):
        calls = []
        real = COOMatrix.sorted_row_major
        monkeypatch.setattr(
            COOMatrix, "sorted_row_major",
            lambda self: calls.append(1) or real(self),
        )
        coo = COOMatrix([1, 0, 1], [0, 1, 0], [1., 2., 3.], (2, 2))
        assert CSRMatrix.from_coo(coo).data.tolist() == [2.0, 4.0]
        assert calls == [1]

    def test_sum_duplicates_returns_a_duplicate_free_input(self):
        unsorted = COOMatrix([1, 0], [0, 1], [1., 2.], (2, 2))
        assert unsorted.sum_duplicates() is unsorted
        dup = COOMatrix([1, 0, 1], [0, 1, 0], [1., 2., 3.], (2, 2))
        summed = dup.sum_duplicates()
        assert summed is not dup
        assert (summed.rows.tolist(), summed.cols.tolist(),
                summed.vals.tolist()) == ([0, 1], [1, 0], [2.0, 4.0])


class TestAsyncConstructor:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.integers(2, 4), st.integers(1, 9), st.data())
    def test_matches_per_stripe_constructor(self, slab, p, width, data):
        from repro.core import build_async_stripe_matrix

        geometry = StripeGeometry(slab.shape[0] * p, slab.shape[1], p, width)
        stats = compute_rank_stripe_stats(0, slab, geometry)
        mask = np.array(
            data.draw(st.lists(
                st.booleans(), min_size=stats.n_stripes,
                max_size=stats.n_stripes,
            )), dtype=bool,
        ) & ~stats.is_local
        got = build_async_stripe_matrix(0, slab, stats, mask)
        want = oracle_async_matrix(0, slab, {
            int(stats.gids[i]): (
                int(stats.owners[i]),
                np.flatnonzero(
                    geometry.stripes_of_cols(slab.cols) == stats.gids[i]
                ),
            )
            for i in np.flatnonzero(mask)
        })
        assert [s.gid for s in got.stripes] == [s.gid for s in want.stripes]
        for gs, ws in zip(got.stripes, want.stripes):
            assert gs.owner == ws.owner
            assert_matrix_bits(gs.nonzeros, ws.nonzeros)
            assert gs.row_ids.tobytes() == ws.row_ids.tobytes()
        # the stripes are views of the rank-level arrays
        flat = got.flat()
        for stripe in got.stripes:
            assert np.shares_memory(stripe.nonzeros.vals, flat.vals)
            assert np.shares_memory(stripe.row_ids, flat.row_ids)
        np.testing.assert_array_equal(
            got.stripe_pointers(), want.stripe_pointers()
        )
        # one vectorised program equals the per-stripe schedules
        gap = data.draw(st.integers(1, 5))
        got.finalize_schedules(geometry.col_partition, gap)
        for gs, ws in zip(got.stripes, want.stripes):
            t = ws.build_schedule(
                geometry.col_partition.bounds(ws.owner)[0], gap
            )
            r = ws.build_reduce_schedule()
            for name in ("chunk_offsets", "chunk_sizes", "fetched_ids", "packed"):
                np.testing.assert_array_equal(
                    getattr(gs.schedule, name), getattr(t, name)
                )
            for name in ("order", "seg_starts", "out_rows"):
                np.testing.assert_array_equal(
                    getattr(gs.reduce_schedule, name), getattr(r, name)
                )

    def _arrays(self):
        # two stripes of width 4 owned by ranks 1 and 2; rank 0 plans
        return dict(
            rank=0, gids=np.array([1, 2]), owners=np.array([1, 2]),
            nnz_ptr=np.array([0, 2, 3]), rows=np.array([0, 1, 0]),
            cols=np.array([4, 5, 9]), vals=np.ones(3), shape=(2, 12),
        )

    def test_gid_order_checked(self):
        arrays = self._arrays()
        arrays["gids"] = np.array([2, 1])
        with pytest.raises(
            FormatError, match="async stripes must be in ascending gid order"
        ):
            AsyncStripeMatrix.from_arrays(**arrays)

    def test_column_major_checked(self):
        arrays = self._arrays()
        arrays["cols"] = np.array([5, 4, 9])
        with pytest.raises(FormatError, match="stripe 1 is not in column-major"):
            AsyncStripeMatrix.from_arrays(**arrays)

    def test_rows_below_owner_block_named(self):
        arrays = self._arrays()
        arrays["owners"] = np.array([1, 3])  # rank 3's block starts at 9 < 9?
        arrays["cols"] = np.array([4, 5, 8])
        matrix = AsyncStripeMatrix.from_arrays(**arrays)
        with pytest.raises(
            FormatError, match="stripe 2 requests rows below the owner block"
        ):
            matrix.finalize_schedules(RowPartition(12, 4), max_gap=1)

    def test_local_stripe_named(self):
        arrays = self._arrays()
        arrays["rank"] = 2
        matrix = AsyncStripeMatrix.from_arrays(**arrays)
        with pytest.raises(
            PartitionError,
            match="stripe 2 is local to rank 2 but was classified asynchronous",
        ):
            matrix.ensure_program(RowPartition(12, 3), max_gap=1)


# ----------------------------------------------------------------------
# Whole plans
# ----------------------------------------------------------------------
def _every_other_remote(stats, geometry, k):
    mask = np.zeros(stats.n_stripes, dtype=bool)
    mask[::2] = True
    return mask


VARIANTS = {
    "model": {},
    "all_async": {"force_all_async": True},
    "all_sync": {"force_all_sync": True},
    "override": {"classify_override": _every_other_remote},
    "classify_k": {"classify_k": 64},
}


class TestWholePlan:
    @settings(max_examples=120, deadline=None)
    @given(
        matrices(min_rows=4), st.integers(1, 4), st.integers(1, 9),
        st.sampled_from([1, 8, 32, 128]), st.sampled_from(sorted(VARIANTS)),
    )
    def test_plan_equals_per_stripe_build(self, matrix, p, width, k, variant):
        dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], p))
        plan, _ = preprocess(
            dist, k, width, panel_height=4, **VARIANTS[variant]
        )
        want = oracle_plan(dist, k, width, panel_height=4, **VARIANTS[variant])
        assert_plans_bitwise(plan, want)

    @settings(max_examples=40, deadline=None)
    @given(matrices(min_rows=4), st.integers(2, 4), st.integers(1, 5),
           st.integers(1, 40_000))
    def test_memory_flip_path(self, matrix, p, width, capacity):
        dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], p))
        machine = MachineConfig(n_nodes=p, memory_capacity=capacity)
        plan, report = preprocess(dist, 16, width, machine=machine)
        assert_plans_bitwise(plan, oracle_plan(dist, 16, width, machine))
        flips = sum(r.classification.memory_flips for r in plan.ranks)
        assert report.memory_flips == flips

    def test_memory_flips_happen(self):
        from repro.sparse import hub_skewed

        matrix = hub_skewed(96, 16.0, 8, seed=4)
        dist = DistSparseMatrix(matrix, RowPartition(96, 4))
        tight = MachineConfig(n_nodes=4, memory_capacity=50_000)
        plan, report = preprocess(dist, 64, 8, machine=tight)
        assert report.memory_flips > 0
        assert_plans_bitwise(plan, oracle_plan(dist, 64, 8, tight))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_plan_width_does_not_matter(self, variant, monkeypatch):
        from repro.sparse import rmat

        matrix = rmat(7, 12.0, seed=5)
        dist = DistSparseMatrix(matrix, RowPartition(128, 8))
        digests = []
        for width in ("1", "4"):
            monkeypatch.setenv("REPRO_PLAN_WORKERS", width)
            shutdown_plan_pool()
            plan, _ = preprocess(dist, 32, 8, **VARIANTS[variant])
            digests.append(plan_digest(plan))
        shutdown_plan_pool()
        assert digests[0] == digests[1]
        assert digests[0] == plan_digest(
            oracle_plan(dist, 32, 8, **VARIANTS[variant])
        )

    @settings(max_examples=40, deadline=None)
    @given(matrices(min_rows=4), st.integers(1, 4), st.integers(1, 9))
    def test_roundtrip_shares_the_container_arrays(self, matrix, p, width):
        dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], p))
        plan, _ = preprocess(dist, 8, width, force_all_async=True)
        buf = io.BytesIO()
        save_plan(plan, buf)
        buf.seek(0)
        loaded = load_plan(buf)
        assert plan_digest(loaded) == plan_digest(plan)
        assert_plans_bitwise(loaded, plan)
        for rank_plan in loaded.ranks:
            matrix_ = rank_plan.async_matrix
            flat, program = matrix_.flat(), matrix_.program()
            assert program.nnz_ptr is flat.nnz_ptr
            for stripe in matrix_.stripes:
                assert stripe.nonzeros.vals.base is not None
                assert np.shares_memory(stripe.nonzeros.rows, flat.rows)
                assert np.shares_memory(stripe.nonzeros.cols, flat.cols)
                assert np.shares_memory(stripe.nonzeros.vals, flat.vals)
                assert np.shares_memory(
                    stripe.schedule.packed, program.packed
                )
