"""Differential tests for rank programs: the vectorised schedule build,
the tile kernel, and the bulk accounting record — each against the
per-stripe formulation it replaced."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.algorithms import TwoFace
from repro.cluster import simmpi
from repro.cluster.buffers import FetchArena, arena_stats, warm_arenas
from repro.cluster.machine import Cluster
from repro.cluster.network import ComputeModel, NetworkModel
from repro.cluster.simmpi import CommAccount, SimMPI
from repro.core import (
    AsyncStripe,
    preprocess,
    transfer_cache_stats,
)
from repro.core.executor import (
    accumulate_async_tile,
    arena_ceilings,
    async_lane_seconds,
)
from repro.dist import DistSparseMatrix, RowPartition
from repro.errors import CommunicationError, OutOfMemoryError
from repro.runtime.pool import WORKERS_ENV, get_exec_pool, shutdown_exec_pool
from repro.sparse import COOMatrix, ScatterStats, erdos_renyi, spmm_reference
from repro.sparse.ops import build_reduce_order, segmented_reduce_into
from tests.core.test_plan_construction import oracle_async_matrix


def make_rank(rng, n_rows, nnz_per_stripe, width, hot_row=None):
    """A rank-0 async matrix: stripe ``g`` (gid ``g + 1``) owns columns
    ``[(g+1)*width, (g+2)*width)`` and is owned by rank ``g + 1``."""
    n_stripes = len(nnz_per_stripe)
    n_cols = (n_stripes + 1) * width
    rows, cols = [], []
    for g, nnz in enumerate(nnz_per_stripe):
        r = rng.integers(0, n_rows, size=nnz)
        if hot_row is not None and nnz:
            r[0] = hot_row
        rows.append(r)
        cols.append(rng.integers((g + 1) * width, (g + 2) * width, size=nnz))
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    slab = COOMatrix(
        rows, cols, rng.standard_normal(len(rows)), (n_rows, n_cols)
    )
    bounds = np.concatenate(([0], np.cumsum(nnz_per_stripe)))
    matrix = oracle_async_matrix(
        0, slab,
        {
            g + 1: (g + 1, np.arange(bounds[g], bounds[g + 1]))
            for g in range(n_stripes)
        },
    )
    return matrix, RowPartition(n_cols, n_stripes + 1), slab


def per_stripe_reference(matrix, B, n_rows):
    """The replaced loop: one ``segmented_reduce_into`` per stripe."""
    C = np.zeros((n_rows, B.shape[1]))
    for stripe in matrix.stripes:
        schedule, vals = stripe.schedule, stripe.nonzeros.vals
        order, seg_starts, out_rows = build_reduce_order(stripe.nonzeros.rows)
        segmented_reduce_into(
            C, np.ascontiguousarray(B[schedule.fetched_ids]),
            schedule.packed[order], vals[order],
            np.append(seg_starts, len(order)), out_rows,
        )
    return C


def run_tiles(matrix, col_part, B, n_rows, segmented=True, keep=None):
    k = B.shape[1]
    program = matrix.ensure_program(col_part, max_gap=2)
    C = np.zeros((n_rows, k))
    values = matrix.values(program, keep, reduction_order=segmented)
    tiles = program.tiles(k * 8)
    for tile in tiles:
        accumulate_async_tile(
            C, np.ascontiguousarray(B[program.fetched_ids[tile.rows]]),
            matrix, program, tile, values, segmented, FetchArena(),
            ScatterStats(),
        )
    return C, tiles


class TestTileKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_per_stripe_loop_and_add_at(self, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        n_rows = data.draw(st.integers(1, 40))
        width = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(1, 5))
        nnz_per = data.draw(
            st.lists(st.integers(0, 25), min_size=0, max_size=7)
        )
        hot = data.draw(st.one_of(st.none(), st.integers(0, n_rows - 1)))
        budget_rows = data.draw(st.sampled_from([1, 3, 8, 1 << 16]))
        matrix, col_part, slab = make_rank(
            rng, n_rows, nnz_per, width, hot_row=hot
        )
        B = rng.standard_normal((slab.shape[1], k))
        import repro.core.formats as formats

        old = formats._TILE_SCRATCH_BYTES
        formats._TILE_SCRATCH_BYTES = budget_rows * k * 8
        try:
            got, _ = run_tiles(matrix, col_part, B, n_rows)
            atomic, _ = run_tiles(
                matrix, col_part, B, n_rows, segmented=False
            )
        finally:
            formats._TILE_SCRATCH_BYTES = old
        want = per_stripe_reference(matrix, B, n_rows)
        assert got.tobytes() == want.tobytes()
        oracle = np.zeros_like(want)
        np.add.at(oracle, slab.rows, slab.vals[:, None] * B[slab.cols])
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(atomic, oracle, rtol=1e-12, atol=1e-12)

    def test_small_budget_cuts_mid_rank(self, rng, monkeypatch):
        matrix, col_part, slab = make_rank(rng, 16, [9, 9, 9, 9, 9], 8)
        B = rng.standard_normal((slab.shape[1], 4))
        whole, one = run_tiles(matrix, col_part, B, 16)
        assert len(one) == 1
        monkeypatch.setattr(
            "repro.core.formats._TILE_SCRATCH_BYTES", 20 * 4 * 8
        )
        cut, many = run_tiles(matrix, col_part, B, 16)
        assert len(many) > 1
        assert [t.stripes.start for t in many[1:]] == [
            t.stripes.stop for t in many[:-1]
        ]
        assert cut.tobytes() == whole.tobytes()

    def test_oversized_stripe_is_its_own_tile(self, rng, monkeypatch):
        monkeypatch.setattr("repro.core.formats._TILE_SCRATCH_BYTES", 8)
        matrix, col_part, slab = make_rank(rng, 8, [12, 12, 12], 6)
        _, tiles = run_tiles(
            matrix, col_part, rng.standard_normal((slab.shape[1], 2)), 8
        )
        assert [(t.stripes.start, t.stripes.stop) for t in tiles] == [
            (0, 1), (1, 2), (2, 3)
        ]

    def test_row_hit_by_every_stripe_accumulates_in_stripe_order(self, rng):
        matrix, col_part, slab = make_rank(
            rng, 6, [5, 5, 5, 5], 4, hot_row=2
        )
        B = rng.standard_normal((slab.shape[1], 3))
        got, tiles = run_tiles(matrix, col_part, B, 6)
        assert len(tiles) == 1
        assert np.diff(tiles[0].fold[0])[2] == 4  # one segment per stripe
        assert got.tobytes() == per_stripe_reference(matrix, B, 6).tobytes()

    def test_zero_stripes(self, rng):
        matrix, col_part, _ = make_rank(rng, 4, [], 4)
        got, tiles = run_tiles(matrix, col_part, np.ones((4, 2)), 4)
        assert tiles == [] and not got.any()

    def test_masked_values_match_per_stripe_masking(self, rng):
        matrix, col_part, slab = make_rank(rng, 10, [8, 0, 8, 8], 5)
        B = rng.standard_normal((slab.shape[1], 3))
        keep = rng.random(slab.nnz) < 0.5
        got, _ = run_tiles(matrix, col_part, B, 10, keep=keep)
        program = matrix.program()
        for i, stripe in enumerate(matrix.stripes):
            lo, hi = program.nnz_ptr[i], program.nnz_ptr[i + 1]
            nz = stripe.nonzeros
            stripe.nonzeros = COOMatrix(
                nz.rows, nz.cols, nz.vals * keep[lo:hi], nz.shape
            )
        assert got.tobytes() == per_stripe_reference(matrix, B, 10).tobytes()


class TestProgramBuild:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_vectorised_build_equals_per_stripe_builds(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        nnz_per = data.draw(
            st.lists(st.integers(0, 30), min_size=0, max_size=6)
        )
        width = data.draw(st.integers(1, 12))
        gap = data.draw(st.integers(1, 4))
        matrix, col_part, _ = make_rank(rng, 9, nnz_per, width)
        want = [
            (
                s.build_schedule(col_part.bounds(s.owner)[0], gap),
                s.build_reduce_schedule(),
            )
            for s in matrix.stripes
        ]
        matrix.finalize_schedules(col_part, gap)
        assert matrix.finalized
        for stripe, (transfer, reduce) in zip(matrix.stripes, want):
            for name in ("chunk_offsets", "chunk_sizes", "fetched_ids",
                         "packed"):
                got = getattr(stripe.schedule, name)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, getattr(transfer, name))
            for name in ("order", "seg_starts", "out_rows"):
                got = getattr(stripe.reduce_schedule, name)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, getattr(reduce, name))

    def test_schedules_are_views_of_the_program(self, rng):
        matrix, col_part, _ = make_rank(rng, 9, [6, 7, 8], 8)
        matrix.finalize_schedules(col_part, 2)
        program = matrix.program()
        for stripe in matrix.stripes:
            assert stripe.schedule.fetched_ids.base is program.fetched_ids
            assert stripe.reduce_schedule.order.base is program.order

    def test_replaced_schedule_rebuilds_the_program(self, rng):
        matrix, col_part, _ = make_rank(rng, 9, [6, 7, 8], 8)
        first = matrix.ensure_program(col_part, 2)
        assert matrix.ensure_program(col_part, 2) is first
        stripe = matrix.stripes[1]
        stripe.schedule = stripe.build_schedule(
            col_part.bounds(stripe.owner)[0], 1
        )
        second = matrix.ensure_program(col_part, 2)
        assert second is not first
        np.testing.assert_array_equal(
            second.chunk_sizes[
                second.chunk_ptr[1]:second.chunk_ptr[2]
            ],
            stripe.schedule.chunk_sizes,
        )

    def test_hit_and_recompute_counters(self, rng):
        from repro.core import TransferCacheStats

        matrix, col_part, _ = make_rank(rng, 9, [6, 7, 8], 8)
        stats = TransferCacheStats()
        matrix.ensure_program(col_part, 2, stats=stats)
        assert stats.snapshot() == (0, 3)
        matrix.ensure_program(col_part, 2, stats=stats)
        assert stats.snapshot() == (3, 3)


def scalar_lane_seconds(net, compute, threads, k, rows, chunks, nnz, skew):
    comm = comp = 0.0
    for r, c, n in zip(rows, chunks, nnz):
        comm += net.rget_time(int(r) * k * 8, n_chunks=int(c))
        stripe_comp = compute.async_stripe_time(int(n), k, threads, 1)
        stripe_comp *= skew
        comp += stripe_comp
    return comm, comp


class TestLaneSeconds:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_python_loop(self, data):
        n = data.draw(st.integers(0, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        rows = rng.integers(1, 5000, size=n)
        chunks = rng.integers(1, 60, size=n)
        nnz = rng.integers(0, 9000, size=n)
        k = data.draw(st.sampled_from([1, 8, 32, 128, 512]))
        skew = data.draw(st.sampled_from([1.0, 1.37, 2.5]))
        net, compute = NetworkModel(), ComputeModel()
        got = async_lane_seconds(
            net, compute, 48, k, k * 8, rows, chunks, nnz, skew=skew
        )
        want = scalar_lane_seconds(
            net, compute, 48, k, rows, chunks, nnz, skew
        )
        assert (got[0].hex(), got[1].hex()) == (
            float(want[0]).hex(), float(want[1]).hex()
        )


def fresh_mpi(capacity, preexisting=0):
    mpi = SimMPI(Cluster(MachineConfig(n_nodes=3, memory_capacity=capacity)))
    if preexisting:
        mpi.cluster.node(0).memory.allocate("async_rows", preexisting)
    return mpi


def replay(mpi, account):
    try:
        mpi.apply_account(account)
    except OutOfMemoryError as oom:
        return str(oom)
    return None


def state(mpi):
    ledger = mpi.cluster.node(0).memory
    return (
        ledger.current, ledger.peak, ledger.allocations(), mpi.traffic,
        list(mpi.events), mpi._ring._details,
    )


def stream_requests(rng, n_req, k):
    """``n_req`` requests over a (64, k) source, targets 1 and 2."""
    per_req = rng.integers(1, 4, size=n_req)
    request_ptr = np.concatenate(([0], np.cumsum(per_req)))
    sizes = rng.integers(1, 5, size=request_ptr[-1])
    offsets = rng.integers(0, 60, size=len(sizes))
    targets = rng.integers(1, 3, size=n_req)
    return request_ptr, offsets, sizes, targets


def both_accounts(mpi_a, mpi_b, source, request_ptr, offsets, sizes, targets):
    """The per-request formulation on ``mpi_a``'s account, the stream on
    ``mpi_b``'s; returns the two gathers as well."""
    per_op, bulk = CommAccount(), CommAccount()
    parts = []
    for i, target in enumerate(targets.tolist()):
        lo, hi = request_ptr[i], request_ptr[i + 1]
        parts.append(mpi_a.rget_row_chunks(
            0, target, source, offsets[lo:hi], sizes[lo:hi],
            label="async_rows", charge_time=False, account=per_op,
        ))
        per_op.free(0, "async_rows")
    fetched = mpi_b.rget_row_chunks(
        0, targets, source, offsets, sizes, label="async_rows",
        charge_time=False, account=bulk, request_ptr=request_ptr,
    )
    bulk.free(0, "async_rows")
    assert len(bulk.ops) == 2
    return per_op, bulk, np.concatenate(parts), fetched


class TestBulkAccounting:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_replay_parity(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        k = data.draw(st.integers(1, 4))
        n_req = data.draw(st.integers(1, 12))
        # Capacities from "nothing fits" to "everything fits", so the
        # OOM lands on the first, a middle, or no request.
        capacity = data.draw(st.sampled_from([8, 200, 400, 1 << 20]))
        preexisting = data.draw(st.sampled_from([0, 0, 96]))
        source = rng.standard_normal((64, k))
        stream = stream_requests(rng, n_req, k)
        mpi_a = fresh_mpi(capacity, min(preexisting, capacity))
        mpi_b = fresh_mpi(capacity, min(preexisting, capacity))
        per_op, bulk, want, got = both_accounts(
            mpi_a, mpi_b, source, *stream
        )
        np.testing.assert_array_equal(got, want)
        assert replay(mpi_a, per_op) == replay(mpi_b, bulk)
        assert state(mpi_a) == state(mpi_b)

    def test_mid_rank_oom_leaves_the_same_prefix(self, rng):
        source = rng.standard_normal((64, 2))
        request_ptr = np.array([0, 1, 2, 3, 4])
        offsets = np.array([0, 8, 16, 24])
        sizes = np.array([2, 3, 9, 1])  # 32, 48, 144, 16 bytes
        targets = np.array([1, 2, 1, 2])
        mpi_a, mpi_b = fresh_mpi(100), fresh_mpi(100)
        per_op, bulk, _, _ = both_accounts(
            mpi_a, mpi_b, source, request_ptr, offsets, sizes, targets
        )
        failure = replay(mpi_b, bulk)
        assert failure is not None and "144" in failure
        assert replay(mpi_a, per_op) == failure
        assert state(mpi_a) == state(mpi_b)
        assert mpi_b.traffic.onesided_requests == 2
        assert mpi_b.cluster.node(0).memory.peak == 48

    def test_event_cap_overflow_warns_once(self, rng, monkeypatch):
        monkeypatch.setattr(simmpi, "MAX_RECORDED_EVENTS", 5)
        source = rng.standard_normal((64, 2))
        stream = stream_requests(rng, 9, 2)
        mpi_a, mpi_b = fresh_mpi(1 << 20), fresh_mpi(1 << 20)
        per_op, bulk, _, _ = both_accounts(mpi_a, mpi_b, source, *stream)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            replay(mpi_a, per_op)
        with pytest.warns(RuntimeWarning) as caught:
            replay(mpi_b, bulk)
            replay(mpi_b, bulk)  # already dropping: no second warning
        assert len(caught) == 1
        assert len(mpi_b.events) == 5
        assert mpi_b.traffic.events_dropped == 4 + 9
        assert mpi_b.events == mpi_a.events
        assert mpi_b._ring._details == mpi_a._ring._details

    def test_stream_shape_is_validated(self, rng):
        mpi = fresh_mpi(1 << 20)
        source = rng.standard_normal((16, 2))
        offsets, sizes = np.array([0, 4]), np.array([2, 2])
        good = dict(label="r", charge_time=False)
        for kwargs in (
            dict(request_ptr=np.array([0, 1, 2]), label="r"),  # charges time
            dict(request_ptr=np.array([0, 2]), **good),  # 1 request, 2 targets
            dict(request_ptr=np.array([0, 0, 2]), **good),  # empty request
            dict(request_ptr=np.array([0, 1, 1]), **good),  # chunk left over
        ):
            with pytest.raises(CommunicationError):
                mpi.rget_row_chunks(
                    0, np.array([1, 2]), source, offsets, sizes, **kwargs
                )
        with pytest.raises(CommunicationError):  # one target is the origin
            mpi.rget_row_chunks(
                0, np.array([1, 0]), source, offsets, sizes,
                request_ptr=np.array([0, 1, 2]), **good,
            )


N_NODES = 8


@pytest.fixture
def kmer_like():
    return erdos_renyi(256, 256, 1500, seed=5)


class TestExecutionContracts:
    def test_cache_hits_equal_async_stripes_and_arenas_stay_warm(
        self, kmer_like, rng
    ):
        machine = MachineConfig(n_nodes=N_NODES)
        dist = DistSparseMatrix(kmer_like, RowPartition(256, N_NODES))
        plan, _ = preprocess(dist, k=8, stripe_width=8, force_all_async=True)
        assert plan.total_async_stripes() > N_NODES
        B = rng.standard_normal((256, 8))
        algo = TwoFace(plan=plan)
        first = algo.run(kmer_like, B, machine)
        # Rank-to-worker assignment varies at pooled widths; size every
        # worker's arena for the largest tile, as the GNN engine does.
        ceilings = arena_ceilings(plan, 8)
        # Every rank runs both lanes (local-input stripes are sync), so
        # the sync product sums in scratch: a whole rank block.
        assert all(r.sync_local.nnz for r in plan.ranks)
        assert ceilings["scatter"][0] >= 256 // N_NODES
        warm_arenas(get_exec_pool(), ceilings)
        for _ in range(2):
            before = transfer_cache_stats().snapshot()
            grows = arena_stats().grows
            again = algo.run(kmer_like, B, machine)
            hits, recomputes = transfer_cache_stats().snapshot()
            assert hits - before[0] == plan.total_async_stripes()
            assert recomputes == before[1]
            assert arena_stats().grows == grows
            assert again.C.tobytes() == first.C.tobytes()
        np.testing.assert_allclose(first.C, spmm_reference(kmer_like, B))

    def test_widths_1_and_4_bitwise(self, kmer_like, rng, monkeypatch):
        machine = MachineConfig(n_nodes=N_NODES)
        B = rng.standard_normal((256, 4))
        prints = []
        for width in ("1", "4"):
            monkeypatch.setenv(WORKERS_ENV, width)
            shutdown_exec_pool()
            result = TwoFace(
                stripe_width=8, force_all_async=True, plan_cache=None
            ).run(kmer_like, B, machine)
            prints.append((
                result.C.tobytes(), result.seconds.hex(), result.traffic,
                result.events,
            ))
        shutdown_exec_pool()
        assert prints[0] == prints[1]


def with_emptied_stripe(plan):
    """Empty one async stripe in place (a pattern edit that removed its
    nonzeros); returns the global coordinates that were dropped."""
    for rank_plan in plan.ranks:
        stripes = rank_plan.async_matrix.stripes
        if len(stripes) >= 2:
            victim = stripes[1]
            row_lo, _ = plan.geometry.row_partition.bounds(rank_plan.rank)
            dropped = (victim.nonzeros.rows + row_lo, victim.nonzeros.cols)
            stripes[1] = AsyncStripe(
                gid=victim.gid, owner=victim.owner,
                nonzeros=COOMatrix.empty(victim.nonzeros.shape),
                row_ids=np.zeros(0, dtype=np.int64),
            )
            return dropped
    raise AssertionError("no rank with two async stripes")


class TestEmptyAsyncStripe:
    """An async stripe with nothing in it issues no request: no bytes,
    no seconds, no event — the simulator, the shm transport and the
    tuner's model agree (the simulator used to raise, shm skipped it)."""

    @pytest.fixture
    def case(self, kmer_like, rng):
        machine = MachineConfig(n_nodes=N_NODES)
        dist = DistSparseMatrix(kmer_like, RowPartition(256, N_NODES))
        plan, _ = preprocess(
            dist, k=4, stripe_width=8, machine=machine, force_all_async=True
        )
        rows, cols = with_emptied_stripe(plan)
        gone = set(zip(rows.tolist(), cols.tolist()))
        keep = np.array([
            (r, c) not in gone
            for r, c in zip(kmer_like.rows.tolist(), kmer_like.cols.tolist())
        ])
        edited = COOMatrix(
            kmer_like.rows[keep], kmer_like.cols[keep], kmer_like.vals[keep],
            kmer_like.shape,
        )
        return machine, plan, edited, rng.standard_normal((256, 4))

    def test_simulator_runs_it_as_nothing(self, case):
        machine, plan, edited, B = case
        result = TwoFace(plan=plan).run(edited, B, machine)
        assert not result.failed
        np.testing.assert_allclose(result.C, spmm_reference(edited, B))
        fresh = TwoFace(
            stripe_width=8, force_all_async=True, plan_cache=None
        ).run(edited, B, machine)
        assert result.seconds.hex() == fresh.seconds.hex()
        assert result.traffic == fresh.traffic
        assert result.events == fresh.events

    def test_shm_and_tuner_agree_with_the_simulator(self, case, kmer_like):
        from repro.dist.grid import Grid1D
        from repro.transport.shm import ShmTransport
        from repro.tune import CostModel

        machine, plan, edited, B = case
        sim = TwoFace(plan=plan).run(edited, B, machine)
        if ShmTransport.available():
            shm = TwoFace(plan=plan).run(
                edited, B, machine, transport=ShmTransport(processes=2)
            )
            assert shm.traffic == sim.traffic
            np.testing.assert_allclose(shm.C, sim.C, rtol=1e-12)
        # The tuner prices a matrix, never a plan, so it cannot be
        # handed an edited one: it prices the matrix the plan came from.
        predicted = CostModel(machine, stripe_width=8).predict(
            kmer_like, 4, "AsyncFine", Grid1D(N_NODES)
        )
        ran = TwoFace(
            stripe_width=8, force_all_async=True, plan_cache=None
        ).run(kmer_like, B, machine)
        assert predicted.feasible
        assert predicted.seconds.hex() == ran.seconds.hex()
