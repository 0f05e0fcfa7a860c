"""The block-bucketed layer matrix against the code it replaced.

``BlockedMatrix`` took over from a dict of scipy CSR pieces per rank
(``bucket_slab``), the tuner's ``np.unique``-based layer statistics and
the scalar step loops of dense shifting.  All three are kept here as
oracles: tables, pieces, ``C``, simulated seconds, per-node breakdowns,
traffic and events must come out equal to the bit.  The plan-cache
satellites of the same change (grid stamp on a cached build, fractional
LRU slots, pricing that holds nothing) are checked at the end.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig, TwoFace
from repro.algorithms import AllGather, AsyncCoarse, DenseShifting
from repro.algorithms.schedule import BlockSchedule
from repro.cluster import FaultConfig
from repro.cluster.buffers import FetchArena
from repro.core.plancache import (
    PlanCache,
    PlanCacheNamespace,
    PlanCacheStats,
    cached_preprocess,
)
from repro.core.serialize import load_plan, plan_digest, save_plan
from repro.dist import DistSparseMatrix, RowPartition
from repro.dist.blocked import BlockedMatrix, bucket_blocks
from repro.dist.grid import make_grid
from repro.runtime.pool import WORKERS_ENV, get_exec_pool, shutdown_exec_pool
from repro.sparse import ops as sparse_ops
from repro.sparse import COOMatrix, CSRMatrix, erdos_renyi, spmm_row_panels
from repro.transport.shm import ShmTransport
from repro.tune import CostModel, Tuner

needs_shm = pytest.mark.skipif(
    not ShmTransport.available(),
    reason="shm transport needs fork + a writable /dev/shm",
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_exec_pool()
    yield
    shutdown_exec_pool()


# ----------------------------------------------------------------------
# Oracles: the replaced code, as it stood
# ----------------------------------------------------------------------
def oracle_bucket_slab(slab, col_partition, n_blocks, n_cols):
    """One scipy CSR piece per owner block, plus its two counts."""
    by_block, nnz_by_block, rows_by_block = {}, {}, {}
    if slab.nnz == 0:
        return by_block, nnz_by_block, rows_by_block
    owners = col_partition.owners_of(slab.cols)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    boundaries = np.searchsorted(sorted_owners, np.arange(n_blocks + 1))
    for block_id in range(n_blocks):
        lo, hi = boundaries[block_id], boundaries[block_id + 1]
        if lo == hi:
            continue
        sel = order[lo:hi]
        by_block[block_id] = sp.csr_matrix(
            (slab.vals[sel], (slab.rows[sel], slab.cols[sel])),
            shape=(slab.shape[0], n_cols),
        )
        nnz_by_block[block_id] = int(hi - lo)
        rows_by_block[block_id] = int(len(np.unique(slab.rows[sel])))
    return by_block, nnz_by_block, rows_by_block


def oracle_layer_tables(A_sub, row_part, col_part):
    """The tuner's former statistics: two ``np.unique`` passes."""
    p_r = row_part.n_parts
    rank_of = row_part.owners_of(A_sub.rows)
    block_of = col_part.owners_of(A_sub.cols)
    nnz_r = np.bincount(rank_of, minlength=p_r)
    uniq_rows = np.unique(A_sub.rows)
    rows_r = (
        np.bincount(row_part.owners_of(uniq_rows), minlength=p_r)
        if len(uniq_rows) else np.zeros(p_r, dtype=np.int64)
    )
    nnz_rb = np.bincount(
        rank_of * p_r + block_of, minlength=p_r * p_r
    ).reshape(p_r, p_r)
    uniq_rb = np.unique(A_sub.rows * p_r + block_of)
    if len(uniq_rb):
        rb_rank = row_part.owners_of(uniq_rb // p_r)
        rows_rb = np.bincount(
            rb_rank * p_r + (uniq_rb % p_r), minlength=p_r * p_r
        ).reshape(p_r, p_r)
    else:
        rows_rb = np.zeros((p_r, p_r), dtype=np.int64)
    return nnz_r, rows_r, nnz_rb, rows_rb


class OracleDenseShifting(DenseShifting):
    """Dense shifting as it ran before: scipy pieces, a pool pass per
    step, one scalar ``sync_panel_time`` per (step, rank)."""

    def _execute(self, ctx):
        p = ctx.n_nodes
        c = min(self.replication, p)
        n_groups = math.ceil(p / c)
        net = ctx.machine.network
        compute = ctx.machine.compute
        k = ctx.k
        faults = ctx.cluster.faults
        max_block_bytes = ctx.B.partition.max_size() * k * 8
        bundle_blocks = c + (c if n_groups > 1 else 0)
        for rank in range(p):
            ctx.cluster.node(rank).memory.allocate(
                "DS_replicas", (bundle_blocks - 1) * max_block_bytes
            )
        pool = get_exec_pool()
        pieces = pool.map(
            lambda rank: oracle_bucket_slab(
                ctx.A.slab(rank), ctx.B.partition, p, ctx.B.shape[0]
            ),
            p,
        )
        groups = [
            list(range(g * c, min((g + 1) * c, p))) for g in range(n_groups)
        ]
        if c > 1:
            gather_cost = net.allgather_time(max_block_bytes, c)
            gathered_bytes = (c - 1) * max_block_bytes
            for rank in range(p):
                cost = gather_cost
                if faults is not None:
                    cost *= faults.worst_incoming_scale(rank)
                ctx.breakdown.node(rank).sync_comm += cost
                ctx.mpi.traffic._recv(rank, gathered_bytes)
            ctx.mpi.traffic.collective_bytes += p * gathered_bytes
            ctx.mpi.traffic.collective_ops += n_groups
        shift_bytes = c * max_block_bytes
        shift_cost = net.p2p_time(shift_bytes)
        for step in range(n_groups):

            def rank_body(rank):
                my_group = min(rank // c, n_groups - 1)
                held = groups[(my_group + step) % n_groups]
                by_block, nnz_by_block, rows_by_block = pieces[rank]
                nnz_step = rows_step = 0
                c_block = ctx.C.block(rank)
                for block_id in held:
                    piece = by_block.get(block_id)
                    if piece is None:
                        continue
                    c_block += piece @ ctx.B.data
                    nnz_step += nnz_by_block[block_id]
                    rows_step += rows_by_block[block_id]
                seconds = compute.sync_panel_time(
                    nnz_step, k, rows_step, ctx.threads.total
                )
                if faults is not None:
                    seconds *= faults.compute_skew(rank)
                return seconds

            comp_times = np.asarray(pool.map(rank_body, p))
            step_max = float(comp_times.max(initial=0.0))
            is_last = step == n_groups - 1
            for rank in range(p):
                node = ctx.breakdown.node(rank)
                node.sync_comp += comp_times[rank]
                node.sync_comm += step_max - comp_times[rank]
                if not is_last:
                    cost = shift_cost
                    if faults is not None:
                        cost *= faults.link_scale((rank + 1) % p, rank)
                    node.sync_comm += cost
                    ctx.mpi.traffic.p2p_bytes += shift_bytes
                    ctx.mpi.traffic.p2p_messages += 1
                    ctx.mpi.traffic._recv(rank, shift_bytes)


def observables(result):
    """Everything a run reports, floats as hex."""
    if result.failed:
        return ("failed", result.failure)
    return {
        "C": result.C.tobytes(),
        "seconds": float(result.seconds).hex(),
        "nodes": [
            tuple(
                float(getattr(node, lane)).hex()
                for lane in ("sync_comm", "sync_comp", "async_comm",
                             "async_comp", "other")
            )
            for node in result.breakdown.nodes
        ],
        "traffic": dict(vars(result.traffic)),
        "events": [
            (e.kind, e.source, e.destination, e.nbytes)
            for e in result.events
        ],
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def layers(draw, duplicates=False):
    """``(matrix, p)``: a layer's ``A`` (global rows) and a rank count
    both partitions can populate; shapes rarely divide by ``p``."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(p, 40))
    m = draw(st.integers(p, 40))
    kind = draw(st.sampled_from(
        ["random", "hypersparse", "banded", "empty-rank", "empty-block"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "banded":
        rows = np.repeat(np.arange(n), 3)
        cols = np.clip(rows * m // n + np.tile([-1, 0, 1], n), 0, m - 1)
        cols[1::3] = rows[1::3] * m // n  # keep coordinates distinct
    else:
        nnz = 3 if kind == "hypersparse" else draw(st.integers(0, 160))
        rows, cols = rng.integers(0, n, nnz), rng.integers(0, m, nnz)
    if kind == "empty-rank":
        start, stop = RowPartition(n, p).bounds(int(rng.integers(p)))
        keep = (rows < start) | (rows >= stop)
        rows, cols = rows[keep], cols[keep]
    if kind == "empty-block":
        start, stop = RowPartition(m, p).bounds(int(rng.integers(p)))
        keep = (cols < start) | (cols >= stop)
        rows, cols = rows[keep], cols[keep]
    if not duplicates:
        _, first = np.unique(rows * m + cols, return_index=True)
        rows, cols = rows[first], cols[first]
    order = rng.permutation(len(rows))  # storage order is arbitrary
    vals = rng.standard_normal(len(rows))
    return COOMatrix(rows[order], cols[order], vals, (n, m)), p


def piece_csr(blocked, rank, block, n_rows):
    """Piece ``(rank, block)`` of a BlockedMatrix as a CSR triplet."""
    s0, s1 = blocked.block_ptr[rank, block], blocked.block_ptr[rank, block + 1]
    lo, hi = blocked.seg_ptr[s0], blocked.seg_ptr[s1]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[blocked.seg_rows[s0:s1] + 1] = np.diff(blocked.seg_ptr[s0:s1 + 1])
    return np.cumsum(indptr), blocked.indices[lo:hi], blocked.data[lo:hi]


# ----------------------------------------------------------------------
# The structure
# ----------------------------------------------------------------------
class TestBuild:
    @settings(max_examples=200, deadline=None)
    @given(layers(), st.sampled_from([1, 8, 128]))
    def test_tables_pieces_and_products(self, layer, k):
        matrix, p = layer
        n, m = matrix.shape
        row_part, col_part = RowPartition(n, p), RowPartition(m, p)
        blocked = BlockedMatrix.build(matrix, row_part, col_part)
        nnz_r, rows_r, nnz_rb, rows_rb = oracle_layer_tables(
            matrix, row_part, col_part
        )
        for name, want in (("nnz_r", nnz_r), ("rows_r", rows_r),
                           ("nnz_rb", nnz_rb), ("rows_rb", rows_rb)):
            assert np.array_equal(getattr(blocked, name), want), name
        assert np.array_equal(
            bucket_blocks(matrix, row_part, col_part)[1], nnz_rb
        )
        assert blocked.block_ptr.shape == (p, p + 1)

        B = np.random.default_rng(0).standard_normal((m, k))
        arena = FetchArena()
        slabs = DistSparseMatrix(matrix, row_part).slabs
        for rank, slab in enumerate(slabs):
            by_block, nnz_by, rows_by = oracle_bucket_slab(
                slab, col_part, p, m
            )
            got, want = np.zeros((slab.shape[0], k)), np.zeros(
                (slab.shape[0], k)
            )
            for block in range(p):
                piece = by_block.get(block)
                assert nnz_rb[rank, block] == nnz_by.get(block, 0)
                assert rows_rb[rank, block] == rows_by.get(block, 0)
                indptr, indices, data = piece_csr(
                    blocked, rank, block, slab.shape[0]
                )
                if piece is None:
                    assert len(indices) == 0
                    continue
                assert np.array_equal(indptr, piece.indptr)
                assert np.array_equal(indices, piece.indices)
                assert data.tobytes() == piece.data.tobytes()
                want += piece @ B
            # Any contiguous range of blocks, applied in one call.
            blocked.multiply_into(got, B, rank, 0, p, arena=arena)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(layers(duplicates=True))
    def test_duplicates_fold_in_storage_order(self, layer):
        matrix, p = layer
        n, m = matrix.shape
        row_part, col_part = RowPartition(n, p), RowPartition(m, p)
        blocked = BlockedMatrix.build(matrix, row_part, col_part)
        _, _, nnz_rb, rows_rb = oracle_layer_tables(matrix, row_part, col_part)
        assert np.array_equal(blocked.nnz_rb, nnz_rb)  # stored, unfolded
        assert np.array_equal(blocked.rows_rb, rows_rb)
        for rank, slab in enumerate(DistSparseMatrix(matrix, row_part).slabs):
            # The same fold CSRMatrix.from_coo performs, bit for bit.
            ordered = slab.select(np.lexsort((
                slab.cols, slab.rows, col_part.owners_of(slab.cols),
            )))
            by_block, _, _ = oracle_bucket_slab(slab, col_part, p, m)
            for block in range(p):
                indptr, indices, data = piece_csr(
                    blocked, rank, block, slab.shape[0]
                )
                if block not in by_block:
                    assert len(data) == 0
                    continue
                sel = col_part.owners_of(ordered.cols) == block
                folded = CSRMatrix.from_coo(ordered.select(sel))
                assert np.array_equal(indptr, folded.indptr)
                assert np.array_equal(indices, folded.indices)
                assert data.tobytes() == folded.data.tobytes()
                # scipy folds the same runs in an unspecified order.
                assert np.array_equal(indices, by_block[block].indices)
                np.testing.assert_allclose(
                    data, by_block[block].data, rtol=1e-12, atol=1e-12
                )

    def test_fused_key_overflow_falls_back_to_lexsort(self):
        # p * p * height * width >= 2**63 cannot be fused into one int64.
        n, m, p = 6, 2**61, 2
        rows = np.array([5, 0, 5, 2, 0])
        cols = np.array([m - 1, m - 1, 0, 7, 3])
        matrix = COOMatrix(rows, cols, np.arange(5.0), (n, m))
        blocked = BlockedMatrix.build(
            matrix, RowPartition(n, p), RowPartition(m, p)
        )
        assert blocked.nnz_rb.tolist() == [[2, 1], [1, 1]]
        assert blocked.indices.tolist() == [3, 7, m - 1, 0, m - 1]
        assert blocked.data.tolist() == [4.0, 3.0, 1.0, 2.0, 0.0]
        assert blocked.seg_rows.tolist() == [0, 2, 0, 2, 2]
        assert blocked.rows_r.tolist() == [2, 1]


class TestRowPanelKernel:
    """Allgather / AsyncCoarse / shm block compute: one CSR per slab."""

    @settings(max_examples=150, deadline=None)
    @given(layers(), st.sampled_from([1, 8, 128]))
    def test_bitwise_scipy_slab_product(self, layer, k):
        matrix, p = layer
        B = np.random.default_rng(1).standard_normal((matrix.shape[1], k))
        col_part = RowPartition(matrix.shape[1], p)
        _, nnz_rb = bucket_blocks(
            matrix, RowPartition(matrix.shape[0], p), col_part
        )
        dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], p))
        for rank, slab in enumerate(dist.slabs):
            want = np.zeros((slab.shape[0], k))
            nonempty = 0
            if slab.nnz:
                csr = slab.to_scipy().tocsr()
                want += csr @ B
                nonempty = int(np.count_nonzero(np.diff(csr.indptr)))
            got = np.zeros_like(want)
            done = spmm_row_panels(
                CSRMatrix.from_coo(slab), B, got, arena=FetchArena()
            )
            assert got.tobytes() == want.tobytes()
            assert done.rows_written == nonempty
            # AsyncCoarse's needed blocks, read off the table.
            assert np.array_equal(
                np.flatnonzero(nnz_rb[rank]),
                np.unique(col_part.owners_of(slab.cols)),
            )


class TestWithoutThePrivateKernel:
    """A scipy without ``_sparsetools.csr_matvecs``: the numpy fallback
    is handed windows of the layer's pointers (pieces, absolute
    offsets) and repeated pointers (a slab's empty rows)."""

    @settings(max_examples=100, deadline=None)
    @given(layers(), st.sampled_from([1, 8]))
    def test_pieces_and_slabs(self, layer, k):
        matrix, p = layer
        n, m = matrix.shape
        row_part, col_part = RowPartition(n, p), RowPartition(m, p)
        blocked = BlockedMatrix.build(matrix, row_part, col_part)
        B = np.random.default_rng(4).standard_normal((m, k))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse_ops, "_csr_matvecs", None)
            slabs = DistSparseMatrix(matrix, row_part).slabs
            for rank, slab in enumerate(slabs):
                want = slab.to_scipy() @ B
                held = np.zeros_like(want)
                for block in range(p):  # one piece per call
                    blocked.multiply_into(held, B, rank, block, block + 1)
                whole = np.zeros_like(want)
                spmm_row_panels(CSRMatrix.from_coo(slab), B, whole)
                np.testing.assert_allclose(held, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(whole, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", ["1d", "2d"])
    @pytest.mark.parametrize(
        "algorithm", [DenseShifting(2), AllGather(), AsyncCoarse()],
        ids=lambda a: a.name,
    )
    def test_whole_runs(self, algorithm, layout, monkeypatch):
        A = erdos_renyi(100, 90, 300, seed=3)  # has empty rows
        B = np.random.default_rng(2).standard_normal((90, 8))
        machine = MachineConfig(n_nodes=8, memory_capacity=1 << 30)
        grid = None if layout == "1d" else make_grid("2d", 8)
        want = algorithm.run(A, B, machine, grid=grid)
        monkeypatch.setattr(sparse_ops, "_csr_matvecs", None)
        got = algorithm.run(A, B, machine, grid=grid)
        assert got.seconds == want.seconds
        np.testing.assert_allclose(got.C, want.C, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.C, A.to_scipy() @ B, atol=1e-12)


# ----------------------------------------------------------------------
# The seconds function and whole runs
# ----------------------------------------------------------------------
class TestStepSeconds:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([1, 8, 128]), st.integers(0, 2**32 - 1))
    def test_equals_the_scalar_loops(self, p, c, k, seed):
        rng = np.random.default_rng(seed)
        nnz_rb = rng.integers(0, 50, (p, p))
        rows_rb = np.minimum(nnz_rb, rng.integers(0, 9, (p, p)))
        compute = MachineConfig(n_nodes=p).compute
        c = min(c, p)
        n_groups = math.ceil(p / c)
        groups = [
            list(range(g * c, min((g + 1) * c, p))) for g in range(n_groups)
        ]
        schedule = BlockSchedule.dense_shifting(
            RowPartition(p, p), k, c
        )
        nnz, rows = schedule.step_work(
            SimpleNamespace(nnz_rb=nnz_rb, rows_rb=rows_rb)
        )
        got = compute.sync_panel_time(nnz, k, rows, 6)
        first, last = schedule.held
        assert got.shape == first.shape == last.shape == (n_groups, p)
        for step in range(n_groups):
            for r in range(p):
                held = groups[(min(r // c, n_groups - 1) + step) % n_groups]
                assert list(range(first[step, r], last[step, r])) == held
                want = compute.sync_panel_time(
                    int(nnz_rb[r, held].sum()), k,
                    int(rows_rb[r, held].sum()), 6,
                )
                assert float(got[step, r]).hex() == float(want).hex()


@pytest.fixture(scope="module")
def problem():
    A = erdos_renyi(100, 90, 900, seed=3)  # neither divides by 8 or 4
    B = np.random.default_rng(2).standard_normal((90, 8))
    return A, B


def _machine(faulty):
    faults = FaultConfig.from_intensity(0.3, seed=11) if faulty else None
    return MachineConfig(n_nodes=8, memory_capacity=1 << 30, faults=faults)


GRIDS = {
    "1d": None,
    "1.5d": make_grid("1.5d", 8, c=2),
    "2d": make_grid("2d", 8),
}


class TestWholeRuns:
    @settings(max_examples=60, deadline=None)
    @given(layers(), st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([1, 8, 128]))
    def test_random_layers_equal_the_oracle(self, layer, c, k):
        matrix, p = layer  # c > p and c not dividing p both occur
        B = np.random.default_rng(3).standard_normal((matrix.shape[1], k))
        machine = MachineConfig(n_nodes=p, memory_capacity=1 << 30)
        assert observables(
            DenseShifting(c).run(matrix, B, machine)
        ) == observables(OracleDenseShifting(c).run(matrix, B, machine))

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("layout", sorted(GRIDS))
    @pytest.mark.parametrize("c", [1, 2, 4, 8])
    def test_sim_equals_the_oracle(
        self, problem, c, layout, faulty, width, monkeypatch
    ):
        monkeypatch.setenv(WORKERS_ENV, str(width))
        A, B = problem
        grid, machine = GRIDS[layout], _machine(faulty)
        got = DenseShifting(c).run(A, B, machine, grid=grid)
        want = OracleDenseShifting(c).run(A, B, machine, grid=grid)
        assert not want.failed
        assert observables(got) == observables(want)

    @needs_shm
    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("layout", sorted(GRIDS))
    @pytest.mark.parametrize("c", [1, 2, 4, 8])
    def test_shm_equals_the_oracle(self, problem, c, layout, faulty):
        A, B = problem
        grid, machine = GRIDS[layout], _machine(faulty)
        want = OracleDenseShifting(c).run(A, B, machine, grid=grid)
        for processes in (1, 4):
            got = DenseShifting(c).run(
                A, B, machine, grid=grid,
                transport=ShmTransport(processes=processes),
            )
            assert got.C.tobytes() == want.C.tobytes()
            assert vars(got.traffic) == vars(want.traffic)

    @needs_shm
    @pytest.mark.parametrize("factory", [AllGather, AsyncCoarse])
    @pytest.mark.parametrize("layout", sorted(GRIDS))
    def test_block_baselines_on_shm(self, problem, factory, layout):
        A, B = problem
        machine = _machine(False)
        sim = factory().run(A, B, machine, grid=GRIDS[layout])
        shm = factory().run(
            A, B, machine, grid=GRIDS[layout],
            transport=ShmTransport(processes=2),
        )
        assert shm.C.tobytes() == sim.C.tobytes()
        assert vars(shm.traffic) == vars(sim.traffic)

    def test_tuner_prices_with_the_same_tables(self, problem):
        A, _ = problem
        machine = _machine(False)
        names = ["DS1", "DS2", "DS4", "DS8", "Allgather", "AsyncCoarse"]
        B = np.ones((A.shape[1], 8))
        model = CostModel(machine)
        for grid in (make_grid("1d", 8), GRIDS["1.5d"], GRIDS["2d"]):
            for name, guess in zip(
                names, model.predict_cell(A, 8, names, [grid])
            ):
                algorithm = (
                    DenseShifting(int(name[2:])) if name.startswith("DS")
                    else {"Allgather": AllGather,
                          "AsyncCoarse": AsyncCoarse}[name]()
                )
                ran = algorithm.run(A, B, machine, grid=grid)
                assert guess.seconds == ran.seconds, (
                    name, grid.cache_token()
                )


# ----------------------------------------------------------------------
# Plan-cache satellites
# ----------------------------------------------------------------------
def _layer_plans(grid, cache, k=8, **kwargs):
    """``cached_preprocess`` of every layer of ``grid``, as gridrun and
    the tuner call it; returns ``(plans, reports)``."""
    from repro.algorithms.gridrun import column_subset

    A = erdos_renyi(96, 96, 700, seed=5)
    out = []
    for layer in range(grid.depth):
        A_sub = column_subset(A, grid.layer_col_ids(layer, A.shape[1]))
        dist = DistSparseMatrix(A_sub, RowPartition(96, grid.p_r))
        out.append(cached_preprocess(
            dist, k=k, stripe_width=8,
            machine=MachineConfig(n_nodes=grid.p_r),
            cache=cache, grid=grid if grid.depth > 1 else None, **kwargs,
        ))
    return [plan for plan, _ in out], [report for _, report in out]


class TestGridStamp:
    def test_cached_builds_carry_the_grid(self, tmp_path):
        grid = make_grid("2d", 16)
        assert grid.depth == 4
        uncached, _ = _layer_plans(grid, None)
        cache = PlanCache(cache_dir=tmp_path, stats=PlanCacheStats())
        missed, reports = _layer_plans(grid, cache)
        assert not any(r.cache_hit for r in reports)
        hit, reports = _layer_plans(grid, cache)
        assert all(r.cache_hit for r in reports)
        cold = PlanCache(cache_dir=tmp_path, stats=PlanCacheStats())
        loaded, reports = _layer_plans(grid, cold)  # save -> load
        assert all(r.cache_hit for r in reports)
        for plans in (uncached, missed, hit, loaded):
            assert [p.grid for p in plans] == [grid] * 4
        for reference, *others in zip(uncached, missed, hit, loaded):
            for plan in others:
                assert plan_digest(plan) == plan_digest(reference)
                assert plan.plan_nbytes() == reference.plan_nbytes()

    def test_roundtrip_keeps_the_stamp(self, tmp_path):
        grid = make_grid("1.5d", 8, c=2)
        (plan, _), _ = _layer_plans(grid, PlanCache())
        save_plan(plan, tmp_path / "layer.plan")
        assert load_plan(tmp_path / "layer.plan").grid == grid


class TestSlots:
    def test_a_grid_run_fills_one_slot(self):
        stats = PlanCacheStats()
        cache = PlanCache(max_memory_entries=2, stats=stats)
        deep, _ = _layer_plans(make_grid("2d", 16), cache)  # 4 x 1/4
        flat, _ = _layer_plans(make_grid("1d", 16), cache)  # 1
        assert len(cache) == 5 and stats.evictions == 0
        _layer_plans(make_grid("2d", 16), cache)
        _layer_plans(make_grid("1d", 16), cache)
        assert (stats.hits, stats.misses, stats.evictions) == (5, 5, 0)
        # One more run's worth pushes out the oldest *run*: the four
        # layer plans go before the 1D plan is touched.
        _layer_plans(make_grid("1d", 16), cache, k=16)
        assert stats.evictions == 4 and len(cache) == 2
        assert all(plan.grid is None for plan in cache._memory.values())
        cache.clear()
        assert len(cache) == 0

    @pytest.mark.parametrize("make", [
        lambda: PlanCache(max_memory_entries=2, stats=PlanCacheStats()),
        lambda: PlanCacheNamespace(PlanCache(), "t", max_memory_entries=2),
    ])
    def test_1d_plans_evict_as_before(self, make):
        cache = make()
        (plan,), _ = _layer_plans(make_grid("1d", 16), None)
        for key in ("a", "b"):
            cache.put(key, plan)
        cache.get("a")
        cache.put("c", plan)  # evicts "b", the least recently used
        cache.put("a", plan)  # re-storing a key holds it once
        assert list(cache._memory) == ["c", "a"]
        assert cache.stats.evictions == 1

    def test_tuning_leaves_the_working_set_alone(self, problem, tmp_path):
        """Pricing builds no plan: it neither reads, evicts from nor
        adds to the caller's cache, and the run that follows plans for
        itself."""
        A, B = problem
        stats = PlanCacheStats()
        cache = PlanCache(cache_dir=tmp_path, stats=stats)
        (plan,), _ = _layer_plans(make_grid("1d", 16), None)
        cache.put("hot", plan)
        before = stats.snapshot()
        Tuner(_machine(False), plan_cache=cache).tune(A, 8)
        assert list(cache._memory) == ["hot"]
        assert stats.snapshot() == before
        TwoFace(plan_cache=cache).run(A, B, _machine(False))
        assert (stats.hits, stats.misses) == (0, 1)
