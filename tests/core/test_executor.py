"""Unit tests for the Two-Face executor (Algorithms 1-3)."""

import numpy as np
import pytest
import scipy.sparse

from repro import MachineConfig
from repro.algorithms import TwoFace
from repro.cluster import Cluster, SimMPI
from repro.cluster.buffers import arena_stats, reset_arenas, warm_arenas
from repro.cluster.faults import FaultConfig, compile_faults
from repro.core import (
    bernoulli_mask,
    executor,
    load_plan,
    preprocess,
    save_plan,
)
from repro.core.executor import sync_lane_seconds, sync_transfers
from repro.dist import DistSparseMatrix, RowPartition
from repro.dist.grid import make_grid
from repro.errors import OutOfMemoryError, PartitionError
from repro.runtime.pool import WORKERS_ENV, get_exec_pool, shutdown_exec_pool
from repro.runtime.trace import TimeBreakdown
from repro.sparse import (
    SCATTER_ENV,
    COOMatrix,
    banded,
    erdos_renyi,
    ops,
    spmm_reference,
    uniform_random,
)
from repro.transport.shm import ShmTransport


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 32])
    def test_matches_reference_random(self, small_machine, rng, k):
        A = erdos_renyi(64, 64, 400, seed=3)
        B = rng.standard_normal((64, k))
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        assert not result.failed
        np.testing.assert_allclose(result.C, spmm_reference(A, B))

    def test_matches_reference_banded(self, small_machine, rng):
        A = banded(96, bandwidth=6, avg_degree=5, seed=3)
        B = rng.standard_normal((96, 8))
        result = TwoFace(stripe_width=8).run(A, B, small_machine)
        np.testing.assert_allclose(result.C, spmm_reference(A, B))

    def test_matches_reference_sparse(self, small_machine, rng):
        A = uniform_random(128, avg_degree=1.5, seed=3)
        B = rng.standard_normal((128, 16))
        result = TwoFace(stripe_width=16).run(A, B, small_machine)
        np.testing.assert_allclose(result.C, spmm_reference(A, B))

    def test_all_async_plan_correct(self, small_machine, rng):
        A = erdos_renyi(64, 64, 300, seed=5)
        B = rng.standard_normal((64, 8))
        result = TwoFace(stripe_width=4, force_all_async=True).run(
            A, B, small_machine
        )
        np.testing.assert_allclose(result.C, spmm_reference(A, B))

    def test_all_sync_plan_correct(self, small_machine, rng):
        A = erdos_renyi(64, 64, 300, seed=5)
        B = rng.standard_normal((64, 8))
        result = TwoFace(stripe_width=4, force_all_sync=True).run(
            A, B, small_machine
        )
        np.testing.assert_allclose(result.C, spmm_reference(A, B))

    def test_empty_matrix(self, small_machine, rng):
        from repro.sparse import COOMatrix

        A = COOMatrix.empty((32, 32))
        B = rng.standard_normal((32, 4))
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        np.testing.assert_array_equal(result.C, np.zeros((32, 4)))

    def test_single_node(self, rng):
        machine = MachineConfig(n_nodes=1, memory_capacity=1 << 30)
        A = erdos_renyi(32, 32, 200, seed=1)
        B = rng.standard_normal((32, 4))
        result = TwoFace(stripe_width=8).run(A, B, machine)
        np.testing.assert_allclose(result.C, spmm_reference(A, B))
        # Everything local: no communication at all.
        assert result.traffic.total_bytes == 0


class TestLaneAccounting:
    def test_breakdown_components_populated(self, small_machine, rng):
        A = erdos_renyi(64, 64, 500, seed=2)
        B = rng.standard_normal((64, 16))
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        means = result.breakdown.component_means()
        assert means.sync_comp > 0
        assert means.other > 0

    def test_makespan_is_max_node_total(self, small_machine, rng):
        A = erdos_renyi(64, 64, 500, seed=2)
        B = rng.standard_normal((64, 16))
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        totals = [n.total for n in result.breakdown.nodes]
        assert result.seconds == pytest.approx(max(totals))

    def test_async_lane_time_present_for_async_plan(
        self, small_machine, rng
    ):
        A = uniform_random(128, avg_degree=1.0, seed=2)
        B = rng.standard_normal((128, 8))
        algo = TwoFace(stripe_width=16, force_all_async=True)
        result = algo.run(A, B, small_machine)
        means = result.breakdown.component_means()
        assert means.async_comm > 0
        assert means.async_comp > 0
        assert means.sync_comm == 0  # no multicasts in all-async mode

    def test_all_sync_has_no_async_time(self, small_machine, rng):
        A = erdos_renyi(64, 64, 300, seed=2)
        B = rng.standard_normal((64, 8))
        result = TwoFace(stripe_width=4, force_all_sync=True).run(
            A, B, small_machine
        )
        means = result.breakdown.component_means()
        assert means.async_comm == 0
        assert means.async_comp == 0


class TestTrafficAccounting:
    def test_async_bytes_match_rows_fetched(self, small_machine, rng):
        A = uniform_random(128, avg_degree=1.0, seed=4)
        B = rng.standard_normal((128, 8))
        algo = TwoFace(stripe_width=16, force_all_async=True)
        result = algo.run(A, B, small_machine)
        # At K=8 the coalescing gap is ~16, so some useless rows may be
        # fetched; bytes must be at least the useful rows.
        useful = algo.last_plan.total_async_rows() * 8 * 8
        assert result.traffic.onesided_bytes >= useful
        assert result.traffic.collective_bytes == 0

    def test_sync_bytes_match_multicast_payloads(self, small_machine, rng):
        A = erdos_renyi(64, 64, 600, seed=4)
        B = rng.standard_normal((64, 8))
        algo = TwoFace(stripe_width=4, force_all_sync=True)
        result = algo.run(A, B, small_machine)
        plan = algo.last_plan
        expected = sum(
            plan.geometry.width_of(gid) * 8 * 8
            for gid, dests in plan.stripe_destinations.items()
            if dests
        )
        assert result.traffic.collective_bytes == expected
        assert result.traffic.onesided_bytes == 0


class TestPlanReuse:
    def test_precomputed_plan_reused(self, small_machine, rng):
        A = erdos_renyi(64, 64, 400, seed=6)
        B = rng.standard_normal((64, 8))
        first = TwoFace(stripe_width=4)
        r1 = first.run(A, B, small_machine)
        second = TwoFace(plan=first.last_plan)
        r2 = second.run(A, B, small_machine)
        np.testing.assert_allclose(r1.C, r2.C)
        assert r2.seconds == pytest.approx(r1.seconds)
        assert second.last_report is None  # no preprocessing happened

    def test_plan_wrong_k_rejected(self, small_machine, rng):
        A = erdos_renyi(64, 64, 400, seed=6)
        first = TwoFace(stripe_width=4)
        first.run(A, rng.standard_normal((64, 8)), small_machine)
        second = TwoFace(plan=first.last_plan)
        with pytest.raises(PartitionError):
            second.run(A, rng.standard_normal((64, 16)), small_machine)

    def test_plan_wrong_nodes_rejected(self, small_machine, rng):
        A = erdos_renyi(64, 64, 400, seed=6)
        B = rng.standard_normal((64, 8))
        first = TwoFace(stripe_width=4)
        first.run(A, B, small_machine)
        other_machine = MachineConfig(n_nodes=8, memory_capacity=1 << 30)
        with pytest.raises(PartitionError):
            TwoFace(plan=first.last_plan).run(A, B, other_machine)


class TestExtras:
    def test_extras_report_classification(self, small_machine, rng):
        A = erdos_renyi(64, 64, 400, seed=8)
        B = rng.standard_normal((64, 8))
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        extras = result.extras
        assert extras["sync_stripes"] >= 0
        assert extras["async_stripes"] >= 0
        assert extras["local_stripes"] > 0
        assert extras["preprocess_report"] is not None

    def test_mean_multicast_fanout_bounded(self, small_machine, rng):
        A = erdos_renyi(64, 64, 2000, seed=8)  # dense-ish
        B = rng.standard_normal((64, 8))
        result = TwoFace(stripe_width=4, force_all_sync=True).run(
            A, B, small_machine
        )
        fanout = result.extras["mean_multicast_fanout"]
        assert 0 < fanout <= small_machine.n_nodes - 1


# ----------------------------------------------------------------------
# Sync lane: the multicast table, its seconds, and the product
# ----------------------------------------------------------------------
def loop_sync_transfers(net, geometry, stripe_destinations, k, n_nodes,
                        faults=None, mpi=None, sync_comm=None):
    """PR 15's ``executor._sync_transfers`` loop, kept as the oracle:
    the ``SimMPI.multicast`` calls it makes (root, columns, receivers;
    issued on ``mpi`` when given) and the ``sync_comm`` it books with
    ``+=`` (into the caller's list, so an OOM leaves the prefix)."""
    sync_comm = [0.0] * n_nodes if sync_comm is None else sync_comm
    calls = []
    for gid, dests in sorted(stripe_destinations.items()):
        if not dests:
            continue
        owner = geometry.owner_of_stripe(gid)
        lo, hi = geometry.col_bounds(gid)
        receivers = [d for d in dests if d != owner]
        if not receivers:
            continue
        calls.append((owner, lo, hi, receivers))
        if mpi is not None:
            mpi.multicast(
                owner, np.empty((hi - lo, k)), receivers,
                label="dense_stripe_recv", charge_time=False,
            )
        cost = net.bcast_time(int((hi - lo) * k * 8), len(receivers))
        if faults is None:
            sync_comm[owner] += cost
            for dest in receivers:
                sync_comm[dest] += cost
        else:
            scales = [faults.link_scale(owner, d) for d in receivers]
            sync_comm[owner] += cost * max(scales)
            for dest, scale in zip(receivers, scales):
                sync_comm[dest] += cost * scale
    return sync_comm, calls


def program_calls(program):
    ptr = program.recv_ptr.tolist()
    return [
        (owner, lo, hi, program.recv_ranks[ptr[i]:ptr[i + 1]].tolist())
        for i, (owner, lo, hi) in enumerate(zip(
            program.owners.tolist(), program.col_lo.tolist(),
            program.col_hi.tolist(),
        ))
    ]


def loop_lane_of_program(net, program, k, faults=None):
    """:func:`loop_sync_transfers` over a sync program's own rows — a
    drop-in for ``sync_lane_seconds`` (the tuner test patches it in)."""
    calls = program_calls(program)

    class Table:
        owner_of_stripe = staticmethod(lambda i: calls[i][0])
        col_bounds = staticmethod(lambda i: calls[i][1:3])

    dests = {i: call[3] for i, call in enumerate(calls)}
    return np.array(loop_sync_transfers(
        net, Table, dests, k, program.n_nodes, faults
    )[0])


class TestSyncLane:
    @pytest.fixture
    def plan(self):
        # 100 columns over 8 ranks in stripes of 3: ragged parts and
        # narrow edge stripes (n does not divide by p, nor by W).
        A = erdos_renyi(100, 100, 1800, seed=9)
        dist = DistSparseMatrix(A, RowPartition(100, 8))
        plan, _ = preprocess(dist, k=8, stripe_width=3, force_all_sync=True)
        owner_of = plan.geometry.owner_of_stripe
        used = sorted(plan.stripe_destinations)
        # No multicast: an empty list, and the owner as only receiver.
        plan.stripe_destinations[used[1]] = []
        plan.stripe_destinations[used[2]] = [owner_of(used[2])]
        # The owner listed among unsorted receivers is skipped in place.
        others = [r for r in range(8) if r != owner_of(used[0])]
        plan.stripe_destinations[used[0]] = [
            others[3], owner_of(used[0]), others[0],
        ]
        return plan

    def test_program_is_the_loops_call_sequence(self, plan, tmp_path):
        net = MachineConfig(n_nodes=8).network
        _, calls = loop_sync_transfers(
            net, plan.geometry, plan.stripe_destinations, 8, 8
        )
        assert len(calls) > 8 and any(hi - lo < 3 for _, lo, hi, _ in calls)
        program = plan.sync_program
        assert program_calls(program) == calls
        assert program is plan.sync_program  # built once
        assert program.payload_bytes(8).tolist() == [
            (hi - lo) * 64 for _, lo, hi, _ in calls
        ]
        save_plan(plan, tmp_path / "plan.bin")
        again = load_plan(tmp_path / "plan.bin")
        assert again.stripe_destinations == plan.stripe_destinations
        assert program_calls(again.sync_program) == calls

    @pytest.mark.parametrize("intensity", [None, 0.3])
    def test_seconds_equal_the_loop_to_the_float_hex(self, plan, intensity):
        net = MachineConfig(n_nodes=8).network
        faults = None
        if intensity is not None:
            faults = compile_faults(
                FaultConfig.from_intensity(intensity, seed=4), 8
            )
            assert (faults._scale > 1.0).any()  # links are degraded
        for k in (1, 8, 512):
            want, _ = loop_sync_transfers(
                net, plan.geometry, plan.stripe_destinations, k, 8, faults
            )
            got = sync_lane_seconds(net, plan.sync_program, k, faults)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
            assert max(want) > 0.0
            np.testing.assert_array_equal(
                loop_lane_of_program(net, plan.sync_program, k, faults), want
            )

    def test_mid_lane_oom_books_the_issued_prefix(self, plan):
        machine = MachineConfig(n_nodes=8, memory_capacity=2000)
        states = []
        for batched in (False, True):
            mpi = SimMPI(Cluster(machine))
            booked = [0.0] * 8
            breakdown = TimeBreakdown.zeros(8)
            with pytest.raises(OutOfMemoryError) as oom:
                if batched:
                    sync_transfers(plan, mpi, breakdown, 8)
                else:
                    loop_sync_transfers(
                        machine.network, plan.geometry,
                        plan.stripe_destinations, 8, 8, mpi=mpi,
                        sync_comm=booked,
                    )
            if batched:
                booked = [node.sync_comm for node in breakdown.nodes]
            states.append((
                str(oom.value), mpi.traffic, list(mpi.events),
                [seconds.hex() for seconds in booked],
                [(n.memory.current, n.memory.peak)
                 for n in mpi.cluster.nodes],
            ))
        assert states[0] == states[1]
        assert 0 < states[0][1].collective_ops < len(
            plan.sync_program.owners
        )


def oracle_product(C, csr, B, fresh, arena=None):
    """What both ``csr @ B`` sites computed before the shared entry
    point: scipy's product into a temporary, added to the block."""
    handle = scipy.sparse.csr_matrix(
        (csr.data, csr.indices, csr.indptr), shape=(C.shape[0], B.shape[0])
    )
    C[:] += handle @ B


class TestSyncProduct:
    """``C`` bytes equal the ``C += csr @ B`` oracle on every path."""

    @pytest.fixture
    def problem(self):
        # A band (sync) plus scattered entries in the upper half's rows
        # (async): ranks 0-3 run both lanes, ranks 4-7 only the sync
        # product — the write-first branch.
        band = banded(192, bandwidth=6, avg_degree=5, seed=3)
        dust = erdos_renyi(96, 192, 60, seed=4)
        A = COOMatrix(
            np.concatenate([band.rows, dust.rows]),
            np.concatenate([band.cols, dust.cols]),
            np.concatenate([band.vals, dust.vals]), (192, 192),
        ).sum_duplicates()
        return A, MachineConfig(n_nodes=8, memory_capacity=1 << 30)

    def run(self, monkeypatch, oracle, A, B, machine, run_kwargs={},
            **kwargs):
        with monkeypatch.context() as patch:
            if oracle:
                patch.setattr(executor, "csr_product_into", oracle_product)
                patch.setattr(ops, "csr_product_into", oracle_product)
            algo = TwoFace(stripe_width=8, plan_cache=None, **kwargs)
            return algo, algo.run(A, B, machine, **run_kwargs)

    @pytest.mark.parametrize("k", [1, 8, 512])
    @pytest.mark.parametrize("scatter", [None, "atomic"])
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_widths_scatter_modes_and_k(
        self, monkeypatch, problem, rng, k, scatter, workers
    ):
        A, machine = problem
        B = rng.standard_normal((192, k))
        monkeypatch.setenv(WORKERS_ENV, workers)
        if scatter:
            monkeypatch.setenv(SCATTER_ENV, scatter)
        else:
            monkeypatch.delenv(SCATTER_ENV, raising=False)
        shutdown_exec_pool()
        try:
            algo, got = self.run(monkeypatch, False, A, B, machine)
            _, want = self.run(monkeypatch, True, A, B, machine)
        finally:
            shutdown_exec_pool()
        assert {  # both branches ran
            bool(r.async_matrix.n_stripes) for r in algo.last_plan.ranks
            if r.sync_local.nnz
        } == {True, False}
        assert got.C.tobytes() == want.C.tobytes()
        assert got.seconds.hex() == want.seconds.hex()

    @pytest.mark.parametrize("keep", [1.0, 0.5, 0.0])
    def test_with_a_sample_mask(self, monkeypatch, problem, rng, keep):
        A, machine = problem
        B = rng.standard_normal((192, 8))
        dist = DistSparseMatrix(A, RowPartition(192, 8))
        plan, _ = preprocess(dist, k=8, stripe_width=8)
        masked = dict(plan=plan, mask=bernoulli_mask(plan, keep, seed=3))
        _, got = self.run(monkeypatch, False, A, B, machine, **masked)
        _, want = self.run(monkeypatch, True, A, B, machine, **masked)
        assert got.C.tobytes() == want.C.tobytes()

    def test_arena_ceilings_cover_the_scratch(self, problem, rng):
        # Ranks 0-3 have a handful of async segments but sum a whole
        # 24-row block in scratch: the ceiling must be the block.
        A, machine = problem
        dist = DistSparseMatrix(A, RowPartition(192, 8))
        plan, _ = preprocess(dist, k=64, stripe_width=8)
        ceilings = executor.arena_ceilings(plan, 64)
        assert ceilings["scatter"] == (24, 64)
        reset_arenas(release_buffers=True)
        warm_arenas(get_exec_pool(), ceilings)
        grows = arena_stats().grows
        TwoFace(plan=plan).run(A, rng.standard_normal((192, 64)), machine)
        assert arena_stats().grows == grows

    @pytest.mark.parametrize("transport", ["sim", "shm"])
    @pytest.mark.parametrize("layout", ["1d", "2d"])
    def test_grids_and_transports(
        self, monkeypatch, problem, rng, layout, transport
    ):
        if transport == "shm" and not ShmTransport.available():
            pytest.skip("shm transport needs fork + a writable /dev/shm")
        A, machine = problem
        B = rng.standard_normal((192, 8))
        how = {
            "grid": None if layout == "1d" else make_grid("2d", 8),
            "transport": (
                None if transport == "sim" else ShmTransport(processes=2)
            ),
        }
        _, got = self.run(monkeypatch, False, A, B, machine, how)
        _, want = self.run(monkeypatch, True, A, B, machine, how)
        assert got.C.tobytes() == want.C.tobytes()
