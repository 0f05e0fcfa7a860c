"""Unit tests for the simulated MPI layer."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.schedule import book_reduction, reduction_seconds
from repro.cluster import Cluster, MachineConfig, SimMPI, simmpi
from repro.dist import RowPartition
from repro.cluster.simmpi import CommEvent, _MulticastBatch
from repro.errors import CommunicationError, OutOfMemoryError


@pytest.fixture
def mpi(small_machine):
    return SimMPI(Cluster(small_machine))


def blocks_for(mpi, rows=8, k=4):
    rng = np.random.default_rng(0)
    return [rng.standard_normal((rows, k)) for _ in range(mpi.n_nodes)]


class TestAllgather:
    def test_returns_all_blocks(self, mpi):
        blocks = blocks_for(mpi)
        gathered = mpi.allgather(blocks, label="B")
        assert len(gathered) == 4
        for got, want in zip(gathered, blocks):
            np.testing.assert_array_equal(got, want)

    def test_charges_memory_for_foreign_blocks(self, mpi):
        blocks = blocks_for(mpi)
        mpi.allgather(blocks, label="B")
        for rank, node in enumerate(mpi.cluster.nodes):
            expected = sum(
                b.nbytes for i, b in enumerate(blocks) if i != rank
            )
            assert node.memory.allocations()["B"] == expected

    def test_charge_memory_opt_out(self, mpi):
        mpi.allgather(blocks_for(mpi), label="B", charge_memory=False)
        assert all(
            "B" not in n.memory.allocations() for n in mpi.cluster.nodes
        )

    def test_advances_all_clocks_equally(self, mpi):
        mpi.allgather(blocks_for(mpi), label="B")
        times = {node.time for node in mpi.cluster.nodes}
        assert len(times) == 1
        assert times.pop() > 0

    def test_traffic_recorded(self, mpi):
        blocks = blocks_for(mpi)
        mpi.allgather(blocks, label="B")
        total = sum(b.nbytes for b in blocks)
        assert mpi.traffic.collective_bytes == total
        assert mpi.traffic.collective_ops == 1

    def test_wrong_block_count(self, mpi):
        with pytest.raises(CommunicationError):
            mpi.allgather([np.zeros((2, 2))], label="B")

    def test_oom_propagates(self):
        machine = MachineConfig(n_nodes=4, memory_capacity=100)
        mpi = SimMPI(Cluster(machine))
        with pytest.raises(OutOfMemoryError):
            mpi.allgather(blocks_for(mpi), label="B")


class TestMulticast:
    def test_payload_shared(self, mpi):
        data = np.arange(12.0).reshape(3, 4)
        out = mpi.multicast(0, data, [1, 2], label="d")
        np.testing.assert_array_equal(out, data)

    def test_only_participants_advance(self, mpi):
        data = np.ones((4, 4))
        mpi.multicast(0, data, [2], label="d")
        assert mpi.cluster.node(0).time > 0
        assert mpi.cluster.node(2).time > 0
        assert mpi.cluster.node(1).time == 0
        assert mpi.cluster.node(3).time == 0

    def test_root_excluded_from_destinations(self, mpi):
        data = np.ones((2, 2))
        mpi.multicast(0, data, [0], label="d")  # only self: no-op
        assert mpi.cluster.node(0).time == 0
        assert mpi.traffic.collective_ops == 0

    def test_memory_charged_to_destinations_only(self, mpi):
        data = np.ones((2, 2))
        mpi.multicast(1, data, [3], label="d")
        assert "d" in mpi.cluster.node(3).memory.allocations()
        assert "d" not in mpi.cluster.node(1).memory.allocations()

    def test_charge_time_opt_out(self, mpi):
        mpi.multicast(0, np.ones((2, 2)), [1], label="d", charge_time=False)
        assert mpi.cluster.node(0).time == 0
        assert mpi.cluster.node(1).time == 0
        # Traffic is still recorded.
        assert mpi.traffic.collective_ops == 1


def multicast_series(seed, n_nodes=5, n_casts=9):
    """A random sync lane: per multicast a root, a payload row count
    and 1..n-1 receivers (unsorted, root excluded)."""
    rng = np.random.default_rng(seed)
    roots = rng.integers(0, n_nodes, size=n_casts)
    rows = rng.integers(1, 6, size=n_casts)
    receivers = [
        rng.permutation(np.setdiff1d(np.arange(n_nodes), [root]))[
            : rng.integers(1, n_nodes)
        ]
        for root in roots.tolist()
    ]
    return roots, rows, receivers


def replay_lane(capacity, series, batched, preexisting=0):
    """Issue the series per multicast or as one batch; returns the
    OOM message (or None) and every piece of shared state."""
    mpi = SimMPI(Cluster(MachineConfig(n_nodes=5, memory_capacity=capacity)))
    if preexisting:
        mpi.cluster.node(2).memory.allocate("dense_stripe_recv", preexisting)
    roots, rows, receivers = series
    failure = None
    try:
        if batched:
            _MulticastBatch(
                roots, rows * 16,
                np.concatenate(([0], np.cumsum([len(r) for r in receivers]))),
                np.concatenate(receivers), "dense_stripe_recv",
            ).apply(mpi)
        else:
            for root, n_rows, dests in zip(roots.tolist(), rows, receivers):
                mpi.multicast(
                    root, np.ones((n_rows, 2)), dests.tolist(),
                    label="dense_stripe_recv", charge_time=False,
                )
    except OutOfMemoryError as oom:
        failure = str(oom)
    ledgers = [node.memory for node in mpi.cluster.nodes]
    return failure, (
        [(m.current, m.peak, m.allocations()) for m in ledgers],
        mpi.traffic, list(mpi.events), mpi._ring._kinds, mpi._ring._details,
        [node.time for node in mpi.cluster.nodes],
    )


class TestMulticastBatch:
    """One record == the per-multicast ``SimMPI.multicast`` sequence."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("capacity", [1 << 20, 400, 150, 40])
    @pytest.mark.parametrize("preexisting", [0, 32])
    def test_replay_parity(self, seed, capacity, preexisting):
        # Capacities from "everything fits" down to "the first receiver
        # overflows": the OOM lands nowhere, mid-lane, or at leg 0.
        series = multicast_series(seed)
        want = replay_lane(capacity, series, False, preexisting)
        assert replay_lane(capacity, series, True, preexisting) == want

    def test_mid_batch_oom_leaves_the_same_prefix(self):
        roots = np.array([0, 1, 0])
        rows = np.array([2, 3, 4])  # 32, 48, 64 B
        receivers = [np.array([1, 2]), np.array([2, 0]), np.array([3, 2])]
        series = (roots, rows, receivers)
        failure, state = replay_lane(100, series, True)
        # Node 2 holds 32 + 48 B when the third payload's 64 B arrive;
        # node 3 (same multicast, earlier leg) already has its copy.
        assert "node 2 needs 144 B" in failure
        assert (failure, state) == replay_lane(100, series, False)
        ledgers, traffic = state[0], state[1]
        assert [m[0] for m in ledgers] == [48, 32, 80, 64, 0]
        assert (traffic.collective_ops, traffic.collective_bytes) == (2, 80)
        assert len(state[2]) == 5

    def test_event_cap_overflow(self, monkeypatch):
        monkeypatch.setattr(simmpi, "MAX_RECORDED_EVENTS", 7)
        series = multicast_series(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = replay_lane(1 << 20, series, False)
        with pytest.warns(RuntimeWarning) as caught:
            got = replay_lane(1 << 20, series, True)
        assert len(caught) == 1
        assert got == want and len(got[1][2]) == 7
        assert got[1][1].events_dropped == sum(map(len, series[2])) - 7

    def test_empty_lane_is_a_noop(self, mpi):
        none = np.zeros(0, dtype=np.int64)
        _MulticastBatch(none, none, np.zeros(1, np.int64), none, "d").apply(mpi)
        assert mpi.traffic.collective_ops == 0 and not mpi.events
        assert all(not n.memory.allocations() for n in mpi.cluster.nodes)


class TestRgetRowChunks:
    """The array-chunk rget: coalesced ``(offsets, sizes)`` chunks."""

    def _arrays(self, chunks):
        offsets, sizes = zip(*chunks)
        return (
            np.array(offsets, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )

    def test_moves_the_chunk_slices_in_one_request(self, mpi):
        source = np.arange(40.0).reshape(10, 4)
        chunks = [(2, 2), (6, 1), (8, 2)]
        got = mpi.rget_row_chunks(
            0, 1, source, *self._arrays(chunks), label="r"
        )
        np.testing.assert_array_equal(got, source[[2, 3, 6, 8, 9]])
        nbytes = 5 * 4 * 8
        assert mpi.traffic.onesided_bytes == nbytes
        assert mpi.traffic.onesided_requests == 1
        assert mpi.cluster.node(0).time == mpi.network.rget_time(
            nbytes, n_chunks=3
        )
        assert mpi.events[-1] == CommEvent("rget", 1, 0, nbytes, "r:3chunks")

    def test_precomputed_rows_used(self, mpi):
        source = np.arange(20.0).reshape(5, 4)
        offsets, sizes = self._arrays([(1, 2), (4, 1)])
        rows = np.array([1, 2, 4], dtype=np.int64)
        got = mpi.rget_row_chunks(
            0, 1, source, offsets, sizes, label="r", rows=rows
        )
        np.testing.assert_array_equal(got, source[[1, 2, 4]])

    def test_precomputed_rows_length_checked(self, mpi):
        source = np.ones((5, 4))
        offsets, sizes = self._arrays([(0, 2)])
        with pytest.raises(CommunicationError):
            mpi.rget_row_chunks(
                0, 1, source, offsets, sizes, label="r",
                rows=np.array([0], dtype=np.int64),
            )

    def test_only_origin_clock_advances(self, mpi):
        source = np.ones((5, 4))
        offsets, sizes = self._arrays([(0, 1)])
        mpi.rget_row_chunks(2, 0, source, offsets, sizes, label="r")
        assert mpi.cluster.node(2).time > 0
        assert mpi.cluster.node(0).time == 0

    def test_self_get_rejected(self, mpi):
        offsets, sizes = self._arrays([(0, 1)])
        with pytest.raises(CommunicationError):
            mpi.rget_row_chunks(
                1, 1, np.ones((2, 2)), offsets, sizes, label="r"
            )

    def test_chunk_bounds_checked(self, mpi):
        source = np.ones((5, 4))
        for bad in ([(4, 3)], [(-1, 1)], [(0, 0)]):
            with pytest.raises(CommunicationError):
                mpi.rget_row_chunks(
                    0, 1, source, *self._arrays(bad), label="r"
                )

    def test_chunk_array_lengths_checked(self, mpi):
        with pytest.raises(CommunicationError):
            mpi.rget_row_chunks(
                0, 1, np.ones((5, 4)),
                np.array([0, 2], dtype=np.int64),
                np.array([1], dtype=np.int64),
                label="r",
            )

    def test_empty_chunks(self, mpi):
        fetched = mpi.rget_row_chunks(
            0, 1, np.ones((5, 4)),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            label="r",
        )
        assert fetched.shape[0] == 0
        assert mpi.traffic.onesided_requests == 0


class TestGroupAllreduce:
    """The partial-``C`` allreduce's accounting, over one group."""

    @staticmethod
    def _grid(group, dim=""):
        return SimpleNamespace(
            reduce_groups=lambda: [group], reduce_dim=dim
        )

    def test_costs_returned_per_member(self, mpi):
        seconds = reduction_seconds(
            self._grid([0, 2, 3]), RowPartition(30, 1), 4, mpi.network,
            np.zeros(4),
        )
        assert all(seconds[[0, 2, 3]] > 0)

    def test_singleton_group_is_free(self, mpi):
        book_reduction(self._grid([1]), RowPartition(30, 1), 4, mpi.traffic)
        assert mpi.traffic.collective_bytes == 0
        assert mpi.traffic.collective_ops == 0
        assert mpi.traffic.dim_bytes == {}
        assert reduction_seconds(
            self._grid([1]), RowPartition(30, 1), 4, mpi.network,
            np.zeros(4),
        ).tolist() == [0.0] * 4

    def test_payload_counted_once(self, mpi):
        book_reduction(
            self._grid([0, 1], "fiber"), RowPartition(30, 1), 4,
            mpi.traffic,
        )
        assert mpi.traffic.collective_bytes == 960
        assert mpi.traffic.collective_ops == 1
        assert mpi.traffic.dim_bytes == {"fiber": 960}

    def test_ring_traffic_per_member(self, mpi):
        # Each member receives 2 (n-1)/n of the buffer over the ring.
        book_reduction(
            self._grid([0, 1, 2]), RowPartition(30, 1), 4, mpi.traffic,
            log=mpi._log,
        )
        expected = 2 * 960 * 2 // 3
        assert mpi.traffic.per_node_recv_bytes[0] == expected
        assert mpi.traffic.per_node_recv_bytes[3] == 0
        assert [e.destination for e in mpi.events] == [0, 1, 2]
        assert {e.kind for e in mpi.events} == {"allreduce"}

    def test_only_member_clocks_advance(self, mpi):
        # Members meet at the group barrier, then pay the ring.
        seconds = reduction_seconds(
            self._grid([0, 3]), RowPartition(30, 1), 4, mpi.network,
            np.array([1.0, 5.0, 0.0, 0.5]),
        )
        ring = mpi.network.allreduce_time(960, 2)
        assert seconds.tolist() == [ring, 0.0, 0.0, 0.5 + ring]


class TestAbsorb:
    def _sub(self, n=2):
        return SimMPI(
            Cluster(MachineConfig(n_nodes=n, memory_capacity=1 << 30))
        )

    def test_counters_added_and_ranks_remapped(self, mpi):
        sub = self._sub()
        sub.multicast(0, np.ones((2, 2)), [1], label="d")
        mpi.absorb(sub, ranks=[1, 3], dim="row")
        t = mpi.traffic
        assert t.collective_bytes == sub.traffic.collective_bytes
        assert t.collective_ops == sub.traffic.collective_ops
        # Sub-rank 1 (the receiver) is global rank 3.
        assert t.per_node_recv_bytes[3] == 32
        assert t.per_node_recv_bytes[1] == 0

    def test_layer_total_attributed_to_dim(self, mpi):
        sub = self._sub()
        sub.multicast(0, np.ones((2, 2)), [1], label="d")
        mpi.absorb(sub, ranks=[0, 2], dim="row")
        assert mpi.traffic.dim_bytes["row"] == sub.traffic.total_bytes

    def test_sub_dim_bytes_merge(self, mpi):
        sub = self._sub()
        sub.traffic.add_dim_bytes("fiber", 100)
        mpi.absorb(sub, ranks=[0, 2], dim="row")
        assert mpi.traffic.dim_bytes["fiber"] == 100

    def test_events_replayed_with_remap(self, mpi):
        sub = self._sub()
        sub.multicast(1, np.ones((1, 2)), [0], label="s")
        sub.multicast(0, np.ones((1, 2)), [1], label="s")
        before = len(mpi.events)
        mpi.absorb(sub, ranks=[1, 3], dim="row")
        replayed = mpi.events[before:]
        assert len(replayed) == len(sub.events)
        for parent_ev, sub_ev in zip(replayed, sub.events):
            assert parent_ev.kind == sub_ev.kind
            for got, want in (
                (parent_ev.source, sub_ev.source),
                (parent_ev.destination, sub_ev.destination),
            ):
                assert got == ([1, 3][want] if want >= 0 else want)

    def test_collective_source_sentinel_preserved(self, mpi):
        sub = self._sub()
        sub.allgather(
            [np.ones((1, 2)), np.ones((1, 2))], label="B"
        )
        mpi.absorb(sub, ranks=[2, 3], dim="row")
        assert any(
            ev.kind == "allgather" and ev.source == -1
            for ev in mpi.events
        )


class TestDimBytes:
    def test_empty_dim_is_noop(self, mpi):
        mpi.traffic.add_dim_bytes("", 100)
        assert mpi.traffic.dim_bytes == {}

    def test_accumulates(self, mpi):
        mpi.traffic.add_dim_bytes("col", 10)
        mpi.traffic.add_dim_bytes("col", 5)
        assert mpi.traffic.dim_bytes == {"col": 15}


class TestTrafficStats:
    def test_total_bytes(self, mpi):
        mpi.traffic.p2p_bytes += 64
        mpi.multicast(0, np.ones((2, 2)), [1], label="d")
        mpi.rget_row_chunks(
            2, 0, np.ones((4, 2)), np.array([1]), np.array([2]), label="r"
        )
        t = mpi.traffic
        assert t.total_bytes == t.p2p_bytes + t.collective_bytes + t.onesided_bytes

    def test_per_node_recv(self, mpi):
        mpi.multicast(0, np.ones((2, 2)), [1, 2], label="d")
        assert mpi.traffic.per_node_recv_bytes[1] == 32
        assert mpi.traffic.per_node_recv_bytes[0] == 0

