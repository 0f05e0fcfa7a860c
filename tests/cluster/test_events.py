"""Tests for communication-event recording."""

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import AsyncFine, DenseShifting, TwoFace, make_algorithm
from repro.cluster import Cluster, CommEvent, SimMPI
from repro.sparse import erdos_renyi, uniform_random


@pytest.fixture
def inputs(rng):
    A = erdos_renyi(64, 64, 400, seed=4)
    B = rng.standard_normal((64, 8))
    return A, B


class TestSimMPIEvents:
    def test_events_in_issue_order(self, small_machine):
        mpi = SimMPI(Cluster(small_machine))
        data = np.ones((4, 4))
        mpi.multicast(0, data, [1], label="first")
        mpi.rget_row_chunks(
            2, 0, data, np.array([0]), np.array([1]), label="second"
        )
        assert [e.kind for e in mpi.events] == ["multicast", "rget"]
        assert mpi.events[0].detail == "first"
        assert mpi.events[1].source == 0
        assert mpi.events[1].destination == 2

    def test_recording_opt_out(self, small_machine):
        mpi = SimMPI(Cluster(small_machine), record_events=False)
        mpi.multicast(0, np.ones((2, 2)), [1], label="x")
        assert mpi.events == []
        assert mpi.traffic.collective_ops == 1  # stats still counted

    def test_event_immutable(self):
        event = CommEvent("rget", 0, 1, 10)
        with pytest.raises(AttributeError):
            event.nbytes = 99


class TestEventCap:
    def test_overflow_counted_and_warned_once(
        self, small_machine, monkeypatch
    ):
        import repro.cluster.simmpi as simmpi

        monkeypatch.setattr(simmpi, "MAX_RECORDED_EVENTS", 3)
        mpi = SimMPI(Cluster(small_machine))
        data = np.ones((2, 2))
        with pytest.warns(RuntimeWarning, match="events_dropped"):
            for _ in range(5):
                mpi.multicast(0, data, [1], label="x")
        assert len(mpi.events) == 3
        assert mpi.traffic.events_dropped == 2
        # Counters still include the dropped operations.
        assert mpi.traffic.collective_ops == 5
        # Only the first drop warns.
        import warnings

        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            mpi.multicast(0, data, [1], label="x")
        assert captured == []
        assert mpi.traffic.events_dropped == 3

    def test_under_cap_no_drops(self, small_machine):
        mpi = SimMPI(Cluster(small_machine))
        mpi.multicast(0, np.ones((2, 2)), [1], label="x")
        assert mpi.traffic.events_dropped == 0


class TestAlgorithmEvents:
    def test_twoface_event_kinds(self, inputs, small_machine):
        A, B = inputs
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        kinds = {e.kind for e in result.events}
        assert kinds <= {"multicast", "rget"}
        assert "multicast" in kinds  # some stripes sync on this matrix

    def test_async_fine_only_rgets(self, small_machine, rng):
        A = uniform_random(64, avg_degree=1.0, seed=4)
        B = rng.standard_normal((64, 8))
        result = AsyncFine(stripe_width=8).run(A, B, small_machine)
        assert {e.kind for e in result.events} == {"rget"}

    def test_allgather_events(self, inputs, small_machine):
        A, B = inputs
        result = make_algorithm("Allgather").run(A, B, small_machine)
        assert {e.kind for e in result.events} == {"allgather"}
        # One event per receiving rank.
        assert len(result.events) == small_machine.n_nodes

    def test_ds_replication_without_shift_events(self, inputs):
        """DS with c == p has no cyclic shifts (accounted outside
        SimMPI), so its event log contains no rget/multicast."""
        A, B = inputs
        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        result = DenseShifting(4).run(A, B, machine)
        kinds = {e.kind for e in result.events}
        assert "rget" not in kinds
        assert "multicast" not in kinds

    def test_event_bytes_sum_to_recv_totals(self, inputs, small_machine):
        A, B = inputs
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        per_node = [0] * small_machine.n_nodes
        for event in result.events:
            per_node[event.destination] += event.nbytes
        assert per_node == result.traffic.per_node_recv_bytes

    def test_failed_run_retains_events(self, rng):
        tight = MachineConfig(n_nodes=4, memory_capacity=30_000)
        A = erdos_renyi(128, 128, 800, seed=4)
        B = rng.standard_normal((128, 32))
        result = make_algorithm("Allgather").run(A, B, tight)
        assert result.failed
        assert isinstance(result.events, list)

    def test_unread_events_are_never_materialised(
        self, inputs, small_machine, monkeypatch
    ):
        """``_EventRing`` builds ``CommEvent`` objects only for readers;
        a run whose ``.events`` nobody reads must build none."""
        from repro.cluster import simmpi

        A, B = inputs
        expected = TwoFace(stripe_width=4).run(A, B, small_machine).events
        real, built = simmpi.CommEvent, []

        def counting(*fields):
            built.append(fields)
            return real(*fields)

        monkeypatch.setattr(simmpi, "CommEvent", counting)
        result = TwoFace(stripe_width=4).run(A, B, small_machine)
        assert not result.failed and result.traffic.total_bytes > 0
        assert built == []
        events = result.events
        assert events == expected and len(built) == len(expected)
        # Always the same list object, materialised once.
        assert result.events is events and len(built) == len(expected)
