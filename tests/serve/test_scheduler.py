"""Unit tests for the fusion scheduler's virtual-clock event loop."""

import numpy as np
import pytest

from repro.cluster.machine import MachineConfig
from repro.errors import ConfigurationError
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.serve import (
    DONE,
    FAILED,
    REJECTED,
    ServePolicy,
    ServeRequest,
    ServeScheduler,
    bursty_trace,
)
from repro.sparse import erdos_renyi

N_NODES = 4


@pytest.fixture(scope="module")
def matrices():
    return {
        "alpha": erdos_renyi(128, 128, 900, seed=3),
        "beta": erdos_renyi(128, 128, 900, seed=4),
    }


@pytest.fixture
def machine():
    return MachineConfig(n_nodes=N_NODES)


def request_at(rid, arrival, matrix="alpha", k=4, tenant="t0", seed=None,
               **kwargs):
    rng = np.random.default_rng(seed if seed is not None else rid)
    return ServeRequest(
        request_id=rid, tenant=tenant, matrix=matrix,
        B=rng.standard_normal((128, k)), arrival=arrival, **kwargs
    )


def scheduler(machine, matrices, **policy_kwargs):
    defaults = dict(max_fused_k=64, max_batch_delay=0.05,
                    max_queue_depth=256)
    defaults.update(policy_kwargs)
    return ServeScheduler(
        machine, matrices, policy=ServePolicy(**defaults)
    )


class TestFusionCorrectness:
    def test_fused_matches_serial_bytewise(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=16, k=4, seed=7,
                             burst_size=8, burst_gap=0.4)
        fused = scheduler(machine, matrices).serve(trace, fuse=True)
        serial = scheduler(machine, matrices).serve(trace, fuse=False)
        assert len(fused.outcomes) == len(serial.outcomes) == 16
        assert len(fused.batches) < len(serial.batches)
        for fo, so in zip(fused.outcomes, serial.outcomes):
            assert fo.request_id == so.request_id
            assert fo.status == so.status == DONE
            assert fo.C.tobytes() == so.C.tobytes()

    def test_slices_match_reference_product(self, machine, matrices):
        trace = [request_at(i, 0.0, k=4) for i in range(4)]
        report = scheduler(machine, matrices).serve(trace)
        A = matrices["alpha"]
        import scipy.sparse as sp

        ref = sp.coo_matrix(
            (A.vals, (A.rows, A.cols)), shape=A.shape
        ).tocsr()
        for req, outcome in zip(trace, report.outcomes):
            np.testing.assert_allclose(
                outcome.C, ref @ req.B, rtol=0, atol=1e-9
            )

    def test_outcomes_sorted_by_request_id(self, machine, matrices):
        trace = [request_at(i, 0.01 * (5 - i)) for i in range(5)]
        report = scheduler(machine, matrices).serve(trace)
        assert [o.request_id for o in report.outcomes] == list(range(5))


class TestBatching:
    def test_burst_fuses_into_one_batch(self, machine, matrices):
        trace = [request_at(i, 0.0, k=4) for i in range(6)]
        report = scheduler(machine, matrices).serve(trace)
        assert len(report.batches) == 1
        assert report.batches[0].fused_k == 24
        assert report.batches[0].n_requests == 6

    def test_max_fused_k_splits_batches(self, machine, matrices):
        trace = [request_at(i, 0.0, k=4) for i in range(6)]
        report = scheduler(
            machine, matrices, max_fused_k=8
        ).serve(trace)
        assert [b.fused_k for b in report.batches] == [8, 8, 8]

    def test_oversized_request_runs_alone(self, machine, matrices):
        trace = [request_at(0, 0.0, k=16), request_at(1, 0.0, k=4)]
        report = scheduler(
            machine, matrices, max_fused_k=8
        ).serve(trace)
        assert [b.fused_k for b in report.batches] == [16, 4]

    def test_different_matrices_never_fuse(self, machine, matrices):
        trace = [
            request_at(0, 0.0, matrix="alpha"),
            request_at(1, 0.0, matrix="beta"),
        ]
        report = scheduler(machine, matrices).serve(trace)
        assert len(report.batches) == 2
        assert {b.matrix for b in report.batches} == {"alpha", "beta"}

    def test_serial_mode_never_fuses(self, machine, matrices):
        trace = [request_at(i, 0.0, k=4) for i in range(5)]
        report = scheduler(machine, matrices).serve(trace, fuse=False)
        assert len(report.batches) == 5
        assert all(b.n_requests == 1 for b in report.batches)

    def test_cap_reached_dispatches_without_delay(self, machine, matrices):
        # Eight k=8 requests at t=0 hit max_fused_k=64 immediately:
        # dispatch happens at t=0, not t=max_batch_delay.
        trace = [request_at(i, 0.0, k=8) for i in range(8)]
        report = scheduler(
            machine, matrices, max_batch_delay=10.0
        ).serve(trace)
        assert len(report.batches) == 1
        assert report.batches[0].dispatched == 0.0
        # A saturating burst served fused has a tail no worse than the
        # same burst served one request at a time.
        serial = scheduler(
            machine, matrices, max_batch_delay=10.0
        ).serve(trace, fuse=False)
        assert (
            report.serving_summary()["p99_latency"]
            <= serial.serving_summary()["p99_latency"]
        )

    def test_under_cap_waits_for_batch_delay(self, machine, matrices):
        # A late joiner inside the delay window fuses with the first;
        # the far-future request keeps the trace un-exhausted so the
        # group holds its window open the full delay.
        trace = [
            request_at(0, 0.0),
            request_at(1, 0.02),
            request_at(2, 100.0),
        ]
        report = scheduler(
            machine, matrices, max_batch_delay=0.05
        ).serve(trace)
        assert len(report.batches) == 2
        assert report.batches[0].n_requests == 2
        assert report.batches[0].dispatched == pytest.approx(0.05)

    def test_exhausted_trace_skips_remaining_delay(
        self, machine, matrices
    ):
        # Once no more arrivals exist, the group dispatches as soon as
        # every queued member is present — not at first + delay.
        trace = [request_at(0, 0.0), request_at(1, 0.02)]
        report = scheduler(
            machine, matrices, max_batch_delay=0.05
        ).serve(trace)
        assert len(report.batches) == 1
        assert report.batches[0].n_requests == 2
        assert report.batches[0].dispatched == pytest.approx(0.02)

    def test_batch_timestamps_monotone(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=3,
                             burst_size=4, burst_gap=0.1)
        report = scheduler(machine, matrices).serve(trace)
        dispatched = [b.dispatched for b in report.batches]
        assert dispatched == sorted(dispatched)


class TestBackpressure:
    def test_admission_rejects_past_queue_depth(self, machine, matrices):
        trace = [request_at(i, 0.0) for i in range(5)]
        report = scheduler(
            machine, matrices, max_queue_depth=2
        ).serve(trace)
        statuses = [o.status for o in report.outcomes]
        assert statuses.count(REJECTED) == 3
        assert statuses.count(DONE) == 2
        assert report.peak_queue_depth == 2
        rejected = [o for o in report.outcomes if o.status == REJECTED]
        assert all(o.C is None and o.batch_id is None for o in rejected)

    def test_summary_counts_rejects(self, machine, matrices):
        trace = [request_at(i, 0.0) for i in range(5)]
        report = scheduler(
            machine, matrices, max_queue_depth=2
        ).serve(trace)
        summary = report.serving_summary()
        assert summary["rejected"] == 3
        assert summary["completed"] == 2


class TestDeadlines:
    def test_miss_recorded_not_dropped(self, machine, matrices):
        tight = request_at(0, 0.0, deadline=1e-9)
        report = scheduler(machine, matrices).serve([tight])
        outcome = report.outcomes[0]
        assert outcome.status == DONE
        assert outcome.deadline_missed
        assert report.serving_summary()["deadline_misses"] == 1

    def test_generous_deadline_not_missed(self, machine, matrices):
        report = scheduler(machine, matrices).serve(
            [request_at(0, 0.0, deadline=1e6)]
        )
        assert not report.outcomes[0].deadline_missed


class TestFailure:
    def test_oom_batch_marked_failed(self, matrices):
        # A starved per-request machine OOMs its own group; the healthy
        # group still completes.
        starved = MachineConfig(n_nodes=N_NODES, memory_capacity=1 << 12)
        trace = [
            request_at(0, 0.0, machine=starved),
            request_at(1, 0.0, matrix="beta"),
        ]
        report = scheduler(
            MachineConfig(n_nodes=N_NODES), matrices
        ).serve(trace)
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id[0].status == FAILED
        assert by_id[0].C is None
        assert by_id[1].status == DONE
        assert report.serving_summary()["failed"] == 1


class TestDeterminism:
    def _serve(self, monkeypatch, workers, matrices, trace):
        monkeypatch.setenv(WORKERS_ENV, str(workers))
        shutdown_exec_pool()
        try:
            return scheduler(
                MachineConfig(n_nodes=N_NODES), matrices
            ).serve(trace, fuse=True)
        finally:
            shutdown_exec_pool()

    def test_bitwise_identical_across_worker_widths(
        self, monkeypatch, matrices
    ):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=11,
                             burst_size=6, burst_gap=0.2)
        narrow = self._serve(monkeypatch, 1, matrices, trace)
        wide = self._serve(monkeypatch, 4, matrices, trace)
        for a, b in zip(narrow.outcomes, wide.outcomes):
            assert a.status == b.status
            assert a.completion == b.completion
            assert a.latency == b.latency
            assert a.C.tobytes() == b.C.tobytes()
        assert narrow.serving_summary() == wide.serving_summary()

    def test_replay_is_reproducible(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=2)
        first = scheduler(machine, matrices).serve(trace)
        second = scheduler(machine, matrices).serve(trace)
        assert first.serving_summary() == second.serving_summary()
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.completion == b.completion
            assert a.C.tobytes() == b.C.tobytes()


class TestValidation:
    def test_duplicate_request_ids_rejected(self, machine, matrices):
        trace = [request_at(0, 0.0), request_at(0, 0.1)]
        with pytest.raises(ConfigurationError):
            scheduler(machine, matrices).serve(trace)

    def test_unknown_matrix_rejected(self, machine, matrices):
        with pytest.raises(ConfigurationError):
            scheduler(machine, matrices).serve(
                [request_at(0, 0.0, matrix="nope")]
            )

    def test_empty_matrix_pool_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            ServeScheduler(machine, {})

    @pytest.mark.parametrize("kwargs", [
        {"max_fused_k": 0},
        {"max_batch_delay": -1.0},
        {"max_queue_depth": 0},
        {"classify_k": 0},
    ])
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServePolicy(**kwargs)

    def test_request_validation(self):
        with pytest.raises(Exception):
            ServeRequest(0, "t", "m", np.zeros(4), arrival=0.0)
        with pytest.raises(ConfigurationError):
            ServeRequest(0, "t", "m", np.zeros((4, 2)), arrival=-1.0)
        with pytest.raises(ConfigurationError):
            ServeRequest(0, "t", "m", np.zeros((4, 2)), arrival=1.0,
                         deadline=0.5)


class TestSummary:
    def test_summary_keys_feed_telemetry(self, machine, matrices):
        from repro.bench import PerfLog

        trace = [request_at(i, 0.0) for i in range(4)]
        report = scheduler(machine, matrices).serve(trace)
        summary = report.serving_summary()
        log = PerfLog(label="T")
        cell = log.record_serve_cell(
            name="t", matrix="alpha", algorithm="TwoFace/fused",
            k=4, n_nodes=N_NODES, serving=summary,
        )
        assert cell.serve_requests == 4
        assert cell.serve_completed == 4
        assert cell.serve_batches == len(report.batches)
        assert cell.simulated_seconds == pytest.approx(
            summary["makespan"]
        )

    def test_fusion_factor(self, machine, matrices):
        trace = [request_at(i, 0.0) for i in range(6)]
        report = scheduler(machine, matrices).serve(trace)
        assert report.serving_summary()["fusion_factor"] == 6.0
