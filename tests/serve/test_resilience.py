"""Unit tests for the fault-tolerant replicated serving tier."""

import math

import numpy as np
import pytest

from repro.cluster.faults import FaultConfig
from repro.cluster.machine import MachineConfig
from repro.errors import ConfigurationError
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.serve import (
    DONE,
    FAILED,
    REJECTED,
    CircuitBreaker,
    RejectReason,
    ResiliencePolicy,
    ResilientScheduler,
    ServePolicy,
    ServeRequest,
    ServeScheduler,
    bursty_trace,
)
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN
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


def resilient(machine, matrices, faults=None, policy_kwargs=None,
              **res_kwargs):
    policy = dict(max_fused_k=64, max_batch_delay=0.05,
                  max_queue_depth=256)
    policy.update(policy_kwargs or {})
    return ResilientScheduler(
        machine, matrices,
        policy=ServePolicy(**policy),
        resilience=ResiliencePolicy(**res_kwargs),
        faults=faults,
    )


def chaos_faults(intensity=0.5, seed=0, crash=None):
    return FaultConfig.from_intensity(
        intensity, seed=seed,
        executor_crash_rate=(
            crash if crash is not None else min(1.0, 0.4 * intensity)
        ),
    )


def effective_p99(report):
    """p99 latency over every submitted request; unserved = infinite."""
    latencies = sorted(
        o.latency if o.status == DONE else math.inf
        for o in report.outcomes
    )
    return latencies[max(0, math.ceil(0.99 * len(latencies)) - 1)]


def fault_free_reference(machine, matrices, trace, classify_k=None):
    policy = ServePolicy(max_fused_k=64, max_batch_delay=0.05,
                         max_queue_depth=256, classify_k=classify_k)
    return ServeScheduler(machine, matrices, policy=policy).serve(
        trace, fuse=True
    )


class TestFaultFreeEquivalence:
    def test_single_replica_matches_plain_scheduler(
        self, machine, matrices
    ):
        trace = bursty_trace(matrices, n_requests=16, k=4, seed=7,
                             burst_size=8, burst_gap=0.4)
        res = resilient(
            machine, matrices, n_replicas=1, max_retries=0
        ).serve(trace, fuse=True)
        ref = fault_free_reference(machine, matrices, trace)
        assert len(res.outcomes) == len(ref.outcomes) == 16
        for ro, po in zip(res.outcomes, ref.outcomes):
            assert ro.request_id == po.request_id
            assert ro.status == po.status == DONE
            assert ro.C.tobytes() == po.C.tobytes()
        assert res.availability == 1.0
        assert res.retries == res.crashes == res.timeouts == 0
        assert res.hedges == res.shed == res.breaker_opens == 0
        assert [b.fused_k for b in res.batches] == [
            b.fused_k for b in ref.batches
        ]

    def test_replicated_fault_free_still_byte_identical(
        self, machine, matrices
    ):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=9,
                             burst_size=6, burst_gap=0.3)
        res = resilient(machine, matrices, n_replicas=3).serve(trace)
        ref = fault_free_reference(machine, matrices, trace)
        for ro, po in zip(res.outcomes, ref.outcomes):
            assert ro.status == DONE
            assert ro.C.tobytes() == po.C.tobytes()
        # Every completed outcome names the replica that served it.
        assert {o.replica for o in res.outcomes} <= {0, 1, 2}


class TestChaosRecovery:
    def test_crashes_recovered_by_retries(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=24, k=4, seed=5,
                             burst_size=6, burst_gap=0.3)
        res = resilient(
            machine, matrices, faults=chaos_faults(0.5, seed=2),
            n_replicas=3, max_retries=4,
        ).serve(trace)
        assert res.availability >= 0.99
        assert res.crashes > 0  # chaos actually fired
        assert res.retries > 0  # ...and was recovered from
        ref = fault_free_reference(machine, matrices, trace)
        ref_bytes = {o.request_id: o.C.tobytes() for o in ref.outcomes}
        for o in res.outcomes:
            if o.status == DONE:
                assert o.C.tobytes() == ref_bytes[o.request_id]
        # A lone executor under the same chaos has nowhere to route
        # around it: the fleet serves more, with a strictly better tail
        # over all submitted requests (a failed one counts as never
        # served).
        single = resilient(
            machine, matrices, faults=chaos_faults(0.5, seed=2),
            n_replicas=1, max_retries=0,
        ).serve(trace)
        assert res.availability >= single.availability
        assert effective_p99(res) < effective_p99(single)

    def test_certain_crash_without_retries_fails(self, machine, matrices):
        trace = [request_at(i, 0.0) for i in range(4)]
        res = resilient(
            machine, matrices,
            faults=FaultConfig.from_intensity(
                0.0, seed=1, executor_crash_rate=1.0
            ),
            n_replicas=1, max_retries=0,
        ).serve(trace)
        assert all(o.status == FAILED for o in res.outcomes)
        assert res.availability == 0.0
        assert res.crashes > 0

    def test_attempt_timeout_charges_and_fails(self, machine, matrices):
        trace = [request_at(i, 0.0) for i in range(4)]
        res = resilient(
            machine, matrices, n_replicas=1, max_retries=0,
            timeout=1e-9,
        ).serve(trace)
        assert all(o.status == FAILED for o in res.outcomes)
        assert res.timeouts > 0
        # The failed batch charged exactly the timeout.
        rep = res.replica_stats[0]
        assert rep["timeouts"] == res.timeouts
        assert rep["busy_seconds"] == pytest.approx(1e-9 * res.timeouts)

    def test_hedging_dispatches_backup(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=16, k=4, seed=13,
                             burst_size=4, burst_gap=0.3)
        res = resilient(
            machine, matrices, n_replicas=2, hedge_delay=1e-6,
        ).serve(trace)
        assert res.hedges > 0
        assert res.hedge_wins <= res.hedges
        assert res.hedge_wasted_seconds > 0.0
        assert res.availability == 1.0
        assert any(o.hedged for o in res.outcomes)

    def test_routing_trace_records_every_batch(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=3,
                             burst_size=4, burst_gap=0.3)
        res = resilient(machine, matrices, n_replicas=2).serve(trace)
        assert len(res.routing_trace) == len(res.batches)
        for batch_id, rid, attempts, hedged, status in res.routing_trace:
            assert rid in (0, 1)
            assert attempts >= 1
            assert hedged is False
            assert status == DONE


class TestDeterminism:
    def run_width(self, monkeypatch, matrices, trace, workers):
        monkeypatch.setenv(WORKERS_ENV, str(workers))
        shutdown_exec_pool()
        try:
            return resilient(
                MachineConfig(n_nodes=N_NODES), matrices,
                faults=chaos_faults(0.6, seed=7),
                n_replicas=3, max_retries=4, hedge_delay=0.05,
            ).serve(trace, fuse=True)
        finally:
            shutdown_exec_pool()

    def test_counter_trace_identical_across_widths(
        self, monkeypatch, matrices
    ):
        trace = bursty_trace(matrices, n_requests=16, k=4, seed=11,
                             burst_size=8, burst_gap=0.25)
        one = self.run_width(monkeypatch, matrices, trace, 1)
        four = self.run_width(monkeypatch, matrices, trace, 4)
        assert one.counter_trace() == four.counter_trace()
        assert one.replica_stats == four.replica_stats
        assert one.serving_summary() == four.serving_summary()
        for a, b in zip(one.outcomes, four.outcomes):
            assert a.status == b.status
            assert a.replica == b.replica
            assert a.attempts == b.attempts
            if a.status == DONE:
                assert a.C.tobytes() == b.C.tobytes()

    def test_same_seed_replay_is_identical(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=2,
                             burst_size=6, burst_gap=0.3)
        runs = [
            resilient(
                machine, matrices, faults=chaos_faults(0.5, seed=4),
                n_replicas=2, max_retries=3,
            ).serve(trace)
            for _ in range(2)
        ]
        assert runs[0].counter_trace() == runs[1].counter_trace()

    def test_different_fault_seeds_diverge(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=2,
                             burst_size=6, burst_gap=0.3)
        traces = [
            resilient(
                machine, matrices,
                faults=chaos_faults(0.8, seed=s, crash=0.6),
                n_replicas=2, max_retries=4,
            ).serve(trace).counter_trace()
            for s in (1, 2, 3, 4)
        ]
        assert len(set(traces)) > 1


class TestCircuitBreaker:
    def breaker(self, **kwargs):
        defaults = dict(window=4, failure_threshold=0.5, cooldown=1.0,
                        drift_factor=4.0)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_opens_on_windowed_failure_rate(self):
        b = self.breaker()
        for _ in range(2):
            b.record(0.0, True)
        for _ in range(2):
            b.record(0.0, False)
        assert b.state == OPEN
        assert b.opens == 1
        assert not b.allow(0.5)

    def test_partial_window_never_trips(self):
        b = self.breaker()
        for _ in range(3):
            b.record(0.0, False)
        assert b.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        b = self.breaker()
        for _ in range(4):
            b.record(0.0, False)
        assert b.state == OPEN
        assert b.allow(1.5)  # past the cooldown
        assert b.state == HALF_OPEN
        b.record(1.5, True)
        assert b.state == CLOSED

    def test_half_open_probe_retrips_on_failure(self):
        b = self.breaker()
        for _ in range(4):
            b.record(0.0, False)
        assert b.allow(1.5)
        b.record(1.5, False)
        assert b.state == OPEN
        assert b.opens == 2
        assert not b.allow(2.0)
        assert b.allow(2.6)

    def test_latency_drift_trips(self):
        b = self.breaker()
        b.check_drift(0.0, 0.5, 0.2)  # 2.5x: within bounds
        assert b.state == CLOSED
        b.check_drift(0.0, 1.0, 0.2)  # 5x: drifted
        assert b.state == OPEN

    def test_breaker_quarantines_crashing_replica(
        self, machine, matrices
    ):
        # Replica seeds differ; a near-certain crash rate makes every
        # replica fail often enough to trip its windowed breaker.
        trace = bursty_trace(matrices, n_requests=32, k=4, seed=6,
                             burst_size=4, burst_gap=0.2)
        res = resilient(
            machine, matrices,
            faults=FaultConfig.from_intensity(
                0.0, seed=3, executor_crash_rate=0.9
            ),
            n_replicas=2, max_retries=6,
            breaker_window=4, breaker_failure_threshold=0.5,
            breaker_cooldown=0.05,
        ).serve(trace)
        assert res.breaker_opens > 0


class TestSLOAdmission:
    def burst(self, n, **kwargs):
        return [request_at(i, 0.0, **kwargs) for i in range(n)]

    def test_sheds_lowest_priority_first(self, machine, matrices):
        trace = [
            request_at(i, 0.0, priority=(1 if i < 4 else 0))
            for i in range(12)
        ]
        res = resilient(
            machine, matrices,
            policy_kwargs=dict(max_queue_depth=8),
            n_replicas=1, shed_queue_fraction=0.5, protect_priority=1,
        ).serve(trace)
        shed = [o for o in res.outcomes if o.status == REJECTED
                and o.reject_reason is RejectReason.SHED]
        assert shed  # pressure crossed the threshold
        assert res.shed == len(shed)
        # Priority-1 requests (ids 0..3) are protected.
        assert all(o.request_id >= 4 for o in shed)
        done = [o for o in res.outcomes if o.status == DONE]
        assert {o.request_id for o in done} >= {0, 1, 2, 3}
        summary = res.serving_summary()
        assert summary["rejected_shed"] == len(shed)

    def test_shed_request_keeps_its_arrival_in_the_makespan(
        self, machine, matrices
    ):
        # The earliest arrival is an unprotected request that protected
        # work behind it pushes out: the makespan still starts at its
        # arrival, not at the instant it was shed.
        trace = [request_at(0, 0.0, priority=0)] + [
            request_at(i, 0.01, priority=1) for i in (1, 2, 3)
        ]
        res = resilient(
            machine, matrices,
            policy_kwargs=dict(max_queue_depth=4),
            n_replicas=1, shed_queue_fraction=0.5,
        ).serve(trace)
        shed = res.outcomes[0]
        assert shed.reject_reason is RejectReason.SHED
        assert shed.completion - shed.latency == 0.0
        done = [o for o in res.outcomes if o.status == DONE]
        assert [o.request_id for o in done] == [1, 2, 3]
        summary = res.serving_summary()
        last = max(o.completion for o in done)
        assert summary["makespan"] == last
        assert summary["requests_per_sec"] == 3 / last

    def test_queue_full_rejection_reason(self, machine, matrices):
        trace = self.burst(6)
        res = resilient(
            machine, matrices,
            policy_kwargs=dict(max_queue_depth=3),
            n_replicas=1, shed_queue_fraction=1.0,
        ).serve(trace)
        rejected = [o for o in res.outcomes if o.status == REJECTED]
        assert rejected
        assert all(
            o.reject_reason is RejectReason.QUEUE_FULL for o in rejected
        )
        assert res.serving_summary()["rejected_queue_full"] == len(
            rejected
        )

    def test_degrades_k_panel_under_pressure(self, machine, matrices):
        trace = self.burst(12)
        res = resilient(
            machine, matrices,
            policy_kwargs=dict(max_queue_depth=16, max_fused_k=32,
                               classify_k=4),
            n_replicas=1, degrade_queue_fraction=0.5,
            shed_queue_fraction=1.0,
        ).serve(trace)
        assert res.degraded_dispatches > 0
        degraded = [o for o in res.outcomes if o.degraded]
        assert degraded
        assert {o.degraded for o in degraded} <= {"stale_plan", "k_panel"}
        # Degraded batches are narrower than the configured cap allows.
        assert any(b.fused_k < 32 for b in res.batches)
        # Classification is pinned, so output bytes still match the
        # fault-free un-degraded reference.
        ref = fault_free_reference(machine, matrices, trace,
                                   classify_k=4)
        ref_bytes = {o.request_id: o.C.tobytes() for o in ref.outcomes}
        for o in res.outcomes:
            if o.status == DONE:
                assert o.C.tobytes() == ref_bytes[o.request_id]

    def test_deadline_misses_counted(self, machine, matrices):
        trace = [request_at(0, 0.0, deadline=1e-12)]
        res = resilient(machine, matrices, n_replicas=1).serve(trace)
        assert res.outcomes[0].deadline_missed
        assert res.serving_summary()["deadline_misses"] == 1


class TestValidation:
    def test_negative_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            request_at(0, 0.0, priority=-1)

    @pytest.mark.parametrize("kwargs", [
        dict(n_replicas=0),
        dict(max_retries=-1),
        dict(retry_backoff_base=-1.0),
        dict(timeout=0.0),
        dict(hedge_delay=-0.5),
        dict(ewma_alpha=0.0),
        dict(breaker_window=0),
        dict(breaker_failure_threshold=1.5),
        dict(breaker_drift_factor=0.5),
        dict(degrade_queue_fraction=0.0),
        dict(shed_queue_fraction=1.5),
        dict(protect_priority=-1),
    ])
    def test_policy_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(**kwargs)

    def test_duplicate_request_ids_rejected(self, machine, matrices):
        trace = [request_at(0, 0.0), request_at(0, 0.1)]
        with pytest.raises(ConfigurationError):
            resilient(machine, matrices).serve(trace)
