"""Integration tests for fault injection and the resilient executor.

Two contracts are enforced here:

* **Faults off, nothing moves** — a run with no ``FaultConfig`` (or an
  inactive one) is byte-identical to the pre-fault-layer behaviour:
  same ``C`` bits, same simulated seconds, same traffic and events.
* **Faults on, determinism holds** — with a fixed fault seed, simulated
  seconds, resilience counters, traffic, and ``C`` are bitwise
  identical at any ``REPRO_EXEC_WORKERS`` width, and the computed ``C``
  stays numerically exact (allclose at 1e-12) versus the fault-free
  run: faults cost simulated time, never correctness.
"""

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import (
    AllGather,
    AsyncCoarse,
    AsyncFine,
    DenseShifting,
    TwoFace,
)
from repro.cluster.faults import (
    FaultConfig,
    reset_resilience_stats,
    resilience_stats,
)
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.sparse import SCATTER_ENV, erdos_renyi

N_NODES = 8


@pytest.fixture(autouse=True)
def _fresh_state():
    shutdown_exec_pool()
    reset_resilience_stats()
    yield
    shutdown_exec_pool()
    reset_resilience_stats()


@pytest.fixture(scope="module")
def matrix():
    return erdos_renyi(256, 256, 6000, seed=11)


@pytest.fixture(scope="module")
def dense(matrix):
    rng = np.random.default_rng(99)
    return rng.standard_normal((matrix.shape[1], 16))


FAULTY = FaultConfig.from_intensity(0.2, seed=7)

ALGORITHMS = [
    pytest.param(TwoFace, id="TwoFace"),
    pytest.param(AsyncFine, id="AsyncFine"),
    pytest.param(AllGather, id="Allgather"),
    pytest.param(AsyncCoarse, id="AsyncCoarse"),
    pytest.param(lambda: DenseShifting(replication=2), id="DS2"),
]


def _machine(faults=None):
    return MachineConfig(n_nodes=N_NODES, faults=faults)


def assert_same_simulation(a, b):
    assert not a.failed and not b.failed
    np.testing.assert_array_equal(a.C, b.C)
    assert a.seconds == b.seconds
    for node_a, node_b in zip(a.breakdown.nodes, b.breakdown.nodes):
        assert node_a == node_b
    assert a.traffic == b.traffic
    assert a.events == b.events


class TestFaultsOffByteIdentical:
    @pytest.mark.parametrize("make_algorithm", ALGORITHMS)
    def test_inactive_config_identical_to_no_config(
        self, make_algorithm, matrix, dense
    ):
        """An all-zero-rates config compiles away entirely."""
        plain = make_algorithm().run(matrix, dense, _machine())
        inactive = make_algorithm().run(
            matrix, dense, _machine(FaultConfig(seed=123))
        )
        assert_same_simulation(plain, inactive)
        assert "resilience" not in inactive.extras
        assert "faults" not in inactive.extras

    def test_no_faults_leaves_counters_untouched(self, matrix, dense):
        TwoFace().run(matrix, dense, _machine())
        assert resilience_stats().snapshot() == (0, 0, 0.0, 0, 0, 0)


class TestFaultyRunsStayCorrect:
    @pytest.mark.parametrize("make_algorithm", ALGORITHMS)
    def test_c_exact_and_clock_slower(
        self, make_algorithm, matrix, dense
    ):
        clean = make_algorithm().run(matrix, dense, _machine())
        faulty = make_algorithm().run(matrix, dense, _machine(FAULTY))
        assert not faulty.failed
        np.testing.assert_allclose(
            clean.C, faulty.C, rtol=0.0, atol=1e-12
        )
        # Injected faults only ever add simulated time.
        assert faulty.seconds >= clean.seconds
        assert faulty.extras["faults"]["seed"] == 7
        assert "resilience" in faulty.extras

    def test_retries_and_backoff_counted(self, matrix, dense):
        result = TwoFace().run(matrix, dense, _machine(FAULTY))
        resil = result.extras["resilience"]
        assert resil["rget_failures"] > 0
        assert resil["retries"] > 0
        assert resil["backoff_seconds"] > 0.0

    def test_straggler_slows_the_whole_run(self, matrix, dense):
        clean = TwoFace().run(matrix, dense, _machine())
        skewed = TwoFace().run(
            matrix, dense,
            _machine(FaultConfig(seed=0, straggler_rate=1.0,
                                 straggler_skew=3.0)),
        )
        # Every rank's compute is exactly 3x; the makespan must grow.
        assert skewed.seconds > clean.seconds
        for node_c, node_s in zip(
            clean.breakdown.nodes, skewed.breakdown.nodes
        ):
            assert node_s.sync_comp == pytest.approx(3.0 * node_c.sync_comp)
            assert node_s.async_comp == pytest.approx(
                3.0 * node_c.async_comp
            )

    def test_exhausted_retries_fall_back_to_sync_lane(
        self, matrix, dense
    ):
        """At failure rate 1.0 every one-sided request ends in a sync
        multicast fallback — and the answer is still exact."""
        clean = TwoFace().run(matrix, dense, _machine())
        config = FaultConfig(
            seed=3, rget_failure_rate=1.0, rget_max_attempts=3
        )
        faulty = TwoFace().run(matrix, dense, _machine(config))
        assert not faulty.failed
        np.testing.assert_allclose(
            clean.C, faulty.C, rtol=0.0, atol=1e-12
        )
        resil = faulty.extras["resilience"]
        assert resil["lane_fallbacks"] > 0
        # Every request burned its full budget before falling back.
        assert resil["rget_failures"] == (
            3 * resil["lane_fallbacks"]
        )
        sync_clean = sum(n.sync_comm for n in clean.breakdown.nodes)
        sync_faulty = sum(n.sync_comm for n in faulty.breakdown.nodes)
        assert sync_faulty > sync_clean
        # Fallback traffic is collective, not one-sided.
        assert faulty.traffic.collective_bytes > (
            clean.traffic.collective_bytes
        )

    def test_degraded_links_slow_transfers(self, matrix, dense):
        clean = TwoFace().run(matrix, dense, _machine())
        degraded = TwoFace().run(
            matrix, dense,
            _machine(FaultConfig(seed=5, link_degradation_rate=1.0,
                                 link_degradation_factor=4.0)),
        )
        assert not degraded.failed
        np.testing.assert_allclose(
            clean.C, degraded.C, rtol=0.0, atol=1e-12
        )
        assert degraded.seconds > clean.seconds

    def test_memory_pressure_triggers_rechunking(self):
        """A squeezed ledger splits async fetches instead of aborting."""
        matrix = erdos_renyi(512, 512, int(512 * 6), seed=2)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((512, 256))
        make = lambda: TwoFace(stripe_width=64, force_all_async=True)
        clean = make().run(matrix, dense, MachineConfig(n_nodes=4))
        config = FaultConfig(
            seed=11, memory_pressure_rate=1.0,
            memory_pressure_fraction=0.7,
        )
        squeezed = make().run(
            matrix, dense,
            MachineConfig(
                n_nodes=4, memory_capacity=2 * 1024 * 1024,
                faults=config,
            ),
        )
        assert not squeezed.failed
        np.testing.assert_allclose(
            clean.C, squeezed.C, rtol=0.0, atol=1e-12
        )
        resil = squeezed.extras["resilience"]
        assert resil["rechunked_stripes"] > 0
        assert resil["rechunk_pieces"] >= 2 * resil["rechunked_stripes"]


class TestFaultDeterminism:
    def _run(self, monkeypatch, workers, matrix, dense, scatter=None):
        if workers is None:
            monkeypatch.delenv(WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(WORKERS_ENV, str(workers))
        if scatter is not None:
            monkeypatch.setenv(SCATTER_ENV, scatter)
        shutdown_exec_pool()
        reset_resilience_stats()
        result = TwoFace().run(matrix, dense, _machine(FAULTY))
        return result, resilience_stats().snapshot()

    def test_bitwise_identical_across_widths(
        self, monkeypatch, matrix, dense
    ):
        serial, stats_serial = self._run(monkeypatch, None, matrix, dense)
        pooled, stats_pooled = self._run(monkeypatch, 4, matrix, dense)
        assert_same_simulation(serial, pooled)
        assert stats_serial == stats_pooled
        assert stats_serial[0] > 0  # faults actually fired

    def test_scatter_modes_agree_on_fault_decisions(
        self, monkeypatch, matrix, dense
    ):
        """Same contract as the fault-free REPRO_SCATTER tests: the
        simulated quantities are mode-blind bitwise; C is allclose."""
        seg, stats_seg = self._run(
            monkeypatch, 4, matrix, dense, scatter="segmented"
        )
        atomic, stats_atomic = self._run(
            monkeypatch, 4, matrix, dense, scatter="atomic"
        )
        assert seg.seconds == atomic.seconds
        assert stats_seg == stats_atomic
        assert seg.traffic == atomic.traffic
        assert seg.events == atomic.events
        np.testing.assert_allclose(seg.C, atomic.C, rtol=1e-12)

    def test_same_seed_same_faults_across_runs(
        self, monkeypatch, matrix, dense
    ):
        first, stats_first = self._run(monkeypatch, 4, matrix, dense)
        second, stats_second = self._run(monkeypatch, 4, matrix, dense)
        assert_same_simulation(first, second)
        assert stats_first == stats_second

    def test_different_seeds_differ(self, matrix, dense):
        results = set()
        for seed in range(4):
            reset_resilience_stats()
            TwoFace().run(
                matrix, dense,
                _machine(FaultConfig.from_intensity(0.2, seed=seed)),
            )
            results.add(resilience_stats().snapshot())
        assert len(results) > 1


class TestFaultExtrasOnFailure:
    def test_oom_result_still_reports_fault_plan(self):
        """A genuinely-too-small machine fails but keeps fault extras."""
        matrix = erdos_renyi(256, 256, 4000, seed=1)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((256, 64))
        config = FaultConfig(
            seed=1, memory_pressure_rate=1.0,
            memory_pressure_fraction=0.9,
        )
        result = AllGather().run(
            matrix, dense,
            MachineConfig(n_nodes=4, memory_capacity=256 * 1024,
                          faults=config),
        )
        assert result.failed
        assert result.extras["faults"]["squeezed_nodes"] == 4
