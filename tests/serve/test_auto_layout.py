"""Regression tests for autotuned layouts in the serving scheduler.

The two contracts under test (DESIGN.md §10): with ``auto_layout``
off, the group key and run path are byte-identical to the pre-tuner
scheduler; with it on, the tuned layout token joins the group key so
requests tuned to different layouts are never fused into one K-panel.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.machine import MachineConfig
from repro.dist.grid import Grid1D, Grid15D
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.serve import (
    DONE,
    ServePolicy,
    ServeRequest,
    ServeScheduler,
    bursty_trace,
)
from repro.sparse import erdos_renyi, suite

N_NODES = 4


@pytest.fixture(scope="module")
def matrices():
    return {"alpha": erdos_renyi(128, 128, 900, seed=3)}


@pytest.fixture
def machine():
    return MachineConfig(n_nodes=N_NODES)


def request_at(rid, arrival, matrix="alpha", k=4, tenant="t0"):
    rng = np.random.default_rng(rid)
    return ServeRequest(
        request_id=rid, tenant=tenant, matrix=matrix,
        B=rng.standard_normal((128, k)), arrival=arrival,
    )


def scheduler(machine, matrices, tuner=None, **policy_kwargs):
    defaults = dict(
        max_fused_k=64, max_batch_delay=0.05, max_queue_depth=256
    )
    defaults.update(policy_kwargs)
    return ServeScheduler(
        machine, matrices, policy=ServePolicy(**defaults), tuner=tuner
    )


class _StubTuner:
    """Returns a scripted sequence of layout decisions."""

    class _Decision:
        def __init__(self, grid):
            self.grid = grid
            self.grid_token = grid.cache_token()

    def __init__(self, machine, grids):
        self.machine = machine
        self._grids = list(grids)
        self.calls = 0

    def tune(self, matrix, k):
        grid = self._grids[min(self.calls, len(self._grids) - 1)]
        self.calls += 1
        return self._Decision(grid)


class TestAutoLayoutOff:
    def test_group_key_is_pre_tuner_four_tuple(self, machine, matrices):
        sched = scheduler(machine, matrices, auto_layout=False)
        key = sched._group_key(request_at(0, 0.0))
        assert len(key) == 4

    def test_no_tuner_built(self, machine, matrices):
        sched = scheduler(machine, matrices, auto_layout=False)
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=7,
                             burst_size=8, burst_gap=0.4)
        sched.serve(trace)
        assert sched.tuner_stats() == {}
        assert sched._group_grids == {}


class TestAutoLayoutOn:
    def test_token_joins_group_key(self, machine, matrices):
        sched = scheduler(machine, matrices, auto_layout=True)
        key = sched._group_key(request_at(0, 0.0))
        assert len(key) == 5
        assert key[-1] == sched._group_grids[key].cache_token()

    def test_tunes_at_saturated_panel_width(self, machine, matrices):
        sched = scheduler(machine, matrices, auto_layout=True)
        seen = []
        recorder = _StubTuner(machine, [Grid1D(N_NODES)])
        original = recorder.tune
        recorder.tune = lambda matrix, k: (
            seen.append(k), original(matrix, k)
        )[1]
        sched._tuners[sched._machine_shape(machine)] = recorder
        sched._group_key(request_at(0, 0.0, k=4))
        sched._group_key(request_at(1, 0.0, k=128))
        # k=4 tunes at the fused cap (64); an oversized request tunes
        # at its own width.
        assert seen == [64, 128]

    def test_mixed_layout_requests_never_fuse(self, machine, matrices):
        # Script the tuner so two same-matrix, same-arrival requests
        # tune to different layouts: they must land in separate
        # groups (separate batches), never one fused K-panel.
        stub = _StubTuner(
            machine, [Grid1D(N_NODES), Grid15D(p_r=2, c=2)]
        )
        sched = scheduler(
            machine, matrices, auto_layout=True, tuner=stub
        )
        trace = [request_at(0, 0.0), request_at(1, 0.0)]
        report = sched.serve(trace)
        assert [o.status for o in report.outcomes] == [DONE, DONE]
        assert len(report.batches) == 2
        assert {b.fused_k for b in report.batches} == {4}
        # Each group's engine runs its own tuned layout.
        layouts = {
            engine.grid.cache_token()
            for engine in sched._engines.values()
        }
        assert layouts == {"1d", "1.5d:r2c2"}

    def test_same_layout_requests_still_fuse(self, machine, matrices):
        stub = _StubTuner(machine, [Grid1D(N_NODES)])
        sched = scheduler(
            machine, matrices, auto_layout=True, tuner=stub
        )
        trace = [request_at(0, 0.0), request_at(1, 0.0)]
        report = sched.serve(trace)
        assert len(report.batches) == 1
        assert report.batches[0].fused_k == 8

    def test_outputs_exact_on_tuned_layouts(self, machine, matrices):
        # Layered-grid engines must still produce the exact product
        # for every request slice.
        stub = _StubTuner(machine, [Grid15D(p_r=2, c=2)])
        sched = scheduler(
            machine, matrices, auto_layout=True, tuner=stub
        )
        trace = [request_at(0, 0.0), request_at(1, 0.0)]
        report = sched.serve(trace)
        dense = sp.coo_matrix(
            (
                matrices["alpha"].vals,
                (matrices["alpha"].rows, matrices["alpha"].cols),
            ),
            shape=matrices["alpha"].shape,
        ).tocsr()
        for request, outcome in zip(trace, report.outcomes):
            assert outcome.status == DONE
            np.testing.assert_allclose(
                outcome.C, dense @ request.B, rtol=1e-12
            )

    def test_fused_matches_serial_with_real_tuner(
        self, machine, matrices
    ):
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=7,
                             burst_size=4, burst_gap=0.4)
        fused = scheduler(
            machine, matrices, auto_layout=True
        ).serve(trace, fuse=True)
        serial = scheduler(
            machine, matrices, auto_layout=True
        ).serve(trace, fuse=False)
        for fo, so in zip(fused.outcomes, serial.outcomes):
            assert fo.status == so.status == DONE
            assert fo.C.tobytes() == so.C.tobytes()

    def test_tuner_stats_exposed(self, machine, matrices):
        sched = scheduler(machine, matrices, auto_layout=True)
        trace = bursty_trace(matrices, n_requests=4, k=4, seed=7,
                             burst_size=4, burst_gap=0.4)
        sched.serve(trace)
        stats = sched.tuner_stats()
        assert len(stats) == 1
        (entry,) = stats.values()
        cache = entry["decision_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 3


class TestDeterminism:
    def _serve(self, monkeypatch, workers, matrices, trace):
        monkeypatch.setenv(WORKERS_ENV, str(workers))
        shutdown_exec_pool()
        try:
            machine = MachineConfig(n_nodes=N_NODES)
            sched = scheduler(machine, matrices, auto_layout=True)
            return sched.serve(trace)
        finally:
            shutdown_exec_pool()
            monkeypatch.delenv(WORKERS_ENV, raising=False)

    def test_tuned_replay_bitwise_identical_across_worker_widths(
        self, monkeypatch, matrices
    ):
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=7,
                             burst_size=4, burst_gap=0.4)
        narrow = self._serve(monkeypatch, 1, matrices, trace)
        wide = self._serve(monkeypatch, 4, matrices, trace)
        for a, b in zip(narrow.outcomes, wide.outcomes):
            assert a.status == b.status
            assert a.C.tobytes() == b.C.tobytes()
            assert a.completion == b.completion

    def test_tuned_replay_reproducible(self, machine, matrices):
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=7,
                             burst_size=4, burst_gap=0.4)
        first = scheduler(
            machine, matrices, auto_layout=True
        ).serve(trace)
        second = scheduler(
            machine, matrices, auto_layout=True
        ).serve(trace)
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.C.tobytes() == b.C.tobytes()
            assert a.completion == b.completion


def test_tuned_layout_serves_more_requests_per_second():
    """k=64 requests on web at p=256: Two-Face on a layered grid beats
    the pinned 1D path per multiply, so ``auto_layout`` completes more
    simulated requests per second than static 1D."""
    matrices = {"web": suite.load("web", size="tiny")}
    machine = MachineConfig(n_nodes=256)
    trace = bursty_trace(matrices, n_requests=8, k=64, seed=7,
                         burst_size=8, burst_gap=0.01)
    rps = {
        auto: ServeScheduler(
            machine, matrices,
            policy=ServePolicy(max_fused_k=64, auto_layout=auto),
        ).serve(list(trace)).serving_summary()["requests_per_sec"]
        for auto in (False, True)
    }
    assert rps[True] > rps[False]
