"""Stress test: pooled execution is bit-identical to serial.

The determinism contract of :mod:`repro.runtime.pool` — every simulated
quantity (output values, per-node lane breakdowns, traffic counters,
the communication event log, and the makespan) must come out *bitwise*
equal whether the per-rank bodies run inline or across four worker
threads.  Host wall time is the only thing allowed to change.
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
from repro.core import bernoulli_mask, preprocess
from repro.dist import DistSparseMatrix, RowPartition
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.sparse import SCATTER_ENV, erdos_renyi

N_NODES = 8
POOLED = "4"


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_exec_pool()
    yield
    shutdown_exec_pool()


@pytest.fixture(scope="module")
def matrix():
    # Big enough that every rank has sync panels and async stripes.
    return erdos_renyi(256, 256, 6000, seed=11)


@pytest.fixture(scope="module")
def dense(matrix):
    rng = np.random.default_rng(99)
    return rng.standard_normal((matrix.shape[1], 16))


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(n_nodes=N_NODES)


def run_both(monkeypatch, make_algorithm, matrix, dense, machine):
    """Run the same workload serial and pooled; return both results."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    shutdown_exec_pool()
    serial = make_algorithm().run(matrix, dense, machine)
    monkeypatch.setenv(WORKERS_ENV, POOLED)
    shutdown_exec_pool()
    pooled = make_algorithm().run(matrix, dense, machine)
    return serial, pooled


def assert_bit_identical(serial, pooled):
    assert not serial.failed and not pooled.failed
    np.testing.assert_array_equal(serial.C, pooled.C)
    assert serial.seconds == pooled.seconds  # bitwise, no tolerance
    for node_s, node_p in zip(serial.breakdown.nodes, pooled.breakdown.nodes):
        assert node_s == node_p  # all five float components, exactly
    assert serial.traffic == pooled.traffic
    assert serial.events == pooled.events  # order and content


ALGORITHMS = [
    pytest.param(TwoFace, id="TwoFace"),
    pytest.param(AsyncFine, id="AsyncFine"),
    pytest.param(AllGather, id="Allgather"),
    pytest.param(AsyncCoarse, id="AsyncCoarse"),
    pytest.param(lambda: DenseShifting(replication=2), id="DS2"),
]


@pytest.mark.parametrize("make_algorithm", ALGORITHMS)
def test_pooled_matches_serial(
    monkeypatch, make_algorithm, matrix, dense, machine
):
    serial, pooled = run_both(
        monkeypatch, make_algorithm, matrix, dense, machine
    )
    assert_bit_identical(serial, pooled)


def test_pooled_matches_serial_with_mask(
    monkeypatch, matrix, dense, machine
):
    """The masked (sampled-GNN) path, including the keep-all fast path."""
    dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], N_NODES))
    plan, _ = preprocess(dist, k=dense.shape[1], stripe_width=32)
    for rate in (0.5, 1.0):  # 1.0 exercises the copy-skip fast path
        mask = bernoulli_mask(plan, rate, seed=5)
        serial, pooled = run_both(
            monkeypatch,
            lambda: TwoFace(plan=plan, mask=mask),
            matrix,
            dense,
            machine,
        )
        assert_bit_identical(serial, pooled)


def test_pooled_repeated_runs_stay_identical(
    monkeypatch, matrix, dense, machine
):
    """Warm arenas / cached schedules must not drift across executions."""
    monkeypatch.setenv(WORKERS_ENV, POOLED)
    shutdown_exec_pool()
    first = TwoFace().run(matrix, dense, machine)
    second = TwoFace().run(matrix, dense, machine)
    np.testing.assert_array_equal(first.C, second.C)
    assert first.seconds == second.seconds


@pytest.mark.parametrize("make_algorithm", ALGORITHMS)
def test_one_instance_repeated_runs_identical(
    make_algorithm, matrix, dense, machine
):
    """Two consecutive runs of one algorithm instance (its plan and
    caches warm after the first) agree bitwise in C and seconds."""
    algorithm = make_algorithm()
    first = algorithm.run(matrix, dense, machine)
    second = algorithm.run(matrix, dense, machine)
    assert_bit_identical(first, second)


def _run_mode(monkeypatch, mode, plan, matrix, dense, machine):
    monkeypatch.setenv(SCATTER_ENV, mode)
    shutdown_exec_pool()
    return TwoFace(plan=plan).run(matrix, dense, machine)


@pytest.fixture(scope="module")
def plan(matrix, dense):
    dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], N_NODES))
    plan, _ = preprocess(dist, k=dense.shape[1], stripe_width=32)
    return plan


def test_scatter_modes_bitwise_timing_allclose_values(
    monkeypatch, plan, matrix, dense, machine
):
    """The REPRO_SCATTER contract: simulated seconds, lane breakdowns,
    traffic counters, and the event log are *bitwise* identical between
    kernels (the timing model consumes counts, not values); only C is
    allowed to differ, and only within 1e-12 relative tolerance."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    segmented = _run_mode(monkeypatch, "segmented", plan, matrix, dense, machine)
    atomic = _run_mode(monkeypatch, "atomic", plan, matrix, dense, machine)
    assert not segmented.failed and not atomic.failed
    assert segmented.seconds == atomic.seconds
    for node_s, node_a in zip(
        segmented.breakdown.nodes, atomic.breakdown.nodes
    ):
        assert node_s == node_a
    assert segmented.traffic == atomic.traffic
    assert segmented.events == atomic.events
    np.testing.assert_allclose(segmented.C, atomic.C, rtol=1e-12)


def test_scatter_modes_contract_with_mask(
    monkeypatch, plan, matrix, dense, machine
):
    """Same contract on the masked (sampled-GNN) path."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    mask = bernoulli_mask(plan, 0.5, seed=5)
    results = {}
    for mode in ("segmented", "atomic"):
        monkeypatch.setenv(SCATTER_ENV, mode)
        shutdown_exec_pool()
        results[mode] = TwoFace(plan=plan, mask=mask).run(
            matrix, dense, machine
        )
    assert results["segmented"].seconds == results["atomic"].seconds
    assert results["segmented"].events == results["atomic"].events
    np.testing.assert_allclose(
        results["segmented"].C, results["atomic"].C, rtol=1e-12
    )


def test_segmented_c_bytes_identical_across_widths_and_runs(
    monkeypatch, plan, matrix, dense, machine
):
    """Reproducible determinism of the segmented kernel: the stable
    plan-time permutation fixes the summation order, so C's bytes are
    identical across repeated runs *and* across pool widths."""
    monkeypatch.setenv(SCATTER_ENV, "segmented")
    blobs = []
    for width in (None, POOLED):
        if width is None:
            monkeypatch.delenv(WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(WORKERS_ENV, width)
        shutdown_exec_pool()
        for _ in range(2):
            result = TwoFace(plan=plan).run(matrix, dense, machine)
            assert not result.failed
            blobs.append(result.C.tobytes())
    assert all(blob == blobs[0] for blob in blobs)


def test_arena_ceilings_finalizes_hand_assembled_plan(matrix, dense):
    """Satellite: arena_ceilings must not silently return 1-row
    ceilings for a plan whose schedules were never finalised."""
    from repro.core.executor import arena_ceilings

    k = dense.shape[1]
    dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], N_NODES))
    reference, _ = preprocess(
        dist, k=k, stripe_width=32, force_all_async=True
    )
    expected = arena_ceilings(reference, k)
    assert expected["async_fetch"][0] > 1  # the workload has stripes

    bare, _ = preprocess(dist, k=k, stripe_width=32, force_all_async=True)
    for rank_plan in bare.ranks:
        for stripe in rank_plan.async_matrix.stripes:
            stripe.schedule = None
            stripe.reduce_schedule = None
    assert not bare.finalized
    assert arena_ceilings(bare, k) == expected
    assert bare.finalized
