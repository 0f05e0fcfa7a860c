"""Cross-transport conformance: one plan, every data plane, one answer.

The transport contract (DESIGN.md §11):

* ``SimTransport`` — the default — is *bitwise* identical to the
  pre-transport code path: same ``C``, same simulated seconds, same
  traffic counters, same event log.
* ``ShmTransport`` runs the identical kernels in the identical
  accumulation order on real processes, so its ``C`` matches the
  simulator to 1e-12 (bitwise in practice) at every worker width, and
  its analytically-mirrored traffic counters match the simulator's
  exactly — including under grids and fault injection (as long as the
  simulator re-chunked nothing, which tiny-memory squeezes never
  trigger here).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms.allgather import AllGather
from repro.algorithms.async_coarse import AsyncCoarse
from repro.algorithms.dense_shifting import DenseShifting
from repro.algorithms.twoface import AsyncFine, TwoFace
from repro.cluster.faults import FaultConfig
from repro.dist.grid import Grid1D, Grid15D, Grid2D
from repro.sparse import erdos_renyi
from repro.transport import SimTransport, get_transport
from repro.transport.shm import ShmTransport

WIDTHS = (1, 2, 4)

TRAFFIC_FIELDS = (
    "p2p_bytes",
    "p2p_messages",
    "collective_bytes",
    "collective_ops",
    "onesided_bytes",
    "onesided_requests",
    "per_node_recv_bytes",
    "dim_bytes",
)

needs_shm = pytest.mark.skipif(
    not ShmTransport.available(),
    reason="shm transport needs fork + a writable /dev/shm",
)


def algorithms():
    return [
        ("TwoFace", TwoFace),
        ("AsyncFine", AsyncFine),
        ("Allgather", AllGather),
        ("AsyncCoarse", AsyncCoarse),
        ("DS2", lambda: DenseShifting(2)),
    ]


@pytest.fixture
def problem():
    A = erdos_renyi(64, 64, 320, seed=7)
    B = np.random.default_rng(0).standard_normal((64, 8))
    machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
    return A, B, machine


def assert_traffic_equal(sim, other, fields=TRAFFIC_FIELDS):
    for field in fields:
        assert getattr(sim.traffic, field) == getattr(other.traffic, field), (
            f"traffic counter {field} diverges: "
            f"sim={getattr(sim.traffic, field)} "
            f"other={getattr(other.traffic, field)}"
        )


# ----------------------------------------------------------------------
# SimTransport: byte identity with the default path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,factory", algorithms())
def test_sim_transport_is_bitwise_default(problem, name, factory):
    A, B, machine = problem
    default = factory().run(A, B, machine)
    explicit = factory().run(A, B, machine, transport="sim")
    assert np.array_equal(default.C, explicit.C)
    assert default.seconds == explicit.seconds
    assert_traffic_equal(default, explicit)
    assert [
        (e.kind, e.source, e.destination, e.nbytes)
        for e in default.events
    ] == [
        (e.kind, e.source, e.destination, e.nbytes)
        for e in explicit.events
    ]


def test_get_transport_dispatch():
    assert get_transport(None) is SimTransport
    assert get_transport("sim") is SimTransport
    assert isinstance(get_transport("shm"), ShmTransport)
    instance = ShmTransport(processes=2)
    assert get_transport(instance) is instance
    from repro.transport import TransportError

    with pytest.raises(TransportError):
        get_transport("carrier-pigeon")


# ----------------------------------------------------------------------
# ShmTransport: numerical + counter conformance at every worker width
# ----------------------------------------------------------------------
@needs_shm
@pytest.mark.parametrize("name,factory", algorithms())
@pytest.mark.parametrize("width", WIDTHS)
def test_shm_matches_sim(problem, name, factory, width):
    A, B, machine = problem
    sim = factory().run(A, B, machine)
    shm = factory().run(
        A, B, machine, transport=ShmTransport(processes=width)
    )
    assert not shm.failed
    assert np.allclose(sim.C, shm.C, rtol=0.0, atol=1e-12)
    assert_traffic_equal(sim, shm)
    assert shm.extras["transport"] == "shm"
    assert shm.extras["transport_processes"] == min(width, 4)
    assert shm.seconds > 0.0
    assert len(shm.extras["wall_seconds_per_process"]) == min(width, 4)


@needs_shm
def test_shm_repeats_average_the_wall_clock(problem):
    A, B, machine = problem
    shm = TwoFace().run(
        A, B, machine, transport=ShmTransport(processes=2, repeats=3)
    )
    assert shm.extras["transport_repeats"] == 3
    assert np.allclose(
        TwoFace().run(A, B, machine).C, shm.C, rtol=0.0, atol=1e-12
    )


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
@needs_shm
@pytest.mark.parametrize(
    "grid",
    [Grid1D(8), Grid15D(p_r=4, c=2), Grid2D(p_r=4, p_c=2)],
    ids=lambda g: g.cache_token(),
)
@pytest.mark.parametrize(
    "factory",
    [TwoFace, AllGather, AsyncCoarse, lambda: DenseShifting(2)],
    ids=["TwoFace", "Allgather", "AsyncCoarse", "DS2"],
)
def test_shm_matches_sim_on_grids(grid, factory):
    A = erdos_renyi(96, 96, 600, seed=3)
    B = np.random.default_rng(1).standard_normal((96, 8))
    machine = MachineConfig(n_nodes=8, memory_capacity=1 << 30)
    sim = factory().run(A, B, machine, grid=grid)
    shm = factory().run(
        A, B, machine, grid=grid, transport=ShmTransport(processes=2)
    )
    assert np.allclose(sim.C, shm.C, rtol=0.0, atol=1e-12)
    assert_traffic_equal(sim, shm)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@needs_shm
@pytest.mark.parametrize(
    "factory",
    [TwoFace, AsyncCoarse, lambda: DenseShifting(2)],
    ids=["TwoFace", "AsyncCoarse", "DS2"],
)
def test_shm_fault_conformance(factory):
    A = erdos_renyi(64, 64, 320, seed=7)
    B = np.random.default_rng(2).standard_normal((64, 8))
    machine = MachineConfig(
        n_nodes=4,
        memory_capacity=1 << 30,
        faults=FaultConfig(
            seed=42, rget_failure_rate=0.3, straggler_rate=0.25,
            rget_backoff_base=1.0e-6,
        ),
    )
    sim = factory().run(A, B, machine)
    shm = factory().run(A, B, machine, transport=ShmTransport(processes=2))
    assert np.allclose(sim.C, shm.C, rtol=0.0, atol=1e-12)
    assert sim.extras["resilience"]["rechunked_stripes"] == 0
    assert_traffic_equal(sim, shm)
    for field in ("rget_failures", "retries", "lane_fallbacks"):
        assert (
            shm.extras["resilience"][field] == sim.extras["resilience"][field]
        )


@pytest.mark.parametrize("intensity", [0.2, 0.5])
@pytest.mark.parametrize(
    "grid",
    [None, Grid15D(p_r=4, c=2), Grid2D(p_r=4, p_c=2)],
    ids=lambda g: g.cache_token() if g else "1d",
)
@pytest.mark.parametrize(
    "transport", ["sim", pytest.param("shm", marks=needs_shm)]
)
@pytest.mark.parametrize(
    "factory",
    [TwoFace, lambda: AsyncFine(stripe_width=8), AsyncCoarse],
    ids=["TwoFace", "AsyncFine", "AsyncCoarse"],
)
def test_faults_absorbed_and_c_exact(
    factory, transport, grid, intensity
):
    """The two invariants every chaos consumer leans on, stated once
    over the one-sided algorithms x data planes x layouts: every rget
    failure is absorbed by a retry or a lane fallback, and ``C`` is the
    fault-free run's, byte for byte."""
    A = erdos_renyi(96, 96, 900, seed=3)
    B = np.random.default_rng(4).standard_normal((96, 8))
    healthy = MachineConfig(n_nodes=8, memory_capacity=1 << 30)
    chaotic = MachineConfig(
        n_nodes=8,
        memory_capacity=1 << 30,
        faults=FaultConfig.from_intensity(
            intensity, seed=9, rget_backoff_base=1.0e-6
        ),
    )
    if transport == "shm":
        transport = ShmTransport(processes=2)
    clean = factory().run(A, B, healthy, grid=grid, transport=transport)
    noisy = factory().run(A, B, chaotic, grid=grid, transport=transport)
    assert not noisy.failed
    resil = noisy.extras["resilience"]
    assert resil["rget_failures"] > 0
    assert (
        resil["retries"] + resil["lane_fallbacks"] == resil["rget_failures"]
    )
    assert noisy.C.tobytes() == clean.C.tobytes()


@needs_shm
def test_shm_fault_conformance_on_grid():
    A = erdos_renyi(96, 96, 600, seed=3)
    B = np.random.default_rng(3).standard_normal((96, 8))
    machine = MachineConfig(
        n_nodes=8,
        memory_capacity=1 << 30,
        faults=FaultConfig(seed=9, rget_failure_rate=0.3,
                           rget_backoff_base=1.0e-6),
    )
    grid = Grid15D(p_r=4, c=2)
    for factory in (TwoFace, AsyncCoarse):
        sim = factory().run(A, B, machine, grid=grid)
        shm = factory().run(
            A, B, machine, grid=grid, transport=ShmTransport(processes=2)
        )
        assert np.allclose(sim.C, shm.C, rtol=0.0, atol=1e-12)
        if sim.extras["resilience"]["rechunked_stripes"] == 0:
            assert_traffic_equal(sim, shm)


# ----------------------------------------------------------------------
# Unsupported configurations fail loudly, not wrongly
# ----------------------------------------------------------------------
@needs_shm
def test_shm_rejects_unknown_algorithm(problem):
    from repro.algorithms.base import DistSpMMAlgorithm
    from repro.transport import TransportError

    class Oddball(DistSpMMAlgorithm):
        name = "Oddball"

        def _execute(self, ctx):  # pragma: no cover - never reached
            pass

    A, B, machine = problem
    with pytest.raises(TransportError):
        Oddball().run(A, B, machine, transport="shm")

