"""Tests for distributed SpMM on process grids (1.5D / 2D layers).

Covers the grid runner (:mod:`repro.algorithms.gridrun`): numerical
correctness against the dense reference on every layout, bitwise
Grid1D identity with the grid-free path, per-dimension traffic
attribution, pooled-execution determinism, fault injection through the
sub-communicator views, and the precomputed-plan guard.
"""

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import AllGather, AsyncFine, DenseShifting, TwoFace
from repro.algorithms.gridrun import column_subset
from repro.cluster.faults import FaultConfig
from repro.dist.grid import Grid1D, Grid2D, Grid15D, make_grid
from repro.errors import PartitionError
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.sparse import COOMatrix, erdos_renyi, spmm_reference

N_NODES = 8


@pytest.fixture(scope="module")
def matrix():
    return erdos_renyi(96, 96, 1500, seed=5)


@pytest.fixture(scope="module")
def dense(matrix):
    rng = np.random.default_rng(17)
    return rng.standard_normal((matrix.shape[1], 8))


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(n_nodes=N_NODES, memory_capacity=1 << 30)


ALGORITHMS = [
    ("AllGather", AllGather),
    ("DS2", lambda: DenseShifting(2)),
    ("TwoFace", lambda: TwoFace(stripe_width=8)),
    ("AsyncFine", lambda: AsyncFine(stripe_width=8)),
]

GRIDS = [
    Grid15D(p_r=4, c=2),
    Grid2D(p_r=4, p_c=2),
    Grid2D(p_r=2, p_c=4),
]


class TestColumnSubset:
    def test_full_set_is_identity(self, matrix):
        ids = np.arange(matrix.shape[1], dtype=np.int64)
        assert column_subset(matrix, ids) is matrix

    def test_empty_set(self, matrix):
        sub = column_subset(matrix, np.zeros(0, dtype=np.int64))
        assert sub.shape == (matrix.shape[0], 0)
        assert sub.nnz == 0

    def test_compacts_and_restricts(self):
        m = COOMatrix(
            np.array([0, 0, 1, 2]),
            np.array([1, 3, 2, 0]),
            np.array([1.0, 2.0, 3.0, 4.0]),
            (3, 4),
        )
        sub = column_subset(m, np.array([1, 3], dtype=np.int64))
        assert sub.shape == (3, 2)
        # Column 1 -> 0, column 3 -> 1; columns 0 and 2 dropped.
        np.testing.assert_array_equal(sub.rows, [0, 0])
        np.testing.assert_array_equal(sub.cols, [0, 1])
        np.testing.assert_array_equal(sub.vals, [1.0, 2.0])

    def test_subsets_partition_nonzeros(self, matrix):
        grid = Grid15D(p_r=4, c=2)
        total = sum(
            column_subset(
                matrix, grid.layer_col_ids(f, matrix.shape[1])
            ).nnz
            for f in range(2)
        )
        assert total == matrix.nnz


class TestGridCorrectness:
    @pytest.mark.parametrize("name,factory", ALGORITHMS)
    @pytest.mark.parametrize(
        "grid", GRIDS, ids=lambda g: g.cache_token()
    )
    def test_matches_reference(
        self, name, factory, grid, matrix, dense, machine
    ):
        result = factory().run(matrix, dense, machine, grid=grid)
        assert not result.failed
        np.testing.assert_allclose(
            result.C, spmm_reference(matrix, dense), rtol=1e-8, atol=1e-8
        )

    @pytest.mark.parametrize("name,factory", ALGORITHMS)
    def test_grid1d_bitwise_identical(
        self, name, factory, matrix, dense, machine
    ):
        """Grid1D (and grid=None) must take the exact legacy path."""
        legacy = factory().run(matrix, dense, machine)
        gridded = factory().run(
            matrix, dense, machine, grid=Grid1D(N_NODES)
        )
        assert legacy.C.tobytes() == gridded.C.tobytes()
        assert legacy.seconds == gridded.seconds
        assert legacy.events == gridded.events
        assert legacy.traffic.total_bytes == gridded.traffic.total_bytes
        assert legacy.traffic.dim_bytes == gridded.traffic.dim_bytes
        for a, b in zip(legacy.breakdown.nodes, gridded.breakdown.nodes):
            assert (a.sync_comm, a.sync_comp, a.async_comm,
                    a.async_comp, a.other) == (
                b.sync_comm, b.sync_comp, b.async_comm,
                b.async_comp, b.other
            )

    def test_uneven_fiber_ownership(self, matrix, dense):
        """p_r=3 blocks over c=2 fibers: fiber 0 owns two blocks,
        fiber 1 owns one — the block-cyclic remainder case."""
        machine6 = MachineConfig(n_nodes=6, memory_capacity=1 << 30)
        result = AllGather().run(
            matrix, dense, machine6, grid=Grid15D(p_r=3, c=2)
        )
        assert not result.failed
        np.testing.assert_allclose(
            result.C, spmm_reference(matrix, dense), rtol=1e-8, atol=1e-8
        )

    def test_wrong_node_count_rejected(self, matrix, dense):
        with pytest.raises(PartitionError):
            AllGather().run(
                matrix, dense, MachineConfig(n_nodes=8),
                grid=Grid2D(p_r=4, p_c=4),
            )


class TestGridAccounting:
    def test_15d_dims(self, matrix, dense, machine):
        result = AllGather().run(
            matrix, dense, machine, grid=Grid15D(p_r=4, c=2)
        )
        dims = result.traffic.dim_bytes
        assert set(dims) == {"row", "fiber"}
        assert dims["row"] > 0 and dims["fiber"] > 0
        # The fiber allreduce moves one partial C per row block:
        # p_r blocks x block_rows x k x 8 bytes = |C| bytes charged once.
        assert dims["fiber"] == matrix.shape[0] * dense.shape[1] * 8

    def test_2d_dims(self, matrix, dense, machine):
        result = AllGather().run(
            matrix, dense, machine, grid=Grid2D(p_r=4, p_c=2)
        )
        dims = result.traffic.dim_bytes
        assert set(dims) == {"col", "row"}
        assert dims["row"] == matrix.shape[0] * dense.shape[1] * 8

    def test_replication_reduces_per_rank_traffic(
        self, matrix, dense, machine
    ):
        """The 1.5D promise: each rank receives ~|B|/c dense bytes
        (plus the small allreduce) instead of ~|B|."""
        flat = AllGather().run(matrix, dense, machine)
        grid = Grid15D(p_r=4, c=2)
        rep = AllGather().run(matrix, dense, machine, grid=grid)
        assert max(rep.traffic.per_node_recv_bytes) < max(
            flat.traffic.per_node_recv_bytes
        )
        assert rep.seconds < flat.seconds

    def test_extras_describe_grid(self, matrix, dense, machine):
        grid = Grid2D(p_r=4, p_c=2)
        result = AllGather().run(matrix, dense, machine, grid=grid)
        assert result.extras["grid"] == grid.describe()
        assert len(result.extras["layers"]) == 2

    def test_collective_ops_include_reduction(self, matrix, dense, machine):
        grid = Grid15D(p_r=4, c=2)
        result = AllGather().run(matrix, dense, machine, grid=grid)
        # One allreduce per C row block, over depth-2 groups.
        allreduces = [
            ev for ev in result.events if ev.kind == "allreduce"
        ]
        assert len(allreduces) == grid.p_r * grid.depth

    def test_seconds_positive_and_finite(self, matrix, dense, machine):
        for grid in GRIDS:
            result = TwoFace(stripe_width=8).run(
                matrix, dense, machine, grid=grid
            )
            assert np.isfinite(result.seconds)
            assert result.seconds > 0
            assert result.seconds == pytest.approx(
                result.breakdown.makespan
            )


class TestGridDeterminism:
    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_exec_pool()
        yield
        shutdown_exec_pool()

    @pytest.mark.parametrize(
        "grid",
        [Grid15D(p_r=4, c=2), Grid2D(p_r=4, p_c=2)],
        ids=lambda g: g.cache_token(),
    )
    def test_pooled_matches_serial(
        self, monkeypatch, grid, matrix, dense, machine
    ):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        shutdown_exec_pool()
        serial = TwoFace(stripe_width=8).run(
            matrix, dense, machine, grid=grid
        )
        monkeypatch.setenv(WORKERS_ENV, "4")
        shutdown_exec_pool()
        pooled = TwoFace(stripe_width=8).run(
            matrix, dense, machine, grid=grid
        )
        assert serial.C.tobytes() == pooled.C.tobytes()
        assert serial.seconds == pooled.seconds
        assert serial.events == pooled.events


class TestGridFaults:
    def test_faulty_run_stays_exact(self, matrix, dense):
        faults = FaultConfig.from_intensity(0.2, seed=3)
        machine = MachineConfig(
            n_nodes=N_NODES, memory_capacity=1 << 30, faults=faults
        )
        healthy = MachineConfig(n_nodes=N_NODES, memory_capacity=1 << 30)
        grid = Grid15D(p_r=4, c=2)
        clean = TwoFace(stripe_width=8).run(
            matrix, dense, healthy, grid=grid
        )
        noisy = TwoFace(stripe_width=8).run(
            matrix, dense, machine, grid=grid
        )
        np.testing.assert_allclose(
            noisy.C, clean.C, rtol=0.0, atol=1e-12
        )
        assert noisy.seconds >= clean.seconds

    def test_fault_extras_attached(self, matrix, dense):
        faults = FaultConfig.from_intensity(0.1, seed=1)
        machine = MachineConfig(
            n_nodes=N_NODES, memory_capacity=1 << 30, faults=faults
        )
        result = TwoFace(stripe_width=8).run(
            matrix, dense, machine, grid=Grid2D(p_r=4, p_c=2)
        )
        assert "faults" in result.extras
        assert "resilience" in result.extras


class TestGridGuards:
    def test_precomputed_plan_rejected_on_grid(
        self, matrix, dense, machine
    ):
        algo = TwoFace(stripe_width=8)
        algo.run(matrix, dense, machine)  # builds algo.last_plan
        pinned = TwoFace(plan=algo.last_plan)
        with pytest.raises(PartitionError):
            pinned.run(
                matrix, dense, machine, grid=Grid15D(p_r=4, c=2)
            )

    def test_precomputed_plan_fine_on_1d(self, matrix, dense, machine):
        algo = TwoFace(stripe_width=8)
        fresh = algo.run(matrix, dense, machine)
        replay = TwoFace(plan=algo.last_plan).run(
            matrix, dense, machine, grid=Grid1D(N_NODES)
        )
        assert replay.C.tobytes() == fresh.C.tobytes()

    def test_oom_reports_failure_with_grid(self, matrix, dense):
        machine = MachineConfig(n_nodes=N_NODES, memory_capacity=4096)
        result = AllGather().run(
            matrix, dense, machine, grid=Grid2D(p_r=4, p_c=2)
        )
        assert result.failed
        assert result.C is None
        assert result.extras["grid"]["layout"] == "2d"


class TestLayerCoefficients:
    def test_for_group_size_scales_alpha_s_only(self):
        from repro.core.model import CostCoefficients

        base = CostCoefficients()
        scaled = base.for_group_size(4, 256)
        # ceil(log2(5)) = 3 vs ceil(log2(257)) = 9.
        assert scaled.alpha_s == pytest.approx(base.alpha_s * 3 / 9)
        assert scaled.beta_s == base.beta_s
        assert scaled.beta_a == base.beta_a
        assert base.for_group_size(16, 16) is base

    def test_layer_algorithm_preserves_name(self):
        grid = Grid15D(p_r=4, c=2)
        clone = AsyncFine(stripe_width=8)._grid_layer_algorithm(grid)
        assert clone.name == "AsyncFine"
        assert clone.force_all_async
        assert clone.grid == grid

    def test_make_grid_cli_spellings(self):
        # The spellings the CLI exposes resolve to the right classes.
        assert isinstance(make_grid("1.5d", 16, c=4), Grid15D)
        assert isinstance(make_grid("2d", 16), Grid2D)
