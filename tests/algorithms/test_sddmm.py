"""Unit tests for distributed SDDMM (the §9 extension)."""

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import AllGatherSDDMM, TwoFace, TwoFaceSDDMM
from repro.errors import PartitionError, ShapeError
from repro.sparse import (
    COOMatrix,
    banded,
    erdos_renyi,
    rmat,
    sddmm_reference,
    uniform_random,
)


@pytest.fixture
def inputs(rng):
    A = erdos_renyi(96, 96, 600, seed=1)
    X = rng.standard_normal((96, 16))
    Y = rng.standard_normal((96, 16))
    return A, X, Y


class TestReference:
    def test_values_formula(self):
        A = COOMatrix(
            np.array([0, 1]), np.array([1, 0]), np.array([2.0, 3.0]), (2, 2)
        )
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        S = sddmm_reference(A, X, Y)
        # s_01 = 2 * dot(X_0, Y_1) = 2 * 3; s_10 = 3 * dot(X_1, Y_0) = 3 * 2.
        assert S.to_dense()[0, 1] == 6.0
        assert S.to_dense()[1, 0] == 6.0

    def test_pattern_preserved(self, inputs):
        A, X, Y = inputs
        S = sddmm_reference(A, X, Y)
        assert S.nnz == A.nnz
        np.testing.assert_array_equal(S.rows, A.rows)
        np.testing.assert_array_equal(S.cols, A.cols)

    def test_shape_validation(self, inputs, rng):
        A, X, Y = inputs
        with pytest.raises(ShapeError):
            sddmm_reference(A, X[:50], Y)
        with pytest.raises(ShapeError):
            sddmm_reference(A, X, rng.standard_normal((96, 8)))


class TestAlgorithms:
    @pytest.mark.parametrize("algo_cls", [AllGatherSDDMM, TwoFaceSDDMM])
    def test_correct_random(self, inputs, small_machine, algo_cls):
        A, X, Y = inputs
        result = algo_cls().run(A, X, Y, small_machine)
        assert not result.failed
        assert result.S == sddmm_reference(A, X, Y)

    @pytest.mark.parametrize(
        "matrix_fn",
        [
            lambda: banded(96, bandwidth=5, avg_degree=6, seed=1),
            lambda: rmat(7, avg_degree=8, seed=1),
            lambda: uniform_random(96, avg_degree=1.0, seed=1),
        ],
    )
    def test_twoface_correct_across_structures(
        self, matrix_fn, small_machine, rng
    ):
        A = matrix_fn()
        X = rng.standard_normal((A.shape[0], 8))
        Y = rng.standard_normal((A.shape[1], 8))
        result = TwoFaceSDDMM(stripe_width=8).run(A, X, Y, small_machine)
        assert result.S == sddmm_reference(A, X, Y)

    def test_rectangular(self, small_machine, rng):
        A = erdos_renyi(60, 100, 300, seed=2)
        X = rng.standard_normal((60, 8))
        Y = rng.standard_normal((100, 8))
        result = TwoFaceSDDMM(stripe_width=8).run(A, X, Y, small_machine)
        assert result.S == sddmm_reference(A, X, Y)

    def test_duplicates_summed(self, small_machine, rng):
        A = COOMatrix(
            np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]),
            (8, 8),
        )
        X = rng.standard_normal((8, 4))
        Y = rng.standard_normal((8, 4))
        result = TwoFaceSDDMM(stripe_width=2).run(A, X, Y, small_machine)
        assert result.S.nnz == 1
        expected = 3.0 * float(X[0] @ Y[1])
        assert result.S.vals[0] == pytest.approx(expected)

    def test_empty_matrix(self, small_machine, rng):
        A = COOMatrix.empty((32, 32))
        X = rng.standard_normal((32, 4))
        Y = rng.standard_normal((32, 4))
        result = TwoFaceSDDMM(stripe_width=4).run(A, X, Y, small_machine)
        assert result.S.nnz == 0

    def test_oom_reported(self, rng):
        tight = MachineConfig(n_nodes=4, memory_capacity=30_000)
        A = erdos_renyi(128, 128, 500, seed=1)
        X = rng.standard_normal((128, 32))
        Y = rng.standard_normal((128, 32))
        result = AllGatherSDDMM().run(A, X, Y, tight)
        assert result.failed
        assert result.S is None


class TestPlanSharing:
    def test_spmm_plan_reused_for_sddmm(self, inputs, small_machine, rng):
        """The §9 claim: SDDMM 'exhibits very similar patterns to SpMM'
        — the same plan drives both kernels."""
        A, X, Y = inputs
        spmm = TwoFace(stripe_width=8)
        spmm.run(A, rng.standard_normal((96, 16)), small_machine)
        shared = TwoFaceSDDMM(plan=spmm.last_plan)
        result = shared.run(A, X, Y, small_machine)
        assert result.S == sddmm_reference(A, X, Y)

    def test_plan_mismatch_rejected(self, inputs, small_machine, rng):
        A, X, Y = inputs
        spmm = TwoFace(stripe_width=8)
        spmm.run(A, rng.standard_normal((96, 4)), small_machine)  # K=4
        with pytest.raises(PartitionError):
            TwoFaceSDDMM(plan=spmm.last_plan).run(A, X, Y, small_machine)

    def test_extras(self, inputs, small_machine):
        A, X, Y = inputs
        algo = TwoFaceSDDMM(stripe_width=8)
        result = algo.run(A, X, Y, small_machine)
        assert result.extras["sync_stripes"] >= 0
        assert result.extras["async_stripes"] >= 0


class TestTiming:
    def test_communication_matches_spmm_structure(
        self, inputs, small_machine, rng
    ):
        """Same plan => byte-identical communication to SpMM."""
        A, X, Y = inputs
        spmm = TwoFace(stripe_width=8)
        spmm_result = spmm.run(A, Y, small_machine)  # B := Y (same shape)
        sddmm_result = TwoFaceSDDMM(plan=spmm.last_plan).run(
            A, X, Y, small_machine
        )
        assert (
            sddmm_result.traffic.onesided_bytes
            == spmm_result.traffic.onesided_bytes
        )
        assert (
            sddmm_result.traffic.collective_bytes
            == spmm_result.traffic.collective_bytes
        )
        # The shared sync lane books what SDDMM's own multicast loop did.
        from tests.core.test_executor import loop_sync_transfers

        plan = spmm.last_plan
        want, calls = loop_sync_transfers(
            small_machine.network, plan.geometry, plan.stripe_destinations,
            16, 4,
        )
        assert calls and sddmm_result.traffic.collective_ops == len(calls)
        assert [
            node.sync_comm.hex() for node in sddmm_result.breakdown.nodes
        ] == [seconds.hex() for seconds in want]
        assert (
            sddmm_result.traffic.per_node_recv_bytes
            == spmm_result.traffic.per_node_recv_bytes
        )

    def test_no_atomics_makes_async_compute_cheaper(
        self, small_machine, rng
    ):
        """SDDMM's async compute has no atomic term, so for the same
        plan its async compute time is below SpMM's."""
        A = uniform_random(128, avg_degree=1.0, seed=4)
        B = rng.standard_normal((128, 32))
        X = rng.standard_normal((128, 32))
        from repro.algorithms import AsyncFine

        spmm = AsyncFine(stripe_width=8)
        spmm_result = spmm.run(A, B, small_machine)
        sddmm_result = TwoFaceSDDMM(plan=spmm.last_plan).run(
            A, X, B, small_machine
        )
        assert (
            sddmm_result.breakdown.component_means().async_comp
            < spmm_result.breakdown.component_means().async_comp
        )
