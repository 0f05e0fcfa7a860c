"""Unit tests for the network and compute cost models."""

import numpy as np
import pytest

from repro.cluster import ComputeModel, NetworkModel
from repro.errors import ConfigurationError


class TestNetworkModel:
    def test_p2p_affine_in_bytes(self):
        net = NetworkModel()
        t1 = net.p2p_time(1000)
        t2 = net.p2p_time(2000)
        assert t2 - t1 == pytest.approx(1000 * net.beta_p2p)

    def test_p2p_latency_floor(self):
        net = NetworkModel()
        assert net.p2p_time(0) == pytest.approx(net.alpha_p2p)

    def test_allgather_single_rank_free(self):
        assert NetworkModel().allgather_time(1 << 20, 1) == 0.0

    def test_allgather_scales_with_ranks(self):
        net = NetworkModel()
        assert net.allgather_time(1000, 8) > net.allgather_time(1000, 4)

    def test_allgather_ring_steps(self):
        net = NetworkModel()
        expected = 7 * (net.alpha_coll + net.beta_coll * 500)
        assert net.allgather_time(500, 8) == pytest.approx(expected)

    def test_bcast_no_destinations_free(self):
        assert NetworkModel().bcast_time(1000, 0) == 0.0

    def test_bcast_log_depth_latency(self):
        net = NetworkModel()
        # Depth grows logarithmically: 1 dest -> 1, 3 dests -> 2, ...
        t1 = net.bcast_time(0, 1)
        t3 = net.bcast_time(0, 3)
        t31 = net.bcast_time(0, 31)
        assert t1 == pytest.approx(net.alpha_coll)
        assert t3 == pytest.approx(2 * net.alpha_coll)
        assert t31 == pytest.approx(5 * net.alpha_coll)

    def test_bcast_bandwidth_term(self):
        net = NetworkModel()
        delta = net.bcast_time(2000, 1) - net.bcast_time(1000, 1)
        assert delta == pytest.approx(2.0 * net.beta_coll * 1000)

    def test_bcast_array_form_is_the_scalar_form(self):
        # One entry per multicast, mixed payloads: each element must go
        # through the scalar call's IEEE operations (bit length ==
        # ceil(log2(n + 1)) on both sides of every power of two).
        import math

        net = NetworkModel(alpha_coll=3.7e-6, beta_coll=1.9e-8)
        fanout = np.array([0, 1, 2, 3, 4, 31, 32, 33, 255, 256])
        nbytes = np.array([4096, 0, 8, 123457, 1 << 20, 8 * 512 * 77,
                           1, 65536, 3, 1 << 27])
        costs = net.bcast_time(nbytes, fanout)
        for cost, b, n in zip(costs.tolist(), nbytes.tolist(),
                              fanout.tolist()):
            assert cost.hex() == net.bcast_time(b, n).hex()
            want = math.ceil(math.log2(n + 1)) * net.alpha_coll if n else 0.0
            assert cost.hex() == (
                want + 2.0 * net.beta_coll * b if n else 0.0
            ).hex()
        assert costs[0] == 0.0 and net.bcast_time(1000, 0) == 0.0
        # Array payloads against one fan-out (the fault lane's call).
        np.testing.assert_array_equal(
            net.bcast_time(nbytes, 1),
            [net.bcast_time(b, 1) for b in nbytes.tolist()],
        )

    def test_allreduce_single_rank_free(self):
        net = NetworkModel()
        assert net.allreduce_time(1 << 20, 1) == 0.0
        assert net.allreduce_time(1 << 20, 0) == 0.0

    def test_allreduce_ring_formula(self):
        # Reduce-scatter + allgather: 2 (n-1) steps of nbytes / n.
        net = NetworkModel()
        expected = 2 * 7 * (net.alpha_coll + net.beta_coll * 800 / 8)
        assert net.allreduce_time(800, 8) == pytest.approx(expected)

    def test_allreduce_latency_dominated_at_small_sizes(self):
        # Per-rank bandwidth term shrinks with n; latency term grows.
        net = NetworkModel()
        assert net.allreduce_time(0, 8) == pytest.approx(
            2 * 7 * net.alpha_coll
        )

    def test_allreduce_cheaper_than_allgather_of_replicas(self):
        # The grid trade: reducing one buffer over c ranks beats
        # gathering c copies of it.
        net = NetworkModel()
        assert net.allreduce_time(4096, 4) < net.allgather_time(4096, 4) * 4

    def test_rget_more_expensive_per_byte_than_collective(self):
        net = NetworkModel()
        assert net.beta_rget > 10 * net.beta_coll  # the paper's ~18.5x

    def test_rget_chunk_overhead(self):
        net = NetworkModel()
        assert net.rget_time(1000, n_chunks=4) > net.rget_time(1000, n_chunks=1)

    def test_rget_invalid_chunks(self):
        with pytest.raises(ConfigurationError):
            NetworkModel().rget_time(100, n_chunks=0)

    def test_rget_scalar_and_array_calls_agree(self):
        """Plain ints take a plain comparison, arrays the vector check:
        same values, same error text."""
        net = NetworkModel()
        nbytes, chunks = np.array([0, 800, 12345]), np.array([1, 3, 7])
        assert net.rget_time(nbytes, n_chunks=chunks).tolist() == [
            net.rget_time(b, n_chunks=c)
            for b, c in zip(nbytes.tolist(), chunks.tolist())
        ]
        assert type(net.rget_time(800, n_chunks=3)) is float
        for bad in (0, np.array([2, 0])):
            with pytest.raises(
                ConfigurationError, match="n_chunks must be positive"
            ):
                net.rget_time(nbytes[:np.size(bad)], n_chunks=bad)

    def test_scaled_returns_modified_copy(self):
        net = NetworkModel()
        slow = net.scaled(beta_rget=2.0)
        assert slow.beta_rget == pytest.approx(2 * net.beta_rget)
        assert slow.beta_coll == net.beta_coll
        assert net.beta_rget == NetworkModel().beta_rget  # original intact

    def test_scaled_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            NetworkModel().scaled(nonsense=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_p2p": -1.0},
            {"beta_p2p": float("nan")},
            {"alpha_coll": float("inf")},
            {"beta_coll": -1e-12},
            {"alpha_rget": float("-inf")},
            {"beta_rget": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NetworkModel(**kwargs)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_scaled_invalid_factor_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            NetworkModel().scaled(beta_rget=bad)

    def test_zero_parameter_allowed(self):
        # Zero-cost terms are valid (e.g. idealised-latency studies).
        assert NetworkModel(alpha_p2p=0.0).p2p_time(0) == 0.0


class TestComputeModel:
    def test_sync_panel_time_scales_with_work(self):
        comp = ComputeModel()
        assert comp.sync_panel_time(2000, 32, 10, 8) > comp.sync_panel_time(
            1000, 32, 10, 8
        )

    def test_sync_panel_time_scales_inverse_threads(self):
        comp = ComputeModel()
        t1 = comp.sync_panel_time(1000, 32, 0, 1)
        t8 = comp.sync_panel_time(1000, 32, 0, 8)
        assert t1 == pytest.approx(8 * t8)

    def test_sync_panel_atomic_term(self):
        comp = ComputeModel()
        with_flush = comp.sync_panel_time(1000, 32, 100, 4)
        without = comp.sync_panel_time(1000, 32, 0, 4)
        assert with_flush > without

    def test_async_stripe_more_expensive_per_nnz(self):
        comp = ComputeModel()
        sync = comp.sync_panel_time(1000, 32, 0, 8)
        async_ = comp.async_stripe_time(1000, 32, 8, n_stripes=0)
        assert async_ > sync  # atomics + efficiency loss

    def test_async_stripe_overhead_per_stripe(self):
        comp = ComputeModel()
        assert comp.async_stripe_time(0, 32, 4, n_stripes=10) == pytest.approx(
            10 * comp.stripe_overhead
        )

    def test_invalid_threads(self):
        comp = ComputeModel()
        with pytest.raises(ConfigurationError):
            comp.sync_panel_time(10, 4, 0, 0)
        with pytest.raises(ConfigurationError):
            comp.async_stripe_time(10, 4, 0)

    def test_invalid_efficiency(self):
        with pytest.raises(ConfigurationError):
            ComputeModel(async_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            ComputeModel(sync_efficiency=1.5)

    def test_scaled(self):
        comp = ComputeModel().scaled(fma_time=2.0)
        assert comp.fma_time == pytest.approx(2 * ComputeModel().fma_time)

    def test_scaled_unknown(self):
        with pytest.raises(ConfigurationError):
            ComputeModel().scaled(bogus=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fma_time": -1.0},
            {"fma_time": float("nan")},
            {"atomic_time": float("inf")},
            {"stripe_overhead": -1e-12},
            {"panel_overhead": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ComputeModel(**kwargs)

    @pytest.mark.parametrize("bad", [-2.0, float("nan"), float("inf")])
    def test_scaled_invalid_factor_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ComputeModel().scaled(fma_time=bad)
