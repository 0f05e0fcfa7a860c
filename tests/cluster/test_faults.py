"""Tests for the deterministic fault-injection layer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import (
    FaultConfig,
    FaultPlan,
    ResilienceStats,
    _u01,
    compile_faults,
    reset_resilience_stats,
    resilience_stats,
)
from repro.errors import ConfigurationError


_MASK64 = (1 << 64) - 1


def _scalar_mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def scalar_u01(seed: int, *keys: int) -> float:
    """The hash in plain Python integers — the reference the array
    implementation (and everything compiled from it) is pinned to."""
    h = _scalar_mix64(seed & _MASK64)
    for key in keys:
        h = _scalar_mix64(
            h ^ ((key & _MASK64) * 0x9E3779B97F4A7C15 & _MASK64)
        )
    return (h >> 11) * (1.0 / (1 << 53))


class TestHash:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**70),
        st.lists(st.integers(-(2**63), 2**64), min_size=0, max_size=6),
    )
    def test_u01_equals_integer_reference(self, seed, keys):
        got = _u01(seed, *keys)
        assert type(got) is float
        assert got == scalar_u01(seed, *keys)

    def test_u01_array_keys_broadcast_elementwise(self):
        a = np.arange(-3, 40)[:, None]
        b = np.array([0, 5, 2**40])[None, :]
        got = _u01(11, 0x2, a, 7, b)
        assert got.shape == (43, 3)
        for i, x in enumerate(a[:, 0].tolist()):
            for j, y in enumerate(b[0].tolist()):
                assert got[i, j] == scalar_u01(11, 0x2, x, 7, y)

    def test_u01_in_unit_interval(self):
        for seed in (0, 1, 7, 2**31):
            for keys in [(0,), (1, 2), (3, 4, 5, 6)]:
                u = _u01(seed, *keys)
                assert 0.0 <= u < 1.0

    def test_u01_deterministic(self):
        assert _u01(7, 1, 2, 3) == _u01(7, 1, 2, 3)

    def test_u01_key_sensitivity(self):
        base = _u01(7, 1, 2, 3)
        assert _u01(8, 1, 2, 3) != base
        assert _u01(7, 2, 2, 3) != base
        assert _u01(7, 1, 2, 4) != base

    def test_u01_roughly_uniform(self):
        draws = [_u01(0, i) for i in range(4000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.5) < 0.02
        assert sum(1 for d in draws if d < 0.1) / len(draws) == (
            pytest.approx(0.1, abs=0.02)
        )


class TestFaultConfig:
    def test_default_inactive(self):
        assert not FaultConfig().active

    def test_any_rate_activates(self):
        assert FaultConfig(rget_failure_rate=0.1).active
        assert FaultConfig(link_degradation_rate=0.1).active
        assert FaultConfig(straggler_rate=0.1).active
        assert FaultConfig(memory_pressure_rate=0.1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"rget_max_attempts": 0},
            {"rget_failure_rate": -0.1},
            {"rget_failure_rate": 1.5},
            {"rget_failure_rate": float("nan")},
            {"link_degradation_rate": 2.0},
            {"straggler_rate": float("inf")},
            {"memory_pressure_rate": -1e-9},
            {"link_degradation_factor": 0.5},
            {"straggler_skew": 0.0},
            {"straggler_skew": float("nan")},
            {"rget_backoff_base": -1.0},
            {"rget_backoff_base": float("inf")},
            {"memory_pressure_fraction": 1.0},
            {"memory_pressure_fraction": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(**kwargs)

    def test_from_intensity_sets_all_rates(self):
        config = FaultConfig.from_intensity(0.25, seed=9)
        assert config.seed == 9
        assert config.rget_failure_rate == 0.25
        assert config.link_degradation_rate == 0.25
        assert config.straggler_rate == 0.25
        assert config.memory_pressure_rate == 0.25

    def test_from_intensity_overrides(self):
        config = FaultConfig.from_intensity(
            0.25, memory_pressure_rate=0.0, rget_max_attempts=2
        )
        assert config.memory_pressure_rate == 0.0
        assert config.rget_max_attempts == 2
        assert config.rget_failure_rate == 0.25

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_from_intensity_rejects_bad(self, bad):
        with pytest.raises(ConfigurationError):
            FaultConfig.from_intensity(bad)


class TestCompile:
    def test_none_stays_none(self):
        assert compile_faults(None, 4) is None

    def test_inactive_compiles_to_none(self):
        assert compile_faults(FaultConfig(), 4) is None

    def test_active_compiles_to_plan(self):
        plan = compile_faults(FaultConfig(straggler_rate=0.5), 4)
        assert isinstance(plan, FaultPlan)
        assert plan.n_nodes == 4

    def test_bad_n_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(FaultConfig(straggler_rate=0.5), 0)


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        config = FaultConfig.from_intensity(0.3, seed=11)
        a = FaultPlan(config, 8)
        b = FaultPlan(config, 8)
        assert a.straggler_ranks() == b.straggler_ranks()
        assert a.squeezed_ranks() == b.squeezed_ranks()
        assert a.degraded_links() == b.degraded_links()

    def test_different_seed_different_plan(self):
        plans = [
            FaultPlan(FaultConfig.from_intensity(0.5, seed=s), 16)
            for s in range(8)
        ]
        signatures = {
            (p.straggler_ranks(), p.degraded_links()) for p in plans
        }
        assert len(signatures) > 1

    def test_rate_one_everything_fires(self):
        plan = FaultPlan(FaultConfig.from_intensity(1.0, seed=0), 4)
        assert plan.straggler_ranks() == (0, 1, 2, 3)
        assert plan.squeezed_ranks() == (0, 1, 2, 3)
        assert len(plan.degraded_links()) == 12  # all ordered pairs
        assert plan.rget_attempt_fails(0, 1, 0, 0)

    def test_rate_zero_nothing_fires(self):
        config = FaultConfig(straggler_rate=0.5)  # active, others zero
        plan = FaultPlan(config, 4)
        assert plan.link_scale(0, 1) == 1.0
        assert plan.worst_incoming_scale(2) == 1.0
        assert plan.squeeze_fraction(0) == 0.0
        assert not plan.rget_attempt_fails(0, 1, 0, 0)

    def test_skew_values(self):
        plan = FaultPlan(
            FaultConfig(straggler_rate=1.0, straggler_skew=2.5), 4
        )
        assert all(plan.compute_skew(r) == 2.5 for r in range(4))

    def test_link_scale_is_per_ordered_pair(self):
        plan = FaultPlan(
            FaultConfig(seed=3, link_degradation_rate=0.5), 16
        )
        links = set(plan.degraded_links())
        assert links  # at rate .5 over 240 pairs this cannot be empty
        asymmetric = [
            (s, d) for (s, d) in links if (d, s) not in links
        ]
        assert asymmetric, "ordered links must degrade independently"
        for src, dst in links:
            assert plan.link_scale(src, dst) == 4.0
        src, dst = asymmetric[0]
        assert plan.link_scale(dst, src) == 1.0

    def test_worst_incoming_scale(self):
        plan = FaultPlan(
            FaultConfig(seed=3, link_degradation_rate=0.5), 8
        )
        for rank in range(8):
            incoming = [
                plan.link_scale(src, rank)
                for src in range(8) if src != rank
            ]
            assert plan.worst_incoming_scale(rank) == max(incoming)

    def test_rget_decision_keyed_on_request_index(self):
        plan = FaultPlan(
            FaultConfig(seed=1, rget_failure_rate=0.5), 4
        )
        decisions = [
            plan.rget_attempt_fails(0, 1, i, 0) for i in range(64)
        ]
        assert any(decisions) and not all(decisions)
        assert decisions == [
            plan.rget_attempt_fails(0, 1, i, 0) for i in range(64)
        ]

    def test_rget_rate_statistics(self):
        plan = FaultPlan(
            FaultConfig(seed=5, rget_failure_rate=0.2), 4
        )
        n = 5000
        fails = sum(
            plan.rget_attempt_fails(0, 1, i, 0) for i in range(n)
        )
        assert fails / n == pytest.approx(0.2, abs=0.02)

    @pytest.mark.parametrize("n_nodes", [1, 4, 32])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_plan_equals_scalar_hash_draws(self, n_nodes, seed):
        """Every static decision and every rget draw is the value the
        integer hash gives for its structural coordinates."""
        config = FaultConfig(
            seed=seed, rget_failure_rate=0.4, rget_max_attempts=3,
            link_degradation_rate=0.3, link_degradation_factor=2.5,
            straggler_rate=0.4, straggler_skew=1.5,
            memory_pressure_rate=0.4, memory_pressure_fraction=0.2,
        )
        plan = FaultPlan(config, n_nodes)
        ranks = range(n_nodes)
        links = {
            (s, d) for s in ranks for d in ranks
            if s != d and scalar_u01(seed, 0x2, s, d) < 0.3
        }
        assert plan.degraded_links() == tuple(sorted(links))
        assert plan.describe()["degraded_links"] == len(links)
        for d in ranks:
            for s in ranks:
                scale = plan.link_scale(s, d)
                assert type(scale) is float
                assert scale == (2.5 if (s, d) in links else 1.0)
            assert plan.worst_incoming_scale(d) == (
                2.5 if any(dst == d for _, dst in links) else 1.0
            )
        assert plan.straggler_ranks() == tuple(
            r for r in ranks if scalar_u01(seed, 0x3, r) < 0.4
        )
        assert plan.squeezed_ranks() == tuple(
            r for r in ranks if scalar_u01(seed, 0x4, r) < 0.4
        )
        if n_nodes > 1:
            targets = [(3 * i + 1) % n_nodes for i in range(17)]
            draws = [
                [
                    scalar_u01(seed, 0x1, 0, t, 5 + i, attempt) < 0.4
                    for attempt in range(3)
                ]
                for i, t in enumerate(targets)
            ]
            assert plan.rget_failed_attempts(0, targets, 5).tolist() == [
                (row + [False]).index(False) for row in draws
            ]
            for i, t in enumerate(targets):
                for attempt in range(3):
                    assert plan.rget_attempt_fails(
                        0, t, 5 + i, attempt
                    ) == draws[i][attempt]

    def test_link_scale_takes_rank_arrays(self):
        plan = FaultPlan(FaultConfig(seed=3, link_degradation_rate=0.5), 8)
        srcs = np.array([1, 2, 5, 7])
        assert plan.link_scale(srcs, 0).tolist() == [
            plan.link_scale(int(s), 0) for s in srcs
        ]

    def test_describe_counts(self):
        plan = FaultPlan(FaultConfig.from_intensity(1.0, seed=2), 4)
        desc = plan.describe()
        assert desc["seed"] == 2
        assert desc["stragglers"] == 4
        assert desc["squeezed_nodes"] == 4
        assert desc["degraded_links"] == 12


class TestResilienceStats:
    def test_snapshot_merge_reset(self):
        a = ResilienceStats(rget_failures=2, retries=1,
                            backoff_seconds=0.5, lane_fallbacks=1,
                            rechunked_stripes=1, rechunk_pieces=3)
        b = ResilienceStats()
        b.merge_from(a)
        b.merge_from(a)
        assert b.snapshot() == (4, 2, 1.0, 2, 2, 6)
        b.reset()
        assert b.snapshot() == (0, 0, 0.0, 0, 0, 0)

    def test_as_dict_keys(self):
        keys = set(ResilienceStats().as_dict())
        assert keys == {
            "rget_failures", "retries", "backoff_seconds",
            "lane_fallbacks", "rechunked_stripes", "rechunk_pieces",
        }

    def test_global_reset(self):
        resilience_stats().retries += 5
        reset_resilience_stats()
        assert resilience_stats().retries == 0

    def test_math_isfinite_guard(self):
        # Defensive: the config validators rely on math.isfinite.
        assert math.isfinite(FaultConfig().rget_backoff_base)


class TestFromIntensityProperties:
    """Property coverage for the chaos-knob constructor (hypothesis)."""

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_in_range_sets_the_four_rates(self, intensity):
        config = FaultConfig.from_intensity(intensity, seed=3)
        assert config.rget_failure_rate == intensity
        assert config.link_degradation_rate == intensity
        assert config.straggler_rate == intensity
        assert config.memory_pressure_rate == intensity
        # The crash knob is opt-in: one scalar must not start killing
        # executors (existing chaos sweeps stay crash-free).
        assert config.executor_crash_rate == 0.0
        assert config.active == (intensity > 0.0)

    @given(
        st.one_of(
            st.floats(
                min_value=1.0, exclude_min=True, allow_nan=False,
                allow_infinity=True,
            ),
            st.floats(
                max_value=0.0, exclude_max=True, allow_nan=False,
                allow_infinity=True,
            ),
            st.just(float("nan")),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_out_of_range_raises_value_error(self, intensity):
        # ConfigurationError subclasses ValueError, so callers catching
        # either see a clear message naming the offending value.
        with pytest.raises(ValueError, match="fault intensity"):
            FaultConfig.from_intensity(intensity)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_crash_rate_rides_along_as_override(self, intensity):
        config = FaultConfig.from_intensity(
            intensity, executor_crash_rate=0.5
        )
        assert config.executor_crash_rate == 0.5
        assert config.active


class TestExecutorCrash:
    def test_no_crash_when_rate_zero(self):
        plan = FaultPlan(FaultConfig(straggler_rate=0.5), 4)
        assert plan.crash_rank() is None

    def test_certain_crash_names_a_rank(self):
        plan = FaultPlan(
            FaultConfig(executor_crash_rate=1.0, seed=5), 4
        )
        rank = plan.crash_rank()
        assert rank is not None
        assert 0 <= rank < 4

    def test_crash_decision_is_per_epoch(self):
        config = FaultConfig(executor_crash_rate=0.5, seed=7)
        fired = sum(
            1
            for epoch in range(400)
            if FaultPlan(
                replace(config, crash_epoch=epoch), 4
            ).crash_rank() is not None
        )
        assert fired / 400 == pytest.approx(0.5, abs=0.08)

    def test_crash_replays_deterministically(self):
        config = FaultConfig(executor_crash_rate=0.7, seed=9,
                             crash_epoch=3)
        assert (
            FaultPlan(config, 8).crash_rank()
            == FaultPlan(config, 8).crash_rank()
        )

    def test_crash_rate_activates_config(self):
        assert FaultConfig(executor_crash_rate=0.1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executor_crash_rate": -0.1},
            {"executor_crash_rate": 1.5},
            {"executor_crash_rate": float("nan")},
            {"crash_epoch": -1},
        ],
    )
    def test_invalid_crash_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(**kwargs)

    def test_cluster_raises_executor_crash(self):
        from repro.cluster.machine import Cluster, MachineConfig
        from repro.errors import ExecutorCrashError

        machine = MachineConfig(
            n_nodes=4,
            faults=FaultConfig(executor_crash_rate=1.0, seed=5),
        )
        with pytest.raises(ExecutorCrashError) as info:
            Cluster(machine)
        assert 0 <= info.value.rank < 4
        assert "crash epoch 0" in str(info.value)
