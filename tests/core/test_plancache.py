"""Unit tests for the content-addressed persistent plan cache."""

import os

import numpy as np
import pytest

from repro import MachineConfig
from repro.core import CostCoefficients, preprocess
from repro.core.plancache import (
    PLAN_CACHE_ENV,
    PlanCache,
    PlanCacheStats,
    cached_preprocess,
    configure_plan_cache,
    get_plan_cache,
    matrix_content_digest,
    plan_cache_key,
    plan_cache_stats,
    reset_plan_cache,
    reset_plan_cache_stats,
)
from repro.core.serialize import plan_digest
from repro.dist import DistSparseMatrix, RowPartition
from repro.errors import ConfigurationError
from repro.sparse import COOMatrix, erdos_renyi


@pytest.fixture
def dist_matrix(tiny_matrix):
    return DistSparseMatrix(tiny_matrix, RowPartition(64, 4))


@pytest.fixture(autouse=True)
def _fresh_cache_state(monkeypatch):
    monkeypatch.delenv(PLAN_CACHE_ENV, raising=False)
    reset_plan_cache()
    reset_plan_cache_stats()
    yield
    reset_plan_cache()
    reset_plan_cache_stats()


def make_dist(seed=1, n=64, nnz=400, parts=4):
    return DistSparseMatrix(
        erdos_renyi(n, n, nnz, seed=seed), RowPartition(n, parts)
    )


class TestKeyDerivation:
    def test_key_is_stable(self, dist_matrix):
        a = plan_cache_key(dist_matrix, 16, 4)
        b = plan_cache_key(dist_matrix, 16, 4)
        assert a == b

    def test_same_content_same_key(self, tiny_matrix):
        # Two distinct objects with identical structure share a key.
        copy = COOMatrix(
            tiny_matrix.rows.copy(), tiny_matrix.cols.copy(),
            tiny_matrix.vals.copy(), tiny_matrix.shape,
        )
        a = DistSparseMatrix(tiny_matrix, RowPartition(64, 4))
        b = DistSparseMatrix(copy, RowPartition(64, 4))
        assert plan_cache_key(a, 16, 4) == plan_cache_key(b, 16, 4)

    @pytest.mark.parametrize("kwargs", [
        {"k": 32},
        {"stripe_width": 8},
        {"panel_height": 16},
        {"coeffs": CostCoefficients().scaled(beta_a=0.5)},
        {"force_all_async": True},
        {"force_all_sync": True},
        {"machine": MachineConfig(n_nodes=4, memory_capacity=1 << 20)},
    ])
    def test_every_input_changes_key(self, dist_matrix, kwargs):
        base = dict(k=16, stripe_width=4)
        changed = {**base, **kwargs}
        key_a = plan_cache_key(dist_matrix, **base)
        key_b = plan_cache_key(dist_matrix, **changed)
        assert key_a != key_b

    def test_matrix_content_changes_key(self):
        a = make_dist(seed=1)
        b = make_dist(seed=2)
        assert plan_cache_key(a, 16, 4) != plan_cache_key(b, 16, 4)

    def test_partition_changes_key(self, tiny_matrix):
        a = DistSparseMatrix(tiny_matrix, RowPartition(64, 4))
        b = DistSparseMatrix(tiny_matrix, RowPartition(64, 8))
        assert plan_cache_key(a, 16, 4) != plan_cache_key(b, 16, 4)

    def test_values_participate_in_digest(self, tiny_matrix):
        scaled = COOMatrix(
            tiny_matrix.rows, tiny_matrix.cols,
            tiny_matrix.vals * 2.0, tiny_matrix.shape,
        )
        assert (
            matrix_content_digest(tiny_matrix)
            != matrix_content_digest(scaled)
        )

    def test_digest_memoised(self, tiny_matrix):
        matrix_content_digest(tiny_matrix)
        assert tiny_matrix._content_digest == matrix_content_digest(
            tiny_matrix
        )


class TestMemoryLayer:
    def test_hit_returns_same_plan_object(self, dist_matrix):
        cache = PlanCache(stats=PlanCacheStats())
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        key = plan_cache_key(dist_matrix, 16, 4)
        cache.put(key, plan)
        assert cache.get(key) is plan
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss_counted(self):
        cache = PlanCache(stats=PlanCacheStats())
        assert cache.get("nope") is None
        assert cache.stats.misses == 1

    def test_lru_evicts_oldest(self, dist_matrix):
        cache = PlanCache(max_memory_entries=2, stats=PlanCacheStats())
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        cache.put("a", plan)
        cache.put("b", plan)
        cache.get("a")  # refresh a
        cache.put("c", plan)  # evicts b
        assert cache.stats.evictions == 1
        assert cache.get("a") is plan
        assert cache.get("b") is None

    def test_zero_capacity_disables_memory_layer(self, dist_matrix):
        cache = PlanCache(max_memory_entries=0, stats=PlanCacheStats())
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        cache.put("a", plan)
        assert len(cache) == 0
        assert cache.get("a") is None  # no disk layer either

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(max_memory_entries=-1)


class TestDiskLayer:
    def test_roundtrip_across_instances(self, dist_matrix, tmp_path):
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        key = plan_cache_key(dist_matrix, 16, 4)
        PlanCache(cache_dir=tmp_path, stats=PlanCacheStats()).put(key, plan)

        fresh = PlanCache(cache_dir=tmp_path, stats=PlanCacheStats())
        loaded = fresh.get(key)
        assert loaded is not None
        assert plan_digest(loaded) == plan_digest(plan)
        assert fresh.stats.hits == 1

    def test_entry_is_atomic_no_temp_left_behind(
        self, dist_matrix, tmp_path
    ):
        cache = PlanCache(cache_dir=tmp_path, stats=PlanCacheStats())
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        cache.put("k" * 64, plan)
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["k" * 64 + ".plan"]

    def test_truncated_entry_invalidated(self, dist_matrix, tmp_path):
        stats = PlanCacheStats()
        cache = PlanCache(
            cache_dir=tmp_path, max_memory_entries=0, stats=stats
        )
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        key = plan_cache_key(dist_matrix, 16, 4)
        cache.put(key, plan)
        path = cache.entry_path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        assert cache.get(key) is None
        assert stats.invalidations == 1
        assert stats.misses == 1
        assert not path.exists()  # corrupt entry removed

    def test_garbage_entry_invalidated(self, tmp_path):
        stats = PlanCacheStats()
        cache = PlanCache(cache_dir=tmp_path, stats=stats)
        tmp_path.mkdir(exist_ok=True)
        path = cache.entry_path("bad")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a plan container at all")
        assert cache.get("bad") is None
        assert stats.invalidations == 1

    def test_old_version_entry_invalidated(self, dist_matrix, tmp_path):
        """A pre-current-format container under a live key is dropped
        and rebuilt, not fatal."""
        from repro.sparse import read_arrays, write_arrays

        stats = PlanCacheStats()
        cache = PlanCache(
            cache_dir=tmp_path, max_memory_entries=0, stats=stats
        )
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        key = plan_cache_key(dist_matrix, 16, 4)
        cache.put(key, plan)
        path = cache.entry_path(key)
        arrays = read_arrays(path)
        arrays["meta"] = arrays["meta"][:7].copy()
        arrays["meta"][0] = 3
        write_arrays(arrays, path)

        assert cache.get(key) is None
        assert stats.invalidations == 1
        assert stats.misses == 1
        assert not path.exists()
        rebuilt, _ = cached_preprocess(
            dist_matrix, k=16, stripe_width=4, cache=cache
        )
        assert plan_digest(rebuilt) == plan_digest(plan)
        assert cache.get(key) is not None

    def test_clear_disk(self, dist_matrix, tmp_path):
        cache = PlanCache(cache_dir=tmp_path, stats=PlanCacheStats())
        plan, _ = preprocess(dist_matrix, k=16, stripe_width=4)
        cache.put("x" * 64, plan)
        cache.clear(disk=True)
        assert len(cache) == 0
        assert list(tmp_path.glob("*.plan")) == []


class TestCachedPreprocess:
    def test_hit_report_matches_cold_report(self, dist_matrix, tmp_path):
        shared = plan_cache_stats().snapshot()
        cache = PlanCache(cache_dir=tmp_path, stats=PlanCacheStats())
        plan_a, rep_a = cached_preprocess(
            dist_matrix, 16, 4, cache=cache
        )
        # (hits, misses, evictions, invalidations, stores)
        assert cache.stats.snapshot() == (0, 1, 0, 0, 1)
        plan_b, rep_b = cached_preprocess(
            dist_matrix, 16, 4, cache=cache
        )
        assert not rep_a.cache_hit
        assert rep_b.cache_hit
        assert cache.stats.snapshot() == (1, 1, 0, 0, 1)
        # A private stats sink leaves the process-global counters alone.
        assert plan_cache_stats().snapshot() == shared
        assert plan_digest(plan_a) == plan_digest(plan_b)
        # Every modelled quantity is identical; only wall clock moves.
        assert rep_a.modeled_seconds == rep_b.modeled_seconds
        assert rep_a.modeled_seconds_with_io == rep_b.modeled_seconds_with_io
        assert rep_a.n_stripes_scored == rep_b.n_stripes_scored
        assert rep_a.memory_flips == rep_b.memory_flips

    def test_hit_plan_executes_identically(self, tiny_matrix, rng):
        from repro.algorithms import TwoFace

        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        B = rng.standard_normal((64, 16))
        cache = PlanCache(stats=PlanCacheStats())
        cold = TwoFace(stripe_width=4, plan_cache=cache).run(
            tiny_matrix, B, machine
        )
        warm_algo = TwoFace(stripe_width=4, plan_cache=cache)
        warm = warm_algo.run(tiny_matrix, B, machine)
        assert warm_algo.last_report.cache_hit
        np.testing.assert_array_equal(warm.C, cold.C)
        assert warm.seconds == cold.seconds
        assert warm.breakdown.nodes == cold.breakdown.nodes

    def test_none_cache_always_cold(self, dist_matrix):
        _, rep_a = cached_preprocess(dist_matrix, 16, 4, cache=None)
        _, rep_b = cached_preprocess(dist_matrix, 16, 4, cache=None)
        assert not rep_a.cache_hit and not rep_b.cache_hit

    def test_override_bypasses_cache(self, dist_matrix):
        stats = PlanCacheStats()
        cache = PlanCache(stats=stats)

        def all_async(stripe_stats, geometry, k):
            return np.ones(stripe_stats.n_stripes, dtype=bool)

        cached_preprocess(
            dist_matrix, 16, 4, classify_override=all_async, cache=cache
        )
        assert stats.snapshot() == (0, 0, 0, 0, 0)
        assert len(cache) == 0

    def test_different_k_is_cold(self, dist_matrix):
        cache = PlanCache(stats=PlanCacheStats())
        cached_preprocess(dist_matrix, 16, 4, cache=cache)
        _, rep = cached_preprocess(dist_matrix, 32, 4, cache=cache)
        assert not rep.cache_hit


class TestEnvResolution:
    def test_unset_means_disabled(self):
        assert get_plan_cache() is None

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(PLAN_CACHE_ENV, value)
        assert get_plan_cache() is None

    def test_mem_value_is_memory_only(self, monkeypatch):
        monkeypatch.setenv(PLAN_CACHE_ENV, "mem")
        cache = get_plan_cache()
        assert cache is not None
        assert cache.cache_dir is None

    def test_directory_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PLAN_CACHE_ENV, str(tmp_path / "plans"))
        cache = get_plan_cache()
        assert cache.cache_dir == tmp_path / "plans"

    def test_stable_value_reuses_instance(self, monkeypatch):
        monkeypatch.setenv(PLAN_CACHE_ENV, "mem")
        assert get_plan_cache() is get_plan_cache()

    def test_value_change_rebuilds(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PLAN_CACHE_ENV, "mem")
        first = get_plan_cache()
        monkeypatch.setenv(PLAN_CACHE_ENV, str(tmp_path))
        second = get_plan_cache()
        assert second is not first
        assert second.cache_dir == tmp_path

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(PLAN_CACHE_ENV, "mem")
        mine = PlanCache(stats=PlanCacheStats())
        configure_plan_cache(mine)
        assert get_plan_cache() is mine
        configure_plan_cache(None)
        assert get_plan_cache() is None
        reset_plan_cache()
        assert get_plan_cache() is not None  # env visible again


class TestEngineIntegration:
    def test_engine_counts_plan_cache_activity(self, tiny_matrix, rng):
        from repro.gnn.engine import DistSpMMEngine

        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        cache = PlanCache()
        B = rng.standard_normal((64, 16))

        first = DistSpMMEngine(
            tiny_matrix, machine, stripe_width=4, plan_cache=cache
        )
        first.multiply(B)
        stats = first.cache_stats()
        assert stats["plan_misses"] == 1
        assert stats["plan_stores"] == 1
        assert stats["plan_hits"] == 0

        second = DistSpMMEngine(
            tiny_matrix, machine, stripe_width=4, plan_cache=cache
        )
        second.multiply(B)
        stats = second.cache_stats()
        assert stats["plan_hits"] == 1
        assert stats["plan_misses"] == 0

    def test_engine_per_k_reuse_unaffected(self, tiny_matrix, rng):
        """The engine's own per-K plan table still short-circuits: one
        cache lookup per distinct K, not per multiply."""
        from repro.gnn.engine import DistSpMMEngine

        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        cache = PlanCache()
        engine = DistSpMMEngine(
            tiny_matrix, machine, stripe_width=4, plan_cache=cache
        )
        B = rng.standard_normal((64, 16))
        engine.multiply(B)
        engine.multiply(B)
        engine.multiply(B)
        stats = engine.cache_stats()
        assert stats["plan_misses"] == 1
        assert stats["plan_hits"] == 0
