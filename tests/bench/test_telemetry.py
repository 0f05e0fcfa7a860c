"""Unit tests for the perf-telemetry log (the CLI's ``--out`` JSON schema)."""

import math

import numpy as np
import pytest

from repro.bench import (
    PERF_SCHEMA,
    PerfCell,
    PerfLog,
    latency_summary,
    load_perf_json,
    percentile,
)
from repro.core import (
    reset_transfer_cache_stats,
    transfer_cache_stats,
)


class TestPercentileHelpers:
    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        for q in (0, 25, 50, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_accepts_any_iterable(self):
        assert percentile((x for x in (1.0, 2.0, 3.0)), 50) == 2.0

    def test_empty_input_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_summary_keys(self):
        summary = latency_summary([1.0, 2.0, 3.0, 4.0])
        assert sorted(summary) == ["p50", "p95", "p99"]
        assert summary["p50"] == pytest.approx(2.5)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_latency_summary_empty(self):
        summary = latency_summary([])
        assert all(math.isnan(v) for v in summary.values())


class TestPerfLog:
    def test_record_cell_fields(self):
        log = PerfLog(label="TEST")
        cell = log.record_cell(
            name="web/TwoFace/k8", matrix="web", algorithm="TwoFace",
            k=8, n_nodes=4, wall_seconds=0.5, simulated_seconds=0.1,
        )
        assert isinstance(cell, PerfCell)
        assert cell.cache_hits == 0 and cell.cache_recomputes == 0
        assert log.cells == [cell]

    def test_cache_snapshot_deltas(self):
        reset_transfer_cache_stats()
        snap = transfer_cache_stats().snapshot()
        transfer_cache_stats().hits += 3
        transfer_cache_stats().recomputes += 1
        log = PerfLog(label="TEST")
        cell = log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=None, simulated_seconds=None,
            cache_snapshot=snap,
        )
        assert cell.cache_hits == 3
        assert cell.cache_recomputes == 1
        reset_transfer_cache_stats()

    def test_plan_snapshot_deltas(self):
        from repro.core.plancache import (
            plan_cache_stats,
            reset_plan_cache_stats,
        )

        reset_plan_cache_stats()
        snap = plan_cache_stats().snapshot()
        plan_cache_stats().hits += 2
        plan_cache_stats().misses += 1
        plan_cache_stats().stores += 1
        log = PerfLog(label="TEST")
        cell = log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=None, simulated_seconds=None,
            plan_snapshot=snap,
        )
        assert cell.plan_hits == 2
        assert cell.plan_misses == 1
        assert cell.plan_stores == 1
        assert cell.plan_evictions == 0
        assert cell.plan_invalidations == 0
        reset_plan_cache_stats()

    def test_scatter_snapshot_deltas(self):
        from repro.sparse import reset_scatter_stats, scatter_stats

        reset_scatter_stats()
        snap = scatter_stats().snapshot()
        scatter_stats().segmented_calls += 4
        scatter_stats().atomic_calls += 1
        scatter_stats().sync_csr_hits += 3
        scatter_stats().sync_csr_builds += 2
        log = PerfLog(label="TEST")
        cell = log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=None, simulated_seconds=None,
            scatter_snapshot=snap,
        )
        assert cell.scatter_segmented == 4
        assert cell.scatter_atomic == 1
        assert cell.sync_csr_hits == 3
        assert cell.sync_csr_builds == 2
        reset_scatter_stats()

    def test_resilience_snapshot_deltas(self):
        from repro.cluster.faults import (
            reset_resilience_stats,
            resilience_stats,
        )

        reset_resilience_stats()
        snap = resilience_stats().snapshot()
        resilience_stats().rget_failures += 5
        resilience_stats().retries += 3
        resilience_stats().backoff_seconds += 0.25
        resilience_stats().lane_fallbacks += 2
        resilience_stats().rechunked_stripes += 1
        resilience_stats().rechunk_pieces += 4
        log = PerfLog(label="TEST")
        cell = log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=None, simulated_seconds=None,
            resilience_snapshot=snap,
            events_dropped=7,
        )
        assert cell.fault_rget_failures == 5
        assert cell.fault_retries == 3
        assert cell.fault_backoff_seconds == pytest.approx(0.25)
        assert cell.fault_lane_fallbacks == 2
        assert cell.fault_rechunks == 1
        assert cell.fault_rechunk_pieces == 4
        assert cell.events_dropped == 7
        reset_resilience_stats()

    def test_schema_is_v8(self):
        assert PERF_SCHEMA == "repro-perf/10"

    def test_document_schema(self):
        log = PerfLog(label="TEST")
        log.record_experiment("repeat", {"speedup": 2.5})
        doc = log.to_document()
        assert doc["schema"] == PERF_SCHEMA
        assert doc["label"] == "TEST"
        assert doc["experiments"]["repeat"]["speedup"] == 2.5

    def test_each_cell_record_carries_schema(self):
        log = PerfLog(label="TEST")
        log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=None, simulated_seconds=None,
        )
        log.record_serve_cell(
            name="s", matrix="m", algorithm="a", k=8, n_nodes=4,
            serving={"requests": 1},
        )
        doc = log.to_document()
        assert [cell["schema"] for cell in doc["cells"]] == [
            PERF_SCHEMA, PERF_SCHEMA,
        ]

    def test_record_serve_cell_maps_summary(self):
        log = PerfLog(label="TEST")
        cell = log.record_serve_cell(
            name="serve", matrix="kmer", algorithm="TwoFace/fused",
            k=8, n_nodes=16,
            serving={
                "requests": 48, "completed": 47, "rejected": 1,
                "failed": 0, "batches": 6, "fusion_factor": 7.83,
                "p50_latency": 0.1, "p99_latency": 0.2,
                "requests_per_sec": 170.0, "peak_queue_depth": 24,
                "deadline_misses": 2, "makespan": 0.28,
                "an_unknown_key": "ignored",
            },
        )
        assert cell.serve_requests == 48
        assert cell.serve_completed == 47
        assert cell.serve_rejected == 1
        assert cell.serve_batches == 6
        assert cell.serve_fusion_factor == pytest.approx(7.83)
        assert cell.serve_p50_latency == pytest.approx(0.1)
        assert cell.serve_p99_latency == pytest.approx(0.2)
        assert cell.serve_requests_per_sec == pytest.approx(170.0)
        assert cell.serve_peak_queue_depth == 24
        assert cell.serve_deadline_misses == 2
        # simulated seconds default to the summary's makespan
        assert cell.simulated_seconds == pytest.approx(0.28)

    def test_write_and_load_roundtrip(self, tmp_path):
        log = PerfLog(label="TEST")
        log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=1.25, simulated_seconds=0.5,
        )
        path = tmp_path / "perf.json"
        log.write(path)
        doc = load_perf_json(path)
        assert doc["schema"] == PERF_SCHEMA
        assert doc["cells"][0]["wall_seconds"] == pytest.approx(1.25)
        assert doc["cells"][0]["simulated_seconds"] == pytest.approx(0.5)


class TestTuneCells:
    def test_record_tune_cell_fields(self):
        log = PerfLog(label="TEST")
        cell = log.record_tune_cell(
            name="tune-web", matrix="web", k=64, n_nodes=16,
            chosen="TwoFace@1.5d:r8c2",
            predicted_seconds=0.001,
            observed_seconds=0.0011,
            regret=0.0,
            probed=True,
            tuner_stats={
                "decision_cache": {
                    "hits": 3, "misses": 1, "invalidations": 2,
                },
                "recalibrations": 1,
            },
            grid="1.5d:r8c2",
        )
        assert cell.algorithm == "TwoFace"
        assert cell.grid == "1.5d:r8c2"
        assert cell.tune_chosen == "TwoFace@1.5d:r8c2"
        assert cell.tune_predicted_seconds == 0.001
        assert cell.tune_observed_seconds == 0.0011
        assert cell.simulated_seconds == 0.0011
        assert cell.tune_regret == 0.0
        assert cell.tune_probed is True
        assert cell.tune_cache_hits == 3
        assert cell.tune_cache_misses == 1
        assert cell.tune_cache_invalidations == 2
        assert cell.tune_recalibrations == 1

    def test_untuned_cells_default_zero(self):
        log = PerfLog(label="TEST")
        cell = log.record_cell(
            name="c", matrix="m", algorithm="a", k=8, n_nodes=4,
            wall_seconds=None, simulated_seconds=None,
        )
        assert cell.tune_chosen == ""
        assert cell.tune_regret == 0.0
        assert cell.tune_probed is False

    def test_tune_cell_survives_roundtrip(self, tmp_path):
        from repro.bench.telemetry import load_perf_json

        log = PerfLog(label="TEST")
        log.record_tune_cell(
            name="t", matrix="m", k=8, n_nodes=4,
            chosen="Allgather@1d", predicted_seconds=0.5,
        )
        path = tmp_path / "perf.json"
        log.write(path)
        doc = load_perf_json(path)
        (cell,) = doc["cells"]
        assert cell["schema"] == PERF_SCHEMA
        assert cell["tune_chosen"] == "Allgather@1d"
        assert cell["tune_predicted_seconds"] == 0.5
