"""Tests for the Tuner: decision cache, probes, drift feedback."""

import json

import numpy as np
import pytest

from repro.cluster.machine import MachineConfig
from repro.errors import ConfigurationError
from repro.sparse import erdos_renyi
from repro.tune import DecisionCache, TUNER_VERSION, Tuner

N_NODES = 8


@pytest.fixture(scope="module")
def A():
    return erdos_renyi(256, 256, 3000, seed=5)


@pytest.fixture(scope="module")
def other_matrix():
    return erdos_renyi(200, 200, 1500, seed=9)


@pytest.fixture
def machine():
    return MachineConfig(n_nodes=N_NODES, memory_capacity=1 << 30)


class TestDecisions:
    def test_chosen_is_model_minimum(self, A, machine):
        tuner = Tuner(machine)
        decision = tuner.tune(A, 8)
        feasible = [c for c in decision.candidates if c["feasible"]]
        best = min(feasible, key=lambda c: c["seconds"])
        assert decision.chosen == 0
        assert decision.candidates[0] == best
        assert decision.label == (
            f"{best['algorithm']}@{best['grid']}"
        )

    def test_table_lists_every_candidate(self, A, machine):
        tuner = Tuner(machine)
        decision = tuner.tune(A, 8)
        assert len(decision.candidates) == (
            len(tuner.algorithms) * len(tuner.grids)
        )

    def test_decisions_deterministic(self, A, machine):
        first = Tuner(machine).tune(A, 8)
        second = Tuner(machine).tune(A, 8)
        assert first.to_dict() == second.to_dict()

    def test_no_feasible_candidate_raises(self, A):
        tiny = MachineConfig(n_nodes=N_NODES, memory_capacity=1)
        with pytest.raises(ConfigurationError):
            Tuner(tiny).tune(A, 8)

    def test_zero_regret_against_oracle(self, A, machine):
        # Model-only decision (restricted candidate set to keep this
        # quick) must pick the measured winner on this cell.
        tuner = Tuner(machine, algorithms=("Allgather", "TwoFace"))
        decision = tuner.tune(A, 8)
        B = np.ones((A.shape[1], 8))
        grids = {g.cache_token(): g for g in tuner.grids}
        measured = {}
        for cand in decision.candidates:
            if not cand["feasible"]:
                continue
            algo = tuner.make_algorithm(cand["algorithm"])
            result = algo.run(A, B, machine, grid=grids[cand["grid"]])
            if not result.failed:
                label = f"{cand['algorithm']}@{cand['grid']}"
                measured[label] = result.seconds
        best = min(measured, key=lambda lab: (measured[lab], lab))
        assert decision.label == best


    def test_candidates_priced_as_the_per_stripe_loop(
        self, A, machine, monkeypatch
    ):
        # The model prices the sync lane with the executor's own
        # seconds function; swapping in the per-stripe ``+=`` loop it
        # replaced must not move any candidate's predicted seconds.
        from repro.tune import model
        from tests.core.test_executor import loop_lane_of_program

        def table(decision):
            return [
                (c["algorithm"], c["grid"], float(c["seconds"]).hex())
                for c in decision.candidates
            ]

        want = table(Tuner(machine).tune(A, 8))
        calls = []

        def loop(net, program, k, faults=None):
            calls.append(len(program.owners))
            return loop_lane_of_program(net, program, k, faults)

        monkeypatch.setattr(model, "sync_lane_seconds", loop)
        assert table(Tuner(machine).tune(A, 8)) == want
        assert any(calls)  # Two-Face candidates with multicasts priced


class TestDecisionCache:
    def test_second_tune_hits(self, A, machine):
        tuner = Tuner(machine)
        first = tuner.tune(A, 8)
        second = tuner.tune(A, 8)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.key == first.key
        stats = tuner.stats()["decision_cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_distinct_cells_get_distinct_keys(
        self, A, other_matrix, machine
    ):
        tuner = Tuner(machine)
        keys = {
            tuner.decision_key(A, 8),
            tuner.decision_key(A, 16),
            tuner.decision_key(other_matrix, 8),
        }
        assert len(keys) == 3

    def test_disk_persistence_across_tuners(self, A, machine, tmp_path):
        cache_dir = tmp_path / "decisions"
        first = Tuner(machine, cache=cache_dir).tune(A, 8)
        fresh = Tuner(machine, cache=cache_dir)
        second = fresh.tune(A, 8)
        assert second.cache_hit
        assert second.candidates == first.candidates
        assert fresh.stats()["decision_cache"]["hits"] == 1

    def test_corrupt_disk_entry_invalidated(self, A, machine, tmp_path):
        cache_dir = tmp_path / "decisions"
        Tuner(machine, cache=cache_dir).tune(A, 8)
        for path in cache_dir.iterdir():
            path.write_text("{not json")
        fresh = Tuner(machine, cache=cache_dir)
        decision = fresh.tune(A, 8)
        assert not decision.cache_hit
        assert fresh.stats()["decision_cache"]["invalidations"] >= 1

    def test_version_mismatch_invalidated(self, A, machine, tmp_path):
        cache_dir = tmp_path / "decisions"
        Tuner(machine, cache=cache_dir).tune(A, 8)
        for path in cache_dir.iterdir():
            doc = json.loads(path.read_text())
            doc["tuner_version"] = TUNER_VERSION + 1
            path.write_text(json.dumps(doc))
        decision = Tuner(machine, cache=cache_dir).tune(A, 8)
        assert not decision.cache_hit

    def test_invalidate_algorithm_is_selective(self, A, machine):
        shared = DecisionCache()
        Tuner(
            machine, algorithms=("Allgather",), cache=shared
        ).tune(A, 8)
        Tuner(
            machine, algorithms=("TwoFace",), cache=shared
        ).tune(A, 8)
        assert shared.invalidate_algorithm("Allgather") == 1
        # The TwoFace-only entry survives untouched.
        survivor = Tuner(
            machine, algorithms=("TwoFace",), cache=shared
        ).tune(A, 8)
        assert survivor.cache_hit


class TestProbe:
    def test_probe_picks_measured_winner_of_top2(self, A, machine):
        tuner = Tuner(machine, probe=True)
        decision = tuner.tune(A, 8)
        assert decision.probed
        assert len(decision.probed) <= 2
        best = min(
            decision.probed,
            key=lambda lab: (decision.probed[lab], lab),
        )
        assert decision.label == best
        assert decision.probe_k == 8  # k <= 8 probes at full width

    def test_probe_width_truncates_wide_panels(self, A, machine):
        tuner = Tuner(machine, probe=True)
        assert tuner._probe_width(64) == 16
        assert tuner._probe_width(12) == 8
        assert tuner._probe_width(4) == 4
        assert Tuner(machine, probe=True, probe_k=4)._probe_width(64) == 4

    def test_probe_and_model_disagreement_resolved_by_probe(
        self, A, machine
    ):
        # Force a misranking with a correction that penalises the true
        # winner; the probe must still pick the measured-faster one.
        plain = Tuner(machine).tune(A, 8)
        probing = Tuner(machine, probe=True)
        probing.corrections[plain.algorithm] = 50.0
        decision = probing.tune(A, 8)
        assert decision.probed
        measured_best = min(
            decision.probed,
            key=lambda lab: (decision.probed[lab], lab),
        )
        assert decision.label == measured_best


class TestDriftFeedback:
    def test_within_threshold_no_recalibration(self, A, machine):
        tuner = Tuner(machine)
        decision = tuner.tune(A, 8)
        assert not tuner.record_run(
            decision, decision.predicted_seconds * 1.01
        )
        assert tuner.recalibrations == 0

    def test_drift_recalibrates_and_invalidates(self, A, machine):
        tuner = Tuner(machine, drift_threshold=0.25)
        decision = tuner.tune(A, 8)
        # Observed runs 3x slower than predicted: drift 2.0 >> 0.25.
        tripped = tuner.record_run(
            decision, decision.predicted_seconds * 3.0
        )
        assert tripped
        assert tuner.recalibrations == 1
        correction = tuner.corrections[decision.algorithm]
        assert correction == pytest.approx(3.0)
        assert tuner.stats()["decision_cache"]["invalidations"] >= 1
        # The cached entry carried a stale correction snapshot, so the
        # next tune re-decides under the new correction.
        redecided = tuner.tune(A, 8)
        assert not redecided.cache_hit
        assert redecided.corrections[
            decision.algorithm
        ] == float(correction).hex()

    def test_recalibrated_correction_reranks(self, A, machine):
        tuner = Tuner(machine)
        decision = tuner.tune(A, 8)
        # The correction is per-algorithm, so every candidate of the
        # penalised algorithm drops; the best other-algorithm
        # candidate must win the re-decision.
        runner_up = next(
            c for c in decision.candidates[1:]
            if c["feasible"] and c["algorithm"] != decision.algorithm
        )
        tuner.record_run(decision, 10.0)
        redecided = tuner.tune(A, 8)
        assert redecided.algorithm == runner_up["algorithm"]

    def test_observation_log_accumulates(self, A, machine):
        tuner = Tuner(machine)
        decision = tuner.tune(A, 8)
        tuner.record_run(decision, decision.predicted_seconds)
        tuner.record_run(decision, decision.predicted_seconds)
        stats = tuner.stats()
        assert stats["observations"] == 2
        assert tuner.observations[0]["drift"] == pytest.approx(0.0)
