"""Exactness tests for the analytic cost model.

The model's contract is not "roughly right" — it mirrors the
simulator's own charging formulas, so every prediction must equal the
measured simulated seconds of the corresponding run, and every
infeasibility verdict must agree with the run's OOM outcome.
"""

import numpy as np
import pytest

from repro.algorithms.registry import make_algorithm
from repro.cluster.faults import FaultConfig
from repro.cluster.machine import MachineConfig
from repro.dist.grid import enumerate_grids
from repro.errors import ConfigurationError
from repro.sparse import erdos_renyi
from repro.tune import (
    DEFAULT_ALGORITHMS,
    INFEASIBLE,
    CandidatePrediction,
    CostModel,
    rank_predictions,
)

N_NODES = 8
K = 8


@pytest.fixture(scope="module")
def A():
    return erdos_renyi(256, 256, 3000, seed=5)


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(n_nodes=N_NODES, memory_capacity=1 << 30)


@pytest.fixture(scope="module")
def grids():
    return enumerate_grids(N_NODES)


def run_candidate(A, machine, name, grid):
    B = np.ones((A.shape[1], K))
    return make_algorithm(name).run(A, B, machine, grid=grid)


class TestExactness:
    def test_predictions_match_measured_seconds(self, A, machine, grids):
        model = CostModel(machine)
        mismatches = []
        for grid in grids:
            predictions = model.predict_cell(
                A, K, DEFAULT_ALGORITHMS, [grid]
            )
            for pred in predictions:
                result = run_candidate(
                    A, machine, pred.algorithm, grid
                )
                if pred.feasible != (not result.failed):
                    mismatches.append((pred.label, "feasibility"))
                    continue
                if not pred.feasible:
                    continue
                if pred.seconds != result.seconds:
                    mismatches.append(
                        (pred.label, pred.seconds, result.seconds)
                    )
        assert not mismatches

    def test_feasibility_agrees_under_memory_pressure(self, A, grids):
        # Tight memory: replication-heavy candidates must OOM, and the
        # model's ledger mirror must call every verdict identically.
        tight = MachineConfig(n_nodes=N_NODES, memory_capacity=22_000)
        model = CostModel(tight)
        verdicts = []
        for grid in grids:
            for pred in model.predict_cell(
                A, K, DEFAULT_ALGORITHMS, [grid]
            ):
                result = run_candidate(A, tight, pred.algorithm, grid)
                assert pred.feasible == (not result.failed), pred.label
                verdicts.append(pred.feasible)
        # The memory bound must actually bite (and not kill everything),
        # otherwise this test exercises nothing.
        assert any(verdicts) and not all(verdicts)


class TestModelBehaviour:
    def test_predictions_deterministic(self, A, machine, grids):
        model = CostModel(machine)
        first = model.predict_cell(A, K, DEFAULT_ALGORITHMS, grids)
        second = model.predict_cell(A, K, DEFAULT_ALGORITHMS, grids)
        assert [
            (p.label, p.seconds, p.feasible) for p in first
        ] == [
            (p.label, p.seconds, p.feasible) for p in second
        ]

    def test_faulty_machine_rejected(self, A):
        faulty = MachineConfig(
            n_nodes=4, faults=FaultConfig(seed=1, rget_failure_rate=0.1)
        )
        with pytest.raises(ConfigurationError):
            CostModel(faulty)

    def test_infeasible_predictions_priced_infinite(self, A, grids):
        tiny = MachineConfig(n_nodes=N_NODES, memory_capacity=1)
        model = CostModel(tiny)
        for pred in model.predict_cell(A, K, ("Allgather",), grids):
            assert not pred.feasible
            assert pred.seconds == INFEASIBLE
            assert pred.note

    def test_unknown_algorithm_rejected(self, A, machine, grids):
        model = CostModel(machine)
        with pytest.raises(ConfigurationError):
            model.predict(A, K, "NotAnAlgorithm", grids[0])


class TestRanking:
    def test_sorted_by_seconds_feasible_only(self, A, machine, grids):
        model = CostModel(machine)
        preds = model.predict_cell(A, K, DEFAULT_ALGORITHMS, grids)
        ranked = rank_predictions(preds)
        assert all(p.feasible for p in ranked)
        seconds = [p.seconds for p in ranked]
        assert seconds == sorted(seconds)

    def test_corrections_reorder(self):
        from repro.dist.grid import Grid1D

        a = CandidatePrediction("Allgather", Grid1D(4), 1.0)
        b = CandidatePrediction("TwoFace", Grid1D(4), 1.5)
        assert rank_predictions([a, b])[0].algorithm == "Allgather"
        ranked = rank_predictions([a, b], {"Allgather": 2.0})
        assert ranked[0].algorithm == "TwoFace"

    def test_tie_breaks_by_label(self):
        from repro.dist.grid import Grid1D

        a = CandidatePrediction("DS2", Grid1D(4), 1.0)
        b = CandidatePrediction("DS1", Grid1D(4), 1.0)
        ranked = rank_predictions([b, a])
        assert [p.algorithm for p in ranked] == ["DS1", "DS2"]
