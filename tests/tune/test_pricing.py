"""The Two-Face pricing skeleton against the plan replay it replaced.

The cost model used to price TwoFace / AsyncFine by building each
layer's real plan and replaying the executor's charges over it.  That
replay lives on here as the oracle: over matrices × grids ×
classification pins × stripe widths × a memory ladder (ample, then
tight enough for the §6.3 fallback and for simulated OOMs), the
skeleton's whole ``predict_cell`` table must equal the replay's to the
bit — seconds (``float.hex``), feasibility and note.
"""

import multiprocessing
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.machine import MachineConfig
from repro.core.executor import (
    TWOFACE_SETUP_SECONDS,
    async_lane_seconds,
    sync_lane_seconds,
)
from repro.core.formats import TransferCacheStats
from repro.core.plancache import PlanCache, PlanCacheStats, plan_cache_stats
from repro.core.preprocess import preprocess
from repro.dist import DistSparseMatrix
from repro.dist.grid import enumerate_grids
from repro.runtime.threads import max_coalescing_gap
from repro.sparse import COOMatrix, erdos_renyi, suite
from repro.sparse.suite import stripe_width_for
from repro.tune import DEFAULT_ALGORITHMS, CostModel, Tuner

N_NODES = 4
K = 8


class PlanReplayModel(CostModel):
    """The cost model as it priced Two-Face before the skeleton.

    Every plan it builds is kept in ``plans`` so the test can check
    what the product covered.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plans = []

    def _charge_twoface(self, k, grid, stats, lanes, ranks, force_all_async):
        net = self.machine.network
        compute = self.machine.compute
        p_r = stats.p_r
        threads = self.threads
        layered = grid.depth > 1
        coeffs = (
            self.coeffs.for_group_size(p_r, grid.n_nodes)
            if layered
            else self.coeffs
        )
        width = self.stripe_width or stripe_width_for(stats.row_part.n_rows)
        plan, _ = preprocess(
            DistSparseMatrix(stats.A_sub, stats.row_part),
            k=k,
            stripe_width=width,
            coeffs=coeffs,
            machine=replace(self.machine, n_nodes=p_r),
            panel_height=threads.panel_height,
            force_all_async=force_all_async,
            classify_k=self.classify_k,
            grid=grid if layered else None,
        )
        self.plans.append((force_all_async, plan))

        lanes.other[ranks] += TWOFACE_SETUP_SECONDS
        program = plan.sync_program
        lanes.sync_comm[ranks] += sync_lane_seconds(net, program, k)
        recv_bytes = program.received_bytes(k)

        max_gap = max_coalescing_gap(k)
        scratch = TransferCacheStats()
        peak_fetch = np.zeros(p_r, dtype=np.int64)
        for r in range(p_r):
            rank_plan = plan.rank_plan(r)
            program = rank_plan.async_matrix.ensure_program(
                stats.col_part, max_gap, stats=scratch
            )
            comm_seconds, comp_seconds = async_lane_seconds(
                net, compute, threads.async_comp, k, k * 8,
                program.req_rows, program.req_chunks, program.req_nnz,
            )
            peak_fetch[r] = program.req_rows.max(initial=0) * k * 8
            node = ranks[r]
            lanes.async_comm[node] += comm_seconds / threads.async_comm
            lanes.async_comp[node] += comp_seconds
            sync_local = rank_plan.sync_local
            lanes.sync_comp[node] += (
                compute.sync_panel_time(
                    sync_local.nnz, k, sync_local.nonempty_rows(),
                    threads.sync_comp,
                )
                + sync_local.n_panels * compute.panel_overhead
            )
        self._require_fits(
            recv_bytes + peak_fetch, self._base_bytes(k, stats)
        )


def with_duplicates(A: COOMatrix) -> COOMatrix:
    """``A`` with every seventh nonzero stored twice."""
    extra = np.arange(0, A.nnz, 7)
    return COOMatrix(
        np.concatenate((A.rows, A.rows[extra])),
        np.concatenate((A.cols, A.cols[extra])),
        np.concatenate((A.vals, A.vals[extra])),
        A.shape,
    )


#: matrix -> memory ladder.  The second rung is where the §6.3 fallback
#: flips stripes while some Two-Face candidates still fit and others
#: run out of memory.
CASES = {
    "erdos_renyi": (
        lambda: erdos_renyi(256, 256, 3000, seed=5), (1 << 30, 30_000)
    ),
    "kmer": (lambda: suite.load("kmer", "tiny", 7), (1 << 30, 200_000)),
    "queen": (lambda: suite.load("queen", "tiny", 7), (1 << 30, 50_000)),
    "twitter": (
        lambda: suite.load("twitter", "tiny", 7), (1 << 30, 120_000)
    ),
    "duplicates": (
        lambda: with_duplicates(erdos_renyi(256, 256, 3000, seed=5)),
        (1 << 30,),
    ),
}


def table(model, A):
    return [
        (p.label, float(p.seconds).hex(), p.feasible, p.note)
        for p in model.predict_cell(
            A, K, DEFAULT_ALGORITHMS, enumerate_grids(N_NODES)
        )
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_skeleton_prices_the_plan_replay_bit_for_bit(name):
    make, ladder = CASES[name]
    A = make()
    plans, verdicts = [], []
    for capacity in ladder:
        machine = MachineConfig(n_nodes=N_NODES, memory_capacity=capacity)
        for classify_k in (None, 4, 64):
            for stripe_width in (None, 8):
                config = dict(classify_k=classify_k, stripe_width=stripe_width)
                reference = PlanReplayModel(machine, **config)
                want = table(reference, A)
                assert table(CostModel(machine, **config), A) == want, (
                    capacity, classify_k, stripe_width,
                )
                plans += reference.plans
                verdicts += [feasible for _, _, feasible, _ in want]
    assert all(
        plan.total_sync_stripes() == 0 for forced, plan in plans if forced
    )
    if name == "duplicates":
        return
    # The product reaches the fallback and both feasibility verdicts.
    assert any(
        r.classification.memory_flips for _, plan in plans for r in plan.ranks
    )
    assert any(verdicts) and not all(verdicts)
    if name == "queen":
        # Banded: Two-Face classifies every stripe sync at ample memory.
        assert any(
            plan.total_async_stripes() == 0 and plan.total_sync_stripes()
            for forced, plan in plans if not forced
        )


def test_pricing_builds_nothing_and_leaves_nothing_running(tmp_path):
    A = erdos_renyi(256, 256, 3000, seed=5)
    stats = PlanCacheStats()
    cache = PlanCache(cache_dir=tmp_path, stats=stats)
    threads = threading.active_count()
    children = multiprocessing.active_children()
    shared = plan_cache_stats().snapshot()
    decision = Tuner(MachineConfig(n_nodes=8), plan_cache=cache).tune(A, 8)
    assert {c["algorithm"] for c in decision.candidates} >= {
        "TwoFace", "AsyncFine",
    }
    assert list(tmp_path.iterdir()) == []
    assert len(cache) == 0
    assert stats.snapshot() == (0, 0, 0, 0, 0)
    assert plan_cache_stats().snapshot() == shared
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children
