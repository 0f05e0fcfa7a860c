"""Analytic per-cell cost model for layout + algorithm selection.

The autotuner's question — *which (ProcessGrid, algorithm) pair is
fastest for this (matrix, K, machine) cell?* — is answered here without
running a single simulated SpMM.  The simulator itself is an analytic
cost model (``NetworkModel`` / ``ComputeModel`` formulas over exact
per-rank sparsity statistics), so the predictor calls the seconds
functions the simulator charges by instead of approximating them:

* **AllGather / DS(c) / AsyncCoarse** — the layer's
  :class:`~repro.algorithms.schedule.BlockSchedule`, built from the
  tables of its :class:`~repro.dist.blocked.BlockedMatrix`, priced by
  :func:`~repro.algorithms.schedule.lane_seconds` with ``faults=None``
  — the function the simulator charges its breakdown with.
* **TwoFace / AsyncFine** — every executor charge is a sum over the
  classification's async mask of per-stripe quantities, so each rank
  runs the planner's own classification step (``classify_slab``) and
  one stripe-keyed coalesce, and the executor's seconds functions
  price the result.  No plan is built or cached.
* **Grid layers** (depth > 1) — each layer's charges land on its
  disjoint global rank range, and the partial-``C`` reduction is
  priced by :func:`~repro.algorithms.schedule.reduction_seconds`
  including the barrier-wait term, which requires carrying the full
  five-lane per-node state (``total`` is a *max* over lanes, so
  post-barrier waits are nonlinear in the per-lane sums).

Feasibility is screened with a lower-bound memory-ledger check (base
containers plus each algorithm's replica/fetch charges — a block
baseline's schedule ``resident`` bytes).  A predicted
OOM is a real OOM; rare unmodelled overshoot is caught by the tuner's
probe mode and drift feedback (DESIGN.md §10).

Fault injection perturbs charges with seeded per-link/per-rank scale
factors the model does not track; tuning a chaos run is refused rather
than silently mispredicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import BASE_SETUP_SECONDS
from ..algorithms.registry import make_algorithm
from ..algorithms.schedule import (
    Lanes,
    block_bytes,
    lane_seconds,
    reduction_seconds,
)
from ..cluster.machine import MachineConfig
from ..core.classifier import RankClassification
from ..core.executor import (
    TWOFACE_SETUP_SECONDS,
    async_lane_seconds,
    sync_lane_seconds,
)
from ..core.model import CostCoefficients
from ..core.plan import SyncProgram
from ..core.preprocess import _force_mask, classify_slab
from ..core.stripes import RankStripeStats, StripeGeometry
from ..dist.blocked import BlockedMatrix
from ..dist.grid import ProcessGrid
from ..dist.matrices import split_rows
from ..dist.oned import RowPartition
from ..errors import ConfigurationError, PartitionError
from ..runtime.threads import ThreadConfig, max_coalescing_gap
from ..sparse.coo import COOMatrix
from ..sparse.ops import coalesce_row_id_arrays
from ..sparse.suite import stripe_width_for

#: Predicted seconds of an infeasible (simulated-OOM) candidate.
INFEASIBLE = float("inf")


@dataclass(frozen=True)
class CandidatePrediction:
    """Model verdict for one (algorithm, grid) candidate.

    ``seconds`` is the predicted simulated makespan — exact (to float
    round-off) for feasible fault-free cells — or ``inf`` when the
    memory mirror predicts a simulated OOM (``feasible`` False, the
    reason in ``note``).
    """

    algorithm: str
    grid: ProcessGrid
    seconds: float
    feasible: bool = True
    note: str = ""

    @property
    def grid_token(self) -> str:
        return self.grid.cache_token()

    @property
    def label(self) -> str:
        """``algorithm@grid`` — the spelling used in decision tables."""
        return f"{self.algorithm}@{self.grid_token}"

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "grid": self.grid_token,
            "layout": self.grid.layout,
            "p_r": self.grid.p_r,
            "depth": self.grid.depth,
            "seconds": self.seconds,
            "feasible": self.feasible,
            "note": self.note,
        }


@dataclass
class _LayerStats:
    """Per-rank sparsity aggregates of one grid layer's 1D sub-problem.

    All arrays are indexed by the layer's local rank ``0..p_r-1``;
    ``(rank, block)`` matrices are ``p_r x p_r`` (block = owner of the
    column in the layer's compacted column space).
    """

    ranks: List[int]  # global ranks, layer-major
    A_sub: COOMatrix
    row_part: RowPartition  # rows of A over p_r
    col_part: RowPartition  # compacted columns over p_r
    blocked: BlockedMatrix  # nnz / nonempty rows per rank and per piece
    skeleton: Optional["_Skeleton"] = None  # Two-Face pricing

    @property
    def p_r(self) -> int:
        return self.row_part.n_parts


class _Skeleton(NamedTuple):
    """A layer as Two-Face pricing reads it: per rank, the planner's
    stripe statistics and classification; per stripe (ranks end to end)
    its rank, nonzeros, request rows and chunks and distinct
    coordinates; per nonzero, its output row ``rank * height + row``."""

    geometry: StripeGeometry
    ranks: List[Tuple[RankStripeStats, RankClassification]]
    stripe_rank: np.ndarray
    nnz: np.ndarray
    req_rows: np.ndarray
    req_chunks: np.ndarray
    coords: np.ndarray
    out_rows: np.ndarray


class CostModel:
    """Exact cost model over the registry algorithms and grids.

    Args:
        machine: the simulated machine candidates would run on; must be
            fault-free (chaos runs are not tunable).
        coeffs: Two-Face classifier coefficients the eventual run will
            use (layer clones re-scale them exactly like the grid
            runner does).
        stripe_width: Two-Face stripe width override (default: the
            dimension-scaled rule, like the algorithms themselves).
        classify_k: classification pin, as preprocessing takes it —
            serving tunes with the fused group's canonical width here
            so the model prices the plan the scheduler will execute.
    """

    def __init__(
        self,
        machine: MachineConfig,
        coeffs: Optional[CostCoefficients] = None,
        threads: Optional[ThreadConfig] = None,
        stripe_width: Optional[int] = None,
        classify_k: Optional[int] = None,
    ):
        if machine.faults is not None:
            raise ConfigurationError(
                "the cost model mirrors fault-free charges only; "
                "tune on a healthy machine, run chaos separately"
            )
        self.machine = machine
        self.coeffs = coeffs if coeffs is not None else CostCoefficients()
        self.threads = threads or ThreadConfig.for_machine(
            machine.threads_per_node
        )
        self.stripe_width = stripe_width
        self.classify_k = classify_k

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def predict(
        self, A: COOMatrix, k: int, algorithm: str, grid: ProcessGrid
    ) -> CandidatePrediction:
        """Predicted simulated seconds of one candidate."""
        return self.predict_cell(A, k, [algorithm], [grid])[0]

    def predict_cell(
        self,
        A: COOMatrix,
        k: int,
        algorithms: Sequence[str],
        grids: Sequence[ProcessGrid],
    ) -> List[CandidatePrediction]:
        """Predictions for the cross product ``algorithms x grids``.

        Layer statistics are computed once per grid and shared across
        the algorithms.  Candidates whose geometry cannot host the
        matrix at all (a rank would own no rows) come back infeasible
        rather than raising — the tuner skips them like OOM cells.
        """
        out: List[CandidatePrediction] = []
        for grid in grids:
            try:
                grid.validate_nodes(self.machine.n_nodes)
                layers = self._layer_stats(A, grid)
            except PartitionError as exc:
                out.extend(
                    CandidatePrediction(
                        name, grid, INFEASIBLE, feasible=False,
                        note=str(exc),
                    )
                    for name in algorithms
                )
                continue
            for name in algorithms:
                out.append(self._predict_on_grid(name, A, k, grid, layers))
        return out

    # ------------------------------------------------------------------
    # Layer geometry and sparsity statistics
    # ------------------------------------------------------------------
    def _layer_stats(
        self, A: COOMatrix, grid: ProcessGrid
    ) -> List[_LayerStats]:
        from ..algorithms.gridrun import column_subset

        p_r = grid.p_r
        row_part = RowPartition(A.shape[0], p_r)
        base, extra = divmod(A.shape[0], p_r)
        if base == 0 and extra < p_r:
            raise PartitionError(
                f"matrix of shape {A.shape} cannot be split into "
                f"{p_r} row blocks"
            )
        layers: List[_LayerStats] = []
        for layer in range(grid.depth):
            col_ids = grid.layer_col_ids(layer, A.shape[1])
            cbase, cextra = divmod(len(col_ids), p_r)
            if cbase == 0 and cextra < p_r:
                raise PartitionError(
                    f"layer {layer} owns {len(col_ids)} columns, too few "
                    f"for {p_r} dense blocks"
                )
            A_sub = column_subset(A, col_ids)
            col_part = RowPartition(len(col_ids), p_r)
            layers.append(
                _LayerStats(
                    ranks=grid.layer_ranks(layer),
                    A_sub=A_sub,
                    row_part=row_part,
                    col_part=col_part,
                    blocked=BlockedMatrix.build(A_sub, row_part, col_part),
                )
            )
        return layers

    # ------------------------------------------------------------------
    # Candidate dispatch
    # ------------------------------------------------------------------
    def _predict_on_grid(
        self,
        name: str,
        A: COOMatrix,
        k: int,
        grid: ProcessGrid,
        layers: List[_LayerStats],
    ) -> CandidatePrediction:
        lanes = Lanes(self.machine.n_nodes)
        try:
            for stats in layers:
                ranks = np.asarray(stats.ranks)
                lanes.other[ranks] += BASE_SETUP_SECONDS
                self._charge_layer(name, k, grid, stats, lanes, ranks)
        except PartitionError as exc:
            return CandidatePrediction(
                name, grid, INFEASIBLE, feasible=False, note=str(exc)
            )
        except _Infeasible as oom:
            return CandidatePrediction(
                name, grid, INFEASIBLE, feasible=False, note=str(oom)
            )
        lanes.sync_comm += reduction_seconds(
            grid, layers[0].row_part, k, self.machine.network,
            lanes.totals(),
        )
        return CandidatePrediction(name, grid, lanes.makespan())

    def _charge_layer(
        self,
        name: str,
        k: int,
        grid: ProcessGrid,
        stats: _LayerStats,
        lanes: Lanes,
        ranks: np.ndarray,
    ) -> None:
        if name in ("TwoFace", "AsyncFine"):
            self._charge_twoface(
                k, grid, stats, lanes, ranks,
                force_all_async=(name == "AsyncFine"),
            )
            return
        blocked = stats.blocked
        schedule = make_algorithm(name).schedule(
            stats.col_part, k, blocked.nnz_rb
        )
        self._require_fits(schedule.resident, self._base_bytes(k, stats))
        lanes.add(
            lane_seconds(
                schedule, self.machine, self.threads, k,
                *schedule.step_work(blocked),
            ),
            ranks,
        )

    # ------------------------------------------------------------------
    # Memory feasibility (lower-bound ledger mirror)
    # ------------------------------------------------------------------
    def _base_bytes(self, k: int, stats: _LayerStats) -> np.ndarray:
        """Container charges per rank: A slab + B block + C block."""
        # The COO slab is 24 B per stored nonzero.
        return (
            stats.blocked.nnz_r * 24 + block_bytes(stats.col_part, k)
            + block_bytes(stats.row_part, k)
        )

    def _require_fits(self, extra: np.ndarray, base: np.ndarray) -> None:
        peak = base + extra
        worst = int(peak.argmax())
        if peak[worst] > self.machine.memory_capacity:
            raise _Infeasible(
                f"rank {worst} needs {int(peak[worst])} B of "
                f"{self.machine.memory_capacity} B"
            )

    # ------------------------------------------------------------------
    # Pricing skeleton of the Two-Face executor
    # ------------------------------------------------------------------
    def _skeleton(
        self, k: int, grid: ProcessGrid, stats: _LayerStats
    ) -> _Skeleton:
        """The layer's skeleton, classified as its plan is (memoised)."""
        if stats.skeleton is not None:
            return stats.skeleton
        coeffs = self.coeffs
        if grid.depth > 1:
            coeffs = coeffs.for_group_size(stats.p_r, grid.n_nodes)
        width = self.stripe_width or stripe_width_for(stats.row_part.n_rows)
        geometry = StripeGeometry(*stats.A_sub.shape, stats.p_r, width)
        score_k = k if self.classify_k is None else self.classify_k
        slabs = split_rows(stats.A_sub, stats.row_part)
        ranks = [
            classify_slab(r, slab, geometry, coeffs, score_k, self.machine)
            for r, slab in enumerate(slabs)
        ]
        height = stats.row_part.max_size()
        parts = [
            (slab.cols[rank.nnz_order], slab.rows[rank.nnz_order] + r * height)
            for r, (slab, (rank, _)) in enumerate(zip(slabs, ranks))
        ]
        cols, rows = (np.concatenate(arrays) for arrays in zip(*parts))
        nnz = np.concatenate([rank.nnz for rank, _ in ranks])
        n = len(nnz)
        stripe = np.repeat(np.arange(n), nnz)
        # Column-major inside a stripe: its row ids start a column run,
        # its coordinates (the sync CSR folds duplicates) a row run.
        new_id = np.ones(len(cols), dtype=bool)
        new_id[1:] = (cols[1:] != cols[:-1]) | (stripe[1:] != stripe[:-1])
        new_coord = new_id.copy()
        new_coord[1:] |= rows[1:] != rows[:-1]
        # One coalesce, keyed by stripe as RankProgram.build keys it.
        gap = max_coalescing_gap(k)
        span = int(cols.max(initial=0)) + gap + 1
        keyed, sizes = coalesce_row_id_arrays(
            cols[new_id] + stripe[new_id] * span, max_gap=gap
        )
        chunk_stripe = keyed // span
        stats.skeleton = _Skeleton(
            geometry, ranks,
            np.repeat(np.arange(stats.p_r), [r.n_stripes for r, _ in ranks]),
            nnz,
            np.bincount(chunk_stripe, sizes, n).astype(np.int64),
            np.bincount(chunk_stripe, minlength=n),
            np.bincount(stripe[new_coord], minlength=n), rows,
        )
        return stats.skeleton

    def _charge_twoface(
        self,
        k: int,
        grid: ProcessGrid,
        stats: _LayerStats,
        lanes: Lanes,
        ranks: np.ndarray,
        force_all_async: bool,
    ) -> None:
        net = self.machine.network
        compute = self.machine.compute
        threads = self.threads
        p_r = stats.p_r
        skeleton = self._skeleton(k, grid, stats)
        stripe_rank = skeleton.stripe_rank
        lanes.other[ranks] += TWOFACE_SETUP_SECONDS
        classifications = [
            _force_mask(rank, c, all_async=True) if force_all_async else c
            for rank, c in skeleton.ranks
        ]
        is_async = np.concatenate([c.async_mask for c in classifications])

        # Phase 3's sync/local-input matrices: the stripes not async.
        keep = ~is_async
        nnz_sync = np.bincount(stripe_rank[keep], skeleton.coords[keep], p_r)
        touched = np.zeros((p_r, stats.row_part.max_size()), dtype=bool)
        touched.flat[skeleton.out_rows[np.repeat(keep, skeleton.nnz)]] = True
        nonempty = np.count_nonzero(touched, axis=1)

        # Phases 2+3 per rank: the async stripes' requests, rank by rank.
        req_ptr = np.searchsorted(
            stripe_rank[is_async], np.arange(p_r + 1)
        ).tolist()
        req_rows = skeleton.req_rows[is_async]
        req_chunks = skeleton.req_chunks[is_async]
        req_nnz = skeleton.nnz[is_async]
        peak_fetch = np.zeros(p_r, dtype=np.int64)
        for r in range(p_r):
            lo, hi = req_ptr[r], req_ptr[r + 1]
            comm_seconds, comp_seconds = async_lane_seconds(
                net, compute, threads.async_comp, k, k * 8,
                req_rows[lo:hi], req_chunks[lo:hi], req_nnz[lo:hi],
            )
            peak_fetch[r] = req_rows[lo:hi].max(initial=0) * k * 8
            node = ranks[r]
            lanes.async_comm[node] += comm_seconds / threads.async_comm
            lanes.async_comp[node] += comp_seconds
            n_panels = -(-stats.row_part.size(r) // threads.panel_height)
            lanes.sync_comp[node] += compute.sync_panel_time(
                int(nnz_sync[r]), k, int(nonempty[r]), threads.sync_comp
            ) + n_panels * compute.panel_overhead

        # Phase 1: dense-stripe multicasts (sync lane, both ends), each
        # stripe's receivers in rank order as the planner folds them.
        destinations: Dict[int, List[int]] = {}
        for r, c in enumerate(classifications):
            for gid in skeleton.ranks[r][0].gids[c.sync_mask].tolist():
                destinations.setdefault(gid, []).append(r)
        program = SyncProgram.build(skeleton.geometry, destinations)
        lanes.sync_comm[ranks] += sync_lane_seconds(net, program, k)
        self._require_fits(
            program.received_bytes(k) + peak_fetch, self._base_bytes(k, stats)
        )


class _Infeasible(Exception):
    """Internal: the memory mirror predicts a simulated OOM."""


def rank_predictions(
    predictions: Sequence[CandidatePrediction],
    corrections: Optional[Dict[str, float]] = None,
) -> List[CandidatePrediction]:
    """Feasible candidates, fastest first, under optional per-algorithm
    multiplicative corrections (the drift-feedback factors).

    Ties break on the candidate label so ranking is deterministic.
    """
    corrections = corrections or {}

    def corrected(p: CandidatePrediction) -> float:
        return p.seconds * corrections.get(p.algorithm, 1.0)

    feasible = [p for p in predictions if p.feasible]
    return sorted(feasible, key=lambda p: (corrected(p), p.label))
