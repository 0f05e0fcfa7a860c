"""Shared-memory transport: the plans on real OS processes.

``ShmTransport`` executes the same distributed-SpMM plans the simulator
charges time for, but on actual processes with actual memory movement:

* The dense ``B`` panel (one per grid layer), the output ``C``, any
  per-layer partials, and each worker's fetch arenas live in
  ``multiprocessing.shared_memory`` segments.  Workers are **forked**,
  so they inherit the mappings — zero pickling, zero copies.
* A one-sided row-chunk get is a direct ``np.take`` out of the owner's
  region of the shared ``B`` panel, driven by the plan's cached
  :class:`~repro.core.formats.RankProgram` row ids (one gather per
  tile of stripes) into the worker's shared-segment arena — exactly
  the paper's RMA access pattern, with the OS page cache standing in
  for the NIC.
* Collectives need no wire: every rank reads the shared panel in
  place, and the partial-``C`` reduction is a barriered in-place sum
  over the shared partial segments (layer order, matching the
  simulator's summation order bit for bit).
* Each worker stamps ``time.perf_counter`` around its rank loop into a
  shared wall-clock array — the new wall-seconds telemetry lane.

Numerical contract: the kernels, their inputs, and their accumulation
order are identical to the simulator's (the async lane runs the *same
tile kernel*, :func:`~repro.core.executor.accumulate_async_tile`, over
the same plan-resident rank programs), so ``C`` matches the simulator
to 1e-12 (in practice bitwise); ``tests/transport`` enforces this at
worker widths 1/2/4.

Traffic counters are booked on the driver by the functions the
simulator books with — the plan's multicast table, and
:func:`~repro.algorithms.schedule.book_counters` /
:func:`~repro.algorithms.schedule.book_reduction` over a block
baseline's schedule, Two-Face's one-sided requests and the grid
reduction — so they describe what the plan *moves*, which is
transport-invariant.  Fault injection consumes the same compiled
:class:`~repro.cluster.faults.FaultPlan`: attempt outcomes are pure
functions of structural coordinates, so the driver resolves each
rank's requests through the simulator's own policy function for the
counters (the ``retries + lane_fallbacks == rget_failures`` invariant
holds by construction) while workers serve the injected delays as real
``time.sleep`` calls (rget backoff, compute-skew stragglers).

What shm does **not** model: simulated seconds (no clocks advance; the
result's ``seconds`` is the wall-clock makespan), the memory ledger
(real allocation replaces simulated OOM), and fault-driven stripe
re-chunking (ledger-dependent; shm always fetches whole stripes, so
under *memory-squeeze* faults its counters can differ from the
simulator's — the chaos cross-check compares counters only when the
simulator reports zero rechunks).
"""

from __future__ import annotations

import atexit
import os
import time
import traceback
from dataclasses import replace
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.schedule import BlockSchedule, book_counters, book_reduction
from ..cluster.buffers import FetchArena
from ..cluster.faults import ResilienceStats, compile_faults
from ..cluster.simmpi import TrafficStats
from ..dist.oned import RowPartition
from ..errors import ExecutorCrashError, ShapeError
from ..runtime.threads import ThreadConfig, max_coalescing_gap
from ..runtime.trace import TimeBreakdown
from .base import Transport, TransportError, TransportUnavailable

#: One stage of the execution: global rank -> callable(arena).  A
#: process barrier separates consecutive stages (DS steps, the grid
#: reduction); within a stage, ranks are independent.
_Stage = Dict[int, Callable]


# ----------------------------------------------------------------------
# Shared-segment lifecycle
# ----------------------------------------------------------------------
#: Segments created by this process that are not yet unlinked.  Tests
#: assert this (and ``/dev/shm``) drains on success, failure, and
#: KeyboardInterrupt; the atexit hook is the last-resort sweep.
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def live_segment_names() -> List[str]:
    """Names of shared segments this process still owns (test hook)."""
    return sorted(_LIVE_SEGMENTS)


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except BufferError:
        # ndarray views are still alive somewhere; the mapping stays
        # until process exit, but unlink below still removes the
        # /dev/shm entry — nothing leaks past the process.
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


def _cleanup_all_segments() -> None:
    for name in list(_LIVE_SEGMENTS):
        _release_segment(_LIVE_SEGMENTS.pop(name))


atexit.register(_cleanup_all_segments)


class SegmentPool:
    """Owner of one run's shared segments (context-managed).

    Every array the workers touch is carved from a segment created
    here; ``close`` (always reached via ``finally``) unlinks them all,
    so no ``/dev/shm`` entry survives the run — on success, on a worker
    crash, or on KeyboardInterrupt.
    """

    def __init__(self):
        self._segs: List[shared_memory.SharedMemory] = []

    def create(self, shape: Tuple[int, ...]) -> np.ndarray:
        """A zero-initialised shared float64 array of ``shape``."""
        nbytes = max(8, int(np.prod(shape, dtype=np.int64)) * 8)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        _LIVE_SEGMENTS[seg.name] = seg
        self._segs.append(seg)
        # /dev/shm segments are zero-filled at creation (ftruncate).
        return np.ndarray(shape, dtype=np.float64, buffer=seg.buf)

    def close(self) -> None:
        for seg in self._segs:
            _LIVE_SEGMENTS.pop(seg.name, None)
            _release_segment(seg)
        self._segs.clear()

    def __enter__(self) -> "SegmentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Injected delays (the driver counts; workers sleep)
# ----------------------------------------------------------------------
def _backoff_of(outcome) -> float:
    """The real backoff sleep a rank owes for its failed gets."""
    return outcome.stats.backoff_seconds if outcome is not None else 0.0


def _skew_of(faults_view, rank_l: int) -> float:
    return faults_view.compute_skew(rank_l) if faults_view is not None else 1.0


def _skewed(fn: Callable, skew: float) -> Callable:
    """Wrap a rank body to emulate a compute-skew straggler.

    The simulator multiplies the rank's modelled compute time by the
    skew; here the worker measures its own elapsed time and sleeps the
    surplus — the same slowdown, in real seconds.
    """
    if skew <= 1.0:
        return fn

    def slowed(arena):
        t0 = time.perf_counter()
        fn(arena)
        time.sleep((time.perf_counter() - t0) * (skew - 1.0))

    return slowed


# ----------------------------------------------------------------------
# Per-algorithm stage builders (driver side, pre-fork)
# ----------------------------------------------------------------------
class _Layer:
    """One grid layer's prepared execution (1D runs are one layer)."""

    def __init__(self, ranks, row_part, col_part, B_l, out):
        self.ranks = list(ranks)  # global ranks, layer-local order
        self.row_part = row_part
        self.col_part = col_part
        self.B_l = B_l  # shared (m_layer, k) panel
        self.out = out  # shared (n, k) output / partial
        self.stages: List[Dict[int, Callable]] = []
        self.arena_ceilings: Dict[str, Tuple[int, int]] = {}
        self.extras: dict = {}


def _build_twoface(layer: _Layer, algo, A_sub, k, sub_machine, threads,
                   traffic, faults_view, resil) -> None:
    from ..core.executor import accumulate_async_tile, arena_ceilings
    from ..core.plancache import cached_preprocess
    from ..errors import PartitionError
    from ..sparse.ops import (
        SCATTER_SEGMENTED,
        ScatterStats,
        csr_product_into,
        scatter_mode,
    )
    from ..sparse.suite import stripe_width_for

    p_r = layer.row_part.n_parts
    plan = algo.plan
    if plan is not None:
        if plan.n_nodes != p_r or plan.k != k:
            raise PartitionError(
                "precomputed plan does not match this run "
                f"(plan: p={plan.n_nodes}, K={plan.k}; "
                f"run: p={p_r}, K={k})"
            )
    else:
        width = algo.stripe_width or stripe_width_for(A_sub.shape[0])
        plan, _report = cached_preprocess(
            A_sub, k=k, stripe_width=width, coeffs=algo.coeffs,
            machine=sub_machine, panel_height=threads.panel_height,
            force_all_async=algo.force_all_async,
            force_all_sync=algo.force_all_sync,
            classify_override=algo.classify_override,
            cache=algo.plan_cache, classify_k=algo.classify_k,
            grid=algo.grid,
        )
    plan.ensure_finalized()
    gap = max_coalescing_gap(k)
    segmented = scatter_mode() == SCATTER_SEGMENTED
    layer.arena_ceilings = arena_ceilings(plan, k)
    layer.extras = {
        "sync_stripes": plan.total_sync_stripes(),
        "async_stripes": plan.total_async_stripes(),
        "local_stripes": plan.total_local_stripes(),
    }

    # Sync-lane multicasts: the simulator's own counter arithmetic over
    # the plan's multicast table, receivers remapped to global ranks.
    program = plan.sync_program
    received = np.zeros(traffic.n_nodes, dtype=np.int64)
    received[layer.ranks] = program.received_bytes(k)
    traffic.count_multicast(program.payload_bytes(k), received)

    # One-sided requests: one piece each, counted (and, under faults,
    # resolved) as a schedule of gets.
    programs = [
        plan.rank_plan(rank).async_matrix.ensure_program(layer.col_part, gap)
        for rank in range(p_r)
    ]
    gets = BlockSchedule(
        np.zeros(p_r, dtype=np.int64),
        owners=tuple(program.req_owners for program in programs),
        get_bytes=tuple(program.req_rows * (k * 8) for program in programs),
    )
    outcomes = gets.resolve(faults_view, sub_machine.network)
    book_counters(gets, traffic, layer.ranks, outcomes, resil)

    B_l, out = layer.B_l, layer.out
    stage: Dict[int, Callable] = {}
    for rank, program in enumerate(programs):
        rank_plan = plan.rank_plan(rank)
        lo, hi = layer.row_part.bounds(rank)
        matrix = rank_plan.async_matrix
        backoff_s = _backoff_of(outcomes[rank])
        # Pre-touch every plan-resident cache so forked children
        # inherit warm, shared (copy-on-write) program state.
        tiles = program.tiles(k * 8)
        values = matrix.values(program, reduction_order=segmented)
        sync_local = rank_plan.sync_local
        csr = (
            sync_local.scipy_handle() if sync_local.nnz else None
        )

        # With no async stripes the sync product is the block's first
        # touch and zero-fills it itself (csr_product_into, fresh).
        fresh = csr is not None and not program.n_stripes

        def fn(arena, _lo=lo, _hi=hi, _matrix=matrix, _program=program,
               _tiles=tiles, _values=values, _csr=csr, _sleep=backoff_s,
               _fresh=fresh):
            c_block = out[_lo:_hi]
            if not _fresh:
                c_block[:] = 0.0
            if _sleep > 0.0:
                time.sleep(_sleep)
            scatter = ScatterStats()
            for tile in _tiles:
                rows = _program.fetched_ids[tile.rows]
                fetched = np.take(
                    B_l, rows, axis=0,
                    out=arena.request("async_fetch", len(rows), k),
                )
                accumulate_async_tile(
                    c_block, fetched, _matrix, _program, tile, _values,
                    segmented, arena, scatter,
                )
            if _csr is not None:
                csr_product_into(c_block, _csr, B_l, _fresh, arena)
            return None

        stage[layer.ranks[rank]] = _skewed(fn, _skew_of(faults_view, rank))
    layer.stages = [stage]


def _build_blocks(layer: _Layer, algo, A_dist, k, net, traffic,
                  faults_view, resil) -> None:
    """A block baseline: its schedule's counters, then one stage per
    held bundle — dense shifting's pieces of a :class:`BlockedMatrix`,
    or (AllGather / AsyncCoarse) one CSR SpMM over the whole slab."""
    from ..algorithms.async_coarse import AsyncCoarse
    from ..dist.blocked import BlockedMatrix, bucket_blocks
    from ..sparse.csr import CSRMatrix
    from ..sparse.ops import spmm_row_panels

    p_r = layer.row_part.n_parts
    nnz_rb = None
    if isinstance(algo, AsyncCoarse):
        _, nnz_rb = bucket_blocks(
            A_dist.global_matrix, layer.row_part, layer.col_part
        )
    schedule = algo.schedule(layer.col_part, k, nnz_rb)
    outcomes = schedule.resolve(faults_view, net)
    book_counters(schedule, traffic, layer.ranks, outcomes, resil)

    B_l, out = layer.B_l, layer.out
    if schedule.held is None:
        csrs = [CSRMatrix.from_coo(A_dist.slab(r)) for r in range(p_r)]

        def kernel(c_block, rank, step, arena):
            spmm_row_panels(csrs[rank], B_l, c_block, arena=arena, fresh=True)
    else:
        # Built once here, before the fork; workers run the simulator's
        # kernel over views of it.
        blocked = BlockedMatrix.build(
            A_dist.global_matrix, layer.row_part, layer.col_part
        )
        layer.arena_ceilings = {"scatter": (int(blocked.rows_rb.max()), k)}
        first, last = schedule.held

        def kernel(c_block, rank, step, arena):
            if step == 0:
                c_block[:] = 0.0
            blocked.multiply_into(
                c_block, B_l, rank, int(first[step, rank]),
                int(last[step, rank]), arena=arena,
            )

    for step in range(schedule.steps):
        stage: Dict[int, Callable] = {}
        for rank in range(p_r):
            lo, hi = layer.row_part.bounds(rank)
            sleep_s = _backoff_of(outcomes[rank]) if step == 0 else 0.0

            def fn(arena, _lo=lo, _hi=hi, _rank=rank, _step=step,
                   _sleep=sleep_s):
                if _sleep > 0.0:
                    time.sleep(_sleep)
                kernel(out[_lo:_hi], _rank, _step, arena)
                return None

            stage[layer.ranks[rank]] = _skewed(
                fn, _skew_of(faults_view, rank)
            )
        layer.stages.append(stage)


# ----------------------------------------------------------------------
# The transport
# ----------------------------------------------------------------------
class ShmTransport(Transport):
    """Real-process execution over ``multiprocessing.shared_memory``.

    Args:
        processes: worker process count (clamped to the rank count);
            default ``min(n_nodes, os.cpu_count())``.  Ranks are split
            into contiguous per-worker ranges.
        repeats: timed repetitions; the reported wall seconds are the
            per-repeat makespan (counters cover one execution).
        barrier_timeout: seconds a worker waits at a stage barrier
            before declaring the fleet wedged.
    """

    name = "shm"

    def __init__(self, processes: Optional[int] = None, repeats: int = 1,
                 barrier_timeout: float = 120.0):
        if processes is not None and processes < 1:
            raise TransportError(f"processes must be >= 1: {processes}")
        if repeats < 1:
            raise TransportError(f"repeats must be >= 1: {repeats}")
        self.processes = processes
        self.repeats = repeats
        self.barrier_timeout = barrier_timeout

    _availability: Optional[bool] = None

    @classmethod
    def available(cls) -> bool:
        """Fork start method + a working shared-memory mount."""
        if cls._availability is None:
            import multiprocessing as mp

            ok = "fork" in mp.get_all_start_methods()
            if ok:
                try:
                    probe = shared_memory.SharedMemory(create=True, size=8)
                    probe.close()
                    probe.unlink()
                except (OSError, ValueError):
                    ok = False
            cls._availability = ok
        return cls._availability

    # ------------------------------------------------------------------
    def run_algorithm(self, algorithm, A, B, machine, threads=None,
                      grid=None):
        from ..algorithms.base import SpMMResult

        if not self.available():
            raise TransportUnavailable(
                "transport 'shm' needs the fork start method and a "
                "writable shared-memory mount (/dev/shm)"
            )
        B = np.ascontiguousarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != A.shape[1]:
            raise ShapeError(
                f"B shape {B.shape} incompatible with A shape {A.shape}"
            )
        threads = threads or ThreadConfig.for_machine(
            machine.threads_per_node
        )
        if grid is not None:
            grid.validate_nodes(machine.n_nodes)
        p = machine.n_nodes
        n, k = A.shape[0], B.shape[1]
        depth = grid.depth if grid is not None else 1
        faults = compile_faults(machine.faults, p)
        if faults is not None:
            crashed = faults.crash_rank()
            if crashed is not None:
                raise ExecutorCrashError(
                    crashed, faults.config.crash_epoch
                )
        traffic = TrafficStats(n_nodes=p)
        resil = ResilienceStats()
        W = min(self.processes or (os.cpu_count() or 1), p)

        with SegmentPool() as pool:
            C = pool.create((n, k))
            wall = pool.create((W,))
            stages, layers = self._prepare(
                algorithm, A, B, machine, threads, grid, depth, faults,
                traffic, resil, pool, C,
            )
            # Per-worker fetch arenas, carved from shared segments and
            # sized to the largest stripe of any layer's plan.
            ceilings: Dict[str, Tuple[int, int]] = {}
            for layer in layers:
                for slot, (r, cdim) in layer.arena_ceilings.items():
                    prev = ceilings.get(slot, (0, 0))
                    if r * cdim > prev[0] * prev[1]:
                        ceilings[slot] = (r, cdim)
            arenas = []
            for _w in range(W):
                slots = {
                    slot: pool.create((rows * cols,))
                    for slot, (rows, cols) in ceilings.items()
                }
                arenas.append(FetchArena.with_buffers(slots))

            before = time.perf_counter()
            self._run_workers(stages, arenas, wall, W, p)
            driver_wall = time.perf_counter() - before
            wall_each = [float(w) / self.repeats for w in wall]
            C_out = np.array(C, copy=True)

        seconds = max(wall_each) if wall_each else 0.0
        breakdown = TimeBreakdown.zeros(p)
        rank_ranges = np.array_split(np.arange(p), W)
        for w, ranks in enumerate(rank_ranges):
            for r in ranks.tolist():
                breakdown.node(r).other += wall_each[w]
        extras = {
            "transport": self.name,
            "transport_processes": W,
            "transport_repeats": self.repeats,
            "wall_seconds": seconds,
            "wall_seconds_per_process": wall_each,
            "driver_wall_seconds": driver_wall,
            "host_cpus": os.cpu_count() or 1,
        }
        if grid is not None:
            extras["grid"] = grid.describe()
        if layers and layers[0].extras:
            extras["plan"] = layers[0].extras
        if faults is not None:
            extras["faults"] = faults.describe()
            extras["resilience"] = resil.as_dict()
        return SpMMResult(
            algorithm=algorithm.name,
            C=C_out,
            seconds=seconds,
            breakdown=breakdown,
            traffic=traffic,
            extras=extras,
            events=[],
        )

    # ------------------------------------------------------------------
    def _prepare(self, algorithm, A, B, machine, threads, grid, depth,
                 faults, traffic, resil, pool, C):
        """Build shared panels and per-rank stage bodies (pre-fork)."""
        from ..algorithms.allgather import AllGather
        from ..algorithms.async_coarse import AsyncCoarse
        from ..algorithms.dense_shifting import DenseShifting
        from ..algorithms.gridrun import SubFaultPlan, column_subset
        from ..algorithms.twoface import TwoFace
        from ..dist.matrices import DistSparseMatrix

        p = machine.n_nodes
        n, k = A.shape[0], B.shape[1]
        layer_algo = (
            algorithm._grid_layer_algorithm(grid) if depth > 1 else algorithm
        )
        p_r = grid.p_r if grid is not None else p
        sub_machine = (
            replace(machine, n_nodes=p_r) if depth > 1 else machine
        )
        row_part = RowPartition(n, p_r)

        layers: List[_Layer] = []
        for g in range(depth):
            if grid is not None:
                ranks = grid.layer_ranks(g)
                col_ids = grid.layer_col_ids(g, B.shape[0])
                A_sub = column_subset(A, col_ids)
                B_sub = B[col_ids]
            else:
                ranks = list(range(p))
                A_sub = A
                B_sub = B
            before_bytes = traffic.total_bytes
            col_part = RowPartition(B_sub.shape[0], p_r)
            # Ledger-free distributed view: same row-rebased slabs the
            # simulator's RunContext serves, without a cluster.
            A_dist = DistSparseMatrix(A_sub, row_part, label="A_slab")
            B_l = pool.create(B_sub.shape)
            B_l[:] = B_sub
            out = C if depth == 1 else pool.create((n, k))
            layer = _Layer(ranks, row_part, col_part, B_l, out)
            faults_view = (
                SubFaultPlan(faults, ranks)
                if faults is not None and grid is not None
                else faults
            )
            if isinstance(layer_algo, TwoFace):
                if layer_algo.mask is not None:
                    raise TransportError(
                        "transport 'shm' does not support sampling masks"
                    )
                _build_twoface(
                    layer, layer_algo, A_dist, k, sub_machine, threads,
                    traffic, faults_view, resil,
                )
            elif isinstance(layer_algo, (AllGather, AsyncCoarse,
                                         DenseShifting)):
                _build_blocks(
                    layer, layer_algo, A_dist, k, machine.network,
                    traffic, faults_view, resil,
                )
            else:
                raise TransportError(
                    f"transport 'shm' does not support algorithm "
                    f"{algorithm.name!r}"
                )
            if depth > 1:
                # The simulator attributes dimension bytes only on the
                # grid-runner path (depth > 1); a Grid1D run takes the
                # plain 1D path with empty dim_bytes.
                traffic.add_dim_bytes(
                    grid.intra_dim, traffic.total_bytes - before_bytes
                )
            layers.append(layer)

        # Merge layers into a single stage sequence: layers own
        # disjoint rank sets, so their same-index stages run
        # concurrently (exactly the simulator's overlapped layers).
        n_stages = max(len(layer.stages) for layer in layers)
        stages: List[_Stage] = []
        for s in range(n_stages):
            merged: _Stage = {}
            for layer in layers:
                if s < len(layer.stages):
                    merged.update(layer.stages[s])
            stages.append(merged)

        if depth > 1:
            book_reduction(grid, row_part, k, traffic)
            stages.append(self._sum_partials(grid, layers, row_part, C))
        return stages, layers

    @staticmethod
    def _sum_partials(grid, layers, row_part, C) -> _Stage:
        """The partial-``C`` reduction across the depth dimension.

        Rank ``i`` of layer 0 owns row block ``i``'s reduction; the sum
        runs in layer order, matching the simulator's
        ``C = partials[0]; C += partials[g]`` accumulation bit for bit.
        """
        partials = [layer.out for layer in layers]
        stage: _Stage = {}
        for block, group in enumerate(grid.reduce_groups()):
            lo, hi = row_part.bounds(block)

            def fn(arena, _lo=lo, _hi=hi):
                acc = C[_lo:_hi]
                acc[:] = partials[0][_lo:_hi]
                for partial in partials[1:]:
                    acc += partial[_lo:_hi]
                return None

            stage[group[0]] = fn
        return stage

    # ------------------------------------------------------------------
    def _run_workers(self, stages, arenas, wall, W: int, p: int) -> None:
        """Fork W workers, run the stage sequence ``repeats`` times.

        Every stage barrier carries ``barrier_timeout``; each worker
        bumps a shared progress counter after every barrier it passes.
        When a worker hangs (or is killed) before a barrier, its peers
        time out and exit, the driver breaks the barrier, and after a
        short grace period the survivor is terminated and *named* —
        worker index, the global ranks it drives, and the stage it
        stalled in — in the raised :class:`TransportError`, instead of
        the driver deadlocking on a full-run join.
        """
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(W)
        err_q = ctx.SimpleQueue()
        #: Barriers passed per worker; each slot is written only by its
        #: own worker, so no lock is needed.
        progress = ctx.Array("l", W, lock=False)
        rank_ranges = [r.tolist() for r in np.array_split(np.arange(p), W)]
        repeats = self.repeats
        timeout = self.barrier_timeout

        def worker_main(w: int) -> None:
            # Forked: shared mappings, plans, and stage closures are
            # all inherited — no pickling, no copies.
            arena = arenas[w]
            my_ranks = rank_ranges[w]
            try:
                for _rep in range(repeats):
                    barrier.wait(timeout)
                    progress[w] += 1
                    t0 = time.perf_counter()
                    for stage in stages:
                        for r in my_ranks:
                            fn = stage.get(r)
                            if fn is not None:
                                fn(arena)
                        barrier.wait(timeout)
                        progress[w] += 1
                    wall[w] += time.perf_counter() - t0
            except BaseException:
                try:
                    err_q.put(f"worker {w}:\n{traceback.format_exc()}")
                finally:
                    barrier.abort()
                    os._exit(1)
            os._exit(0)

        procs = [
            ctx.Process(target=worker_main, args=(w,), daemon=True)
            for w in range(W)
        ]
        try:
            for proc in procs:
                proc.start()
            deadline = time.monotonic() + timeout * (
                len(stages) + 1
            ) * repeats + 60.0
            pending = dict(enumerate(procs))
            bad_exits: Dict[int, int] = {}
            failure_at: Optional[float] = None
            while pending:
                for w, proc in list(pending.items()):
                    proc.join(0.05 if failure_at is not None else 0.2)
                    if proc.exitcode is not None:
                        del pending[w]
                        if proc.exitcode != 0:
                            bad_exits[w] = proc.exitcode
                if pending and (bad_exits or time.monotonic() > deadline):
                    if failure_at is None:
                        # First sign of trouble: break the barrier so
                        # healthy waiters exit now, then give genuinely
                        # stalled workers one grace window.
                        failure_at = time.monotonic()
                        barrier.abort()
                    elif time.monotonic() - failure_at > min(
                        5.0, max(1.0, timeout)
                    ):
                        break
            stalled = sorted(pending)
            for w in stalled:
                pending[w].terminate()
                pending[w].join(5.0)
            if stalled:
                raise TransportError(
                    f"shm transport stage barrier timed out after "
                    f"{timeout:g}s: "
                    + "; ".join(
                        self._describe_stall(
                            w, rank_ranges[w], progress[w], len(stages)
                        )
                        for w in stalled
                    )
                )
            if bad_exits:
                messages = []
                while not err_q.empty():
                    messages.append(err_q.get())
                # Victims of an aborted barrier report BrokenBarrierError;
                # surface the root cause when one exists.
                primary = [
                    m for m in messages if "BrokenBarrierError" not in m
                ] or messages
                killed = [
                    self._describe_stall(
                        w, rank_ranges[w], progress[w], len(stages)
                    )
                    + f" (exit code {code})"
                    for w, code in sorted(bad_exits.items())
                    if code < 0
                ]
                raise TransportError(
                    "shm transport worker failed:\n"
                    + "\n".join(killed + primary)
                    if killed or primary
                    else "shm transport worker failed: "
                    "(no traceback captured)"
                )
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(5.0)

    @staticmethod
    def _describe_stall(
        w: int, ranks: List[int], passed: int, n_stages: int
    ) -> str:
        """Human-readable location of a stalled worker, e.g.
        ``worker 1 (ranks 2..3) stalled in stage 0``."""
        span = (
            f"rank {ranks[0]}" if len(ranks) == 1
            else f"ranks {ranks[0]}..{ranks[-1]}"
        )
        idx = passed % (n_stages + 1)
        where = (
            "before the start barrier" if idx == 0
            else f"in stage {idx - 1}"
        )
        return f"worker {w} ({span}) stalled {where}"
