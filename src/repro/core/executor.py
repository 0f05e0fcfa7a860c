"""The Two-Face runtime (paper §5.2, Algorithms 1-3).

Executes a :class:`~repro.core.plan.TwoFacePlan` on the simulated
cluster.  Per node, two lanes run in parallel:

* **Synchronous lane** — thread 0 drives the series of MPI_Ibcast
  multicasts described by the dense-stripe metadata; once all dense
  stripes have arrived (the ``sync_transfer_done`` flag), the sync
  threads sweep the row panels of the sync/local-input matrix.
* **Asynchronous lane** — the async threads pop stripes from a work
  queue, fetch the needed dense rows with coalesced MPI_Rget, and
  compute column-major with per-nonzero accumulation.  That is what
  is *modelled*, request by request; the host executes each rank's
  stripes as one plan-resident program
  (:class:`~repro.core.formats.RankProgram`): one gather, one
  two-level reduction and one bulk accounting record per tile.

A node finishes at ``max(sync lane, async lane) + other``; the cluster
finishes with its slowest node.

Host-side, the per-rank bodies of both compute phases fan out across
the :mod:`repro.runtime.pool` worker pool (``REPRO_EXEC_WORKERS``;
default serial): each rank body writes only its own ``C`` block, draws
scratch from its worker's fetch-buffer arena, and returns an immutable
accounting record; the main thread folds the records into the
breakdown, memory ledgers, and SimMPI counters in rank order, so the
simulated seconds and event log are bit-identical at any pool width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..algorithms.base import RunContext
from ..cluster.buffers import local_arena
from ..cluster.faults import (
    RESILIENCE_STATS,
    FaultPlan,
    ResilienceStats,
    resolve_onesided,
)
from ..cluster.simmpi import CommAccount, _MulticastBatch, _OneSidedBatch
from ..errors import OutOfMemoryError, PartitionError
from ..runtime.pool import get_exec_pool
from ..runtime.threads import max_coalescing_gap
from ..sparse.ops import (
    SCATTER_SEGMENTED,
    SCATTER_STATS,
    ScatterStats,
    csr_product_into,
    scatter_add,
    scatter_mode,
    segmented_reduce_into,
)
from .formats import TRANSFER_CACHE, TransferCacheStats
from .plan import SyncProgram, TwoFacePlan
from .sampling_mask import SampleMask

#: Extra per-node setup of Two-Face (window creation, queues, metadata
#: replication) on top of the shared base setup — the "Other" bar of
#: Fig. 10 is visibly larger for Two-Face than for dense shifting.
TWOFACE_SETUP_SECONDS = 3.0e-5


def arena_ceilings(plan: TwoFacePlan, k: int) -> dict:
    """Per-slot ``(n_rows, n_cols)`` arena ceilings of a plan.

    Feed to :func:`~repro.cluster.buffers.warm_arenas` to pre-size
    every pool worker's scratch for this plan's largest async tile,
    and for the sync product's scratch on ranks that run both lanes,
    pinning steady-state executions at zero arena growth regardless of
    how ranks land on workers.

    A plan whose schedules were never finalised (hand-assembled in a
    test, legacy deserialisation path) is finalised here first —
    otherwise the fetch ceiling would silently degenerate to one row
    and ``warm_arenas`` would undersize every worker.
    """
    from ..sparse.ops import _SCATTER_CHUNK_ELEMS

    if not plan.finalized:
        plan.ensure_finalized()
    max_rows = 1
    max_nnz = 1
    max_segments = 1
    max_block = 1
    for rank_plan in plan.ranks:
        program = rank_plan.async_matrix.program()
        max_nnz = max(max_nnz, int(np.diff(program.nnz_ptr).max(initial=1)))
        for tile in program.tiles(k * 8):
            max_rows = max(max_rows, tile.rows.stop - tile.rows.start)
            max_segments = max(max_segments, tile.n_segments)
        if program.n_stripes and rank_plan.sync_local.nnz:
            max_block = max(max_block, program.n_rows)
    # The "scatter" slot holds per-chunk products on the atomic path,
    # per-segment sums on the segmented path, and the sync product of a
    # rank block the async lane already accumulated into; cover all.
    scatter_rows = max(
        max_segments,
        min(max_nnz, max(1, _SCATTER_CHUNK_ELEMS // max(1, k))),
        max_block,
    )
    return {
        "async_fetch": (max_rows, k),
        "async_gather": (max_nnz, k),
        "scatter": (scatter_rows, k),
    }


def async_lane_seconds(
    net, compute, n_threads: int, k: int, row_bytes: int,
    req_rows: np.ndarray, req_chunks: np.ndarray, nnz_live: np.ndarray,
    skew: float = 1.0,
) -> Tuple[float, float]:
    """Simulated ``(comm, comp)`` seconds of a rank's async requests.

    The one definition of what the async lane charges per request —
    the executor books it, the tuner prices candidates with it.  Each
    request's term goes through the scalar cost-model formulas
    elementwise and the terms are folded left to right (``cumsum``),
    so the totals equal a Python ``+=`` loop over the requests bit for
    bit.

    Args:
        req_rows / req_chunks: dense rows and rget chunks per request.
        nnz_live: nonzeros each request's stripe computes with.
        skew: the rank's compute-skew multiplier (fault injection).
    """
    if not len(req_rows):
        return 0.0, 0.0
    comm = net.rget_time(req_rows * row_bytes, n_chunks=req_chunks)
    comp = compute.async_stripe_time(nnz_live, k, n_threads, n_stripes=1)
    if skew != 1.0:
        comp = comp * skew
    return float(np.cumsum(comm)[-1]), float(np.cumsum(comp)[-1])


def sync_lane_seconds(
    net, program: SyncProgram, k: int, faults=None
) -> np.ndarray:
    """Simulated ``sync_comm`` seconds per node of a plan's multicasts.

    The one definition of what the sync lane charges — the executor
    and SDDMM book it, the tuner prices candidates with it.  A
    multicast costs its owner and each receiver ``bcast_time`` of its
    payload and fan-out; under ``faults`` a degraded link slows its
    receiver and the owner serves until its slowest receiver is done.
    Each node's terms are folded left to right in issue order
    (``cumsum``), so its total equals a Python ``+=`` loop over the
    multicasts bit for bit — callers add it to a lane that is still
    0.0 (the multicasts come first), which is exact.
    """
    seconds = np.zeros(program.n_nodes)
    if not len(program.owners):
        return seconds
    fanout = program.fanout
    cost = net.bcast_time(program.payload_bytes(k), fanout)
    legs = np.repeat(cost, fanout)
    if faults is not None:
        scale = faults.link_scale(
            np.repeat(program.owners, fanout), program.recv_ranks
        )
        legs = legs * scale
        cost = cost * np.maximum.reduceat(scale, program.recv_ptr[:-1])
    order, ptr = program.fold
    terms = np.insert(legs, program.recv_ptr[:-1], cost)[order]
    ptr = ptr.tolist()
    for node, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:])):
        if hi > lo:
            seconds[node] = np.cumsum(terms[lo:hi])[-1]
    return seconds


def sync_transfers(
    plan: TwoFacePlan, mpi, breakdown, k: int, faults=None
) -> None:
    """Issue and book the plan's dense-stripe multicasts (Algorithm 1,
    lines 5-8): one accounting record, one seconds call."""
    program = plan.sync_program
    issued = mpi.traffic.collective_ops
    try:
        _MulticastBatch(
            program.owners, program.payload_bytes(k), program.recv_ptr,
            program.recv_ranks, "dense_stripe_recv",
        ).apply(mpi)
    except OutOfMemoryError:
        # A failed run's breakdown shows the multicasts that completed
        # before a receiver overflowed.
        program = program.prefix(mpi.traffic.collective_ops - issued)
        raise
    finally:
        seconds = sync_lane_seconds(mpi.network, program, k, faults)
        for node, added in zip(breakdown.nodes, seconds.tolist()):
            node.sync_comm += added


def accumulate_async_stripe(
    c_block: np.ndarray,
    fetched: np.ndarray,
    stripe,
    vals: np.ndarray,
    arena,
    scatter: ScatterStats,
) -> None:
    """``np.add.at`` one async stripe's contribution into ``c_block``.

    The pinned per-stripe reference (``REPRO_SCATTER=atomic``) the tile
    kernel is tested against: gather the fetched row of every nonzero,
    scale, and accumulate in the stripe's column-major order.

    Args:
        fetched: the stripe's fetched dense rows, fetch order.
        vals: the stripe's (possibly masked) nonzero values.
    """
    scatter_add(
        c_block, stripe.nonzeros.rows, vals,
        arena.take_rows(fetched, stripe.schedule.packed, "async_gather"),
        arena=arena, stats=scatter,
    )


def accumulate_async_tile(
    c_block: np.ndarray,
    fetched: np.ndarray,
    matrix,
    program,
    tile,
    values: np.ndarray,
    segmented: bool,
    arena,
    scatter: ScatterStats,
) -> None:
    """Accumulate one tile of a rank program into ``c_block``.

    The scatter half of the async lane, shared verbatim by the
    simulator path below and the shared-memory transport
    (:mod:`repro.transport.shm`).  Segmented mode is one two-level
    reduction (:func:`~repro.sparse.ops.segmented_reduce_into` with the
    tile's fold); atomic mode walks the tile's stripes through the
    pinned per-stripe reference.

    Args:
        c_block: the rank's output block (accumulated in place).
        fetched: the tile's fetched dense rows, fetch order.
        matrix: the rank's :class:`~repro.core.formats.AsyncStripeMatrix`.
        program / tile: its rank program and the tile to run.
        values: ``matrix.values(program, keep,
            reduction_order=segmented)`` — the rank's (possibly masked)
            nonzero values in the order the chosen kernel consumes.
        segmented: pre-resolved ``scatter_mode() == SCATTER_SEGMENTED``.
        arena: the worker's :class:`~repro.cluster.buffers.FetchArena`.
        scatter: counter sink.
    """
    if segmented:
        segmented_reduce_into(
            c_block, fetched, tile.gather, values[tile.nnz],
            tile.seg_ptrs, None, arena=arena, stats=scatter,
            fold=tile.fold,
        )
        return
    row_ptr = (program.row_ptr - tile.rows.start).tolist()
    nnz_ptr = program.nnz_ptr.tolist()
    for i in range(tile.stripes.start, tile.stripes.stop):
        accumulate_async_stripe(
            c_block, fetched[row_ptr[i]:row_ptr[i + 1]],
            matrix.stripes[i], values[nnz_ptr[i]:nnz_ptr[i + 1]],
            arena, scatter,
        )


def execute_plan(
    plan: TwoFacePlan,
    ctx: RunContext,
    mask: Optional[SampleMask] = None,
) -> None:
    """Run distributed SpMM following ``plan`` (DistSPMM, Algorithm 1).

    Fills ``ctx.C`` with correct values and ``ctx.breakdown`` with the
    simulated lane times.

    Args:
        plan: the preprocessed plan.
        ctx: the distributed run context.
        mask: optional per-nonzero sampling mask (paper §5.4's sketch
            for GNN sampling: the graph stays stored as in Fig. 6, and
            a per-iteration mask filters eliminated nonzeros).  The
            communication schedule is unchanged — classification was
            decided offline on expected densities — while compute work
            and results cover only surviving nonzeros.

    Raises:
        PartitionError: if the plan does not match the run's partition.
        OutOfMemoryError: if received dense stripes or fetched rows
            exceed a node's simulated memory.
    """
    if plan.n_nodes != ctx.n_nodes:
        raise PartitionError(
            f"plan built for {plan.n_nodes} nodes, run has {ctx.n_nodes}"
        )
    if plan.k != ctx.k:
        raise PartitionError(
            f"plan built for K={plan.k}, run has K={ctx.k}"
        )
    if mask is not None:
        mask.validate_against(plan)
    for node in ctx.breakdown.nodes:
        node.other += TWOFACE_SETUP_SECONDS

    pool = get_exec_pool()
    sync_transfers(plan, ctx.mpi, ctx.breakdown, ctx.k, ctx.cluster.faults)
    _async_lane(plan, ctx, pool, mask)
    _sync_compute(plan, ctx, pool, mask)


# ----------------------------------------------------------------------
# Phase 2: asynchronous stripes (Algorithm 1 lines 9-14, Algorithm 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _AsyncRankRecord:
    """One rank's async-lane results, folded on the main thread.

    ``sync_comm_seconds`` and ``fallback_root_costs`` are only nonzero
    under fault injection: they carry the sync-lane cost of fallback
    multicasts (destination side and owner side respectively), folded
    in rank order so the breakdown stays width-deterministic.
    """

    account: CommAccount
    cache: TransferCacheStats
    scatter: ScatterStats
    comm_seconds: float
    comp_seconds: float
    sync_comm_seconds: float = 0.0
    fallback_root_costs: Tuple[Tuple[int, float], ...] = ()
    resilience: Optional[ResilienceStats] = None


def _rechunk_boundaries(
    chunk_sizes: np.ndarray, max_piece_rows: int
) -> Optional[Tuple[List[int], List[int]]]:
    """Split a schedule's chunks into contiguous pieces that fit memory.

    Returns the pieces' ``(rows, chunks)`` counts, covering the chunks
    in order, each piece at most ``max_piece_rows`` rows — or None when
    a single chunk alone exceeds the budget (a genuine OOM).  The
    greedy left-to-right split is a pure function of the schedule and
    the budget, so re-chunking is deterministic.
    """
    rows, chunks = [0], [0]
    for size in chunk_sizes.tolist():
        if size > max_piece_rows:
            return None
        if rows[-1] + size > max_piece_rows:
            rows.append(0)
            chunks.append(0)
        rows[-1] += size
        chunks[-1] += 1
    return rows, chunks


def _resilient_fetch_accounting(
    ctx: RunContext,
    faults: FaultPlan,
    rank: int,
    program,
    row_bytes: int,
    account: CommAccount,
) -> Tuple[float, float, Tuple[Tuple[int, float], ...], ResilienceStats]:
    """Charge one rank's async fetches under fault injection.

    The data itself was already gathered (host views cannot fail); this
    models what the simulated cluster *pays* for it.  A request that
    exceeds the rank's memory headroom is re-chunked into pieces that
    fit (streamed through one buffer, so the ledger peak is one piece,
    not the whole stripe); every piece is one rget as issued — the
    rank's own request sequence numbers advance per piece — resolved by
    the shared policy (:func:`~repro.cluster.faults.resolve_onesided`)
    and booked as one batched accounting record.

    Returns ``(async_comm_seconds, sync_comm_seconds,
    fallback_root_costs, resilience_stats)``.
    """
    # The ledger is static while rank bodies run (deferred accounting
    # replays after the pool joins) and every piece frees its rows, so
    # one headroom figure serves the whole body — deterministically,
    # at any pool width.
    ledger = ctx.cluster.node(rank).memory
    headroom = ledger.capacity - ledger.current
    owners = program.req_owners
    nbytes = program.req_rows * row_bytes
    n_chunks = program.req_chunks
    request_of = None
    oversized = np.flatnonzero(nbytes > headroom).tolist()
    if oversized:
        rows = [[r] for r in program.req_rows.tolist()]
        chunks = [[c] for c in n_chunks.tolist()]
        for i in oversized:
            pieces = _rechunk_boundaries(
                program.chunk_sizes[program.req_ptr[i]:program.req_ptr[i + 1]],
                headroom // row_bytes,
            )
            if pieces is None:
                total_bytes = int(nbytes[i])
                oom = OutOfMemoryError(
                    rank, ledger.current + total_bytes, ledger.capacity
                )
                if hasattr(oom, "add_note"):  # 3.11+
                    oom.add_note(
                        f"async stripe fetch of {total_bytes} B cannot be "
                        f"re-chunked into the {headroom} B left by injected "
                        "memory pressure"
                    )
                raise oom
            rows[i], chunks[i] = pieces
        request_of = np.repeat(
            np.arange(len(rows)), [len(pieces) for pieces in rows]
        )
        owners = owners[request_of]
        nbytes = np.concatenate(rows) * row_bytes
        n_chunks = np.concatenate(chunks)
    outcome = resolve_onesided(
        faults, ctx.machine.network, rank, owners, nbytes, n_chunks,
        request_of,
    )
    if len(nbytes):
        account.ops.append(_OneSidedBatch(
            rank, owners, nbytes, n_chunks, "async_rows", True,
            outcome.failed, outcome.fallback,
        ))
        account.free(rank, "async_rows")
    resil = outcome.stats
    resil.rechunked_stripes = len(oversized)
    resil.rechunk_pieces = (
        len(nbytes) - len(program.req_rows) + len(oversized)
    )
    return (
        outcome.async_seconds, outcome.sync_seconds, outcome.root_costs, resil
    )


def _async_lane(
    plan: TwoFacePlan,
    ctx: RunContext,
    pool,
    mask: Optional[SampleMask] = None,
) -> None:
    net = ctx.machine.network
    compute = ctx.machine.compute
    k = ctx.k
    max_gap = max_coalescing_gap(k)
    faults = ctx.cluster.faults
    dense = ctx.B.data
    row_bytes = int(dense.shape[1] * dense.itemsize)
    # Resolve the knob once so one execution never mixes kernels.
    segmented = scatter_mode() == SCATTER_SEGMENTED

    def rank_body(rank: int) -> _AsyncRankRecord:
        # Writes only C.block(rank) and this worker's arena; every
        # shared-state mutation is deferred into the returned record.
        arena = local_arena()
        account = CommAccount()
        cache = TransferCacheStats()
        scatter = ScatterStats()
        matrix = plan.rank_plan(rank).async_matrix
        # Plan-resident and validated once per plan (owners, coverage);
        # steady-state executions only confirm it is still current.
        program = matrix.ensure_program(
            ctx.B.partition, max_gap, stats=cache
        )
        c_block = ctx.C.block(rank)
        nnz_live = program.req_nnz
        keep = None
        if mask is not None and program.n_stripes:
            keep = np.concatenate(mask.async_masks[rank])
            live = np.concatenate(([0], np.cumsum(keep)))[program.nnz_ptr]
            nnz_live = np.diff(live)[program.req_stripes]
            if live[-1] == len(keep):
                keep = None  # keep-all: bitwise fast path
        values = matrix.values(program, keep, reduction_order=segmented)
        # One gather and one reduction per tile.  With faults the data
        # movement is the same (host views cannot fail); what the
        # simulated cluster pays is modelled for the whole rank below.
        for tile in program.tiles(row_bytes):
            rows = program.fetched_ids[tile.rows]
            out = arena.request(
                "async_fetch", len(rows), dense.shape[1], dense.dtype
            )
            if faults is None and len(rows):
                fetched = ctx.mpi.rget_row_chunks(
                    rank, program.req_owners[tile.requests], dense,
                    program.chunk_starts[tile.chunks],
                    program.chunk_sizes[tile.chunks],
                    label="async_rows", rows=rows, charge_time=False,
                    out=out, account=account,
                    request_ptr=(
                        program.req_ptr[
                            tile.requests.start:tile.requests.stop + 1
                        ] - tile.chunks.start
                    ),
                )
                account.free(rank, "async_rows")
            else:
                fetched = np.take(dense, rows, axis=0, out=out)
            accumulate_async_tile(
                c_block, fetched, matrix, program, tile, values,
                segmented, arena, scatter,
            )
        if faults is None:
            comm_seconds, comp_seconds = async_lane_seconds(
                net, compute, ctx.threads.async_comp, k, row_bytes,
                program.req_rows, program.req_chunks, nnz_live,
            )
            return _AsyncRankRecord(
                account, cache, scatter, comm_seconds, comp_seconds
            )
        comm_seconds, sync_comm_seconds, root_costs, resil = (
            _resilient_fetch_accounting(
                ctx, faults, rank, program, row_bytes, account
            )
        )
        _, comp_seconds = async_lane_seconds(
            net, compute, ctx.threads.async_comp, k, row_bytes,
            program.req_rows, program.req_chunks, nnz_live,
            skew=faults.compute_skew(rank),
        )
        return _AsyncRankRecord(
            account, cache, scatter, comm_seconds, comp_seconds,
            sync_comm_seconds, root_costs, resil,
        )

    records = pool.map(rank_body, ctx.n_nodes)
    for rank, rec in enumerate(records):
        ctx.mpi.apply_account(rec.account)
        TRANSFER_CACHE.hits += rec.cache.hits
        TRANSFER_CACHE.recomputes += rec.cache.recomputes
        SCATTER_STATS.merge_from(rec.scatter)
        node_breakdown = ctx.breakdown.node(rank)
        node_breakdown.async_comp += rec.comp_seconds
        node_breakdown.async_comm += (
            rec.comm_seconds / ctx.threads.async_comm
        )
        if rec.resilience is not None:
            RESILIENCE_STATS.merge_from(rec.resilience)
            node_breakdown.sync_comm += rec.sync_comm_seconds
            for owner, cost in rec.fallback_root_costs:
                ctx.breakdown.node(owner).sync_comm += cost


# ----------------------------------------------------------------------
# Phase 3: synchronous row panels (Algorithm 1 lines 15-19, Algorithm 2)
# ----------------------------------------------------------------------
def _sync_compute(
    plan: TwoFacePlan,
    ctx: RunContext,
    pool,
    mask: Optional[SampleMask] = None,
) -> None:
    compute = ctx.machine.compute
    k = ctx.k
    faults = ctx.cluster.faults

    def rank_body(rank: int):
        rank_plan = plan.rank_plan(rank)
        sync_local = rank_plan.sync_local
        scatter = ScatterStats()
        nnz_live = sync_local.nnz
        if sync_local.nnz:
            csr = sync_local.scipy_handle(stats=scatter)
            if mask is not None:
                keep = mask.sync_masks[rank]
                nnz_live = int(np.count_nonzero(keep))
                if nnz_live != sync_local.nnz:
                    # Rewrap instead of csr.copy(): shares the cached
                    # index arrays and allocates only the masked data.
                    csr = sync_local.masked_handle(keep, stats=scatter)
            # ``C`` arrives zeroed and only the async lane has written
            # to it since, so a rank without async stripes is fresh.
            csr_product_into(
                ctx.C.block(rank), csr, ctx.B.data,
                fresh=not rank_plan.async_matrix.n_stripes,
                arena=local_arena(),
            )
        seconds = compute.sync_panel_time(
            nnz_live, k, sync_local.nonempty_rows(),
            ctx.threads.sync_comp,
        ) + sync_local.n_panels * compute.panel_overhead
        if faults is not None:
            seconds *= faults.compute_skew(rank)
        return seconds, scatter

    records = pool.map(rank_body, ctx.n_nodes)
    for rank, (comp_seconds, scatter) in enumerate(records):
        SCATTER_STATS.merge_from(scatter)
        ctx.breakdown.node(rank).sync_comp += comp_seconds
