"""Two-Face sparse matrix representation (paper §5.1, Fig. 6).

After classification, each rank's slab of ``A`` is split into two
structures:

* :class:`SyncLocalMatrix` — the synchronous + local-input nonzeros in
  row-major order, divided into *row panels* (the unit of work of the
  synchronous compute threads).  Backed by CSR, whose ``indptr`` provides
  the panel pointers.
* :class:`AsyncStripeMatrix` — the asynchronous nonzeros grouped by
  stripe, column-major within each stripe so the unique ``c_id``s (the
  dense rows to fetch) fall out of a linear scan.  An array of stripe
  pointers delimits the stripes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import is_
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..dist.oned import RowPartition
from ..errors import FormatError, PartitionError
from ..sparse.coo import COOMatrix
from ..sparse.csr import CSRMatrix
from .stripes import RankStripeStats
from ..sparse.ops import (
    SCATTER_STATS,
    ScatterStats,
    build_reduce_order,
    coalesce_row_id_arrays,
    coalesce_row_ids,
    expand_chunks,
)


@dataclass
class TransferCacheStats:
    """Counters for cached-transfer-schedule usage in the async lane.

    Attributes:
        hits: stripe executions that reused a precomputed schedule.
        recomputes: stripe executions that had to rebuild the schedule
            (a plan that was never finalised, e.g. hand-assembled in a
            test).
    """

    hits: int = 0
    recomputes: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.recomputes = 0

    def snapshot(self) -> Tuple[int, int]:
        return self.hits, self.recomputes


#: Process-global cache counters; executors increment, benchmarks and
#: tests read/reset.  See :func:`transfer_cache_stats`.
TRANSFER_CACHE = TransferCacheStats()


def transfer_cache_stats() -> TransferCacheStats:
    """The process-global transfer-schedule cache counters."""
    return TRANSFER_CACHE


def reset_transfer_cache_stats() -> None:
    """Zero the process-global cache counters (test/bench hygiene)."""
    TRANSFER_CACHE.reset()


@dataclass
class TransferSchedule:
    """Precomputed one-sided transfer metadata of one async stripe.

    Everything the async lane previously rebuilt per execution is
    geometry-only — it depends on the stripe's ``row_ids``, the owner's
    block offset, and the K-derived coalescing gap, all fixed at plan
    time — so preprocessing computes it once and executions reuse it
    (paper §5.4/§7.3: the plan is amortised over many SpMMs).

    Attributes:
        chunk_offsets: first row of each rget chunk, owner-block-local.
        chunk_sizes: row count of each chunk (aligned with offsets).
        fetched_ids: global ``B`` row ids the chunks deliver, in fetch
            order (sorted ascending, may include coalescing filler).
        packed: per-nonzero index into ``fetched_ids`` mapping each
            nonzero's global ``c_id`` to its packed fetched row.
    """

    chunk_offsets: np.ndarray
    chunk_sizes: np.ndarray
    fetched_ids: np.ndarray
    packed: np.ndarray

    @property
    def n_chunks(self) -> int:
        return int(len(self.chunk_offsets))

    def chunks(self) -> List[Tuple[int, int]]:
        """The chunks as a list of ``(offset, size)`` pairs."""
        return list(
            zip(self.chunk_offsets.tolist(), self.chunk_sizes.tolist())
        )

    def nbytes(self) -> int:
        return int(
            self.chunk_offsets.nbytes
            + self.chunk_sizes.nbytes
            + self.fetched_ids.nbytes
            + self.packed.nbytes
        )


@dataclass
class ReduceSchedule:
    """Precomputed segmented-reduction geometry of one async stripe.

    The accumulation order of a stripe's scatter is pure plan-time
    geometry — it depends only on ``nonzeros.rows`` — so preprocessing
    computes the stable sort permutation and segment boundaries once
    and every execution reuses them (the same amortisation argument as
    :class:`TransferSchedule`; see DESIGN.md §6).

    Attributes:
        order: stable sort permutation of the stripe's nonzero rows
            (groups equal output rows, preserves column order within).
        seg_starts: offsets into the permuted arrays where each output
            row's segment begins.
        out_rows: slab-local output-row id of each segment (unique,
            ascending).
    """

    order: np.ndarray
    seg_starts: np.ndarray
    out_rows: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(len(self.out_rows))

    def nbytes(self) -> int:
        return int(
            self.order.nbytes + self.seg_starts.nbytes + self.out_rows.nbytes
        )


@dataclass
class SyncLocalMatrix:
    """Row-major sync/local-input nonzeros of one rank (Fig. 6b).

    The matrix is immutable after plan build, so the derived scipy CSR
    handle and the nonempty-row count are memoised on first use and
    never invalidated — the sync lane stops rebuilding both per
    execution.

    Attributes:
        rank: owning node.
        csr: the nonzeros in CSR over the rank's local row slab; column
            indices are *global* (they index the full ``B``).
        panel_height: rows per panel.
        panel_bounds: row offsets of the panels (the panel pointers).
    """

    rank: int
    csr: CSRMatrix
    panel_height: int

    def __post_init__(self) -> None:
        if self.panel_height <= 0:
            raise FormatError(
                f"panel height must be positive: {self.panel_height}"
            )
        self.panel_bounds = self.csr.panel_bounds(self.panel_height)
        # Identity-keyed memos: plan clones with remapped values
        # (attention) shallow-copy this object and swap ``csr``, so the
        # cached handle must be checked against the current source.
        self._scipy: Optional[tuple] = None
        self._nonempty: Optional[tuple] = None

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def n_panels(self) -> int:
        return len(self.panel_bounds) - 1

    def nonempty_rows(self) -> int:
        """Rows with at least one nonzero (modelled flush count).

        Memoised per ``indptr`` identity — the count depends only on
        the row pointers, which value-remapped clones share.
        """
        cached = self._nonempty
        indptr = self.csr.indptr
        if cached is None or cached[0] is not indptr:
            cached = (indptr, int(np.count_nonzero(np.diff(indptr))))
            self._nonempty = cached
        return cached[1]

    def scipy_handle(self, stats: Optional[ScatterStats] = None):
        """The memoised ``scipy.sparse.csr_matrix`` over the nonzeros.

        Memoised per ``csr`` identity: a clone whose ``csr`` was
        swapped for a value-remapped copy rebuilds (counted as a
        ``sync_csr_build``) instead of serving the stale handle.

        Args:
            stats: counter sink for ``sync_csr_hits``/``sync_csr_builds``;
                defaults to the process-global
                :data:`~repro.sparse.ops.SCATTER_STATS` (pooled rank
                bodies pass a local record instead).
        """
        sink = SCATTER_STATS if stats is None else stats
        cached = self._scipy
        csr = self.csr
        if cached is None or cached[0] is not csr:
            cached = (csr, csr.to_scipy())
            self._scipy = cached
            sink.sync_csr_builds += 1
        else:
            sink.sync_csr_hits += 1
        return cached[1]

    def masked_handle(self, keep: np.ndarray,
                      stats: Optional[ScatterStats] = None):
        """CSR over ``data * keep`` sharing the cached index arrays.

        Allocates only the masked value array — ``indices``/``indptr``
        come from the memoised handle.
        """
        import scipy.sparse as sp

        base = self.scipy_handle(stats=stats)
        return sp.csr_matrix(
            (base.data * keep, base.indices, base.indptr), shape=base.shape
        )

    def nbytes(self) -> int:
        return self.csr.nbytes() + int(self.panel_bounds.nbytes)


@dataclass
class AsyncStripe:
    """One asynchronous sparse stripe (a row of Fig. 6c).

    Attributes:
        gid: global stripe id.
        owner: rank owning the dense stripe (rget target).
        nonzeros: column-major COO; rows are slab-local, cols global.
        row_ids: sorted unique global ``B`` rows the stripe needs.
    """

    gid: int
    owner: int
    nonzeros: COOMatrix
    row_ids: np.ndarray
    #: Cached transfer schedule; filled at preprocessing time (or on the
    #: first execution of a never-finalised plan) and reused thereafter.
    schedule: Optional[TransferSchedule] = field(default=None, repr=False)
    #: Cached segmented-reduction schedule; same lifecycle as
    #: ``schedule`` (plan-time by ``finalize_schedules``, lazily for
    #: hand-assembled plans).
    reduce_schedule: Optional[ReduceSchedule] = field(
        default=None, repr=False
    )

    @property
    def nnz(self) -> int:
        return self.nonzeros.nnz

    @property
    def rows_needed(self) -> int:
        return int(len(self.row_ids))

    def transfer_chunks(
        self, block_start: int, max_gap: int
    ) -> List[Tuple[int, int]]:
        """Coalesced ``(offset, size)`` chunks relative to the owner block.

        Args:
            block_start: first global ``B`` row of the owner's block.
            max_gap: coalescing distance (the paper uses ``127/K + 1``).
        """
        local_ids = self._local_ids(block_start)
        return coalesce_row_ids(local_ids, max_gap=max_gap)

    def _local_ids(self, block_start: int) -> np.ndarray:
        local_ids = self.row_ids - block_start
        if len(local_ids) and local_ids.min() < 0:
            raise FormatError(
                f"stripe {self.gid} requests rows below the owner block"
            )
        return local_ids

    def build_schedule(
        self, block_start: int, max_gap: int
    ) -> TransferSchedule:
        """Compute the transfer schedule (no caching side effects)."""
        offsets, sizes = coalesce_row_id_arrays(
            self._local_ids(block_start), max_gap=max_gap
        )
        fetched_ids = expand_chunks(offsets, sizes) + block_start
        return TransferSchedule(
            chunk_offsets=offsets,
            chunk_sizes=sizes,
            fetched_ids=fetched_ids,
            packed=packed_row_indices(fetched_ids, self.nonzeros.cols),
        )

    def ensure_schedule(
        self,
        block_start: int,
        max_gap: int,
        stats: Optional[TransferCacheStats] = None,
    ) -> TransferSchedule:
        """The cached schedule, computing and storing it when absent.

        Args:
            stats: counter sink; defaults to the process-global
                :data:`TRANSFER_CACHE`.  Pooled rank bodies pass a
                local record instead (the global counters are not safe
                to mutate concurrently) and the executor folds the
                records back in rank order.
        """
        sink = TRANSFER_CACHE if stats is None else stats
        if self.schedule is None:
            sink.recomputes += 1
            self.schedule = self.build_schedule(block_start, max_gap)
        else:
            sink.hits += 1
        return self.schedule

    def build_reduce_schedule(self) -> ReduceSchedule:
        """Compute the reduction schedule (no caching side effects)."""
        order, seg_starts, out_rows = build_reduce_order(self.nonzeros.rows)
        return ReduceSchedule(
            order=order, seg_starts=seg_starts, out_rows=out_rows
        )

    def ensure_reduce_schedule(self) -> ReduceSchedule:
        """The cached reduction schedule, built and stored when absent.

        Unlike :meth:`ensure_schedule` there is no counter: the
        transfer-cache hit/recompute counters already pin the
        plan-resident-cache contract (both schedules share a lifecycle),
        and the scatter counters record which kernel consumed it.
        """
        if self.reduce_schedule is None:
            self.reduce_schedule = self.build_reduce_schedule()
        return self.reduce_schedule


def packed_row_indices(
    fetched_ids: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Map global ``c_id``s onto positions in the fetched row set.

    The raw ``np.searchsorted`` result can be ``len(fetched_ids)`` when
    a column exceeds every fetched id; that index is clipped so callers
    can gather and *compare* (``fetched_ids[packed] != cols``) to detect
    non-coverage as a :class:`~repro.errors.PartitionError` instead of
    tripping an ``IndexError`` on the gather itself.
    """
    packed = np.searchsorted(fetched_ids, cols).astype(np.int64)
    if len(fetched_ids):
        np.minimum(packed, len(fetched_ids) - 1, out=packed)
    return packed


#: Scratch one async tile may occupy: fetched dense rows plus segment
#: sums, in bytes.  A constant, not a knob — it only has to be large
#: enough that per-tile dispatch is noise (4 MiB is one tile per rank on
#: every suite matrix; a quarter of it already costs 5-10 % on the
#: ultra-sparse ones) and small enough that what a rank body holds at
#: once, hence arena ceilings and peak RSS, stays bounded however many
#: stripes a rank has.  A single stripe beyond it is its own tile.
_TILE_SCRATCH_BYTES = 1 << 22


def _concat(parts: Sequence[np.ndarray], dtype=np.int64) -> np.ndarray:
    return np.concatenate(parts) if len(parts) else np.zeros(0, dtype=dtype)


def _ptr(counts: Sequence[int]) -> np.ndarray:
    """CSR-style boundaries of consecutive runs of the given lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


@dataclass(frozen=True)
class AsyncTile:
    """Consecutive stripes of a :class:`RankProgram` run as one unit:
    one gather of their fetched rows and one two-level reduction.

    Attributes:
        stripes / requests / chunks / rows / nnz: the tile's ranges in
            the program's per-stripe, per-request, per-chunk,
            per-fetched-row and per-nonzero (reduction order) arrays.
        gather: per nonzero, reduction order, the tile-buffer row it
            reads (level-1 CSR ``indices``).
        seg_ptrs: level-1 CSR ``indptr`` — one row per (stripe, output
            row) segment, in stripe order.
        fold: level-2 unit-weight CSR ``(indptr, indices, data)`` over
            the rank's output rows, listing each row's segments in
            stripe order.
    """

    stripes: slice
    requests: slice
    chunks: slice
    rows: slice
    nnz: slice
    gather: np.ndarray
    seg_ptrs: np.ndarray
    fold: Tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def n_segments(self) -> int:
        return len(self.seg_ptrs) - 1


@dataclass
class RankProgram:
    """One rank's async stripes as a single batched program.

    The concatenation, in ascending-gid order, of everything the async
    lane needs of the rank's stripes.  The per-stripe
    :class:`TransferSchedule` / :class:`ReduceSchedule` arrays are
    views into these arrays, so the serialised plan is unchanged and a
    stripe can still be inspected (or re-chunked, or failed) on its
    own; execution and accounting read the program.

    Attributes:
        n_rows: rows of the rank's output block.
        owners: owning rank of each stripe's dense rows.
        nnz_ptr / row_ptr / chunk_ptr / seg_ptr: per-stripe boundaries
            in the per-nonzero, per-fetched-row, per-chunk and
            per-segment arrays below.
        chunk_offsets / chunk_sizes: coalesced rget chunks
            (owner-block-local first row, row count).
        fetched_ids: global ``B`` rows the chunks deliver, fetch order.
        packed: per nonzero, its row within its stripe's fetched rows.
        order: per stripe, the stable sort permutation of its nonzeros'
            output rows (stripe-local positions).
        seg_starts / out_rows: per segment, its start within its
            stripe's permuted nonzeros and its output row.
    """

    n_rows: int
    owners: np.ndarray
    nnz_ptr: np.ndarray
    row_ptr: np.ndarray
    chunk_ptr: np.ndarray
    seg_ptr: np.ndarray
    chunk_offsets: np.ndarray
    chunk_sizes: np.ndarray
    fetched_ids: np.ndarray
    packed: np.ndarray
    order: np.ndarray
    seg_starts: np.ndarray
    out_rows: np.ndarray

    def __post_init__(self) -> None:
        #: What :meth:`bind` saw on the stripes: owner list, schedule
        #: objects, and the arrays those schedules held.
        self._bound: Tuple[list, list, list, list] = ([], [], [], [])
        self._valid = False
        self._tiles: Optional[Tuple[int, List[AsyncTile]]] = None

    @property
    def n_stripes(self) -> int:
        return len(self.owners)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, matrix: "AsyncStripeMatrix", col_partition: RowPartition,
        max_gap: int,
    ) -> "RankProgram":
        """Schedule every stripe of a rank in one vectorised pass.

        One coalesce over all row ids (stripe boundaries are forced
        chunk breaks), one ``searchsorted`` mapping nonzeros onto
        fetched rows, one stable sort on ``(stripe, output row)`` —
        the arrays each stripe's ``build_schedule`` /
        ``build_reduce_schedule`` would produce, concatenated, from
        the rank-level arrays of ``matrix``.
        """
        stripes, flat = matrix.stripes, matrix.flat()
        n = len(stripes)
        stripe_ids = np.arange(n)
        owners = np.array([s.owner for s in stripes], dtype=np.int64)
        outside = (owners < 0) | (owners >= col_partition.n_parts)
        if outside.any():
            raise PartitionError(
                f"part {int(owners[outside][0])} out of range "
                f"0..{col_partition.n_parts - 1}"
            )
        block_starts = col_partition.edges()[owners]
        nnz_ptr = flat.nnz_ptr
        nnz_stripe = np.repeat(stripe_ids, np.diff(nnz_ptr))

        # Transfer half.  Keying each id by its stripe makes the keys
        # globally ascending with a gap wider than ``max_gap`` at every
        # stripe boundary, so one coalesce never merges across stripes.
        id_stripe = np.repeat(stripe_ids, np.diff(flat.id_ptr))
        local_ids = flat.row_ids - block_starts[id_stripe]
        if len(local_ids) and local_ids.min() < 0:
            culprit = stripes[int(id_stripe[np.argmin(local_ids)])]
            raise FormatError(
                f"stripe {culprit.gid} requests rows below the owner block"
            )
        span = int(local_ids.max(initial=0)) + max_gap + 1
        keyed_offsets, chunk_sizes = coalesce_row_id_arrays(
            local_ids + id_stripe * span, max_gap=max_gap
        )
        chunk_stripe = keyed_offsets // span
        chunk_offsets = keyed_offsets - chunk_stripe * span
        chunk_ptr = np.searchsorted(chunk_stripe, np.arange(n + 1))
        fetched_ids = expand_chunks(
            chunk_offsets + block_starts[chunk_stripe], chunk_sizes
        )
        row_ptr = _ptr(chunk_sizes)[chunk_ptr]
        rows_of = np.diff(row_ptr)
        cols = flat.cols
        width = max(
            int(fetched_ids.max(initial=0)), int(cols.max(initial=0))
        ) + 1
        packed = np.searchsorted(
            fetched_ids + np.repeat(stripe_ids, rows_of) * width,
            cols + nnz_stripe * width,
        ) - row_ptr[nnz_stripe]
        # Clipped like ``packed_row_indices``: a non-covering stripe
        # must fail the coverage comparison, not the gather.
        np.minimum(
            packed, np.maximum(rows_of - 1, 0)[nnz_stripe], out=packed
        )

        # Reduce half: a stable sort on (stripe, row) is every stripe's
        # own stable sort on row, side by side.
        n_rows = stripes[0].nonzeros.shape[0] if n else 0
        keys = flat.rows + nnz_stripe * n_rows
        perm = np.argsort(keys, kind="stable")
        sorted_keys = keys[perm]
        seg_first = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        ) if len(keys) else np.zeros(0, dtype=np.int64)
        seg_stripe = nnz_stripe[seg_first]
        return cls(
            n_rows=n_rows,
            owners=owners,
            nnz_ptr=nnz_ptr,
            row_ptr=row_ptr,
            chunk_ptr=chunk_ptr,
            seg_ptr=np.searchsorted(seg_stripe, np.arange(n + 1)),
            chunk_offsets=chunk_offsets,
            chunk_sizes=chunk_sizes,
            fetched_ids=fetched_ids,
            packed=packed,
            order=perm - nnz_ptr[nnz_stripe],
            seg_starts=seg_first - nnz_ptr[seg_stripe],
            out_rows=sorted_keys[seg_first] - seg_stripe * n_rows,
        )

    @classmethod
    def from_stripes(cls, stripes: Sequence["AsyncStripe"]) -> "RankProgram":
        """Concatenate the schedules the stripes already carry (plans
        finalised stripe by stripe, or edited after finalisation)."""
        transfers = [s.schedule for s in stripes]
        reduces = [s.reduce_schedule for s in stripes]
        program = cls(
            n_rows=stripes[0].nonzeros.shape[0] if stripes else 0,
            owners=np.array([s.owner for s in stripes], dtype=np.int64),
            nnz_ptr=_ptr([s.nnz for s in stripes]),
            row_ptr=_ptr([len(t.fetched_ids) for t in transfers]),
            chunk_ptr=_ptr([t.n_chunks for t in transfers]),
            seg_ptr=_ptr([r.n_segments for r in reduces]),
            chunk_offsets=_concat([t.chunk_offsets for t in transfers]),
            chunk_sizes=_concat([t.chunk_sizes for t in transfers]),
            fetched_ids=_concat([t.fetched_ids for t in transfers]),
            packed=_concat([t.packed for t in transfers]),
            order=_concat([r.order for r in reduces]),
            seg_starts=_concat([r.seg_starts for r in reduces]),
            out_rows=_concat([r.out_rows for r in reduces]),
        )
        program.bind(stripes)
        return program

    def attach(self, stripes: Sequence["AsyncStripe"]) -> None:
        """Hand every stripe its schedules as views into the program
        (slices only: no array is read)."""
        bounds = zip(
            stripes,
            *(
                zip(ptr[:-1], ptr[1:])
                for ptr in (
                    self.nnz_ptr.tolist(), self.row_ptr.tolist(),
                    self.chunk_ptr.tolist(), self.seg_ptr.tolist(),
                )
            ),
        )
        for stripe, (n0, n1), (r0, r1), (c0, c1), (g0, g1) in bounds:
            stripe.schedule = TransferSchedule(
                self.chunk_offsets[c0:c1], self.chunk_sizes[c0:c1],
                self.fetched_ids[r0:r1], self.packed[n0:n1],
            )
            stripe.reduce_schedule = ReduceSchedule(
                self.order[n0:n1], self.seg_starts[g0:g1],
                self.out_rows[g0:g1],
            )
        self.bind(stripes)

    # ------------------------------------------------------------------
    # Staleness and validation
    # ------------------------------------------------------------------
    @staticmethod
    def _parts(transfers: list, reduces: list) -> list:
        return [
            part
            for t, r in zip(transfers, reduces)
            for part in (
                t.chunk_offsets, t.chunk_sizes, t.fetched_ids, t.packed,
                r.order, r.seg_starts, r.out_rows,
            )
        ]

    def bind(self, stripes: Sequence["AsyncStripe"]) -> None:
        """Remember which stripe state this program describes."""
        transfers = [s.schedule for s in stripes]
        reduces = [s.reduce_schedule for s in stripes]
        self._bound = (
            [s.owner for s in stripes], transfers, reduces,
            self._parts(transfers, reduces),
        )

    def describes(self, stripes: Sequence["AsyncStripe"]) -> bool:
        """Whether ``stripes`` still carry the state :meth:`bind` saw.

        The stripes stay the source of truth — tests and tools replace
        an owner or a schedule on a finished plan — so every execution
        compares owners and schedule *objects* (identity, no array
        work); until the program has been validated once it also
        compares the arrays those schedules hold, which catches an
        edit made through a schedule's attributes.
        """
        owners, transfers, reduces, parts = self._bound
        if len(stripes) != len(owners):
            return False
        now_t = [s.schedule for s in stripes]
        now_r = [s.reduce_schedule for s in stripes]
        return (
            [s.owner for s in stripes] == owners
            and all(map(is_, now_t, transfers))
            and all(map(is_, now_r, reduces))
            and (self._valid
                 or all(map(is_, self._parts(now_t, now_r), parts)))
        )

    def validate(self, matrix: "AsyncStripeMatrix") -> None:
        """Check, once, that the program can run ``matrix`` on its rank.

        Raises:
            PartitionError: a stripe owned by the rank itself, chunks
                that disagree with the fetched-row list, or fetched
                rows that do not cover a stripe's column ids (the
                packed map is clipped, so non-coverage shows up as a
                value mismatch here, never an ``IndexError`` in the
                gather).
        """
        if self._valid:
            return
        rank, stripes = matrix.rank, matrix.stripes
        local = np.flatnonzero(self.owners == rank)
        if len(local):
            raise PartitionError(
                f"stripe {stripes[int(local[0])].gid} is local to rank "
                f"{rank} but was classified asynchronous"
            )
        rows_of = np.diff(self.row_ptr)
        stripe_of = np.repeat(
            np.arange(self.n_stripes), np.diff(self.nnz_ptr)
        )
        inside = self.packed < rows_of[stripe_of]
        covered = np.zeros(len(inside), dtype=bool)
        if len(self.fetched_ids):
            at = np.where(inside, self.row_ptr[stripe_of] + self.packed, 0)
            covered = inside & (self.fetched_ids[at] == matrix.flat().cols)
        bad = stripe_of[~covered]
        if not len(bad):
            bad = np.flatnonzero(
                np.diff(_ptr(self.chunk_sizes)[self.chunk_ptr]) != rows_of
            )
        if len(bad):
            raise PartitionError(
                f"stripe {stripes[int(bad[0])].gid}: fetched rows do not "
                "cover the stripe's c_ids"
            )
        self._valid = True

    # ------------------------------------------------------------------
    # Requests: the stripes that actually fetch something
    # ------------------------------------------------------------------
    @cached_property
    def req_stripes(self) -> np.ndarray:
        """Stripes with at least one chunk.  A stripe with nothing to
        fetch (and, being covered, nothing to compute) issues no
        request: no bytes, no seconds, no event — on every plane."""
        return np.flatnonzero(np.diff(self.chunk_ptr))

    @cached_property
    def req_ptr(self) -> np.ndarray:
        """Chunk boundaries of the requests."""
        return np.append(
            self.chunk_ptr[self.req_stripes], len(self.chunk_offsets)
        )

    @cached_property
    def req_owners(self) -> np.ndarray:
        return self.owners[self.req_stripes]

    @cached_property
    def req_rows(self) -> np.ndarray:
        """Dense rows each request fetches."""
        return np.diff(self.row_ptr)[self.req_stripes]

    @cached_property
    def req_chunks(self) -> np.ndarray:
        return np.diff(self.req_ptr)

    @cached_property
    def req_nnz(self) -> np.ndarray:
        return np.diff(self.nnz_ptr)[self.req_stripes]

    # ------------------------------------------------------------------
    # Execution geometry
    # ------------------------------------------------------------------
    @cached_property
    def chunk_starts(self) -> np.ndarray:
        """Global ``B`` row each chunk starts at."""
        return self.fetched_ids[_ptr(self.chunk_sizes)[:-1]]

    @cached_property
    def perm(self) -> np.ndarray:
        """Reduction order of the rank's concatenated nonzeros."""
        return self.order + np.repeat(
            self.nnz_ptr[:-1], np.diff(self.nnz_ptr)
        )

    def tiles(self, row_bytes: int) -> List[AsyncTile]:
        """The program cut into tiles for dense rows of ``row_bytes``.

        Greedy over consecutive stripes: a tile closes before the
        stripe that would push its fetched rows plus segments past
        :data:`_TILE_SCRATCH_BYTES`.  Pure geometry, built once per
        row width.
        """
        budget = max(1, _TILE_SCRATCH_BYTES // max(1, row_bytes))
        if self._tiles is None or self._tiles[0] != budget:
            self._tiles = (budget, self._cut(budget))
        return self._tiles[1]

    def _cut(self, budget: int) -> List[AsyncTile]:
        n = self.n_stripes
        used = self.row_ptr + self.seg_ptr  # scratch rows before stripe s
        # Rank-wide level-1 geometry; tiles re-base slices of it.
        counts = np.diff(self.nnz_ptr)
        gather = (self.packed + np.repeat(self.row_ptr[:-1], counts))[
            self.perm
        ]
        seg_at = self.seg_starts + np.repeat(
            self.nnz_ptr[:-1], np.diff(self.seg_ptr)
        )
        live = np.diff(self.chunk_ptr) > 0
        req_before = _ptr(live)
        tiles: List[AsyncTile] = []
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(used, used[lo] + budget, side="right"))
            hi = min(max(hi - 1, lo + 1), n)
            n0, n1 = int(self.nnz_ptr[lo]), int(self.nnz_ptr[hi])
            r0, r1 = int(self.row_ptr[lo]), int(self.row_ptr[hi])
            g0, g1 = int(self.seg_ptr[lo]), int(self.seg_ptr[hi])
            out_rows = self.out_rows[g0:g1]
            tiles.append(AsyncTile(
                stripes=slice(lo, hi),
                requests=slice(int(req_before[lo]), int(req_before[hi])),
                chunks=slice(
                    int(self.chunk_ptr[lo]), int(self.chunk_ptr[hi])
                ),
                rows=slice(r0, r1),
                nnz=slice(n0, n1),
                gather=gather[n0:n1] - r0,
                seg_ptrs=np.append(seg_at[g0:g1], n1) - n0,
                fold=(
                    _ptr(np.bincount(out_rows, minlength=self.n_rows)),
                    np.argsort(out_rows, kind="stable"),
                    np.ones(g1 - g0),
                ),
            ))
            lo = hi
        return tiles


class RankArrays(NamedTuple):
    """A rank's async stripes, concatenated (Fig. 6c): the nonzeros and
    the sorted unique column ids, each with its stripe pointers."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_ids: np.ndarray
    nnz_ptr: np.ndarray
    id_ptr: np.ndarray


@dataclass
class AsyncStripeMatrix:
    """All asynchronous stripes of one rank (Fig. 6c).

    Stripes are kept in ascending gid (row-major stripe order, matching
    the paper's layout choice for easy runtime distribution); those
    of a planned or loaded matrix are views of its rank-level arrays.
    """

    rank: int
    stripes: List[AsyncStripe]
    #: The stripes' schedules as one batched program; built with them,
    #: rebuilt when a stripe's owner or schedules were replaced since.
    _program: Optional[RankProgram] = field(
        default=None, repr=False, compare=False
    )
    #: :meth:`flat` memo ``(stripes' nonzeros, stripes' row_ids,
    #: arrays)``, keyed on the *identity* of those per-stripe objects:
    #: value-remapped plan clones (the attention layer) shallow-copy
    #: this matrix but carry fresh nonzeros.
    _flat: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: :meth:`values` memo ``(program, flat values, in reduction order)``.
    _values: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        gids = [s.gid for s in self.stripes]
        if gids != sorted(gids):
            raise FormatError("async stripes must be in ascending gid order")
        if len(set(gids)) != len(gids):
            raise FormatError("duplicate async stripe gid")

    @classmethod
    def from_arrays(
        cls, rank: int, gids: np.ndarray, owners: np.ndarray,
        nnz_ptr: np.ndarray, rows: np.ndarray, cols: np.ndarray,
        vals: np.ndarray, shape: Tuple[int, int],
    ) -> "AsyncStripeMatrix":
        """The matrix over rank-level arrays, its stripes cut as views.

        The one constructor behind the planner and ``load_plan``.  The
        array work is done once for the rank (``row_ids`` are the first
        occurrences of a column within its stripe); the loop over
        stripes only slices.

        Args:
            gids / owners: ascending stripe ids and their owner ranks.
            nnz_ptr: stripe ``i`` holds nonzeros ``nnz_ptr[i]:nnz_ptr[i+1]``
                of ``rows`` / ``cols`` / ``vals``, which must be in
                ascending (column, row) order within each stripe.
            shape: shape of the rank's slab.
        """
        stripe_of = np.repeat(np.arange(len(gids)), np.diff(nnz_ptr))
        inside = stripe_of[1:] == stripe_of[:-1]
        step = np.diff(cols)
        descending = inside & (step < 0)
        if descending.any():
            culprit = stripe_of[1:][descending][0]
            raise FormatError(
                f"stripe {int(gids[culprit])} is not in column-major order"
            )
        first = np.ones(len(cols), dtype=bool)
        first[1:] = ~inside | (step > 0)
        row_ids, id_ptr = cols[first], _ptr(first)[nnz_ptr]
        matrix = cls(rank, [
            AsyncStripe(
                gid, owner,
                COOMatrix.view(rows[n0:n1], cols[n0:n1], vals[n0:n1], shape),
                row_ids[i0:i1],
            )
            for gid, owner, n0, n1, i0, i1 in zip(
                gids.tolist(), owners.tolist(),
                nnz_ptr[:-1].tolist(), nnz_ptr[1:].tolist(),
                id_ptr[:-1].tolist(), id_ptr[1:].tolist(),
            )
        ])
        matrix._flat = (
            [s.nonzeros for s in matrix.stripes],
            [s.row_ids for s in matrix.stripes],
            RankArrays(rows, cols, vals, row_ids, nnz_ptr, id_ptr),
        )
        return matrix

    def flat(self) -> RankArrays:
        """The stripes' arrays in stripe order: the ones
        :meth:`from_arrays` was given, else (hand-assembled or edited
        stripes) concatenated once."""
        nonzeros = [s.nonzeros for s in self.stripes]
        row_ids = [s.row_ids for s in self.stripes]
        memo = self._flat
        if (
            memo is None
            or len(memo[0]) != len(nonzeros)
            or not all(map(is_, nonzeros, memo[0]))
            or not all(map(is_, row_ids, memo[1]))
        ):
            memo = self._flat = (nonzeros, row_ids, RankArrays(
                _concat([nz.rows for nz in nonzeros]),
                _concat([nz.cols for nz in nonzeros]),
                _concat([nz.vals for nz in nonzeros], np.float64),
                _concat(row_ids),
                _ptr([nz.nnz for nz in nonzeros]),
                _ptr([len(ids) for ids in row_ids]),
            ))
        return memo[2]

    @property
    def n_stripes(self) -> int:
        return len(self.stripes)

    @property
    def nnz(self) -> int:
        return sum(s.nnz for s in self.stripes)

    @property
    def total_rows_needed(self) -> int:
        """The model's ``L_A`` for this rank."""
        return sum(s.rows_needed for s in self.stripes)

    def stripe_pointers(self) -> np.ndarray:
        """Offsets of each stripe in the concatenated nonzero arrays.

        This is the *Asynchronous Stripe Pointers* array of Fig. 6c.
        """
        return self.flat().nnz_ptr

    def nbytes(self) -> int:
        return sum(s.nonzeros.nbytes() + s.row_ids.nbytes for s in self.stripes)

    @property
    def finalized(self) -> bool:
        """True when every stripe carries both cached schedules."""
        return all(
            s.schedule is not None and s.reduce_schedule is not None
            for s in self.stripes
        )

    def finalize_schedules(
        self, col_partition: RowPartition, max_gap: int
    ) -> None:
        """Precompute every stripe's transfer + reduce schedule
        (idempotent).

        A rank none of whose stripes is scheduled yet — every freshly
        built plan — gets its :class:`RankProgram` in one vectorised
        pass, the stripes' schedules being views into it.  Otherwise
        (older containers, hand-assembled plans) only the missing
        schedules are built, stripe by stripe, and :meth:`program`
        concatenates them on first use.

        Args:
            col_partition: partition of ``B``'s rows over the owners.
            max_gap: K-derived coalescing distance (``127 // K + 1``).
        """
        if self.stripes and all(
            s.schedule is None and s.reduce_schedule is None
            for s in self.stripes
        ):
            self.adopt_program(
                RankProgram.build(self, col_partition, max_gap)
            )
            return
        for stripe in self.stripes:
            if stripe.schedule is None:
                stripe.schedule = stripe.build_schedule(
                    col_partition.bounds(stripe.owner)[0], max_gap
                )
            stripe.ensure_reduce_schedule()

    def adopt_program(self, program: RankProgram) -> None:
        """Install ``program`` and hand the stripes their views of it."""
        program.attach(self.stripes)
        self._program = program

    def program(self) -> RankProgram:
        """The rank program of a finalised matrix, current with its
        stripes."""
        program = self._program
        if program is None or not program.describes(self.stripes):
            program = self._program = RankProgram.from_stripes(self.stripes)
        return program

    def ensure_program(
        self,
        col_partition: RowPartition,
        max_gap: int,
        stats: Optional[TransferCacheStats] = None,
    ) -> RankProgram:
        """The validated program, scheduling whatever is still missing.

        Args:
            stats: counter sink for per-stripe schedule ``hits`` /
                ``recomputes``; defaults to the process-global
                :data:`TRANSFER_CACHE`.  Pooled rank bodies pass a
                local record instead (the global counters are not safe
                to mutate concurrently) and the executor folds the
                records back in rank order.
        """
        sink = TRANSFER_CACHE if stats is None else stats
        missing = 0
        program = self._program
        if program is None or not program.describes(self.stripes):
            missing = sum(s.schedule is None for s in self.stripes)
            self.finalize_schedules(col_partition, max_gap)
            program = self.program()
        sink.recomputes += missing
        sink.hits += len(self.stripes) - missing
        program.validate(self)
        return program

    def values(
        self,
        program: RankProgram,
        keep: Optional[np.ndarray] = None,
        reduction_order: bool = True,
    ) -> np.ndarray:
        """The rank's nonzero values, stripes concatenated.

        Args:
            keep: optional per-nonzero sampling mask (storage order);
                masked values are per-iteration data and computed
                fresh, unmasked ones are memoised.
            reduction_order: permute into ``program``'s reduction
                order (what the segmented kernel consumes) instead of
                the stripes' storage order.
        """
        flat = self.flat().vals
        memo = self._values
        if memo is None or memo[0] is not program or memo[1] is not flat:
            memo = self._values = (program, flat, flat[program.perm])
        if keep is None:
            return memo[2] if reduction_order else memo[1]
        masked = flat * keep
        return masked[program.perm] if reduction_order else masked


def build_sync_local_matrix(
    rank: int,
    slab: COOMatrix,
    selection: np.ndarray,
    panel_height: int,
) -> SyncLocalMatrix:
    """Assemble the sync/local-input matrix from selected nonzeros.

    Args:
        rank: owning node.
        slab: the rank's full slab (local rows, global cols).
        selection: indices into the slab's nonzero arrays, or a boolean
            mask over them (the planner's: it keeps the slab's order,
            so a row-major slab reaches CSR without a sort).
        panel_height: row-panel height.
    """
    return SyncLocalMatrix(
        rank, CSRMatrix.from_coo(slab.select(selection)), panel_height
    )


def build_async_stripe_matrix(
    rank: int,
    slab: COOMatrix,
    stats: RankStripeStats,
    async_mask: np.ndarray,
) -> AsyncStripeMatrix:
    """Assemble the async matrix: ``stats.nnz_order`` — stripe by
    stripe, column-major within each — restricted to the stripes
    flagged in ``async_mask``.  Three gathers, no sort.

    Args:
        rank: owning node.
        slab: the rank's full slab.
        stats: ``compute_rank_stripe_stats`` of ``slab``.
        async_mask: aligned with ``stats.gids``; True = asynchronous.
    """
    picked = stats.nnz_order[np.repeat(async_mask, stats.nnz)]
    return AsyncStripeMatrix.from_arrays(
        rank, stats.gids[async_mask], stats.owners[async_mask],
        _ptr(stats.nnz[async_mask]),
        slab.rows[picked], slab.cols[picked], slab.vals[picked], slab.shape,
    )
