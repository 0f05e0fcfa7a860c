"""Local SpMM kernels and transfer-coalescing helpers.

Two kernels mirror the two compute styles in the paper:

* :func:`spmm_row_panels` — row-major, thread-local output buffering, one
  accumulation ("atomic") per completed output row (Algorithm 2).
* :func:`spmm_column_major` — column-major traversal with one accumulation
  per nonzero (Algorithm 3); cheap to derive required dense rows from,
  expensive to compute with.

The kernels produce numerically correct results using vectorised numpy /
scipy paths, and return :class:`KernelStats` describing the operation
counts the *modelled* execution would have performed (multiply-accumulates
and synchronised accumulations into shared ``C``), which the runtime layer
turns into simulated time.

Host-side, the per-nonzero accumulation has two implementations selected
by the ``REPRO_SCATTER`` environment variable:

* ``segmented`` (default) — view the scatter as a tiny CSR matmul:
  the stable sort permutation of the output rows gives one CSR row
  per distinct output row (``indptr`` = segment starts, ``indices`` =
  the permutation, ``data`` = the permuted values), so scipy's
  ``csr_matvecs`` C kernel reduces every segment straight out of the
  fetched dense rows and each output row lands with a single
  fancy-indexed ``+=`` (:func:`scatter_add_segmented`).  The geometry
  is pure plan-time data, so the executor caches it on the plan (the
  ``ReduceSchedule`` views of a rank program) and reduces a whole
  tile of stripes per call — a second, unit-weight ``csr_matvecs``
  (``fold``) then lands the segment sums in stripe order — so
  steady-state executions do no index work, and, unlike
  ``np.add.reduceat``, the reduction runs at memory bandwidth
  instead of per-segment ufunc dispatch.
* ``atomic`` — the original ``np.add.at`` formulation
  (:func:`scatter_add`), kept as the pinned numerical reference.

Both orders sum the same addends per output row, so results agree to
``allclose`` (≤1e-12 relative) but not bitwise; every *modelled* count —
and therefore simulated seconds, traffic, and the event log — is
identical under either knob value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ShapeError
from .coo import COOMatrix, sorted_distinct
from .csr import CSRMatrix

try:  # scipy's C segment-sum kernel (Yx += A @ Xx, fixed index order)
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - older scipy layouts
    _csr_matvecs = None

# Cap scratch memory of vectorised scatter-adds (elements per chunk).
_SCATTER_CHUNK_ELEMS = 1 << 22

#: Environment variable selecting the host-side scatter kernel.
SCATTER_ENV = "REPRO_SCATTER"

#: Knob values: segmented reduction (default) vs the ``np.add.at``
#: reference path.
SCATTER_SEGMENTED = "segmented"
SCATTER_ATOMIC = "atomic"


def scatter_mode() -> str:
    """The configured scatter kernel (re-read from the env per call).

    Raises:
        ConfigurationError: on a value other than ``segmented``/``atomic``.
    """
    raw = os.environ.get(SCATTER_ENV, "").strip().lower()
    if not raw:
        return SCATTER_SEGMENTED
    if raw not in (SCATTER_SEGMENTED, SCATTER_ATOMIC):
        raise ConfigurationError(
            f"{SCATTER_ENV} must be '{SCATTER_SEGMENTED}' or "
            f"'{SCATTER_ATOMIC}', got {raw!r}"
        )
    return raw


@dataclass
class ScatterStats:
    """Counters for the compute hot path's kernels and caches.

    Attributes:
        segmented_calls: scatter invocations served by the segmented-
            reduction kernel.
        atomic_calls: scatter invocations served by the ``np.add.at``
            reference kernel.
        sync_csr_hits: sync-lane executions that reused a memoised
            scipy CSR handle.
        sync_csr_builds: sync-lane executions that built the handle
            (once per :class:`~repro.core.formats.SyncLocalMatrix`).
    """

    segmented_calls: int = 0
    atomic_calls: int = 0
    sync_csr_hits: int = 0
    sync_csr_builds: int = 0

    def reset(self) -> None:
        self.segmented_calls = 0
        self.atomic_calls = 0
        self.sync_csr_hits = 0
        self.sync_csr_builds = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (
            self.segmented_calls,
            self.atomic_calls,
            self.sync_csr_hits,
            self.sync_csr_builds,
        )

    def merge_from(self, other: "ScatterStats") -> None:
        """Fold another record in (rank-order folding of pooled bodies)."""
        self.segmented_calls += other.segmented_calls
        self.atomic_calls += other.atomic_calls
        self.sync_csr_hits += other.sync_csr_hits
        self.sync_csr_builds += other.sync_csr_builds


#: Process-global counters; pooled rank bodies fill local records that
#: the executor folds back in rank order, direct kernel calls count here.
SCATTER_STATS = ScatterStats()


def scatter_stats() -> ScatterStats:
    """The process-global scatter/sync-CSR counters."""
    return SCATTER_STATS


def reset_scatter_stats() -> None:
    """Zero the process-global counters (test/bench hygiene)."""
    SCATTER_STATS.reset()


@dataclass
class KernelStats:
    """Operation counts from a local SpMM kernel invocation.

    Attributes:
        nnz_processed: multiply-accumulate count (one per sparse nonzero).
        atomic_ops: synchronised accumulations into the shared output
            ``C`` the modelled execution performs.
        rows_written: distinct output rows touched.
    """

    nnz_processed: int = 0
    atomic_ops: int = 0
    rows_written: int = 0

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Return the element-wise sum of two stat records."""
        return KernelStats(
            self.nnz_processed + other.nnz_processed,
            self.atomic_ops + other.atomic_ops,
            self.rows_written + other.rows_written,
        )


def _check_dims(shape: Tuple[int, int], B: np.ndarray, C: np.ndarray) -> None:
    if B.ndim != 2 or C.ndim != 2:
        raise ShapeError("B and C must be 2-D")
    if shape[1] != B.shape[0]:
        raise ShapeError(f"A has {shape[1]} cols but B has {B.shape[0]} rows")
    if shape[0] != C.shape[0]:
        raise ShapeError(f"A has {shape[0]} rows but C has {C.shape[0]} rows")
    if B.shape[1] != C.shape[1]:
        raise ShapeError(
            f"B has {B.shape[1]} cols but C has {C.shape[1]} cols"
        )


def scatter_add(
    C: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    B_rows: np.ndarray,
    arena=None,
    stats: Optional[ScatterStats] = None,
) -> None:
    """``C[rows[i]] += vals[i] * B_rows[i]`` in memory-bounded chunks.

    This is the ``np.add.at`` ("atomic") formulation — the pinned
    numerical reference the segmented kernel is property-tested
    against.  Accumulation follows the input order.

    Args:
        arena: optional scratch provider with a
            ``request(slot, n_rows, n_cols)`` method (a
            :class:`repro.cluster.buffers.FetchArena`); the per-chunk
            ``vals * B_rows`` product is then written into reused
            arena storage instead of a fresh allocation per chunk.
            Numerics are unchanged either way.
        stats: counter sink; defaults to the process-global
            :data:`SCATTER_STATS`.
    """
    sink = SCATTER_STATS if stats is None else stats
    sink.atomic_calls += 1
    k = max(1, C.shape[1])
    chunk = max(1, _SCATTER_CHUNK_ELEMS // k)
    for lo in range(0, len(rows), chunk):
        hi = min(lo + chunk, len(rows))
        if arena is None:
            contrib = vals[lo:hi, None] * B_rows[lo:hi]
        else:
            contrib = arena.request("scatter", hi - lo, C.shape[1])
            np.multiply(vals[lo:hi, None], B_rows[lo:hi], out=contrib)
        np.add.at(C, rows[lo:hi], contrib)


def build_reduce_order(
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segmented-reduction geometry of an output-row array.

    Pure plan-time geometry: depends only on ``rows``, so the executor
    computes it once per stripe and caches it (a ``ReduceSchedule``).

    Args:
        rows: per-nonzero output-row ids (any order, duplicates fine).

    Returns:
        ``(order, seg_starts, out_rows)`` — the *stable* sort
        permutation grouping equal rows while preserving their input
        order, the segment start offsets into the permuted arrays, and
        the unique output-row id of each segment.
    """
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable").astype(np.int64)
    if len(rows) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return order, empty, empty.copy()
    sorted_rows = rows[order]
    seg_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_rows)) + 1]
    ).astype(np.int64)
    return order, seg_starts, sorted_rows[seg_starts]


def segmented_reduce_into(
    C: np.ndarray,
    source: np.ndarray,
    cols: np.ndarray,
    vals_perm: np.ndarray,
    seg_ptrs: np.ndarray,
    out_rows: Optional[np.ndarray],
    arena=None,
    stats: Optional[ScatterStats] = None,
    fold: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> None:
    """``C[out_rows] += S @ source`` for a plan-resident CSR geometry.

    ``S`` is the segment-sum matrix of :func:`build_reduce_order`:
    row ``i`` covers ``cols[seg_ptrs[i]:seg_ptrs[i + 1]]`` of ``source``
    weighted by the matching slice of ``vals_perm``, so one
    ``csr_matvecs`` call reduces every segment straight out of the
    (fetched) dense rows and each output row lands with a single
    fancy-indexed ``+=``.  The kernel accumulates in ascending index
    order, which the stable permutation pins to the nonzeros' input
    order within each segment — results are byte-reproducible across
    repeated runs and worker widths.

    Args:
        C: dense output, accumulated in place.
        source: dense rows the segments draw from (``B_rows`` or a
            packed fetch buffer), shape ``(n_source, K)``.
        cols: per-nonzero source-row index in reduction order (the
            permutation itself, or ``packed[order]`` on the fetched
            path); int64, like ``seg_ptrs``.
        vals_perm: the nonzero values permuted into reduction order
            (contiguous float64, like ``source``).
        seg_ptrs: CSR-style segment boundaries into ``cols``, one more
            than the segments (``seg_starts`` + ``[nnz]``, a CSR
            ``indptr``, or a window of either: offsets are absolute
            and empty segments add 0.0).
        out_rows: the unique output-row id of each segment, or
            ``slice(None)`` when segment ``i`` is row ``i`` (ignored
            when ``fold`` is given).
        arena: optional scratch provider; the per-segment sums then
            land in the reused ``"scatter"`` slot (zero allocations).
        stats: counter sink; defaults to :data:`SCATTER_STATS`.
        fold: ``(row_ptrs, seg_ids, ones)`` — a unit-weight CSR over
            *all* rows of ``C`` whose row ``r`` lists the segments that
            land on output row ``r``.  Needed when several segments
            share an output row (the segments of many stripes reduced
            in one call): a second ``csr_matvecs`` adds the segment
            sums to each row in ``seg_ids`` order, which is exactly the
            sequence of ``+=`` that one call per stripe would perform
            (``1.0 * x`` is exact), so ``C`` comes out bit-identical.
            ``C`` must be C-contiguous.

    This is the async lane's hot path: arguments are consumed as-is
    (no dtype/contiguity coercion) — the plan-resident caches and
    :func:`scatter_add_segmented` hand over conforming arrays.
    """
    sink = SCATTER_STATS if stats is None else stats
    sink.segmented_calls += 1
    n_seg = len(seg_ptrs) - 1
    if n_seg <= 0 or C.shape[1] == 0:
        return
    k = C.shape[1]
    if arena is None:
        reduced = np.zeros((n_seg, k), dtype=np.float64)
    else:
        reduced = arena.request("scatter", n_seg, k)
        reduced[:] = 0.0
    if _csr_matvecs is not None:
        _csr_matvecs(
            n_seg, source.shape[0], k,
            seg_ptrs, cols, vals_perm, source, reduced,
        )
    else:  # scipy without the private kernel
        # seg_ptrs may be a window into longer cols/vals_perm (absolute
        # offsets) and may repeat (empty segments, which stay 0.0).
        lo, hi = int(seg_ptrs[0]), int(seg_ptrs[-1])
        contrib = vals_perm[lo:hi, None] * source[cols[lo:hi]]
        full = np.flatnonzero(seg_ptrs[1:] > seg_ptrs[:-1])
        if len(full):
            reduced[full] = np.add.reduceat(
                contrib, seg_ptrs[full] - lo, axis=0
            )
    if fold is None:
        C[out_rows] += reduced
    elif _csr_matvecs is not None and C.flags.c_contiguous:
        row_ptrs, seg_ids, ones = fold
        _csr_matvecs(C.shape[0], n_seg, k, row_ptrs, seg_ids, ones,
                     reduced, C)
    else:  # pragma: no cover - scipy without the private kernel
        row_ptrs, seg_ids, _ones = fold
        rows = np.repeat(np.arange(C.shape[0]), np.diff(row_ptrs))
        np.add.at(C, rows, reduced[seg_ids])


def scatter_add_segmented(
    C: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    B_rows: np.ndarray,
    order: Optional[np.ndarray] = None,
    seg_starts: Optional[np.ndarray] = None,
    out_rows: Optional[np.ndarray] = None,
    arena=None,
    stats: Optional[ScatterStats] = None,
) -> None:
    """Segmented-reduction equivalent of :func:`scatter_add`.

    Per output row the same addends are summed, in sorted-segment order
    instead of input order, so the result is ``allclose`` to the atomic
    path (and bitwise-reproducible across repeated runs: the stable
    permutation fixes the summation order).

    Args:
        order / seg_starts / out_rows: a precomputed
            :func:`build_reduce_order` of ``rows``; derived on the fly
            when omitted (one-shot callers).
        arena: optional scratch provider; the permuted values and the
            segment sums then reuse the ``"scatter_perm"`` and
            ``"scatter"`` slots.
        stats: counter sink; defaults to :data:`SCATTER_STATS`.
    """
    if len(rows) == 0:
        sink = SCATTER_STATS if stats is None else stats
        sink.segmented_calls += 1
        return
    if order is None or seg_starts is None or out_rows is None:
        order, seg_starts, out_rows = build_reduce_order(rows)
    else:
        order = np.asarray(order, dtype=np.int64)
        seg_starts = np.asarray(seg_starts, dtype=np.int64)
    seg_ptrs = np.concatenate([seg_starts, [len(rows)]]).astype(
        np.int64, copy=False
    )
    source = np.ascontiguousarray(B_rows, dtype=np.float64)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    if arena is None:
        vals_perm = vals[order]
    else:
        vals_perm = arena.request(
            "scatter_perm", len(order), 1, vals.dtype
        )[:, 0]
        np.take(vals, order, out=vals_perm)
    segmented_reduce_into(
        C, source, order, vals_perm, seg_ptrs, out_rows,
        arena=arena, stats=stats,
    )


def scatter_add_auto(
    C: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    B_rows: np.ndarray,
    arena=None,
    stats: Optional[ScatterStats] = None,
) -> None:
    """Dispatch to the ``REPRO_SCATTER``-selected scatter kernel."""
    if scatter_mode() == SCATTER_SEGMENTED:
        scatter_add_segmented(C, rows, vals, B_rows, arena=arena, stats=stats)
    else:
        scatter_add(C, rows, vals, B_rows, arena=arena, stats=stats)


def spmm_reference(A: COOMatrix, B: np.ndarray) -> np.ndarray:
    """Scatter-add reference ``C = A @ B`` used as the test oracle.

    Routes through the ``REPRO_SCATTER``-selected kernel; both knob
    values produce ``allclose``-identical results (the oracle is always
    compared with tolerance).
    """
    B = np.asarray(B, dtype=np.float64)
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.float64)
    _check_dims(A.shape, B, C)
    scatter_add_auto(C, A.rows, A.vals, B[A.cols])
    return C


def csr_product_into(
    C: np.ndarray, csr, B: np.ndarray, fresh: bool, arena=None
) -> None:
    """``C += csr @ B``, bit for bit scipy's, without its temporary.

    Every row is summed left to right in storage order onto zero and
    lands in ``C`` with a single accumulation.  How ``C`` is touched
    decides the cost when the dense side dwarfs the sparse one:

    * ``fresh`` — nothing has accumulated into ``C`` yet (its contents
      are zero or to be discarded): ``C`` is zero-filled and the rows
      are summed straight into it.  ``0.0 + x`` is exact, so the bytes
      are those of ``C += csr @ B``; a never-touched block (``np.zeros``
      pages) faults once per page, on a write, instead of twice (a read
      mapping the zero page, then the copy-on-write store).
    * otherwise the rows are summed in ``arena`` scratch and added once
      (every row is a segment of :func:`segmented_reduce_into`; empty
      ones add 0.0 — compressing to the nonempty rows measured 20-30 %
      slower on the suite's slabs, where 89-100 % of rows are nonempty).

    Args:
        csr: anything with CSR ``indptr`` / ``indices`` / ``data`` over
            ``C``'s rows (a :class:`CSRMatrix` or a scipy handle).
        fresh: derived by the caller from who has written to ``C`` —
            never a setting.
    """
    if fresh:
        C[:] = 0.0
        if _csr_matvecs is not None and C.flags.c_contiguous:
            _csr_matvecs(
                C.shape[0], B.shape[0], C.shape[1],
                csr.indptr, csr.indices, csr.data, B, C,
            )
            return
    segmented_reduce_into(
        C, B, csr.indices, csr.data, csr.indptr, slice(None),
        arena=arena, stats=ScatterStats(),  # a product, not a scatter
    )


def spmm_row_panels(
    A: CSRMatrix,
    B: np.ndarray,
    C: np.ndarray,
    panel_height: int = 32,
    arena=None,
    fresh: bool = False,
) -> KernelStats:
    """Row-panel SpMM: accumulate ``A @ B`` into ``C`` (Algorithm 2).

    In the modelled execution each output row is assembled in a
    thread-local buffer and flushed into ``C`` with a single accumulation,
    so ``atomic_ops`` equals the number of *nonempty* output rows, not the
    number of nonzeros.  The numerics do the same
    (:func:`csr_product_into`).

    Args:
        A: the sparse operand in CSR.
        B: dense input, shape ``(A.n_cols, K)``.
        C: dense output to accumulate into, shape ``(A.n_rows, K)``.
        panel_height: rows per work unit; affects work division in the
            runtime model, not numerical results.
        arena: optional scratch provider for the row sums.
        fresh: the caller allocated ``C`` and nothing has accumulated
            into it, so it may be overwritten instead of added to.

    Returns:
        Operation counts for the timing model.
    """
    if panel_height <= 0:
        raise ShapeError(f"panel height must be positive: {panel_height}")
    B = np.ascontiguousarray(B, dtype=np.float64)
    _check_dims(A.shape, B, C)
    if A.nnz or fresh:
        csr_product_into(C, A, B, fresh, arena)
    nonempty = int(np.count_nonzero(np.diff(A.indptr)))
    return KernelStats(
        nnz_processed=A.nnz, atomic_ops=nonempty, rows_written=nonempty
    )


def spmm_column_major(
    A: COOMatrix,
    B_rows: np.ndarray,
    row_map: np.ndarray,
    C: np.ndarray,
) -> KernelStats:
    """Column-major SpMM over fetched dense rows (Algorithm 3).

    The asynchronous path fetches only the dense rows it needs; ``B_rows``
    holds them packed, and ``row_map[c]`` gives the packed position of
    global dense row ``c`` (entries for unfetched rows are negative).

    Every nonzero costs one modelled accumulation into ``C``
    (``atomic_ops == nnz``) because column-major order defeats output-row
    buffering.

    Args:
        A: asynchronous nonzeros (column-major order is conventional but
            not required for correctness).
        B_rows: packed dense rows, shape ``(n_fetched, K)``.
        row_map: global dense-row id -> packed index.
        C: dense output accumulated in place, shape ``(A.n_rows, K)``.

    Returns:
        Operation counts for the timing model.
    """
    if A.nnz == 0:
        return KernelStats()
    if C.shape[0] != A.shape[0] or C.shape[1] != B_rows.shape[1]:
        raise ShapeError(
            f"C shape {C.shape} incompatible with A rows {A.shape[0]} "
            f"and K={B_rows.shape[1]}"
        )
    packed = row_map[A.cols]
    if np.any(packed < 0):
        missing = A.cols[packed < 0][:5]
        raise ShapeError(f"dense rows not fetched for columns {list(missing)}")
    scatter_add_auto(C, A.rows, A.vals, B_rows[packed])
    return KernelStats(
        nnz_processed=A.nnz,
        atomic_ops=A.nnz,
        rows_written=len(sorted_distinct(A.rows.copy())),
    )


def unique_col_ids(A: COOMatrix) -> np.ndarray:
    """Sorted unique column ids of ``A``'s nonzeros (``UniqueColIDs``)."""
    return sorted_distinct(A.cols.copy())


def coalesce_row_ids(
    row_ids: np.ndarray, max_gap: int = 1
) -> List[Tuple[int, int]]:
    """Group sorted row ids into ``(offset, size)`` transfer chunks.

    Reproduces the ``GetRemoteRows`` coalescing of §5.2.3: adjacent rows
    are merged, and rows separated by fewer than ``max_gap`` unused rows
    are also merged, trading useless bytes for fewer messages.  With the
    paper's example rows ``{2, 3, 6, 8}``:

    * ``max_gap=1`` -> ``[(2, 2), (6, 1), (8, 1)]``
    * ``max_gap=2`` -> ``[(2, 2), (6, 3)]`` (row 7 fetched needlessly)

    Args:
        row_ids: sorted, unique, non-negative row indices.
        max_gap: merge runs whose start is within ``max_gap`` of the
            previous run's end (1 = only truly adjacent rows).

    Returns:
        List of ``(first_row, row_count)`` chunks covering every input id.
    """
    offsets, sizes = coalesce_row_id_arrays(row_ids, max_gap=max_gap)
    return list(zip(offsets.tolist(), sizes.tolist()))


def coalesce_row_id_arrays(
    row_ids: np.ndarray, max_gap: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised coalescing returning ``(offsets, sizes)`` arrays.

    Same semantics as :func:`coalesce_row_ids` in a run-length
    formulation: a chunk boundary falls wherever consecutive ids are
    separated by ``max_gap`` or more unused rows, i.e. where
    ``diff > max_gap``.
    """
    if max_gap < 1:
        raise ShapeError(f"max_gap must be >= 1, got {max_gap}")
    ids = np.asarray(row_ids, dtype=np.int64)
    if len(ids) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    diffs = np.diff(ids)
    if np.any(diffs <= 0):
        raise ShapeError("row_ids must be sorted and unique")
    breaks = np.flatnonzero(diffs > max_gap)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(ids) - 1]])
    offsets = ids[starts]
    sizes = ids[ends] - offsets + 1
    return offsets, sizes


def _coalesce_row_ids_reference(
    row_ids: np.ndarray, max_gap: int = 1
) -> List[Tuple[int, int]]:
    """Scalar reference for :func:`coalesce_row_ids` (kept for testing).

    This is the original per-id Python loop; property tests assert the
    vectorised formulation above agrees with it on arbitrary inputs.
    """
    if max_gap < 1:
        raise ShapeError(f"max_gap must be >= 1, got {max_gap}")
    ids = np.asarray(row_ids, dtype=np.int64)
    if len(ids) == 0:
        return []
    if np.any(np.diff(ids) <= 0):
        raise ShapeError("row_ids must be sorted and unique")
    chunks: List[Tuple[int, int]] = []
    start = int(ids[0])
    end = start + 1  # exclusive
    for rid in ids[1:]:
        rid = int(rid)
        if rid - end < max_gap:
            end = rid + 1
        else:
            chunks.append((start, end - start))
            start, end = rid, rid + 1
    chunks.append((start, end - start))
    return chunks


def expand_chunks(offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(o, o + s)`` for every chunk in one pass.

    Fused equivalent of ``np.concatenate([np.arange(o, o + s) ...])``
    built from a single cumulative sum: each output element is 1 more
    than its predecessor except at chunk starts, where the step jumps to
    the next chunk's offset.

    Args:
        offsets: chunk start rows (any order, int64).
        sizes: positive chunk lengths, aligned with ``offsets``.

    Returns:
        The expanded row ids, chunk order preserved.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(offsets) != len(sizes):
        raise ShapeError(
            f"offsets ({len(offsets)}) and sizes ({len(sizes)}) differ"
        )
    if len(sizes) == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(sizes <= 0):
        raise ShapeError("chunk sizes must be positive")
    total = int(sizes.sum())
    steps = np.ones(total, dtype=np.int64)
    steps[0] = offsets[0]
    starts = np.cumsum(sizes)[:-1]
    steps[starts] = offsets[1:] - (offsets[:-1] + sizes[:-1] - 1)
    return np.cumsum(steps)


def coalesced_transfer_rows(chunks: List[Tuple[int, int]]) -> int:
    """Total dense rows moved by a chunk list (useful + useless)."""
    return sum(size for _, size in chunks)


def sddmm_reference(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> COOMatrix:
    """Reference SDDMM: ``S = A (*) (X @ Y^T)`` on ``A``'s pattern.

    Args:
        A: sparse sampling pattern/scaling, shape ``(n, m)``.
        X: dense, shape ``(n, K)``.
        Y: dense, shape ``(m, K)``.

    Returns:
        Sparse result with ``A``'s coordinates and values
        ``a_ij * dot(X_i, Y_j)``.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ShapeError(
            f"X {X.shape} and Y {Y.shape} must be 2-D with matching K"
        )
    if A.shape[0] != X.shape[0] or A.shape[1] != Y.shape[0]:
        raise ShapeError(
            f"A {A.shape} incompatible with X {X.shape} / Y {Y.shape}"
        )
    vals = A.vals * _dot_rows(X[A.rows], Y[A.cols])
    return COOMatrix(A.rows, A.cols, vals, A.shape, _validated=True)


def _dot_rows(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row-wise dot products, chunked to bound scratch memory."""
    out = np.empty(len(lhs), dtype=np.float64)
    k = max(1, lhs.shape[1] if lhs.ndim == 2 else 1)
    chunk = max(1, _SCATTER_CHUNK_ELEMS // k)
    for lo in range(0, len(lhs), chunk):
        hi = lo + chunk
        out[lo:hi] = np.einsum("ij,ij->i", lhs[lo:hi], rhs[lo:hi])
    return out
