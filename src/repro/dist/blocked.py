"""A layer's sparse matrix bucketed by (rank, owner block).

The block baselines all ask the same question of a layer's ``A`` —
*which nonzeros of rank ``r`` multiply rows of ``B`` block ``b``?* —
dense shifting to compute one held block at a time, AsyncCoarse to
know which blocks to fetch, the tuner to price both.
:class:`BlockedMatrix` answers it once per layer with a single ordering
of the nonzeros by (rank, block, row, col):

* the ``p x p`` tables ``nnz_rb`` / ``rows_rb`` (nonzeros and nonempty
  output rows of every piece) and their per-rank companions;
* a doubly-compressed CSR whose segments are the nonempty
  (rank, block, row) triples, so piece ``(r, b)`` is the segment range
  ``block_ptr[r, b]:block_ptr[r, b + 1]`` — a *view*, never a copy.

Memory is O(nnz + n + p^2).  A piece is applied with the async lane's
kernel (:func:`~repro.sparse.ops.segmented_reduce_into`): it touches
only the piece's nonempty rows and sums each row left to right in
column order, which is bit for bit what ``piece_csr @ B`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..sparse.coo import COOMatrix, stable_argsort
from ..sparse.ops import ScatterStats, segmented_reduce_into
from .oned import RowPartition


def bucket_blocks(
    matrix: COOMatrix, row_part: RowPartition, col_part: RowPartition
) -> Tuple[np.ndarray, np.ndarray]:
    """Every nonzero's fused ``rank * p + owner block``, and the stored
    nonzeros per (rank, block) as a ``(p, p)`` table."""
    p = row_part.n_parts
    pair = row_part.owners_of(matrix.rows) * p
    pair += col_part.owners_of(matrix.cols)
    return pair, np.bincount(pair, minlength=p * p).reshape(p, p)


@dataclass
class BlockedMatrix:
    """One layer's nonzeros in (rank, block, row, col) order.

    Attributes:
        nnz_rb: stored nonzeros per (rank, block) — duplicates counted,
            like ``slab.nnz``.
        rows_rb: nonempty output rows per (rank, block) piece.
        nnz_r: stored nonzeros per rank slab.
        rows_r: nonempty output rows per rank slab.
        block_ptr: ``(p, p + 1)`` segment pointers of the pieces.
        seg_ptr: nonzero range of each segment (one more than segments).
        seg_rows: slab-local output row of each segment.
        indices: layer-global column of each nonzero (a row of ``B``).
        data: values; duplicate coordinates folded in storage order.
    """

    nnz_rb: np.ndarray
    rows_rb: np.ndarray
    nnz_r: np.ndarray
    rows_r: np.ndarray
    block_ptr: np.ndarray
    seg_ptr: np.ndarray
    seg_rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def build(
        cls, matrix: COOMatrix, row_part: RowPartition,
        col_part: RowPartition,
    ) -> "BlockedMatrix":
        """Bucket ``matrix`` (global rows, layer columns, any order)."""
        p = row_part.n_parts
        height, width = row_part.max_size(), max(matrix.shape[1], 1)
        # Arrays of nnz length are reused in place: the transient peak
        # of this build is what a whole-layer sort adds to the process.
        pair, nnz_rb = bucket_blocks(matrix, row_part, col_part)
        seg_key = matrix.rows - row_part.edges()[pair // p]  # local row
        # (rank, block, local row) fused; with the column appended it is
        # the sort key, bounded by ~p * n * m.
        pair *= height
        seg_key += pair
        del pair
        if p * p * height * width < 2**63:
            key = seg_key * width
            key += matrix.cols
            order = stable_argsort(key)
            del key
        else:
            order = np.lexsort((matrix.cols, seg_key))
        seg_key = seg_key[order]
        indices, data = matrix.cols[order], matrix.vals[order]
        del order

        first = np.ones(len(seg_key), dtype=bool)  # of its segment
        first[1:] = seg_key[1:] != seg_key[:-1]
        fresh = first.copy()  # of its coordinate
        fresh[1:] |= indices[1:] != indices[:-1]
        if not fresh.all():
            # Adds in storage order onto 0.0, like CSRMatrix.from_coo.
            data = np.bincount(np.cumsum(fresh) - 1, weights=data)
            seg_key, indices, first = (
                seg_key[fresh], indices[fresh], first[fresh]
            )
        starts = np.flatnonzero(first)
        seg_pair, seg_rows = np.divmod(seg_key[starts], height)

        rows_rb = np.bincount(seg_pair, minlength=p * p).reshape(p, p)
        flat_ptr = np.concatenate(([0], np.cumsum(rows_rb.ravel())))
        touched = np.zeros(p * height, dtype=bool)
        touched[seg_pair // p * height + seg_rows] = True
        return cls(
            nnz_rb=nnz_rb,
            rows_rb=rows_rb,
            nnz_r=nnz_rb.sum(axis=1),
            rows_r=touched.reshape(p, height).sum(axis=1),
            block_ptr=flat_ptr[
                np.arange(p)[:, None] * p + np.arange(p + 1)
            ],
            seg_ptr=np.append(starts, len(indices)),
            seg_rows=seg_rows,
            indices=indices,
            data=data,
        )

    def multiply_into(
        self, C: np.ndarray, B: np.ndarray, rank: int, lo: int, hi: int,
        arena=None,
    ) -> None:
        """``C += piece(rank, b) @ B`` for ``b = lo .. hi - 1``, one
        block after the other (the order dense shifting holds them).

        Args:
            C: the rank's output block, accumulated in place.
            B: the layer's whole dense panel (contiguous float64).
            arena: scratch provider for the per-row sums.
        """
        stats = ScatterStats()  # piece products are not scatters
        ptr = self.block_ptr[rank, lo:hi + 1].tolist()
        for s0, s1 in zip(ptr[:-1], ptr[1:]):
            if s0 < s1:
                segmented_reduce_into(
                    C, B, self.indices, self.data,
                    self.seg_ptr[s0:s1 + 1], self.seg_rows[s0:s1],
                    arena=arena, stats=stats,
                )
