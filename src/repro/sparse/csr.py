"""Compressed sparse row (CSR) format and row-panel views.

The synchronous/local-input side of Two-Face computes over *row panels*
(paper Fig. 6b): contiguous groups of rows whose nonzeros a single thread
processes while buffering the output row locally.  CSR gives us the panel
pointers for free (``indptr``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import FormatError, ShapeError
from .coo import COOMatrix


@dataclass
class CSRMatrix:
    """A sparse matrix in compressed-sparse-row format.

    Attributes:
        indptr: ``int64`` array of length ``n_rows + 1``; row ``i`` owns
            nonzeros ``indptr[i]:indptr[i+1]``.
        indices: ``int64`` column indices, ordered within each row.
        data: ``float64`` values aligned with ``indices``.
        shape: ``(n_rows, n_cols)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        n, m = self.shape
        self.shape = (int(n), int(m))
        if len(self.indptr) != self.shape[0] + 1:
            raise FormatError(
                f"indptr length {len(self.indptr)} != n_rows+1 "
                f"({self.shape[0] + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise FormatError("indptr does not span the index array")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr is not monotonically non-decreasing")
        if len(self.indices) != len(self.data):
            raise FormatError("indices and data disagree on length")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise FormatError("column index out of bounds")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Build from COO in any order; duplicate coordinates are summed.

        Ascending (row, col) input — what the planner hands over — is
        recognised in one O(nnz) pass and used as it stands; anything
        else is sorted once, stably, so duplicates fold in storage
        order.  The result shares no memory with ``coo``.
        """
        ordered = coo if coo.is_row_major() else coo.sorted_row_major()
        merged = ordered._merge_adjacent()
        indptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(merged.rows, minlength=coo.shape[0]), out=indptr[1:]
        )
        if merged is coo:
            return cls(indptr, coo.cols.copy(), coo.vals.copy(), coo.shape)
        return cls(indptr, merged.cols, merged.vals, coo.shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "CSRMatrix":
        return cls(
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            shape,
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.data))

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Nonzeros per row, shape ``(n_rows,)``."""
        return np.diff(self.indptr)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise ShapeError(f"row {i} out of bounds for {self.shape[0]}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------
    # Row panels
    # ------------------------------------------------------------------
    def panel_bounds(self, panel_height: int) -> np.ndarray:
        """Row boundaries of panels of ``panel_height`` rows.

        Returns an ``int64`` array ``[0, h, 2h, ..., n_rows]``.  The last
        panel may be shorter.  These correspond to the *Sync/Local-Input
        Panel Pointers* of the paper's Fig. 6b.
        """
        if panel_height <= 0:
            raise ShapeError(f"panel height must be positive: {panel_height}")
        bounds = np.arange(0, self.shape[0], panel_height, dtype=np.int64)
        return np.append(bounds, self.shape[0])

    def iter_panels(
        self, panel_height: int
    ) -> Iterator[Tuple[int, int, "CSRMatrix"]]:
        """Yield ``(row_start, row_stop, panel_csr)`` for each panel.

        Empty panels are still yielded so work indices stay aligned with
        the panel-pointer array.
        """
        bounds = self.panel_bounds(panel_height)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            lo, hi = self.indptr[start], self.indptr[stop]
            sub_indptr = self.indptr[start : stop + 1] - lo
            yield int(start), int(stop), CSRMatrix(
                sub_indptr,
                self.indices[lo:hi],
                self.data[lo:hi],
                (int(stop - start), self.shape[1]),
            )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        return COOMatrix(
            rows, self.indices.copy(), self.data.copy(), self.shape,
            _validated=True,
        )

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)
