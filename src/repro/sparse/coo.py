"""Coordinate (COO) sparse matrix format.

Two-Face stores the sparse input matrix ``A`` in a modified COO format
(paper §5.1): nonzeros in synchronous / local-input stripes live in a
row-major structure, nonzeros in asynchronous stripes in a column-major
structure.  This module provides the plain COO container both structures
are derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

from ..errors import FormatError, ShapeError


def stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of integer keys that are
    mostly distinct: numpy's default (vectorised, unstable) kind, with
    stability restored by one lexsort only where equal keys exist."""
    order = np.argsort(key)
    sorted_key = key[order]
    if np.any(sorted_key[1:] == sorted_key[:-1]):
        order = order[np.lexsort((order, sorted_key))]
    return order


def fused_key_overflows(shape: Tuple[int, int]) -> bool:
    """Whether ``major * minor_extent + minor`` over a ``shape`` matrix
    can exceed int64 — the cut-over to ``np.lexsort`` of the two keys."""
    return shape[0] * shape[1] >= 2**63


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The ascending distinct values of an integer array, as
    ``np.unique`` returns them, by one in-place sort and an
    adjacent-difference mask.  ``keys`` is the caller's scratch: it is
    left sorted.  (numpy >= 2.3 answers ``np.unique`` of integers from
    a hash table, 20-60x slower than the sort on coordinate keys.)"""
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def distinct_coords(
    rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(row, col)`` pairs of coordinates inside ``shape``,
    in ascending row-major order: one fused key ``row * n_cols + col``
    through :func:`sorted_distinct`, split by one ``np.divmod``; the
    pairs ``np.lexsort``-ed instead when that key would overflow."""
    if fused_key_overflows(shape):
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        return rows[keep], cols[keep]
    key = np.multiply(rows, shape[1], dtype=np.int64)
    key += cols
    return np.divmod(sorted_distinct(key), shape[1])


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Attributes:
        rows: ``int64`` array of row indices, one per nonzero.
        cols: ``int64`` array of column indices, one per nonzero.
        vals: ``float64`` array of values, one per nonzero.
        shape: ``(n_rows, n_cols)`` of the logical matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: Tuple[int, int]
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise FormatError(
                f"coordinate arrays disagree on length: "
                f"{len(self.rows)}, {len(self.cols)}, {len(self.vals)}"
            )
        n, m = self.shape
        if n < 0 or m < 0:
            raise ShapeError(f"negative dimension in shape {self.shape}")
        self.shape = (int(n), int(m))
        if not self._validated:
            self.validate()
            self._validated = True

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "COOMatrix":
        """Return a matrix of the given shape with no nonzeros."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.copy(), np.zeros(0, dtype=np.float64), shape)

    @classmethod
    def view(cls, rows, cols, vals, shape: Tuple[int, int]) -> "COOMatrix":
        """Wrap slices of a validated matrix's arrays without touching
        them (no conversion, no check): for loops cutting many views."""
        self = object.__new__(cls)
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape
        self._validated = True
        return self

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix."""
        coo = mat.tocoo()
        return cls(
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            coo.data.astype(np.float64),
            (int(coo.shape[0]), int(coo.shape[1])),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a dense 2-D array, keeping only nonzero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"expected 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(len(self.vals))

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of cells that hold a nonzero (0 for empty shapes)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def validate(self) -> None:
        """Check all coordinates lie inside ``shape``.

        Raises:
            FormatError: if any coordinate is out of bounds.
        """
        if self.nnz == 0:
            return
        if self.rows.min(initial=0) < 0 or self.cols.min(initial=0) < 0:
            raise FormatError("negative coordinate")
        if self.rows.max(initial=-1) >= self.shape[0]:
            raise FormatError(
                f"row index {self.rows.max()} out of bounds for "
                f"{self.shape[0]} rows"
            )
        if self.cols.max(initial=-1) >= self.shape[1]:
            raise FormatError(
                f"column index {self.cols.max()} out of bounds for "
                f"{self.shape[1]} columns"
            )

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def is_row_major(self) -> bool:
        """Whether the nonzeros already sit in ascending (row, col)
        order (equal coordinates allowed); one O(nnz) pass."""
        step = self.rows[1:] - self.rows[:-1]
        return bool(np.all(
            (step > 0) | ((step == 0) & (self.cols[1:] >= self.cols[:-1]))
        ))

    def lex_order(self, col_major: bool) -> np.ndarray:
        """The stable permutation sorting the nonzeros by (col, row) if
        ``col_major`` else (row, col) — ``np.lexsort`` in one sort of
        the two keys fused (:func:`stable_argsort`; equal keys are
        equal coordinates)."""
        major, minor = (
            (self.cols, self.rows) if col_major else (self.rows, self.cols)
        )
        if fused_key_overflows(self.shape):
            return np.lexsort((minor, major))
        return stable_argsort(
            major * self.shape[0 if col_major else 1] + minor
        )

    def sorted_row_major(self) -> "COOMatrix":
        """Return a copy with nonzeros sorted by (row, col), stable.

        This is the ordering the synchronous/local-input matrix uses
        (paper §4.1): it lets a thread buffer a whole output row before a
        single accumulation into ``C``.
        """
        return self.select(self.lex_order(col_major=False))

    def sorted_col_major(self) -> "COOMatrix":
        """Return a copy with nonzeros sorted by (col, row), stable.

        This is the ordering asynchronous stripes use: it makes the unique
        ``c_id``s (hence the remote dense rows to fetch) cheap to extract.
        """
        return self.select(self.lex_order(col_major=True))

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def select(self, mask: np.ndarray) -> "COOMatrix":
        """Return the nonzeros picked by ``mask`` (booleans or indices,
        in that order); the shape is unchanged."""
        return COOMatrix(
            self.rows[mask],
            self.cols[mask],
            self.vals[mask],
            self.shape,
            _validated=True,
        )

    def row_slab(self, row_start: int, row_stop: int) -> "COOMatrix":
        """Return nonzeros with ``row_start <= row < row_stop``.

        Row indices are *rebased* to the slab so the result is a standalone
        matrix of shape ``(row_stop - row_start, n_cols)``.  This is how a
        node's local partition of ``A`` is carved out under 1D partitioning.
        """
        if not 0 <= row_start <= row_stop <= self.shape[0]:
            raise ShapeError(
                f"row slab [{row_start}, {row_stop}) outside "
                f"0..{self.shape[0]}"
            )
        mask = (self.rows >= row_start) & (self.rows < row_stop)
        return COOMatrix(
            self.rows[mask] - row_start,
            self.cols[mask],
            self.vals[mask],
            (row_stop - row_start, self.shape[1]),
            _validated=True,
        )

    def col_slab(self, col_start: int, col_stop: int) -> "COOMatrix":
        """Return nonzeros with ``col_start <= col < col_stop``, rebased."""
        if not 0 <= col_start <= col_stop <= self.shape[1]:
            raise ShapeError(
                f"column slab [{col_start}, {col_stop}) outside "
                f"0..{self.shape[1]}"
            )
        mask = (self.cols >= col_start) & (self.cols < col_stop)
        return COOMatrix(
            self.rows[mask],
            self.cols[mask] - col_start,
            self.vals[mask],
            (self.shape[0], col_stop - col_start),
            _validated=True,
        )

    # ------------------------------------------------------------------
    # Conversion / arithmetic
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (duplicates are summed)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def to_scipy(self):
        """Convert to ``scipy.sparse.coo_matrix``."""
        import scipy.sparse as sp

        return sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=self.shape
        )

    def sum_duplicates(self) -> "COOMatrix":
        """Sum duplicate coordinates: the matrix itself when it has
        none, else a row-major copy with each run of equal coordinates
        folded left to right in storage order."""
        ordered = self if self.is_row_major() else self.sorted_row_major()
        merged = ordered._merge_adjacent()
        return self if merged is ordered else merged

    def _merge_adjacent(self) -> "COOMatrix":
        """Fold each run of equal coordinates of a row-major matrix;
        ``self`` when there is none."""
        r, c = self.rows, self.cols
        new_group = np.ones(len(r), dtype=bool)
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        if new_group.all():
            return self
        # Adds in index order onto 0.0, as np.add.at into zeros would.
        sums = np.bincount(np.cumsum(new_group) - 1, weights=self.vals)
        return COOMatrix(
            r[new_group], c[new_group], sums, self.shape, _validated=True
        )

    def nonzeros(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate stored entries as ``(row, col, value)`` tuples."""
        for i in range(self.nnz):
            yield int(self.rows[i]), int(self.cols[i]), float(self.vals[i])

    def nbytes(self) -> int:
        """Memory footprint of the stored arrays in bytes."""
        return int(
            self.rows.nbytes + self.cols.nbytes + self.vals.nbytes
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        a = self.sum_duplicates().sorted_row_major()
        b = other.sum_duplicates().sorted_row_major()
        return (
            a.shape == b.shape
            and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
            and np.allclose(a.vals, b.vals)
        )

