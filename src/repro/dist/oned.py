"""1D row partitioning (paper §2.2).

Each of the ``p`` nodes owns a contiguous slab of rows of the sparse
matrix ``A`` and the matching row slabs of the dense matrices ``B`` and
``C``.  Accesses to ``B`` rows outside a node's slab are the only remote
accesses in the whole computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import PartitionError


@dataclass(frozen=True)
class RowPartition:
    """A balanced contiguous partition of ``n_rows`` across ``n_parts``.

    The first ``n_rows % n_parts`` parts get one extra row, matching the
    usual block distribution of MPI codes.
    """

    n_rows: int
    n_parts: int

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise PartitionError(f"n_rows must be non-negative: {self.n_rows}")
        if self.n_parts <= 0:
            raise PartitionError(f"n_parts must be positive: {self.n_parts}")

    # ------------------------------------------------------------------
    def bounds(self, part: int) -> Tuple[int, int]:
        """Half-open row range ``[start, stop)`` owned by ``part``."""
        if not 0 <= part < self.n_parts:
            raise PartitionError(
                f"part {part} out of range 0..{self.n_parts - 1}"
            )
        base, extra = divmod(self.n_rows, self.n_parts)
        start = part * base + min(part, extra)
        stop = start + base + (1 if part < extra else 0)
        return start, stop

    def size(self, part: int) -> int:
        """Rows owned by ``part``."""
        start, stop = self.bounds(part)
        return stop - start

    def max_size(self) -> int:
        """Largest slab across parts (block-buffer sizing)."""
        return self.size(0) if self.n_parts else 0

    def all_bounds(self) -> List[Tuple[int, int]]:
        """Bounds of every part, in rank order."""
        return [self.bounds(p) for p in range(self.n_parts)]

    def edges(self) -> np.ndarray:
        """:meth:`bounds` of every part as one array: part ``p`` owns
        rows ``edges[p]:edges[p + 1]``."""
        base, extra = divmod(self.n_rows, self.n_parts)
        parts = np.arange(self.n_parts + 1, dtype=np.int64)
        return parts * base + np.minimum(parts, extra)

    # ------------------------------------------------------------------
    def owner_of(self, row: int) -> int:
        """Part that owns global ``row``."""
        if not 0 <= row < self.n_rows:
            raise PartitionError(f"row {row} outside 0..{self.n_rows - 1}")
        base, extra = divmod(self.n_rows, self.n_parts)
        boundary = extra * (base + 1)
        if row < boundary:
            return row // (base + 1)
        if base == 0:
            raise PartitionError(
                f"row {row} beyond the populated parts of an over-split "
                f"partition ({self.n_rows} rows, {self.n_parts} parts)"
            )
        return extra + (row - boundary) // base

    def owners_of(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner_of`."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise PartitionError("row index outside the partitioned range")
        base, extra = divmod(self.n_rows, self.n_parts)
        boundary = extra * (base + 1)
        owners = np.empty(len(rows), dtype=np.int64)
        low = rows < boundary
        owners[low] = rows[low] // (base + 1)
        if base:
            owners[~low] = extra + (rows[~low] - boundary) // base
        elif np.any(~low):
            raise PartitionError("row beyond populated parts")
        return owners
