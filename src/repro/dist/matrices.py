"""Distributed dense and sparse matrices under 1D partitioning.

A :class:`DistDenseMatrix` keeps one contiguous global array plus a
:class:`~repro.dist.oned.RowPartition`; per-rank blocks are views.  A
:class:`DistSparseMatrix` stores each rank's row slab of ``A`` as a
standalone, row-rebased :class:`~repro.sparse.coo.COOMatrix`.

Constructing either against a :class:`~repro.cluster.machine.Cluster`
charges each node's memory ledger for its resident slab, so persistent
data participates in the OOM accounting.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..cluster.machine import Cluster
from ..errors import PartitionError, ShapeError
from ..sparse.coo import COOMatrix
from .oned import RowPartition


def _validate_populated(partition: RowPartition, shape, what: str) -> None:
    """Reject partitions that would leave ranks without any rows.

    ``RowPartition`` itself tolerates over-split partitions (some of
    its callers slice empty ranges on purpose), but a *distributed
    matrix* with empty ranks is always a configuration mistake: those
    ranks would silently contribute nothing to the computation.  The
    split is ``n_rows = n_parts * base + extra`` with the first
    ``extra`` ranks one row larger — an uneven remainder is fine, a
    zero ``base`` is not.
    """
    base, extra = divmod(partition.n_rows, partition.n_parts)
    if base == 0 and extra < partition.n_parts:
        raise PartitionError(
            f"{what} of shape {tuple(shape)} cannot be split into "
            f"{partition.n_parts} row blocks: only {partition.n_rows} "
            f"rows (base={base}, remainder={extra}), so "
            f"{partition.n_parts - extra} ranks would own no rows"
        )


class DistDenseMatrix:
    """A dense matrix split into contiguous row blocks, one per rank."""

    def __init__(
        self,
        data: np.ndarray,
        partition: RowPartition,
        cluster: Optional[Cluster] = None,
        label: str = "dense",
    ):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError(f"dense matrix must be 2-D, got {data.ndim}-D")
        if data.shape[0] != partition.n_rows:
            raise PartitionError(
                f"matrix has {data.shape[0]} rows but partition covers "
                f"{partition.n_rows}"
            )
        _validate_populated(partition, data.shape, "dense matrix")
        self.data = data
        self.partition = partition
        self.label = label
        if cluster is not None:
            if cluster.n_nodes != partition.n_parts:
                raise PartitionError(
                    f"cluster has {cluster.n_nodes} nodes but partition has "
                    f"{partition.n_parts} parts"
                )
            for rank in range(partition.n_parts):
                start, stop = partition.bounds(rank)
                nbytes = (stop - start) * data.shape[1] * data.itemsize
                cluster.node(rank).memory.allocate(label, int(nbytes))

    # ------------------------------------------------------------------
    @classmethod
    def zeros(
        cls,
        n_rows: int,
        n_cols: int,
        partition: RowPartition,
        cluster: Optional[Cluster] = None,
        label: str = "dense",
    ) -> "DistDenseMatrix":
        return cls(
            np.zeros((n_rows, n_cols)), partition, cluster, label=label
        )

    @property
    def shape(self):
        return self.data.shape

    @property
    def k(self) -> int:
        """Number of dense columns (the paper's K)."""
        return self.data.shape[1]

    def block(self, rank: int) -> np.ndarray:
        """Writable view of the rows owned by ``rank``."""
        start, stop = self.partition.bounds(rank)
        return self.data[start:stop]

    def blocks(self) -> List[np.ndarray]:
        """All per-rank blocks, rank order."""
        return [self.block(r) for r in range(self.partition.n_parts)]

    def block_nbytes(self, rank: int) -> int:
        """Bytes of the block owned by ``rank``."""
        return int(
            self.partition.size(rank) * self.data.shape[1]
            * self.data.itemsize
        )

    def copy_zeros_like(
        self, cluster: Optional[Cluster] = None, label: str = "dense"
    ) -> "DistDenseMatrix":
        """Same shape/partition, zero-filled (e.g. the output ``C``)."""
        return DistDenseMatrix(
            np.zeros_like(self.data), self.partition, cluster, label=label
        )


def split_rows(matrix: COOMatrix, partition: RowPartition) -> List[COOMatrix]:
    """``matrix.row_slab(*bounds)`` of every rank in one pass (storage
    order kept, rows rebased).  Non-decreasing rows are cut at the
    partition edges, ``cols`` / ``vals`` as views of the global arrays;
    other input is first bucketed by owner with one stable sort."""
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    edges = partition.edges()
    if np.any(rows[1:] < rows[:-1]):
        owners = partition.owners_of(rows)
        order = np.argsort(owners, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        cuts = np.searchsorted(owners[order], np.arange(len(edges)))
    else:
        cuts = np.searchsorted(rows, edges)
    return [
        COOMatrix(
            rows[lo:hi] - start, cols[lo:hi], vals[lo:hi],
            (stop - start, matrix.shape[1]), _validated=True,
        )
        for lo, hi, start, stop in zip(
            cuts[:-1].tolist(), cuts[1:].tolist(),
            edges[:-1].tolist(), edges[1:].tolist(),
        )
    ]


class DistSparseMatrix:
    """A sparse matrix split into per-rank row slabs (rebased COO)."""

    def __init__(
        self,
        global_matrix: COOMatrix,
        partition: RowPartition,
        cluster: Optional[Cluster] = None,
        label: str = "A_slab",
    ):
        if global_matrix.shape[0] != partition.n_rows:
            raise PartitionError(
                f"A has {global_matrix.shape[0]} rows but partition covers "
                f"{partition.n_rows}"
            )
        _validate_populated(partition, global_matrix.shape, "sparse matrix")
        self.global_matrix = global_matrix
        self.partition = partition
        self.slabs = split_rows(global_matrix, partition)
        if cluster is not None:
            for rank, slab in enumerate(self.slabs):
                cluster.node(rank).memory.allocate(label, slab.nbytes())

    @property
    def shape(self):
        return self.global_matrix.shape

    @property
    def nnz(self) -> int:
        return self.global_matrix.nnz

    def slab(self, rank: int) -> COOMatrix:
        """The row-rebased slab owned by ``rank``."""
        if not 0 <= rank < self.partition.n_parts:
            raise PartitionError(f"rank {rank} out of range")
        return self.slabs[rank]

    def slab_nnz(self) -> List[int]:
        """Nonzeros per rank (load-balance diagnostics)."""
        return [slab.nnz for slab in self.slabs]
