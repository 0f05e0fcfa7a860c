"""Persistence of Two-Face plans in the bespoke binary format.

The paper's preprocessing step writes "the final asynchronous and
synchronous/local-input sparse matrices ... to the file system in a
bespoke binary format" (§7.3) so later runs — or the inference phase of
a GNN trained earlier — skip classification entirely.  This module
serialises a complete :class:`~repro.core.plan.TwoFacePlan` into the
container of :mod:`repro.sparse.binary_io` and restores it bit-exactly.
"""

from __future__ import annotations

import hashlib
import io
import os
from typing import IO, Dict, List, Union

import numpy as np

from ..dist.grid import GRID_LAYOUT_CODES, grid_from_code, grid_to_code
from ..errors import FormatError
from ..sparse.binary_io import read_arrays, write_arrays
from ..sparse.csr import CSRMatrix
from .classifier import RankClassification
from .formats import AsyncStripeMatrix, RankProgram, SyncLocalMatrix
from .model import CostCoefficients
from .plan import RankPlan, TwoFacePlan
from .stripes import StripeGeometry

_PathLike = Union[str, os.PathLike]

#: Format version; bump when the layout changes.  Version 2 adds the
#: cached per-stripe transfer schedules (chunk lists, fetched-row ids,
#: packed-row maps); version 3 adds the cached per-stripe reduction
#: schedules (stable-sort permutation, segment starts, output-row ids)
#: consumed by the segmented scatter kernel; version 4 extends ``meta``
#: with the process-grid shape (layout code, p_r, depth) so a plan
#: built for one layer of a 1.5D/2D grid cannot be replayed under a
#: different layout.  Only the current version loads: an older
#: container is rejected with a ``FormatError`` naming its version.  The
#: version also feeds the plan-cache key, so bumping it invalidates
#: every previously cached plan automatically (an old entry that is
#: looked up anyway is deleted as corrupt and rebuilt).
PLAN_FORMAT_VERSION = 4


def save_plan(plan: TwoFacePlan, path_or_file: Union[_PathLike, IO[bytes]]) -> int:
    """Serialise a plan; returns bytes written.

    The plan is finalised first so the container always carries the
    cached transfer *and* reduction schedules — a deserialised plan
    executes with zero schedule recomputations on either scatter path.
    """
    plan.ensure_finalized()
    layout_code, grid_p_r, grid_depth = grid_to_code(plan.grid_spec)
    arrays: Dict[str, np.ndarray] = {
        "meta": np.array(
            [
                PLAN_FORMAT_VERSION,
                plan.geometry.n_rows,
                plan.geometry.n_cols,
                plan.geometry.n_parts,
                plan.geometry.stripe_width,
                plan.k,
                plan.panel_height,
                layout_code,
                grid_p_r,
                grid_depth,
            ],
            dtype=np.int64,
        ),
        "coeffs": np.array(
            [
                plan.coeffs.beta_s, plan.coeffs.alpha_s,
                plan.coeffs.beta_a, plan.coeffs.alpha_a,
                plan.coeffs.gamma_a, plan.coeffs.kappa_a,
            ],
            dtype=np.float64,
        ),
    }
    dest_gids: List[int] = []
    dest_ptrs = [0]
    dest_ranks: List[int] = []
    for gid in sorted(plan.stripe_destinations):
        dest_gids.append(gid)
        dest_ranks.extend(plan.stripe_destinations[gid])
        dest_ptrs.append(len(dest_ranks))
    arrays["dest_gids"] = np.array(dest_gids, dtype=np.int64)
    arrays["dest_ptrs"] = np.array(dest_ptrs, dtype=np.int64)
    arrays["dest_ranks"] = np.array(dest_ranks, dtype=np.int64)

    for rank_plan in plan.ranks:
        prefix = f"r{rank_plan.rank}"
        _pack_rank(arrays, prefix, rank_plan)
    return write_arrays(arrays, path_or_file)


def _pack_rank(arrays: Dict[str, np.ndarray], prefix: str, rp: RankPlan) -> None:
    csr = rp.sync_local.csr
    arrays[f"{prefix}.sync.indptr"] = csr.indptr
    arrays[f"{prefix}.sync.indices"] = csr.indices
    arrays[f"{prefix}.sync.data"] = csr.data
    arrays[f"{prefix}.sync.shape"] = np.array(csr.shape, dtype=np.int64)
    arrays[f"{prefix}.sync.gids"] = rp.sync_stripe_gids

    stripes = rp.async_matrix.stripes
    arrays[f"{prefix}.async.gids"] = np.array(
        [s.gid for s in stripes], dtype=np.int64
    )
    arrays[f"{prefix}.async.owners"] = np.array(
        [s.owner for s in stripes], dtype=np.int64
    )
    for stripe in stripes:
        if stripe.schedule is None or stripe.reduce_schedule is None:
            missing = "transfer" if stripe.schedule is None else "reduce"
            raise FormatError(
                f"stripe {stripe.gid} has no {missing} schedule; call "
                "plan.ensure_finalized() before packing"
            )
    # The nonzeros and schedules travel rank-concatenated — the
    # matrix's own rank-level arrays and its rank program: order/packed
    # align with async.ptrs (one entry per nonzero), seg_starts/out_rows
    # with async.seg_ptrs, and so on.
    program = rp.async_matrix.program()
    flat = rp.async_matrix.flat()
    for name, array in (
        ("ptrs", program.nnz_ptr),
        ("rows", flat.rows),
        ("cols", flat.cols),
        ("vals", flat.vals),
        ("chunk_ptrs", program.chunk_ptr),
        ("chunk_offsets", program.chunk_offsets),
        ("chunk_sizes", program.chunk_sizes),
        ("fetched_ptrs", program.row_ptr),
        ("fetched_ids", program.fetched_ids),
        ("packed", program.packed),
        ("order", program.order),
        ("seg_ptrs", program.seg_ptr),
        ("seg_starts", program.seg_starts),
        ("out_rows", program.out_rows),
    ):
        arrays[f"{prefix}.async.{name}"] = array

    cls = rp.classification
    arrays[f"{prefix}.cls.masks"] = np.concatenate(
        [cls.async_mask.astype(np.int64), cls.remote_mask.astype(np.int64)]
    )
    arrays[f"{prefix}.cls.scalars"] = np.array(
        [
            cls.n_sync, cls.n_async, cls.n_local,
            cls.rows_async, cls.nnz_async, cls.memory_flips,
        ],
        dtype=np.int64,
    )


def plan_digest(plan: TwoFacePlan) -> str:
    """SHA-256 of the plan's serialised form.

    Two plans digest equal iff every serialised quantity — geometry,
    coefficients, multicast metadata, per-rank matrices, cached
    transfer and reduction schedules, classification counters — is bitwise
    identical, which is the determinism contract of parallel planning
    and the plan cache.
    """
    buf = io.BytesIO()
    save_plan(plan, buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


def load_plan(path_or_file: Union[_PathLike, IO[bytes]]) -> TwoFacePlan:
    """Restore a plan written by :func:`save_plan`."""
    arrays = read_arrays(path_or_file)
    try:
        meta = arrays["meta"]
    except KeyError:
        raise FormatError("container does not hold a Two-Face plan") from None
    version = int(meta[0])
    if version != PLAN_FORMAT_VERSION:
        raise FormatError(
            f"unsupported plan format version {version} "
            f"(only version {PLAN_FORMAT_VERSION} loads; rebuild the plan)"
        )
    n_rows, n_cols, n_parts, width, k, panel_height = (
        int(v) for v in meta[1:7]
    )
    layout_code, grid_p_r, grid_depth = (int(v) for v in meta[7:10])
    grid = None
    if layout_code != GRID_LAYOUT_CODES["1d"] or grid_depth != 1:
        grid = grid_from_code(layout_code, grid_p_r, grid_depth)
    geometry = StripeGeometry(n_rows, n_cols, n_parts, width)
    c = arrays["coeffs"]
    coeffs = CostCoefficients(
        beta_s=float(c[0]), alpha_s=float(c[1]), beta_a=float(c[2]),
        alpha_a=float(c[3]), gamma_a=float(c[4]), kappa_a=float(c[5]),
    )

    dest_ptrs = arrays["dest_ptrs"].tolist()
    dest_ranks = arrays["dest_ranks"].tolist()
    destinations: Dict[int, List[int]] = {
        gid: dest_ranks[lo:hi]
        for gid, lo, hi in zip(
            arrays["dest_gids"].tolist(), dest_ptrs[:-1], dest_ptrs[1:]
        )
    }

    ranks = [
        _unpack_rank(arrays, f"r{rank}", rank, panel_height)
        for rank in range(n_parts)
    ]
    return TwoFacePlan(
        geometry=geometry,
        coeffs=coeffs,
        k=k,
        panel_height=panel_height,
        ranks=ranks,
        stripe_destinations=destinations,
        grid=grid,
    )


def _unpack_rank(
    arrays: Dict[str, np.ndarray], prefix: str, rank: int, panel_height: int
) -> RankPlan:
    try:
        shape = tuple(int(v) for v in arrays[f"{prefix}.sync.shape"])
    except KeyError:
        raise FormatError(f"plan container missing rank {rank}") from None
    csr = CSRMatrix(
        arrays[f"{prefix}.sync.indptr"],
        arrays[f"{prefix}.sync.indices"],
        arrays[f"{prefix}.sync.data"],
        shape,
    )
    sync_local = SyncLocalMatrix(rank, csr, panel_height)

    owners = arrays[f"{prefix}.async.owners"]
    ptrs = arrays[f"{prefix}.async.ptrs"]
    async_matrix = AsyncStripeMatrix.from_arrays(
        rank, arrays[f"{prefix}.async.gids"], owners, ptrs,
        *(arrays[f"{prefix}.async.{name}"] for name in ("rows", "cols", "vals")),
        shape,
    )
    # The container stores the schedules rank-concatenated — which is
    # the rank program; the stripes get views into it.
    async_matrix.adopt_program(
        RankProgram(
            n_rows=shape[0],
            owners=owners,
            nnz_ptr=ptrs,
            row_ptr=arrays[f"{prefix}.async.fetched_ptrs"],
            chunk_ptr=arrays[f"{prefix}.async.chunk_ptrs"],
            seg_ptr=arrays[f"{prefix}.async.seg_ptrs"],
            chunk_offsets=arrays[f"{prefix}.async.chunk_offsets"],
            chunk_sizes=arrays[f"{prefix}.async.chunk_sizes"],
            fetched_ids=arrays[f"{prefix}.async.fetched_ids"],
            packed=arrays[f"{prefix}.async.packed"],
            order=arrays[f"{prefix}.async.order"],
            seg_starts=arrays[f"{prefix}.async.seg_starts"],
            out_rows=arrays[f"{prefix}.async.out_rows"],
        )
    )

    masks = arrays[f"{prefix}.cls.masks"]
    half = len(masks) // 2
    scalars = arrays[f"{prefix}.cls.scalars"]
    classification = RankClassification(
        rank=rank,
        async_mask=masks[:half].astype(bool),
        remote_mask=masks[half:].astype(bool),
        n_sync=int(scalars[0]),
        n_async=int(scalars[1]),
        n_local=int(scalars[2]),
        rows_async=int(scalars[3]),
        nnz_async=int(scalars[4]),
        memory_flips=int(scalars[5]),
    )
    return RankPlan(
        rank=rank,
        sync_local=sync_local,
        async_matrix=async_matrix,
        classification=classification,
        sync_stripe_gids=arrays[f"{prefix}.sync.gids"],
    )
