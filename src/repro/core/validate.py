"""Structural validation of Two-Face plans.

A plan can come from preprocessing, from disk
(:mod:`repro.core.serialize`), or from user-supplied classification
overrides; before trusting one with an execution, callers can check the
invariants the executor relies on.  :func:`validate_plan` checks the
plan alone; :func:`validate_plan_against_matrix` additionally confirms
the plan stores exactly the matrix it claims to.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..dist.matrices import DistSparseMatrix
from ..errors import PartitionError
from ..sparse.coo import sorted_distinct
from .plan import TwoFacePlan


def validate_plan(plan: TwoFacePlan) -> List[str]:
    """Check a plan's internal invariants.

    Returns:
        A list of human-readable violations (empty = valid).
    """
    problems: List[str] = []
    geometry = plan.geometry
    if len(plan.ranks) != geometry.n_parts:
        problems.append(
            f"plan has {len(plan.ranks)} rank plans for "
            f"{geometry.n_parts} partitions"
        )
        return problems

    for rank_plan in plan.ranks:
        rank = rank_plan.rank
        prefix = f"rank {rank}"
        row_lo, row_hi = geometry.row_partition.bounds(rank)
        slab_rows = row_hi - row_lo

        csr = rank_plan.sync_local.csr
        if csr.shape[0] != slab_rows:
            problems.append(
                f"{prefix}: sync matrix has {csr.shape[0]} rows, slab "
                f"has {slab_rows}"
            )
        if csr.nnz and csr.indices.max() >= geometry.n_cols:
            problems.append(f"{prefix}: sync column index out of range")

        seen_gids = set()
        for stripe in rank_plan.async_matrix.stripes:
            sid = f"{prefix} stripe {stripe.gid}"
            if stripe.gid in seen_gids:
                problems.append(f"{sid}: duplicate gid")
            seen_gids.add(stripe.gid)
            if not 0 <= stripe.gid < geometry.n_stripes:
                problems.append(f"{sid}: gid out of range")
                continue
            owner = geometry.owner_of_stripe(stripe.gid)
            if stripe.owner != owner:
                problems.append(
                    f"{sid}: stored owner {stripe.owner} != geometry "
                    f"owner {owner}"
                )
            if stripe.owner == rank:
                problems.append(f"{sid}: local stripe classified async")
            lo, hi = geometry.col_bounds(stripe.gid)
            cols = stripe.nonzeros.cols
            if len(cols) and (cols.min() < lo or cols.max() >= hi):
                problems.append(f"{sid}: nonzero outside column range")
            if stripe.nonzeros.nnz == 0:
                problems.append(f"{sid}: empty async stripe stored")
            expected_ids = sorted_distinct(cols.copy())
            if not np.array_equal(stripe.row_ids, expected_ids):
                problems.append(f"{sid}: row_ids do not match nonzeros")
            if stripe.nonzeros.nnz and stripe.nonzeros.rows.max() >= slab_rows:
                problems.append(f"{sid}: row index outside slab")

        for gid in rank_plan.sync_stripe_gids:
            gid = int(gid)
            if gid not in plan.stripe_destinations:
                problems.append(
                    f"{prefix}: sync gid {gid} missing from multicast "
                    "metadata"
                )
            elif rank not in plan.stripe_destinations[gid]:
                problems.append(
                    f"{prefix}: not listed as destination of gid {gid}"
                )

    for gid, dests in plan.stripe_destinations.items():
        if not 0 <= gid < geometry.n_stripes:
            problems.append(f"metadata gid {gid} out of range")
            continue
        owner = geometry.owner_of_stripe(gid)
        if owner in dests:
            problems.append(
                f"metadata gid {gid}: owner {owner} listed as destination"
            )
        for dest in dests:
            if not 0 <= dest < geometry.n_parts:
                problems.append(
                    f"metadata gid {gid}: destination {dest} out of range"
                )
    return problems


def validate_plan_against_matrix(
    plan: TwoFacePlan, A: DistSparseMatrix
) -> List[str]:
    """Check that ``plan`` stores exactly the nonzeros of ``A``.

    Returns:
        Violations beyond :func:`validate_plan`'s (which are included).
    """
    problems = validate_plan(plan)
    if A.partition.n_parts != plan.n_nodes:
        problems.append(
            f"matrix partitioned into {A.partition.n_parts}, plan has "
            f"{plan.n_nodes}"
        )
        return problems
    if A.shape != (plan.geometry.n_rows, plan.geometry.n_cols):
        problems.append(
            f"matrix shape {A.shape} != plan geometry "
            f"{(plan.geometry.n_rows, plan.geometry.n_cols)}"
        )
        return problems
    for rank in range(plan.n_nodes):
        rank_plan = plan.rank_plan(rank)
        slab = A.slab(rank)
        stored = rank_plan.sync_local.nnz + rank_plan.async_matrix.nnz
        if stored != slab.nnz:
            problems.append(
                f"rank {rank}: plan stores {stored} nonzeros, slab has "
                f"{slab.nnz}"
            )
            continue
        if slab.nnz == 0:
            continue
        # Value-level check: sums of (row, col, val) triples must agree.
        plan_sum = rank_plan.sync_local.csr.data.sum() + sum(
            s.nonzeros.vals.sum()
            for s in rank_plan.async_matrix.stripes
        )
        if not np.isclose(plan_sum, slab.vals.sum()):
            problems.append(
                f"rank {rank}: stored value sum {plan_sum} != slab "
                f"{slab.vals.sum()}"
            )
    return problems


def assert_valid_plan(
    plan: TwoFacePlan, A: Optional[DistSparseMatrix] = None
) -> None:
    """Raise :class:`~repro.errors.PartitionError` on the first problem."""
    problems = (
        validate_plan(plan)
        if A is None
        else validate_plan_against_matrix(plan, A)
    )
    if problems:
        raise PartitionError(
            f"invalid plan ({len(problems)} problems): {problems[0]}"
        )
