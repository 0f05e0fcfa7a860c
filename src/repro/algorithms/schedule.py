"""The per-layer communication schedule of the block baselines.

AllGather, AsyncCoarse and dense shifting DS(``c``) are one schedule
with different parameters (Brock & Golin, "Slicing Is All You Need"):
a ring allgather inside replication groups, whole-block one-sided
gets, held block bundles with a cyclic shift between them, and the
bytes each rank keeps resident.  :class:`BlockSchedule` states it once
per layer; :func:`book_counters` books it for the simulator and the
shm transport, and :func:`lane_seconds` prices it for the simulator
and (``faults=None``) the tuner.  The grid's partial-``C`` reduction
is split the same way: :func:`book_reduction` and
:func:`reduction_seconds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.faults import OneSidedOutcome, resolve_onesided

#: The five lanes of a node's time breakdown.
LANES = ("sync_comm", "sync_comp", "async_comm", "async_comp", "other")


def ds_held_blocks(p: int, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """The bundle each rank holds at each step, as ``(first, last)`` of
    shape ``(n_groups, p)``: rank ``r`` computes with ``B`` blocks
    ``first[s, r] .. last[s, r] - 1`` at step ``s`` — its own
    replication group's, then one cyclic shift per step.
    """
    n_groups = math.ceil(p / c)
    steps = np.arange(n_groups)[:, None]
    first = (np.arange(p) // c + steps) % n_groups * c
    return first, np.minimum(first + c, p)


def block_bytes(col_part, k: int) -> np.ndarray:
    """Dense ``B`` block bytes of every rank at width ``k``."""
    return np.array(
        [col_part.size(r) * k * 8 for r in range(col_part.n_parts)],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class BlockSchedule:
    """One layer's schedule, indexed by layer-local rank.

    Attributes:
        resident: per rank, replica / fetch bytes charged to its ledger
            under ``label``.
        label: ledger label of ``resident`` (and the event detail of the
            schedule's allgather legs and gets).
        owners / get_bytes: per rank, the owner and bytes of each
            whole-block one-sided get, in issue order (empty: no gets).
        group: ring allgather group size.
        gather_ops: allgather operations, one per group (0: none).
        gather_payload: collective bytes the allgathers count.
        step_bytes: bytes one ring step moves (the largest block).
        foreign: per rank, bytes its allgather leg delivers.
        held: per (step, rank) ``(first, last)`` of the held bundle; None
            for one step over the whole slab without a barrier.
        shift_bytes: bytes each rank receives per cyclic shift (one
            shift between consecutive held steps).
    """

    resident: np.ndarray
    label: str = ""
    owners: Tuple[np.ndarray, ...] = ()
    get_bytes: Tuple[np.ndarray, ...] = ()
    group: int = 1
    gather_ops: int = 0
    gather_payload: int = 0
    step_bytes: int = 0
    foreign: Optional[np.ndarray] = None
    held: Optional[Tuple[np.ndarray, np.ndarray]] = None
    shift_bytes: int = 0

    @classmethod
    def allgather(cls, col_part, k: int) -> "BlockSchedule":
        """Every rank gathers every foreign block (one ring)."""
        sizes = block_bytes(col_part, k)
        total = int(sizes.sum())
        return cls(
            total - sizes, "B_replica", group=col_part.n_parts,
            gather_ops=1, gather_payload=total,
            step_bytes=int(sizes.max()), foreign=total - sizes,
        )

    @classmethod
    def async_coarse(cls, col_part, k: int, nnz_rb: np.ndarray):
        """Every rank gets each foreign block its slab touches
        (``nnz_rb``: stored nonzeros per (rank, block))."""
        sizes = block_bytes(col_part, k)
        needed = nnz_rb > 0
        np.fill_diagonal(needed, False)
        owners = tuple(np.flatnonzero(row) for row in needed)
        return cls(
            needed @ sizes, "B_got", owners,
            tuple(sizes[blocks] for blocks in owners),
        )

    @classmethod
    def dense_shifting(cls, col_part, k: int, replication: int):
        """DS(``c``): an allgather inside each group of ``c`` ranks,
        then ``p / c`` held bundles with a shift between them."""
        p = col_part.n_parts
        c = min(replication, p)
        n_groups = math.ceil(p / c)
        block = col_part.max_size() * k * 8
        # Replica bundle (c blocks) plus a same-sized receive bundle:
        # the cyclic shift is double-buffered, as in the reference
        # implementation, so peak footprint is ~2c blocks.
        bundle_blocks = c + (c if n_groups > 1 else 0)
        return cls(
            np.full(p, (bundle_blocks - 1) * block), "DS_replicas",
            group=c, gather_ops=n_groups if c > 1 else 0,
            gather_payload=p * (c - 1) * block, step_bytes=block,
            foreign=np.full(p, (c - 1) * block),
            held=ds_held_blocks(p, c), shift_bytes=c * block,
        )

    @property
    def steps(self) -> int:
        """Held steps (one when nothing is held)."""
        return 1 if self.held is None else len(self.held[0])

    def step_work(self, blocked) -> Tuple[np.ndarray, np.ndarray]:
        """Per (step, rank) nonzeros and nonempty output rows of the
        held bundle's pieces, from a :class:`BlockedMatrix`'s tables
        (the whole slab's when nothing is held)."""
        if self.held is None:
            return blocked.nnz_r[None], blocked.rows_r[None]
        ranks = np.arange(len(self.resident))
        bounds = np.arange(0, len(ranks), self.group)
        held = self.held[0] // self.group
        return tuple(
            np.add.reduceat(table, bounds, axis=1)[ranks, held]
            for table in (blocked.nnz_rb, blocked.rows_rb)
        )

    def resolve(self, faults, net) -> List[Optional[OneSidedOutcome]]:
        """Per rank, the fault policy's verdict on its gets (one piece
        per request; None on a healthy machine or without gets)."""
        if faults is None or not self.owners:
            return [None] * len(self.resident)
        return [
            resolve_onesided(faults, net, rank, owners, nbytes, 1)
            if len(owners) else None
            for rank, (owners, nbytes)
            in enumerate(zip(self.owners, self.get_bytes))
        ]


class Lanes:
    """Five-lane seconds per rank (numpy arrays over ranks)."""

    def __init__(self, n_nodes: int):
        for lane in LANES:
            setattr(self, lane, np.zeros(n_nodes))

    def totals(self) -> np.ndarray:
        """``max(sync lane, async lane) + other``, per rank."""
        return (
            np.maximum(
                self.sync_comm + self.sync_comp,
                self.async_comm + self.async_comp,
            )
            + self.other
        )

    def makespan(self) -> float:
        return float(self.totals().max())

    def add(self, other: "Lanes", ranks: np.ndarray) -> None:
        """Add ``other``'s rank ``i`` onto this instance's ``ranks[i]``."""
        for lane in LANES:
            getattr(self, lane)[ranks] += getattr(other, lane)

    def charge(self, nodes) -> None:
        """Add rank ``i`` onto ``nodes[i]`` of a time breakdown."""
        columns = [getattr(self, lane).tolist() for lane in LANES]
        for node, *seconds in zip(nodes, *columns):
            for lane, value in zip(LANES, seconds):
                setattr(node, lane, getattr(node, lane) + value)


def lane_seconds(
    schedule: BlockSchedule, machine, threads, k: int, nnz: np.ndarray,
    rows: np.ndarray, faults=None, upto: Optional[int] = None,
) -> Lanes:
    """The layer's seconds per local rank.

    ``nnz`` / ``rows`` are per (step, rank) stored nonzeros and output
    rows written (see :meth:`BlockSchedule.step_work`).  ``faults`` is
    the layer's fault plan; every fault scale of a block baseline is
    applied here.  With ``upto`` only ranks ``0 .. upto - 1`` compute
    and get (a replay cut short by a simulated OOM).
    """
    net = machine.network
    p = len(schedule.resident)
    live = p if upto is None else upto
    lanes = Lanes(p)

    def scales(of):
        """One fault multiplier per rank (1.0 on a healthy machine)."""
        return 1.0 if faults is None else np.array([of(r) for r in range(p)])

    if schedule.gather_ops:
        # A ring step is paced by the participant's worst hop.
        lanes.sync_comm += net.allgather_time(
            schedule.step_bytes, schedule.group
        ) * scales(lambda r: faults.worst_incoming_scale(r))
    comp = machine.compute.sync_panel_time(nnz, k, rows, threads.total)
    comp = comp * scales(lambda r: faults.compute_skew(r))
    comp[:, live:] = 0.0
    if schedule.held is None:
        lanes.sync_comp += comp[0]
    else:
        # Rank r receives the bundle its neighbour held.
        shift = net.p2p_time(schedule.shift_bytes) * scales(
            lambda r: faults.link_scale((r + 1) % p, r)
        )
        for step, work in enumerate(comp):
            lanes.sync_comp += work
            # Barrier wait shows up inside the communication phase.
            lanes.sync_comm += work.max(initial=0.0) - work
            if step < len(comp) - 1:
                lanes.sync_comm += shift
    gets = list(zip(schedule.get_bytes, schedule.resolve(faults, net)))
    for rank, (nbytes, outcome) in enumerate(gets[:live]):
        if outcome is None:
            get_time = sum(net.rget_time(nbytes, 1).tolist())
        else:
            get_time = outcome.async_seconds
            lanes.sync_comm[rank] += outcome.sync_seconds
            for owner, cost in outcome.root_costs:
                lanes.sync_comm[owner] += cost
        # A couple of threads issue the gets concurrently.
        lanes.async_comm[rank] += get_time / threads.async_comm
    return lanes


def book_counters(
    schedule: BlockSchedule, traffic, ranks: Sequence[int],
    outcomes: Optional[List[Optional[OneSidedOutcome]]] = None,
    resil=None, upto: Optional[int] = None, log=None,
) -> None:
    """Book the layer's traffic, local rank ``r`` counted on
    ``ranks[r]`` of ``traffic``.

    Args:
        outcomes: :meth:`BlockSchedule.resolve`'s verdicts; a get whose
            attempts ran out arrives as collective traffic, and each
            verdict's resilience counters merge into ``resil``.
        upto: ranks whose allgather leg landed before a simulated OOM
            cut the collective short; nothing else is booked then.
        log: the simulator's event recorder, called per allgather leg.
    """
    if schedule.gather_ops:
        for r in range(len(ranks) if upto is None else upto):
            nbytes = int(schedule.foreign[r])
            traffic._recv(ranks[r], nbytes)
            if log is not None:
                log("allgather", -1, ranks[r], nbytes, schedule.label)
        if upto is not None and upto < len(ranks):
            return
        traffic.collective_bytes += schedule.gather_payload
        traffic.collective_ops += schedule.gather_ops
    for rank, nbytes, outcome in zip(
        ranks, schedule.get_bytes, outcomes or [None] * len(ranks)
    ):
        traffic.count_onesided(
            rank, nbytes, None if outcome is None else outcome.fallback
        )
        if outcome is not None and resil is not None:
            resil.merge_from(outcome.stats)
    shifts = schedule.steps - 1
    traffic.p2p_bytes += shifts * len(ranks) * schedule.shift_bytes
    traffic.p2p_messages += shifts * len(ranks)
    for rank in ranks:
        traffic._recv(rank, shifts * schedule.shift_bytes)


def book_reduction(grid, row_part, k: int, traffic, log=None) -> None:
    """Book the partial-``C`` allreduce across the grid's depth: one
    ring per ``C`` row block over the ranks holding its partials.

    The payload counts once in ``collective_bytes``; each member
    receives the ring's ``2 (n - 1) / n`` share.  ``log`` records one
    event per member (the simulator's event recorder).
    """
    for block, group in enumerate(grid.reduce_groups()):
        nbytes = int(row_part.size(block) * k * 8)
        n = len(group)
        recv_each = 0 if n <= 1 else int(2 * nbytes * (n - 1) // n)
        for rank in group:
            traffic._recv(rank, recv_each)
            if log is not None:
                log("allreduce", -1, rank, recv_each, "C_allreduce")
        if n > 1:
            traffic.collective_bytes += nbytes
            traffic.collective_ops += 1
            traffic.add_dim_bytes(grid.reduce_dim, nbytes)


def reduction_seconds(
    grid, row_part, k: int, net, totals: np.ndarray, faults=None,
) -> np.ndarray:
    """Per global rank, the sync-lane seconds of that allreduce.

    Members first meet at the group barrier (the wait is charged to
    the sync lane, as dense shifting charges its step barriers), then
    pay the ring — scaled by the member's worst incoming link under
    fault injection.  ``totals`` are the ranks' breakdown totals
    before the reduction.
    """
    seconds = np.zeros(len(totals))
    for block, group in enumerate(grid.reduce_groups()):
        members = np.asarray(group)
        cost = net.allreduce_time(
            int(row_part.size(block) * k * 8), len(group)
        )
        if faults is not None:
            cost = cost * np.array(
                [faults.worst_incoming_scale(r) for r in group]
            )
        waits = totals[members].max() - totals[members]
        seconds[members] += waits + cost
    return seconds
