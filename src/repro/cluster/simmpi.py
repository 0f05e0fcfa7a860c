"""Simulated MPI layer.

Algorithms in this library are written against :class:`SimMPI` the way
the paper's C++ is written against MPI: allgathers, (multi)casts, and
one-sided gets.  Because all simulated nodes
live in one address space, "transferring" dense data hands out read-only
views; what a transfer really does is

* advance the participating nodes' clocks by the network cost model,
* charge destination memory ledgers (possibly raising
  :class:`~repro.errors.OutOfMemoryError`), and
* record traffic in :class:`TrafficStats` for tests and breakdowns.

Received dense data must be treated as immutable — exactly the contract
a real ``MPI_Bcast`` buffer of the input matrix ``B`` has in the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import CommunicationError
from ..sparse.ops import expand_chunks
from .machine import Cluster


@dataclass(frozen=True)
class CommEvent:
    """One recorded communication operation.

    Attributes:
        kind: ``"allgather"``, ``"allreduce"``, ``"multicast"``,
            ``"rget"``, or ``"rget-fail"``.
        source: sending rank (the root for multicasts; -1 for
            symmetric collectives like allgather).
        destination: receiving rank (-1 when every rank receives).
        nbytes: payload bytes of this leg.
        detail: free-form context (e.g. chunk count, label).
    """

    kind: str
    source: int
    destination: int
    nbytes: int
    detail: str = ""


#: Hard cap on retained events so long simulations cannot exhaust
#: memory.  Beyond it recording stops, but never silently: every
#: dropped event is counted in :attr:`TrafficStats.events_dropped` and
#: the first drop emits a :class:`RuntimeWarning`.
MAX_RECORDED_EVENTS = 200_000


class _EventRing:
    """Preallocated structured-array store of recorded comm events.

    Creating a :class:`CommEvent` dataclass per operation is pure
    overhead on the data-plane hot path (it shows up at p=256, where a
    single execution logs hundreds of thousands of rget legs).  The
    ring stores each event as one row of a structured ndarray — the
    kind and detail strings interned into small side pools — and only
    materialises :class:`CommEvent` objects when somebody actually
    reads :attr:`SimMPI.events`.

    The buffer doubles geometrically from a small initial capacity, so
    short runs stay tiny while the longest (capped) logs settle at one
    ~22-byte row per event instead of one dataclass + 5 boxed fields.
    """

    _DTYPE = np.dtype(
        [
            ("kind", np.int16),
            ("source", np.int32),
            ("destination", np.int32),
            ("nbytes", np.int64),
            ("detail", np.int32),
        ]
    )
    _INITIAL_CAPACITY = 1024

    __slots__ = (
        "_buf", "count", "_kind_codes", "_kinds", "_detail_codes",
        "_details", "_view",
    )

    def __init__(self) -> None:
        self._buf = np.empty(self._INITIAL_CAPACITY, dtype=self._DTYPE)
        self.count = 0
        self._kind_codes: Dict[str, int] = {}
        self._kinds: List[str] = []
        self._detail_codes: Dict[str, int] = {}
        self._details: List[str] = []
        #: Materialised :class:`CommEvent` prefix; extended lazily (and
        #: in place, so a list handed out earlier keeps seeing appends).
        self._view: List[CommEvent] = []

    def append(
        self, kind: str, source: int, destination: int, nbytes: int,
        detail: str,
    ) -> None:
        i = self.count
        buf = self._buf
        if i == len(buf):
            grown = np.empty(2 * len(buf), dtype=self._DTYPE)
            grown[:i] = buf
            self._buf = buf = grown
        row = buf[i]
        row["kind"] = self._intern(self._kind_codes, self._kinds, kind)
        row["source"] = source
        row["destination"] = destination
        row["nbytes"] = nbytes
        row["detail"] = self._intern(
            self._detail_codes, self._details, detail
        )
        self.count = i + 1

    def _intern(self, codes: Dict[str, int], pool: List[str],
                text: str) -> int:
        code = codes.get(text)
        if code is None:
            code = codes[text] = len(pool)
            pool.append(text)
        return code

    def extend(
        self, kinds: List[str], kind_of, sources, destinations, nbytes,
        details: List[str], detail_of,
    ) -> None:
        """Append ``len(nbytes)`` rows as that many :meth:`append` calls
        would: same rows, same order, same side pools.

        ``kinds`` / ``details`` hold the rows' distinct strings in order
        of first appearance (so they are interned in that order);
        ``kind_of`` / ``detail_of`` index them per row.  The per-row
        arguments are arrays or, where every row agrees, scalars.
        """
        n = len(nbytes)
        lo = self.count
        buf = self._buf
        if lo + n > len(buf):
            grown = np.empty(max(2 * len(buf), lo + n), dtype=self._DTYPE)
            grown[:lo] = buf[:lo]
            self._buf = buf = grown
        rows = buf[lo:lo + n]
        rows["kind"] = np.array(
            [self._intern(self._kind_codes, self._kinds, k) for k in kinds],
            dtype=np.int16,
        )[kind_of]
        rows["source"] = sources
        rows["destination"] = destinations
        rows["nbytes"] = nbytes
        rows["detail"] = np.array(
            [self._intern(self._detail_codes, self._details, d)
             for d in details],
            dtype=np.int32,
        )[detail_of]
        self.count = lo + n

    def view(self) -> List[CommEvent]:
        """The events as a plain list, materialised on demand.

        Always the *same* list object, extended in place with any rows
        appended since the previous call — callers that stashed the
        list (``SpMMResult.events``) keep the aliasing behaviour of the
        old plain-list attribute.
        """
        events = self._view
        n = self.count
        lo = len(events)
        if lo < n:
            rows = self._buf[lo:n]
            kinds = self._kinds
            details = self._details
            events.extend(
                CommEvent(kinds[k], s, d, b, details[t])
                for k, s, d, b, t in zip(
                    rows["kind"].tolist(),
                    rows["source"].tolist(),
                    rows["destination"].tolist(),
                    rows["nbytes"].tolist(),
                    rows["detail"].tolist(),
                )
            )
        return events


def _first_seen(codes: np.ndarray):
    """``codes``' distinct values in order of first appearance (a
    list), and per element its index into them."""
    values = codes.tolist()
    index = {c: i for i, c in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(
        map(index.__getitem__, values), np.intp, len(values)
    )


@dataclass(frozen=True)
class _OneSidedCharge:
    """Accounting of one MPI_Rget/MPI_Get, applied now or deferred.

    Serial execution applies the charge immediately; pooled rank
    bodies append it to a :class:`CommAccount` and the main thread
    replays the accounts in rank order — the charge itself is the
    single code path, so deferred accounting is mutation-for-mutation
    identical to serial (clock advances, ledger order, traffic counts,
    event log).
    """

    origin: int
    target: int
    nbytes: int
    n_chunks: int
    label: str
    detail: str
    charge_memory: bool
    charge_time: bool
    time_scale: float = 1.0

    def apply(self, mpi: "SimMPI") -> None:
        node = mpi.cluster.node(self.origin)
        if self.charge_time:
            cost = mpi._net.rget_time(self.nbytes, n_chunks=self.n_chunks)
            if self.time_scale != 1.0:
                cost *= self.time_scale
            node.advance(cost)
        if self.charge_memory:
            node.memory.allocate(self.label, self.nbytes)
        mpi.traffic.onesided_bytes += self.nbytes
        mpi.traffic.onesided_requests += 1
        mpi.traffic._recv(self.origin, self.nbytes)
        mpi._log("rget", self.target, self.origin, self.nbytes, self.detail)


@dataclass(frozen=True)
class _OneSidedBatch:
    """Accounting of a stream of one-sided requests from one rank.

    One record stands for ``len(nbytes)`` pieces (``MPI_Rget``s as
    issued) fetched back to back by ``origin``; applying it leaves
    every piece of shared state — ledger (including its peak), traffic
    counters, event log — exactly as one :class:`_OneSidedCharge` per
    piece would.  ``streamed`` pieces land in one reused buffer: a
    ``free(label)`` separates consecutive pieces (each piece's rows are
    consumed before the next lands; the last stays charged, as after a
    single get); otherwise they pile up under ``label``.  An allocation
    that does not fit raises the same
    :class:`~repro.errors.OutOfMemoryError` at the same piece, with the
    same prefix applied.  Clock time is charged by the caller into the
    breakdown, not here.

    Under fault injection ``failed[i]`` attempts of piece ``i`` fail
    first and ``fallback[i]`` says its attempt budget ran out
    (:func:`~repro.cluster.faults.resolve_onesided`).  Failed attempts
    move no payload, so they only show in the event log: ``rget-fail``
    rows ``{label}:attempt0..``, then the piece's ``rget`` row — or,
    for a fallback, the ``multicast`` row ``{label}:fallback`` of its
    owner pushing the rows down the sync lane, counted as collective
    traffic.
    """

    origin: int
    targets: np.ndarray
    nbytes: np.ndarray
    n_chunks: np.ndarray
    label: str
    charge_memory: bool
    failed: Optional[np.ndarray] = None
    fallback: Optional[np.ndarray] = None
    streamed: bool = True
    #: Event detail of a successful get; default ``{label}:{n}chunks``.
    detail: Optional[str] = None

    def apply(self, mpi: "SimMPI") -> None:
        n = len(self.nbytes)
        done = n
        if self.charge_memory:
            ledger = mpi.cluster.node(self.origin).memory
            allocate = (
                ledger.allocate_streamed if self.streamed
                else ledger.allocate_stacked
            )
            done = allocate(self.label, self.nbytes)
        mpi.traffic.count_onesided(
            self.origin, self.nbytes[:done],
            None if self.fallback is None else self.fallback[:done],
        )
        mpi._log_onesided(self, done)
        if done < n:
            ledger.allocate(self.label, int(self.nbytes[done]))


@dataclass(frozen=True)
class _MulticastBatch:
    """Accounting of a series of dense-stripe multicasts (the sync lane).

    One record stands for ``len(nbytes)`` multicasts issued back to
    back: multicast ``i`` sends ``nbytes[i]`` from ``roots[i]`` to
    ``recv_ranks[recv_ptr[i]:recv_ptr[i + 1]]`` (root excluded, at
    least one receiver).  Applying it leaves every piece of shared
    state — receiver ledgers (including their peaks), traffic counters,
    event log — exactly as one ``SimMPI.multicast(...,
    charge_time=False)`` per multicast would; a receiver allocation
    that does not fit raises the same
    :class:`~repro.errors.OutOfMemoryError` at the same (multicast,
    receiver), with the same prefix applied.  Clock time is charged by
    the caller into the breakdown, not here.
    """

    roots: np.ndarray
    nbytes: np.ndarray
    recv_ptr: np.ndarray
    recv_ranks: np.ndarray
    label: str

    def apply(self, mpi: "SimMPI") -> None:
        fanout = np.diff(self.recv_ptr)
        dests = self.recv_ranks
        leg_bytes = np.repeat(self.nbytes, fanout)
        ledgers = [node.memory for node in mpi.cluster.nodes]
        room = np.array([m.capacity - m.current for m in ledgers])
        legs = len(dests)
        # Allocations only pile up, so the series fits iff its totals
        # do (float64 sums, exact below 2**53 B).
        totals = np.bincount(dests, leg_bytes, len(ledgers))
        if np.any(totals > room):
            left = room.tolist()
            for leg, (dest, size) in enumerate(
                zip(dests.tolist(), leg_bytes.tolist())
            ):
                left[dest] -= size
                if left[dest] < 0:
                    legs = leg
                    break
            totals = np.bincount(dests[:legs], leg_bytes[:legs], len(ledgers))
        # A receiver's charges land as one: ``current``, the label's
        # total and the peak end where the per-multicast sequence
        # leaves them.
        hit = np.bincount(dests[:legs], minlength=len(ledgers))
        for rank in np.flatnonzero(hit).tolist():
            ledgers[rank].allocate(self.label, int(totals[rank]))
        whole = int(np.searchsorted(self.recv_ptr, legs, side="right")) - 1
        mpi.traffic.count_multicast(self.nbytes[:whole], totals)
        if mpi._record:
            kept = min(legs, MAX_RECORDED_EVENTS - mpi._ring.count)
            if kept:
                mpi._ring.extend(
                    ["multicast"], 0, np.repeat(self.roots, fanout)[:kept],
                    dests[:kept], leg_bytes[:kept], [self.label], 0,
                )
            mpi._count_dropped(legs - kept)
        if legs < len(dests):
            ledgers[dests[legs]].allocate(self.label, int(leg_bytes[legs]))


@dataclass(frozen=True)
class _LedgerFree:
    """Deferred release of a named ledger allocation."""

    rank: int
    label: str

    def apply(self, mpi: "SimMPI") -> None:
        mpi.cluster.node(self.rank).memory.free(self.label)


class CommAccount:
    """Ordered, deferred accounting of one worker's communication.

    :class:`SimMPI` is not safe to mutate from concurrent rank bodies
    (counters, the event log, and memory ledgers are plain shared
    state).  A worker therefore passes an account to the data-plane
    calls: the *data movement* happens immediately (reads of shared
    read-only blocks are thread-safe) while every counter / ledger /
    event mutation is recorded.  The main thread replays accounts in
    rank order via :meth:`SimMPI.apply_account`, reproducing the exact
    mutation sequence of a serial run — including a mid-rank
    :class:`~repro.errors.OutOfMemoryError` leaving the same partial
    state behind.
    """

    def __init__(self) -> None:
        self.ops: List = []

    def free(self, rank: int, label: str) -> None:
        """Record a deferred ``ledger.free(label)`` on ``rank``."""
        self.ops.append(_LedgerFree(rank, label))


@dataclass
class TrafficStats:
    """Bytes and message counts by communication category.

    Attributes:
        p2p_bytes / p2p_messages: cyclic shift (MPI_Sendrecv) traffic.
        collective_bytes / collective_ops: allgather + bcast payload bytes
            (counted once per payload, not per destination) and operation
            count.
        onesided_bytes / onesided_requests: MPI_Rget traffic.
        per_node_recv_bytes: bytes received by each rank, all categories.
        events_dropped: communication events not retained in the event
            log because :data:`MAX_RECORDED_EVENTS` was reached (the
            counters above still include them).
        dim_bytes: bytes moved per process-grid dimension (``"row"`` /
            ``"col"`` for intra-layer traffic, ``"fiber"`` / ``"row"``
            for the partial-``C`` reduction); empty for 1D runs, so
            pre-grid accounting is untouched.
    """

    n_nodes: int = 0
    p2p_bytes: int = 0
    p2p_messages: int = 0
    collective_bytes: int = 0
    collective_ops: int = 0
    onesided_bytes: int = 0
    onesided_requests: int = 0
    events_dropped: int = 0
    per_node_recv_bytes: List[int] = field(default_factory=list)
    dim_bytes: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_node_recv_bytes:
            self.per_node_recv_bytes = [0] * self.n_nodes

    @property
    def total_bytes(self) -> int:
        return self.p2p_bytes + self.collective_bytes + self.onesided_bytes

    def _recv(self, rank: int, nbytes: int) -> None:
        self.per_node_recv_bytes[rank] += nbytes

    def count_onesided(
        self, rank: int, nbytes: np.ndarray,
        fallback: Optional[np.ndarray] = None,
    ) -> None:
        """Count ``len(nbytes)`` one-sided requests landing on ``rank``;
        those flagged ``fallback`` arrived by sync multicast instead."""
        moved = int(nbytes.sum())
        pushed = n_pushed = 0
        if fallback is not None:
            pushed = int(nbytes[fallback].sum())
            n_pushed = int(np.count_nonzero(fallback))
        self.onesided_bytes += moved - pushed
        self.onesided_requests += len(nbytes) - n_pushed
        self.collective_bytes += pushed
        self.collective_ops += n_pushed
        self._recv(rank, moved)

    def count_multicast(
        self, payloads: np.ndarray, received: np.ndarray
    ) -> None:
        """Count one multicast per entry of ``payloads`` (its bytes,
        counted once, not per destination) that together delivered
        ``received[rank]`` bytes to each rank."""
        self.collective_bytes += int(payloads.sum())
        self.collective_ops += len(payloads)
        for rank in np.flatnonzero(received).tolist():
            self._recv(rank, int(received[rank]))

    def add_dim_bytes(self, dim: str, nbytes: int) -> None:
        """Attribute ``nbytes`` to a grid communication dimension."""
        if dim:
            self.dim_bytes[dim] = self.dim_bytes.get(dim, 0) + int(nbytes)


class SimMPI:
    """Data-plane operations over a simulated :class:`Cluster`."""

    def __init__(self, cluster: Cluster, record_events: bool = True):
        self.cluster = cluster
        self.traffic = TrafficStats(n_nodes=cluster.n_nodes)
        self._ring = _EventRing()
        self._record = record_events
        self._net = cluster.config.network
        #: The run's compiled fault plan (None on a healthy machine).
        self.faults = getattr(cluster, "faults", None)

    @property
    def events(self) -> List[CommEvent]:
        """The recorded operations as a plain list (issue order).

        Backed by the structured-array ring; :class:`CommEvent`
        objects are materialised lazily, once, on first read.
        """
        return self._ring.view()

    def _log(self, kind: str, source: int, destination: int, nbytes: int,
             detail: str = "") -> None:
        if not self._record:
            return
        if self._ring.count < MAX_RECORDED_EVENTS:
            self._ring.append(kind, source, destination, nbytes, detail)
        else:
            self._count_dropped(1)

    def _log_onesided(self, batch: _OneSidedBatch, done: int) -> None:
        """:meth:`_log` every event row of a batch's first ``done``
        pieces — plus the failed attempts of the piece after them,
        logged before its allocation raised — in one ring append."""
        if not self._record:
            return
        # Per row: who served it, its bytes, and a code — a failed
        # attempt is -1 - attempt, the fallback multicast 0, a
        # successful get its chunk count.
        if batch.failed is None:
            targets, nbytes = batch.targets[:done], batch.nbytes[:done]
            code = batch.n_chunks[:done]
        else:
            upto = min(done + 1, len(batch.nbytes))
            failed = batch.failed[:upto]
            rows_of = failed + (np.arange(upto) < done)
            piece = np.repeat(np.arange(upto), rows_of)
            attempt = np.arange(len(piece)) - (
                np.cumsum(rows_of) - rows_of
            )[piece]
            targets, nbytes = batch.targets[piece], batch.nbytes[piece]
            code = np.where(
                attempt < failed[piece], -1 - attempt,
                np.where(batch.fallback[piece], 0, batch.n_chunks[piece]),
            )
        kept = min(len(code), MAX_RECORDED_EVENTS - self._ring.count)
        if kept:
            codes, detail_of = _first_seen(code[:kept])
            kind_of_code = [
                "rget-fail" if c < 0 else "rget" if c else "multicast"
                for c in codes
            ]
            kinds = list(dict.fromkeys(kind_of_code))
            label = batch.label
            self._ring.extend(
                kinds,
                np.array([kinds.index(k) for k in kind_of_code])[detail_of]
                if len(kinds) > 1 else 0,
                targets[:kept], batch.origin, nbytes[:kept],
                [
                    f"{label}:attempt{-1 - c}" if c < 0
                    else batch.detail or f"{label}:{c}chunks" if c
                    else f"{label}:fallback"
                    for c in codes
                ],
                detail_of,
            )
        self._count_dropped(len(code) - kept)

    def _count_dropped(self, dropped: int) -> None:
        """Count events the full log could not retain; warn on the first."""
        if dropped <= 0:
            return
        if self.traffic.events_dropped == 0:
            warnings.warn(
                f"communication event log reached {MAX_RECORDED_EVENTS} "
                "entries; further events are counted in "
                "TrafficStats.events_dropped but not retained",
                RuntimeWarning,
                stacklevel=4,
            )
        self.traffic.events_dropped += dropped

    @property
    def n_nodes(self) -> int:
        return self.cluster.n_nodes

    @property
    def network(self):
        """The interconnect cost model (for lane-level accounting)."""
        return self._net

    # ------------------------------------------------------------------
    # Collectives (synchronising)
    # ------------------------------------------------------------------
    def allgather(
        self,
        blocks: Sequence[np.ndarray],
        label: str,
        charge_memory: bool = True,
    ) -> List[np.ndarray]:
        """MPI_Allgather of one dense block per rank.

        Every rank ends up holding every block.  Each rank's ledger is
        charged for the ``n - 1`` foreign blocks it received (its own
        block is already resident).

        Args:
            blocks: one array per rank, rank order.
            label: ledger/debug label for the received replicas.
            charge_memory: set False when the caller accounts for the
                received data itself.

        Returns:
            The list of blocks (shared views), as seen by every rank.
        """
        if len(blocks) != self.n_nodes:
            raise CommunicationError(
                f"allgather needs {self.n_nodes} blocks, got {len(blocks)}"
            )
        sizes = [int(b.nbytes) for b in blocks]
        total_foreign = sum(sizes)
        self.cluster.barrier()
        for rank, node in enumerate(self.cluster.nodes):
            foreign = total_foreign - sizes[rank]
            if charge_memory:
                node.memory.allocate(label, foreign)
            # Ring allgather moves the max block size each step.
            step_cost = self._net.allgather_time(
                max(sizes, default=0), self.n_nodes
            )
            if self.faults is not None:
                # A ring step is paced by the participant's worst hop.
                step_cost *= self.faults.worst_incoming_scale(rank)
            node.advance(step_cost)
            self.traffic._recv(rank, foreign)
            self._log("allgather", -1, rank, foreign, label)
        self.traffic.collective_bytes += total_foreign
        self.traffic.collective_ops += 1
        self.cluster.barrier()
        return list(blocks)

    def absorb(
        self, sub: "SimMPI", ranks: Sequence[int], dim: str = ""
    ) -> None:
        """Merge a sub-communicator run's traffic and events into this
        instance, remapping its local ranks to the global ``ranks``.

        The grid runner executes each layer against its own
        :class:`SimMPI` (over a sub-cluster view whose nodes are shared
        with the parent, so clocks and ledgers already land globally);
        this folds the layer's *counters* back: scalar totals add,
        per-rank receive bytes remap, events replay through the parent
        log (respecting its recording cap), and the layer's total
        bytes are attributed to grid dimension ``dim``.
        """
        s = sub.traffic
        t = self.traffic
        t.p2p_bytes += s.p2p_bytes
        t.p2p_messages += s.p2p_messages
        t.collective_bytes += s.collective_bytes
        t.collective_ops += s.collective_ops
        t.onesided_bytes += s.onesided_bytes
        t.onesided_requests += s.onesided_requests
        for local, nbytes in enumerate(s.per_node_recv_bytes):
            if nbytes:
                t._recv(ranks[local], nbytes)
        for sub_dim, nbytes in s.dim_bytes.items():
            t.add_dim_bytes(sub_dim, nbytes)
        t.add_dim_bytes(dim, s.total_bytes)
        # Ring to ring: the layer's events are never materialised.
        ring = sub._ring
        n = ring.count
        kept = min(n, MAX_RECORDED_EVENTS - self._ring.count)
        if self._record and kept:
            rows = ring._buf[:kept]
            to_global = np.append(np.asarray(ranks), -1)  # -1 stays -1
            self._ring.extend(
                ring._kinds[:int(rows["kind"].max()) + 1], rows["kind"],
                to_global[rows["source"]], to_global[rows["destination"]],
                rows["nbytes"],
                ring._details[:int(rows["detail"].max()) + 1],
                rows["detail"],
            )
        if self._record:
            self._count_dropped(n - kept)
        t.events_dropped += s.events_dropped

    # ------------------------------------------------------------------
    # Multicast (participant-local time; no global barrier)
    # ------------------------------------------------------------------
    def multicast(
        self,
        root: int,
        data: np.ndarray,
        destinations: Sequence[int],
        label: str,
        charge_memory: bool = True,
        charge_time: bool = True,
    ) -> np.ndarray:
        """MPI_Ibcast of ``data`` from ``root`` to ``destinations``.

        Only the participants' clocks advance (the Two-Face sync-comm
        lane is a series of these, overlapped with async work on the
        non-participating nodes).

        Returns:
            A read-only view of the payload for the destinations.
        """
        dests = [d for d in destinations if d != root]
        nbytes = int(data.nbytes)
        cost = self._net.bcast_time(nbytes, len(dests))
        if dests and charge_time:
            root_cost = cost
            if self.faults is not None:
                # The root serves until its slowest destination is done.
                root_cost *= max(
                    self.faults.link_scale(root, d) for d in dests
                )
            self.cluster.node(root).advance(root_cost)
        for dest in dests:
            node = self.cluster.node(dest)
            if charge_time:
                dest_cost = cost
                if self.faults is not None:
                    dest_cost *= self.faults.link_scale(root, dest)
                node.advance(dest_cost)
            if charge_memory:
                node.memory.allocate(label, nbytes)
            self.traffic._recv(dest, nbytes)
            self._log("multicast", root, dest, nbytes, label)
        if dests:
            self.traffic.collective_bytes += nbytes
            self.traffic.collective_ops += 1
        return data

    # ------------------------------------------------------------------
    # One-sided
    # ------------------------------------------------------------------
    def rget_row_chunks(
        self,
        origin: int,
        target,
        source: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        label: str,
        rows: np.ndarray = None,
        charge_memory: bool = True,
        charge_time: bool = True,
        out: np.ndarray = None,
        account: "CommAccount" = None,
        request_ptr: np.ndarray = None,
    ) -> np.ndarray:
        """MPI_Rget of row chunks from ``target``'s window.

        The chunks come as the ``(offsets, sizes)`` arrays a cached
        :class:`~repro.core.formats.TransferSchedule` stores — the
        product of the coalescing optimisation — relative to ``source``
        (a dense block owned by ``target``).  One request moves all
        chunks via an ``MPI_Type_indexed`` datatype; only the *origin*
        clock advances — that is what makes the access one-sided.  The
        bounds check runs on whole arrays and the rows are gathered
        with one fancy index — the hot path of the async lane.

        With ``request_ptr`` the call is a *stream* of requests served
        by one gather: request ``i`` covers chunks
        ``request_ptr[i]:request_ptr[i + 1]`` and goes to ``target[i]``
        (``source`` then spans every target's rows, e.g. the whole
        dense matrix).  The requests reuse the destination buffer, so
        the ledger holds one at a time — each is released when the next
        lands and the last stays charged under ``label``, exactly as
        after the single request a scalar ``target`` describes.

        Args:
            target: the owning rank, or one rank per request of a
                stream.
            offsets / sizes: coalesced chunk starts and row counts,
                relative to ``source``.
            rows: optional precomputed expansion of the chunks into row
                indices (``expand_chunks(offsets, sizes)``); passed by
                callers that cache it so repeated executions skip the
                expansion too.
            out: optional destination of shape ``(total_rows, K)`` (an
                arena view); the gather writes into it instead of
                allocating a fresh array.
            account: when given, accounting is appended there for a
                later main-thread :meth:`apply_account` instead of
                mutating shared state — required off the main thread.
            request_ptr: chunk boundaries of a stream's requests, every
                request non-empty; its clock time is the caller's to
                charge (``charge_time`` must be False).
        """
        if np.any(np.equal(target, origin)):
            raise CommunicationError("rget to self is always a local access")
        n_chunks = int(len(offsets))
        if n_chunks == 0:
            return source[0:0]
        if len(sizes) != n_chunks:
            raise CommunicationError(
                f"chunk arrays disagree: {n_chunks} offsets, "
                f"{len(sizes)} sizes"
            )
        if (
            int(offsets.min()) < 0
            or int(sizes.min()) <= 0
            or int((offsets + sizes).max()) > source.shape[0]
        ):
            for first, count in zip(offsets.tolist(), sizes.tolist()):
                if first < 0 or count <= 0 or first + count > source.shape[0]:
                    raise CommunicationError(
                        f"chunk ({first}, {count}) outside block of "
                        f"{source.shape[0]} rows"
                    )
        total_rows = int(sizes.sum())
        if rows is None:
            rows = expand_chunks(offsets, sizes)
        elif len(rows) != total_rows:
            raise CommunicationError(
                f"precomputed row index has {len(rows)} rows, chunks "
                f"cover {total_rows}"
            )
        row_bytes = int(source.shape[1] * source.itemsize)
        if request_ptr is None:
            charge = _OneSidedCharge(
                origin, target, total_rows * row_bytes, n_chunks, label,
                f"{label}:{n_chunks}chunks", charge_memory, charge_time,
                self._rget_scale(origin, target),
            )
        else:
            per_request = np.diff(request_ptr)
            if (
                charge_time
                or len(per_request) != len(target)
                or request_ptr[0] != 0
                or request_ptr[-1] != n_chunks
                or int(per_request.min()) <= 0
            ):
                raise CommunicationError(
                    "a request stream needs one target per non-empty "
                    "request, boundaries covering every chunk, and "
                    "charge_time=False"
                )
            charge = _OneSidedBatch(
                origin, target,
                np.add.reduceat(sizes, request_ptr[:-1]) * row_bytes,
                per_request, label, charge_memory,
            )
        if out is None:
            fetched = source[rows]
        else:
            if out.shape != (total_rows, source.shape[1]):
                raise CommunicationError(
                    f"out buffer shape {out.shape} does not match fetched "
                    f"rows ({total_rows}, {source.shape[1]})"
                )
            fetched = np.take(source, rows, axis=0, out=out)
        if account is None:
            charge.apply(self)
        else:
            account.ops.append(charge)
        return fetched

    def apply_account(self, account: "CommAccount") -> None:
        """Replay a worker's deferred accounting on the main thread.

        Ops are applied in the order the worker issued them, so ledger
        peaks, traffic counters, clock advances, and the event log are
        exactly what a serial execution of that rank would have
        produced — including raising
        :class:`~repro.errors.OutOfMemoryError` at the same op.
        """
        for op in account.ops:
            op.apply(self)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _rget_scale(self, origin: int, target: int) -> float:
        """Link multiplier of a one-sided get (data flows target->origin)."""
        if self.faults is None:
            return 1.0
        return self.faults.link_scale(target, origin)
