"""Differential tests for the rank-batched fault lane.

The oracle is the per-request loop the batched lane replaced, kept
here verbatim: one request at a time, one piece at a time, one attempt
at a time, one deferred accounting op per event — with attempt outcomes
drawn from the plain-integer hash.  Everything the batched lane produces
must equal what that loop produces *bit for bit*: simulated seconds
(float hex), root costs, resilience counters, traffic counters, ledger
state and the materialised event log.
"""

import dataclasses
import hashlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.algorithms import AsyncCoarse, AsyncFine, TwoFace
from repro.algorithms.gridrun import SubFaultPlan
from repro.cluster import simmpi
from repro.cluster.faults import (
    FaultConfig,
    FaultPlan,
    ResilienceStats,
    reset_resilience_stats,
)
from repro.cluster.machine import Cluster
from repro.cluster.simmpi import (
    CommAccount,
    SimMPI,
    _OneSidedBatch,
    _OneSidedCharge,
)
from repro.core import executor, preprocess
from repro.dist import DistSparseMatrix, RowPartition
from repro.dist.grid import Grid15D, Grid2D
from repro.errors import OutOfMemoryError
from repro.runtime.pool import WORKERS_ENV, shutdown_exec_pool
from repro.sparse import SCATTER_ENV, erdos_renyi
from repro.transport.shm import ShmTransport
from tests.cluster.test_faults import scalar_u01

needs_shm = pytest.mark.skipif(
    not ShmTransport.available(),
    reason="shm transport needs fork + a writable /dev/shm",
)


@pytest.fixture(autouse=True)
def _fresh_state():
    shutdown_exec_pool()
    reset_resilience_stats()
    yield
    shutdown_exec_pool()
    reset_resilience_stats()


# ----------------------------------------------------------------------
# The oracle: the replaced per-request loop
# ----------------------------------------------------------------------
class _Op:
    """A deferred accounting op (anything with ``apply(mpi)``)."""

    def __init__(self, apply):
        self.apply = apply


def _failure_op(origin, target, nbytes, detail):
    return _Op(
        lambda mpi: mpi._log("rget-fail", target, origin, nbytes, detail)
    )


def _fallback_op(root, dest, nbytes, label, detail):
    def apply(mpi):
        mpi.cluster.node(dest).memory.allocate(label, nbytes)
        mpi.traffic.collective_bytes += nbytes
        mpi.traffic.collective_ops += 1
        mpi.traffic._recv(dest, nbytes)
        mpi._log("multicast", root, dest, nbytes, detail)

    return _Op(apply)


def attempt_fails(faults, origin, target, request_seq, attempt):
    """One attempt's outcome from the integer hash (layer-local ranks
    of a grid view map to the global ranks the plan was compiled for)."""
    if isinstance(faults, SubFaultPlan):
        origin = int(faults._global[origin])
        target = int(faults._global[target])
    rate = faults.config.rget_failure_rate
    return rate > 0.0 and scalar_u01(
        faults.config.seed, 0x1, origin, target, request_seq, attempt
    ) < rate


def greedy_pieces(chunk_sizes, max_piece_rows):
    """``(chunk_lo, chunk_hi, rows)`` pieces of at most
    ``max_piece_rows`` rows, or None when one chunk alone is too big."""
    pieces, lo, acc = [], 0, 0
    for i, size in enumerate(chunk_sizes.tolist()):
        if size > max_piece_rows:
            return None
        if acc + size > max_piece_rows:
            pieces.append((lo, i, acc))
            lo, acc = i, 0
        acc += size
    pieces.append((lo, len(chunk_sizes), acc))
    return pieces


def oracle_request(faults, net, rank, owner, pieces, label, success_detail,
                   streamed, account, resil, request_seq):
    """One request, piece by piece, attempt by attempt."""
    cfg = faults.config
    scale = faults.link_scale(owner, rank)
    async_comm = 0.0
    sync_comm = 0.0
    root_costs = []
    for piece_idx, (piece_bytes, piece_chunks) in enumerate(pieces):
        if piece_idx and streamed:
            account.free(rank, label)
        attempt = 0
        while True:
            if not attempt_fails(faults, rank, owner, request_seq, attempt):
                account.ops.append(_OneSidedCharge(
                    rank, owner, piece_bytes, piece_chunks, label,
                    success_detail(piece_chunks), True, False,
                ))
                async_comm += scale * net.rget_time(
                    piece_bytes, n_chunks=piece_chunks
                )
                break
            resil.rget_failures += 1
            async_comm += scale * net.rget_time(
                piece_bytes, n_chunks=piece_chunks
            )
            account.ops.append(_failure_op(
                rank, owner, piece_bytes, f"{label}:attempt{attempt}"
            ))
            attempt += 1
            if attempt >= cfg.rget_max_attempts:
                resil.lane_fallbacks += 1
                account.ops.append(_fallback_op(
                    owner, rank, piece_bytes, label, f"{label}:fallback"
                ))
                cost = scale * net.bcast_time(piece_bytes, 1)
                sync_comm += cost
                root_costs.append((owner, cost))
                break
            backoff = cfg.rget_backoff_base * (2 ** (attempt - 1))
            resil.retries += 1
            resil.backoff_seconds += backoff
            async_comm += backoff
        request_seq += 1
    return async_comm, sync_comm, root_costs, request_seq


def oracle_fetch_accounting(ctx, faults, rank, program, row_bytes, account):
    """Drop-in for ``executor._resilient_fetch_accounting``: the loop
    over a rank's requests that function used to be called from."""
    net = ctx.machine.network
    ledger = ctx.cluster.node(rank).memory
    headroom = ledger.capacity - ledger.current
    resil = ResilienceStats()
    comm_seconds = 0.0
    sync_comm_seconds = 0.0
    root_costs = []
    request_seq = 0
    for i, owner in enumerate(program.req_owners.tolist()):
        sizes = program.chunk_sizes[program.req_ptr[i]:program.req_ptr[i + 1]]
        total_bytes = int(sizes.sum()) * row_bytes
        if total_bytes <= headroom:
            pieces = [(total_bytes, len(sizes))]
        else:
            max_piece_rows = headroom // row_bytes
            bounds = (
                greedy_pieces(sizes, max_piece_rows)
                if max_piece_rows > 0 else None
            )
            if bounds is None:
                oom = OutOfMemoryError(
                    rank, ledger.current + total_bytes, ledger.capacity
                )
                oom.add_note(
                    f"async stripe fetch of {total_bytes} B cannot be "
                    f"re-chunked into the {headroom} B left by injected "
                    "memory pressure"
                )
                raise oom
            resil.rechunked_stripes += 1
            resil.rechunk_pieces += len(bounds)
            pieces = [(rows * row_bytes, hi - lo) for lo, hi, rows in bounds]
        a_comm, s_comm, roots, request_seq = oracle_request(
            faults, net, rank, owner, pieces, "async_rows",
            lambda c: f"async_rows:{c}chunks", True, account, resil,
            request_seq,
        )
        comm_seconds += a_comm
        sync_comm_seconds += s_comm
        root_costs.extend(roots)
        account.free(rank, "async_rows")
    return comm_seconds, sync_comm_seconds, tuple(root_costs), resil


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def fhex(value):
    return float(value).hex()


def resil_fields(resil):
    return {
        name: fhex(value) if isinstance(value, float) else value
        for name, value in resil.as_dict().items()
    }


def world(n_ranks, capacity, pinned=0, preexisting=0):
    """A fresh fault-free cluster whose rank 0 has ``pinned`` bytes held
    and, optionally, an ``"async_rows"`` allocation already live."""
    machine = MachineConfig(n_nodes=n_ranks, memory_capacity=capacity)
    cluster = Cluster(machine)
    ledger = cluster.node(0).memory
    if pinned:
        ledger.allocate("pinned", pinned)
    if preexisting:
        ledger.allocate("async_rows", preexisting)
    return SimpleNamespace(cluster=cluster, machine=machine), SimMPI(cluster)


def shared_state(mpi, rank=0):
    ledger = mpi.cluster.node(rank).memory
    return (
        ledger.current, ledger.peak, ledger.allocations(), mpi.traffic,
        list(mpi.events), mpi._ring._kinds, mpi._ring._details,
    )


def replay(mpi, account):
    """Apply an account; the OOM it raised (if any) and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            mpi.apply_account(account)
            error = None
        except OutOfMemoryError as oom:
            error = str(oom)
    return error, [str(w.message) for w in caught]


def synthetic_program(rng, n_requests, n_ranks):
    """The request table of a rank-0 program: owners, chunk tables."""
    per_request = rng.integers(1, 6, size=n_requests)
    req_ptr = np.concatenate(([0], np.cumsum(per_request)))
    chunk_sizes = rng.integers(1, 9, size=int(req_ptr[-1]))
    return SimpleNamespace(
        req_owners=rng.integers(1, n_ranks, size=n_requests),
        req_ptr=req_ptr,
        chunk_sizes=chunk_sizes,
        req_rows=np.array(
            [chunk_sizes[lo:hi].sum()
             for lo, hi in zip(req_ptr[:-1], req_ptr[1:])],
            dtype=np.int64,
        ),
        req_chunks=per_request,
    )


def run_rank(entry, config, program, row_bytes, n_ranks, capacity, pinned,
             preexisting):
    """Run one implementation of the per-rank entry point on a fresh
    world; everything observable about what it did."""
    ctx, mpi = world(n_ranks, capacity, pinned, preexisting)
    faults = FaultPlan(config, n_ranks)
    account = CommAccount()
    try:
        comm, sync, roots, resil = entry(
            ctx, faults, 0, program, row_bytes, account
        )
    except OutOfMemoryError as oom:
        return ("oom", oom.args, oom.__notes__), shared_state(mpi)
    returned = (
        fhex(comm), fhex(sync), [(o, fhex(c)) for o, c in roots],
        resil_fields(resil),
    )
    return (returned, replay(mpi, account)), shared_state(mpi)


RATES = st.sampled_from([0.0, 0.3, 1.0])
ATTEMPTS = st.integers(1, 5)
BACKOFFS = st.sampled_from([0.0, 5.0e-5, 1.3e-4])


# ----------------------------------------------------------------------
# The per-rank entry point against the per-request loop
# ----------------------------------------------------------------------
class TestRankAccounting:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_per_request_loop(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n_ranks = data.draw(st.integers(2, 6))
        program = synthetic_program(
            rng, data.draw(st.integers(0, 12)), n_ranks
        )
        row_bytes = 8 * data.draw(st.sampled_from([1, 4, 32]))
        config = FaultConfig(
            seed=data.draw(st.integers(0, 2**20)),
            rget_failure_rate=data.draw(RATES),
            rget_max_attempts=data.draw(ATTEMPTS),
            rget_backoff_base=data.draw(BACKOFFS),
            link_degradation_rate=data.draw(st.sampled_from([0.0, 0.5])),
            link_degradation_factor=2.5,
        )
        # Headroom from "not even one row" to "everything fits", so the
        # same table is fetched whole, re-chunked, or cannot be.
        capacity = 1 << 20
        headroom = (
            data.draw(st.integers(0, 45)) * row_bytes
            + data.draw(st.integers(0, row_bytes - 1))
        )
        preexisting = data.draw(st.sampled_from([0, 0, 3 * row_bytes]))
        args = (
            config, program, row_bytes, n_ranks, capacity,
            capacity - headroom - preexisting, preexisting,
        )
        got = run_rank(executor._resilient_fetch_accounting, *args)
        want = run_rank(oracle_fetch_accounting, *args)
        assert got == want

    def _squeezed(self, headroom_rows, chunk_sizes, rate=1.0, attempts=2):
        """Two requests (owners 1 and 2) with the given chunk tables on
        a rank with ``headroom_rows`` rows of memory left."""
        row_bytes = 64
        sizes = [np.asarray(s) for s in chunk_sizes]
        program = SimpleNamespace(
            req_owners=np.array([1, 2]),
            req_ptr=np.cumsum([0, len(sizes[0]), len(sizes[1])]),
            chunk_sizes=np.concatenate(sizes),
            req_rows=np.array([s.sum() for s in sizes]),
            req_chunks=np.array([len(s) for s in sizes]),
        )
        config = FaultConfig(
            seed=4, rget_failure_rate=rate, rget_max_attempts=attempts
        )
        capacity = 1 << 16
        return (
            config, program, row_bytes, 3, capacity,
            capacity - headroom_rows * row_bytes, 0,
        )

    def test_request_sequence_advances_per_piece(self):
        """A re-chunked request consumes one sequence number per piece,
        so the request after it draws from a later counter."""
        args = self._squeezed(6, [[3, 3, 3, 3], [2]], rate=0.5, attempts=3)
        got = run_rank(executor._resilient_fetch_accounting, *args)
        assert got == run_rank(oracle_fetch_accounting, *args)
        (returned, _), state = got
        resil = returned[3]
        assert (resil["rechunked_stripes"], resil["rechunk_pieces"]) == (1, 2)
        plan = FaultPlan(args[0], 3)
        # Pieces 0, 1 go to owner 1 as requests 0, 1; owner 2 is request 2.
        want = [
            int(plan.rget_failed_attempts(0, [owner], seq)[0])
            for owner, seq in [(1, 0), (1, 1), (2, 2)]
        ]
        events = state[4]
        fails = [
            sum(e.kind == "rget-fail" and e.source == owner for e in events)
            for owner in (1, 2)
        ]
        assert fails == [want[0] + want[1], want[2]]
        assert resil["rget_failures"] == sum(want)

    def test_event_rows_of_a_faulted_request(self):
        """``rget-fail`` x f, then ``rget`` (success) or ``multicast``
        (budget exhausted) — the order docs/simulation.md states."""
        args = self._squeezed(100, [[4], [5, 1]], rate=1.0, attempts=2)
        (_, (error, _)), state = run_rank(
            executor._resilient_fetch_accounting, *args
        )
        assert error is None
        assert [(e.kind, e.source, e.detail) for e in state[4]] == [
            ("rget-fail", 1, "async_rows:attempt0"),
            ("rget-fail", 1, "async_rows:attempt1"),
            ("multicast", 1, "async_rows:fallback"),
            ("rget-fail", 2, "async_rows:attempt0"),
            ("rget-fail", 2, "async_rows:attempt1"),
            ("multicast", 2, "async_rows:fallback"),
        ]
        # No rget failures (the lane runs whenever any fault class is
        # on): plain rgets, as on a healthy machine.
        calm = self._squeezed(100, [[4], [5, 1]], rate=0.0)
        _, state = run_rank(executor._resilient_fetch_accounting, *calm)
        assert [(e.kind, e.detail) for e in state[4]] == [
            ("rget", "async_rows:1chunks"), ("rget", "async_rows:2chunks"),
        ]

    def test_single_chunk_too_big_is_the_same_oom(self):
        """The second request has a 9-row chunk and 8 rows of headroom:
        same exception, same note, and nothing applied on either side
        (the body raised before its account was replayed)."""
        args = self._squeezed(8, [[4, 4], [2, 9, 2]])
        got = run_rank(executor._resilient_fetch_accounting, *args)
        want = run_rank(oracle_fetch_accounting, *args)
        assert got == want
        (tag, oom_args, notes), state = got
        assert tag == "oom"
        assert oom_args == (
            f"simulated node 0 needs {(1 << 16) - 8 * 64 + 13 * 64} B "
            f"but has capacity {1 << 16} B",
        )
        assert notes == [
            f"async stripe fetch of {13 * 64} B cannot be re-chunked "
            f"into the {8 * 64} B left by injected memory pressure"
        ]
        assert state[4] == [] and state[3].total_bytes == 0

    def test_no_headroom_at_all(self):
        args = self._squeezed(0, [[1], [1]])
        got = run_rank(executor._resilient_fetch_accounting, *args)
        assert got == run_rank(oracle_fetch_accounting, *args)
        assert got[0][0] == "oom"


# ----------------------------------------------------------------------
# The bulk accounting record against one op per event
# ----------------------------------------------------------------------
def per_op_account(origin, targets, nbytes, n_chunks, failed, budget, label,
                   detail, streamed):
    account = CommAccount()
    for target, size, chunks, f in zip(
        targets.tolist(), nbytes.tolist(), n_chunks.tolist(),
        failed.tolist(),
    ):
        for attempt in range(f):
            account.ops.append(_failure_op(
                origin, target, size, f"{label}:attempt{attempt}"
            ))
        if f >= budget:
            account.ops.append(_fallback_op(
                target, origin, size, label, f"{label}:fallback"
            ))
        else:
            account.ops.append(_OneSidedCharge(
                origin, target, size, chunks, label,
                detail or f"{label}:{chunks}chunks", True, False,
            ))
        if streamed:
            account.free(origin, label)
    return account


class TestBatchRecord:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_one_op_per_event(self, data):
        """Ledger (peak, allocations), traffic, events and the ring's
        interning order — including an OOM mid-rank (same piece, same
        prefix, the failing piece's ``rget-fail`` rows already logged),
        a pre-existing allocation under the label, both buffer
        disciplines, and the event cap running out mid-rank."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(1, 14))
        budget = data.draw(ATTEMPTS)
        targets = rng.integers(1, 4, size=n)
        nbytes = rng.integers(1, 40, size=n) * 8
        n_chunks = rng.integers(1, 5, size=n)
        failed = rng.integers(0, budget + 1, size=n)
        streamed = data.draw(st.booleans())
        detail = data.draw(st.sampled_from([None, "B_got:block"]))
        if detail:
            n_chunks[:] = 1
        capacity = data.draw(st.sampled_from([150, 400, 1200, 1 << 20]))
        preexisting = data.draw(st.sampled_from([0, 64]))
        cap = data.draw(st.sampled_from([0, 3, 11, 200_000]))
        sides = []
        old_cap = simmpi.MAX_RECORDED_EVENTS
        simmpi.MAX_RECORDED_EVENTS = cap
        try:
            for bulk in (False, True):
                _, mpi = world(4, capacity, preexisting=preexisting)
                if bulk:
                    account = CommAccount()
                    account.ops.append(_OneSidedBatch(
                        0, targets, nbytes, n_chunks, "rows", True,
                        failed, failed >= budget, streamed=streamed,
                        detail=detail,
                    ))
                    if streamed:
                        account.free(0, "rows")
                else:
                    account = per_op_account(
                        0, targets, nbytes, n_chunks, failed, budget,
                        "rows", detail, streamed,
                    )
                sides.append((replay(mpi, account), shared_state(mpi)))
        finally:
            simmpi.MAX_RECORDED_EVENTS = old_cap
        assert sides[0] == sides[1]

    def test_cap_overflow_mid_rank_warns_once(self, monkeypatch):
        monkeypatch.setattr(simmpi, "MAX_RECORDED_EVENTS", 4)
        _, mpi = world(3, 1 << 20)
        account = CommAccount()
        account.ops.append(_OneSidedBatch(
            0, np.array([1, 2, 1]), np.array([80, 160, 80]),
            np.array([1, 2, 1]), "async_rows", True,
            np.array([1, 2, 0]), np.array([False, True, False]),
        ))
        error, caught = replay(mpi, account)
        assert error is None and len(caught) == 1
        assert [(e.kind, e.detail) for e in mpi.events] == [
            ("rget-fail", "async_rows:attempt0"),
            ("rget", "async_rows:1chunks"),
            ("rget-fail", "async_rows:attempt0"),
            ("rget-fail", "async_rows:attempt1"),
        ]
        assert mpi.traffic.events_dropped == 2
        # Strings of dropped rows were never interned.
        assert "async_rows:fallback" not in mpi._ring._details
        assert "multicast" not in mpi._ring._kinds
        # Counters still see every piece.
        assert mpi.traffic.onesided_requests == 2
        assert (mpi.traffic.collective_ops, mpi.traffic.collective_bytes) == (
            1, 160
        )
        _, again = replay(mpi, account)
        assert again == []


# ----------------------------------------------------------------------
# Whole runs: the batched lane vs the loop, through every layer
# ----------------------------------------------------------------------
def fingerprint(result):
    return {
        "failed": result.failed,
        "failure": result.failure,
        "C": None if result.C is None else hashlib.sha1(
            np.ascontiguousarray(result.C).tobytes()
        ).hexdigest(),
        "seconds": fhex(result.seconds),
        "breakdown": [
            [fhex(v) for v in dataclasses.astuple(node)]
            for node in result.breakdown.nodes
        ],
        "traffic": result.traffic,
        "events": list(result.events),
        "resilience": {
            k: fhex(v) if isinstance(v, float) else v
            for k, v in result.extras.get("resilience", {}).items()
        },
    }


def run_with(monkeypatch, entry, algorithm, A, B, machine, grid=None,
             workers=None, scatter=None):
    if workers is None:
        monkeypatch.delenv(WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(WORKERS_ENV, str(workers))
    if scatter is None:
        monkeypatch.delenv(SCATTER_ENV, raising=False)
    else:
        monkeypatch.setenv(SCATTER_ENV, scatter)
    monkeypatch.setattr(executor, "_resilient_fetch_accounting", entry)
    shutdown_exec_pool()
    reset_resilience_stats()
    return fingerprint(algorithm().run(A, B, machine, grid=grid))


BATCHED = executor._resilient_fetch_accounting


class TestWholeRuns:
    @pytest.mark.parametrize("scatter", ["segmented", "atomic"])
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "pool4"])
    def test_squeezed_1d_run_equals_loop(self, monkeypatch, workers, scatter):
        """Memory pressure on every rank forces re-chunking; widths and
        scatter kernels must not show in any simulated quantity."""
        A = erdos_renyi(512, 512, 512 * 6, seed=2)
        B = np.random.default_rng(0).standard_normal((512, 256))
        machine = MachineConfig(
            n_nodes=4, memory_capacity=1200 * 1024,
            faults=FaultConfig(
                seed=11, memory_pressure_rate=1.0,
                memory_pressure_fraction=0.5, rget_failure_rate=0.5,
                rget_max_attempts=2, link_degradation_rate=0.3,
            ),
        )
        make = lambda: TwoFace(stripe_width=64, force_all_async=True)
        args = (make, A, B, machine)
        got = run_with(
            monkeypatch, BATCHED, *args, workers=workers, scatter=scatter
        )
        want = run_with(
            monkeypatch, oracle_fetch_accounting, *args, scatter=scatter
        )
        assert not got["failed"]
        assert got["resilience"]["rechunked_stripes"] > 0
        assert got["resilience"]["lane_fallbacks"] > 0
        assert got == want

    @pytest.mark.parametrize(
        "grid", [Grid15D(p_r=4, c=2), Grid2D(p_r=4, p_c=2)],
        ids=lambda g: g.cache_token(),
    )
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "pool4"])
    def test_grid_run_equals_loop(self, monkeypatch, grid, workers):
        """On 1.5D/2D each layer draws through a ``SubFaultPlan``."""
        A = erdos_renyi(256, 256, 6000, seed=11)
        B = np.random.default_rng(99).standard_normal((256, 16))
        machine = MachineConfig(
            n_nodes=8, faults=FaultConfig.from_intensity(0.4, seed=5)
        )
        args = (lambda: AsyncFine(stripe_width=8), A, B, machine, grid)
        got = run_with(monkeypatch, BATCHED, *args, workers=workers)
        want = run_with(monkeypatch, oracle_fetch_accounting, *args)
        assert got["resilience"]["rget_failures"] > 0
        assert got == want

    def test_subfaultplan_remaps_rank_arrays(self):
        config = FaultConfig(
            seed=9, rget_failure_rate=0.5, link_degradation_rate=0.5
        )
        parent = FaultPlan(config, 8)
        ranks = [1, 3, 5, 7]
        view = SubFaultPlan(parent, ranks)
        targets = np.array([1, 2, 3, 1, 2])
        assert view.rget_failed_attempts(0, targets, 3).tolist() == (
            parent.rget_failed_attempts(1, [3, 5, 7, 3, 5], 3).tolist()
        )
        assert view.rget_failed_attempts(0, targets, 3).tolist() == [
            ([
                attempt_fails(view, 0, int(t), 3 + i, a)
                for a in range(config.rget_max_attempts)
            ] + [False]).index(False)
            for i, t in enumerate(targets)
        ]
        assert view.link_scale(targets, 0).tolist() == [
            parent.link_scale(ranks[t], 1) for t in targets
        ]


# ----------------------------------------------------------------------
# The other two consumers of the policy function
# ----------------------------------------------------------------------
COARSE_FAULTS = FaultConfig(
    seed=42, rget_failure_rate=0.6, rget_max_attempts=3,
    rget_backoff_base=1.0e-6, link_degradation_rate=0.3,
)


def coarse_problem():
    A = erdos_renyi(64, 64, 320, seed=7)
    B = np.random.default_rng(2).standard_normal((64, 8))
    machine = MachineConfig(
        n_nodes=8, memory_capacity=1 << 30, faults=COARSE_FAULTS
    )
    return A, B, machine


def coarse_oracle(A, B, machine):
    """AsyncCoarse's whole-block gets through the per-request loop, on
    a scratch cluster; per-rank lane seconds, counters, and the
    scratch ``SimMPI`` holding traffic and events."""
    p = machine.n_nodes
    faults = FaultPlan(machine.faults, p)
    ctx, mpi = world(p, 1 << 30)
    row_part = RowPartition(A.shape[0], p)
    col_part = RowPartition(B.shape[0], p)
    resil = ResilienceStats()
    lanes = []
    for rank in range(p):
        lo, hi = row_part.bounds(rank)
        cols = A.cols[(A.rows >= lo) & (A.rows < hi)]
        account = CommAccount()
        rank_resil = ResilienceStats()
        get_time = sync_time = 0.0
        roots = []
        seq = 0
        for owner in np.unique(col_part.owners_of(cols)).tolist():
            if owner == rank:
                continue
            nbytes = col_part.size(owner) * B.shape[1] * 8
            a, s, r, seq = oracle_request(
                faults, machine.network, rank, owner, [(nbytes, 1)],
                "B_got", lambda c: "B_got:block", False, account,
                rank_resil, seq,
            )
            get_time += a
            sync_time += s
            roots.extend(r)
        mpi.apply_account(account)
        resil.merge_from(rank_resil)
        lanes.append((get_time, sync_time, roots))
    return lanes, resil, mpi


INTEGER_COUNTERS = ("rget_failures", "retries", "lane_fallbacks")


class TestOtherConsumers:
    def test_async_coarse_sim_equals_loop(self):
        A, B, machine = coarse_problem()
        result = AsyncCoarse().run(A, B, machine)
        lanes, resil, scratch = coarse_oracle(A, B, machine)
        assert resil.rget_failures > 0 and resil.lane_fallbacks > 0
        got = result.extras["resilience"]
        for name in INTEGER_COUNTERS:
            assert got[name] == getattr(resil, name)
        assert fhex(got["backoff_seconds"]) == fhex(resil.backoff_seconds)
        # Whole-block gets are AsyncCoarse's only communication.
        assert list(result.events) == list(scratch.events)
        assert result.traffic == scratch.traffic
        want_sync = [0.0] * machine.n_nodes
        for rank, (get_time, sync_time, roots) in enumerate(lanes):
            node = result.breakdown.nodes[rank]
            assert fhex(node.async_comm) == fhex(get_time / 2)
            want_sync[rank] += sync_time
            for owner, cost in roots:
                want_sync[owner] += cost
        # Same fold order as the algorithm: rank by rank, a rank's own
        # fallbacks, then the root costs it charges their owners.
        assert [fhex(n.sync_comm) for n in result.breakdown.nodes] == [
            fhex(s) for s in want_sync
        ]

    @needs_shm
    def test_shm_counters_equal_loop(self):
        """The driver resolves through the same policy function: its
        integer counters are the loop's, for both one-sided builders."""
        A, B, machine = coarse_problem()
        _, resil, scratch = coarse_oracle(A, B, machine)
        shm = AsyncCoarse().run(
            A, B, machine, transport=ShmTransport(processes=2)
        )
        for name in INTEGER_COUNTERS:
            assert shm.extras["resilience"][name] == getattr(resil, name)
        assert shm.traffic.onesided_bytes == scratch.traffic.onesided_bytes
        assert shm.traffic.collective_ops == scratch.traffic.collective_ops

        p, k = machine.n_nodes, B.shape[1]
        plan, _ = preprocess(
            DistSparseMatrix(A, RowPartition(A.shape[0], p)), k=k,
            stripe_width=4, machine=machine, force_all_async=True,
        )
        shm = TwoFace(plan=plan).run(
            A, B, machine, transport=ShmTransport(processes=2)
        )
        faults = FaultPlan(machine.faults, p)
        resil = ResilienceStats()
        for rank in range(p):
            program = plan.rank_plan(rank).async_matrix.program()
            seq = 0
            for owner, rows in zip(
                program.req_owners.tolist(), program.req_rows.tolist()
            ):
                _, _, _, seq = oracle_request(
                    faults, machine.network, rank, owner,
                    [(rows * k * 8, 1)], "async_rows", str, True,
                    CommAccount(), resil, seq,
                )
        assert resil.rget_failures > 0
        for name in INTEGER_COUNTERS:
            assert shm.extras["resilience"][name] == getattr(resil, name)
