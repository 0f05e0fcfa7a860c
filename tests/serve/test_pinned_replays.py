"""Serving replays pinned bit for bit to a committed fixture.

``pinned_replays.json`` was captured when the single-executor and the
replicated scheduler still ran two separate event loops.  Each case
replays one trace and records every outcome's timing bits
(``float.hex``), batch composition and output digest, every
:class:`~repro.serve.BatchRecord`, the serving summary and, for
replicated runs, the counter trace and per-replica stats.  The one
event loop must reproduce all of it.

Two fields are pinned loosely on purpose:

* single-executor outcomes do not record ``replica``/``attempts``:
  they read ``None``/``0`` under the old loop and ``0``/``1`` now;
* ``BatchRecord.seconds`` is compared to 12 decimals.  The old
  replicated loop derived it as ``completion - dispatched``; the one
  loop adds the winning attempt's wait to its charged seconds, which is
  the same quantity rounded differently (and exactly the service
  seconds the single-executor loop recorded).

Regenerate only for a deliberate model change::

    PYTHONPATH=src python tests/serve/test_pinned_replays.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.faults import FaultConfig
from repro.cluster.machine import MachineConfig
from repro.serve import (
    TRACE_KINDS,
    ResiliencePolicy,
    ResilientScheduler,
    ServePolicy,
    ServeScheduler,
    bursty_trace,
    make_trace,
)
from repro.sparse import erdos_renyi

FIXTURE = Path(__file__).with_name("pinned_replays.json")
N_NODES = 4
POLICY = dict(max_fused_k=64, max_batch_delay=0.05, max_queue_depth=256)


def _matrices():
    return {
        "alpha": erdos_renyi(128, 128, 900, seed=3),
        "beta": erdos_renyi(128, 128, 900, seed=4),
    }


def _single(mats, trace, fuse=True, **policy):
    return ServeScheduler(
        MachineConfig(n_nodes=N_NODES), mats,
        ServePolicy(**{**POLICY, **policy}), plan_cache=None,
    ).serve(trace, fuse=fuse)


def _replicated(mats, trace, policy, resilience, faults=None):
    return ResilientScheduler(
        MachineConfig(n_nodes=N_NODES), mats,
        ServePolicy(**{**POLICY, **policy}), ResiliencePolicy(**resilience),
        faults=faults, plan_cache=None,
    ).serve(trace, fuse=True)


def _kind_case(kind, fuse):
    def run(mats):
        trace = make_trace(kind, mats, n_requests=16, k=4, seed=7)
        return _single(mats, trace, fuse=fuse)
    return run


def _backpressure(mats):
    trace = bursty_trace(mats, n_requests=16, k=4, seed=5, burst_size=8)
    return _single(mats, trace, max_queue_depth=4)


def _starved(mats):
    starved = MachineConfig(n_nodes=N_NODES, memory_capacity=1 << 12)
    trace = [
        dataclasses.replace(req, machine=starved)
        if req.request_id % 2 == 0 else req
        for req in bursty_trace(mats, n_requests=8, k=4, seed=3,
                                burst_size=4, burst_gap=0.2)
    ]
    return _single(mats, trace)


def _degrade(mats):
    trace = bursty_trace(mats, n_requests=12, k=4, seed=7, burst_size=12)
    return _replicated(
        mats, trace,
        dict(max_queue_depth=16, max_fused_k=32, classify_k=4),
        dict(n_replicas=1, degrade_queue_fraction=0.5,
             shed_queue_fraction=1.0),
    )


def _chaos(mats):
    trace = bursty_trace(mats, n_requests=24, k=4, seed=5, burst_size=6,
                         burst_gap=0.3)
    return _replicated(
        mats, trace, dict(classify_k=4),
        dict(n_replicas=3, max_retries=4, hedge_delay=0.05),
        faults=FaultConfig.from_intensity(
            0.5, seed=2, executor_crash_rate=0.2
        ),
    )


CASES = {
    **{
        f"{kind}-{'fused' if fuse else 'serial'}": _kind_case(kind, fuse)
        for kind in TRACE_KINDS for fuse in (True, False)
    },
    "backpressure": _backpressure,
    "starved": _starved,
    "degrade": _degrade,
    "chaos": _chaos,
}

#: Cases served by the replicated configuration.
REPLICATED = ("degrade", "chaos")


def _hex(x):
    return None if x is None else float(x).hex()


def record(name, report):
    """The JSON-ready pin of one replay."""
    replicated = name in REPLICATED
    outcomes = []
    for o in report.outcomes:
        row = {
            "id": o.request_id,
            "status": o.status,
            "batch_id": o.batch_id,
            "fused_k": o.fused_k,
            "dispatched": _hex(o.dispatched),
            "completion": _hex(o.completion),
            "latency": _hex(o.latency),
            "deadline_missed": o.deadline_missed,
            "reject_reason": (
                None if o.reject_reason is None else o.reject_reason.value
            ),
            "C_sha1": (
                None if o.C is None
                else hashlib.sha1(o.C.tobytes()).hexdigest()
            ),
        }
        if replicated:
            row.update(replica=o.replica, attempts=o.attempts,
                       hedged=o.hedged, degraded=o.degraded)
        outcomes.append(row)
    pin = {
        "outcomes": outcomes,
        "batches": [
            [b.batch_id, b.matrix, list(b.tenants), _hex(b.dispatched),
             b.fused_k, b.n_requests, round(b.seconds, 12)]
            for b in report.batches
        ],
        "summary": report.serving_summary(),
    }
    if replicated:
        pin["counter_trace"] = report.counter_trace()
        pin["replica_stats"] = report.replica_stats
    # A JSON round trip turns tuples into lists and int keys into str,
    # so a fresh record compares equal to the loaded fixture.
    return json.loads(json.dumps(pin))


@pytest.fixture(scope="module")
def matrices():
    return _matrices()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_pin(name, matrices, pinned):
    got = record(name, CASES[name](matrices))
    want = pinned[name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key} moved"
    assert sorted(got) == sorted(want)


if __name__ == "__main__":
    mats = _matrices()
    doc = {name: record(name, run(mats)) for name, run in CASES.items()}
    assert doc["chaos"]["summary"]["crashes"] > 0
    assert doc["backpressure"]["summary"]["rejected"] > 0
    assert doc["starved"]["summary"]["failed"] > 0
    assert doc["degrade"]["summary"]["degraded"] > 0
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
