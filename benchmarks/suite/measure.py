"""The two passes a workload child process runs.

* :func:`end_to_end_pass` — untraced.  Several identically seeded builds
  (``setup_s`` is their median), then each phase's fixed number of samples, each one a
  ``time.perf_counter()`` pair around a top-level public call followed
  by its correctness check.  Every end-to-end number comes from here.
* :func:`layers_pass` — traced.  One build, one cold operation, the
  plan-store / plan-hit pair where the workload has one, then warm
  operations alternating untraced (the anchor ``trace.overhead`` is
  measured against) and traced.  Every per-layer number comes from
  here, with the probes of :mod:`catalog` installed only around the
  traced operations.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.buffers import arena_stats
from repro.core.plancache import plan_cache_stats

from catalog import (
    END_TO_END_BY_NAME,
    PER_LAYER,
    PROBES,
    missing_reason,
)
from tracer import Tracer
from workloads import Outcome, Workload, no_span

#: No phase runs fewer samples than this (``--smoke`` runs exactly 2).
MIN_SAMPLES = 3
SMOKE_SAMPLES = 2
#: A child that has already run this long stops sampling a phase early
#: (never below two samples) so a slow box still ends inside the
#: driver's per-run limit; the document records ``truncated``.
SOFT_DEADLINE_S = 120.0
#: Percentiles a timing may report as its tail.
_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

_STARTED = time.monotonic()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: List[float], unit: str = "s") -> Dict[str, Any]:
    """Median, quartiles, and the highest percentile that still has at
    least ten samples beyond it (None when ``n`` does not allow one)."""
    ordered = sorted(values)
    n = len(ordered)
    entry: Dict[str, Any] = {
        "value": statistics.median(ordered), "unit": unit, "n": n,
        "min": ordered[0], "max": ordered[-1],
    }
    if n >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
        entry["q1"], entry["q3"] = q1, q3
    else:
        entry["q1"] = entry["q3"] = ordered[0]
    entry["tail"] = None
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n - 1, int(n * p / 100.0))
            entry["tail"] = {"p": p, "value": ordered[rank]}
            break
    return entry


def sample_counts(workload: Workload, seconds: float) -> Dict[str, int]:
    """Fixed sample counts: a function of ``--seconds`` only, never of
    how fast the box turned out to be."""
    if workload.smoke:
        return {phase: SMOKE_SAMPLES for phase in workload.phases}
    return {
        phase: max(MIN_SAMPLES, round(workload.per10[phase] * seconds / 10))
        for phase in workload.phases
    }


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child
    (the shm workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# One operation
# ----------------------------------------------------------------------
def run_op(workload: Workload, phase: str,
           tracer: Optional[Tracer] = None) -> Tuple[float, Outcome]:
    """Time one operation and check it.  An operation that raises is a
    failed operation, not a crashed benchmark."""
    workload.span = no_span if tracer is None else tracer.span
    thunk = workload.op(phase)
    try:
        if tracer is None:
            started = time.perf_counter()
            out = thunk()
            seconds = time.perf_counter() - started
        else:
            with tracer.installed(PROBES), tracer.op(phase):
                started = time.perf_counter()
                out = thunk()
                seconds = time.perf_counter() - started
    except Exception:  # the op boundary: record, count, carry on
        outcome = Outcome(attempted=workload.units_per_op())
        outcome.fail(
            f"{phase} operation raised:\n{traceback.format_exc(limit=6)}",
            outcome.attempted,
        )
        return float("nan"), outcome
    return seconds, workload.check(phase, out)


def enforce_consistency(outcomes: Dict[str, List[Outcome]]) -> None:
    """Exact values identical across every sample of the run; every
    output byte equal to the first cold operation's."""
    seen: Dict[str, float] = {}
    reference: Optional[str] = None
    for phase_outcomes in outcomes.values():
        for outcome in phase_outcomes:
            if outcome.failed:
                continue
            for key, value in outcome.exact.items():
                if seen.setdefault(key, value) != value:
                    outcome.fail(
                        f"{key} changed between samples: {seen[key]!r} "
                        f"then {value!r}", outcome.attempted,
                    )
            if outcome.digest:
                if reference is None:
                    reference = outcome.digest
                elif outcome.digest != reference:
                    outcome.fail(
                        "output bytes differ from the first operation's",
                        outcome.attempted,
                    )


def tally(outcomes: Dict[str, List[Outcome]]) -> Dict[str, Any]:
    everything = [o for group in outcomes.values() for o in group]
    reasons = [r for o in everything for r in o.reasons]
    return {
        "attempted": sum(o.attempted for o in everything),
        "failed": sum(o.failed for o in everything),
        "failures": reasons[:10],
    }


# ----------------------------------------------------------------------
# Pass 1: end to end, untraced
# ----------------------------------------------------------------------
def end_to_end_pass(workload: Workload, seed: int,
                    seconds: float) -> Dict[str, Any]:
    builds = 1 if workload.smoke else workload.builds
    setup, digests = [], []
    for _ in range(builds):
        started = time.perf_counter()
        digests.append(workload.build(seed))
        setup.append(time.perf_counter() - started)
    counts = sample_counts(workload, seconds)
    durations: Dict[str, List[float]] = {}
    outcomes: Dict[str, List[Outcome]] = {}
    truncated = False
    for phase in workload.phases:
        workload.prime(phase)
        durations[phase], outcomes[phase] = [], []
        for i in range(counts[phase]):
            if i >= 2 and time.monotonic() - _STARTED > SOFT_DEADLINE_S:
                truncated = True
                break
            seconds_i, outcome = run_op(workload, phase)
            durations[phase].append(seconds_i)
            outcomes[phase].append(outcome)
    enforce_consistency(outcomes)
    if len(set(digests)) != 1:
        outcomes[workload.phases[0]][0].fail(
            "identically seeded builds produced different inputs"
        )
    rss = peak_rss_mib()

    result = tally(outcomes)
    timings: Dict[str, List[float]] = {"setup_s": setup}
    exact: Dict[str, float] = {
        "failed_share": result["failed"] / result["attempted"],
    }
    for phase in workload.phases:
        for seconds_i, outcome in zip(durations[phase], outcomes[phase]):
            if outcome.failed:
                continue
            timings.setdefault(f"{phase}_s", []).append(seconds_i)
            for key, value in outcome.samples.items():
                timings.setdefault(key, []).append(value)
            for key, value in outcome.exact.items():
                exact.setdefault(key, value)
    metrics: Dict[str, Any] = {}
    for name in workload.reports:
        unit = END_TO_END_BY_NAME[name].unit
        if name in timings:
            metrics[name] = summarize(timings[name], unit)
        elif name == "peak_rss_mib":
            metrics[name] = {"value": rss, "unit": unit}
        elif name in exact:
            metrics[name] = {
                "value": exact[name], "unit": unit, "exact": True,
            }
    result.update({
        "why": workload.why,
        "sizes": workload.sizes(),
        "samples": {p: len(durations[p]) for p in workload.phases},
        "builds": builds,
        "truncated": truncated,
        "end_to_end": metrics,
    })
    return result


# ----------------------------------------------------------------------
# Pass 2: per layer, traced
# ----------------------------------------------------------------------
def phase_table(tracer: Tracer) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``phase -> span -> {calls, busy_s, self_s}``, each the mean over
    the traced operations of that phase."""
    per_op = tracer.summarize()
    n_ops = {p: tracer.op_phase.count(p) for p in set(tracer.op_phase)}
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for op, phase in enumerate(tracer.op_phase):
        rows = table.setdefault(phase, {})
        for span, values in per_op.get(op, {}).items():
            row = rows.setdefault(
                span, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
            )
            for key, value in values.items():
                row[key] += value / n_ops[phase]
    return table


def layers_pass(workload: Workload, seed: int,
                trace_path: Optional[str]) -> Dict[str, Any]:
    tracer = Tracer()
    workload.span = tracer.span
    with tracer.op("setup"):
        workload.build(seed)

    outcomes: Dict[str, List[Outcome]] = {}
    traced_s: Dict[str, List[float]] = {}

    def traced(phase: str) -> None:
        seconds, outcome = run_op(workload, phase, tracer)
        traced_s.setdefault(phase, []).append(seconds)
        outcomes.setdefault(phase, []).append(outcome)

    workload.prime("cold")
    traced("cold")
    plancache = [0, 0, 0]
    has_planhit = "planhit" in workload.phases
    if has_planhit:
        traced("planstore")
        before = plan_cache_stats().snapshot()
        traced("planhit")
        after = plan_cache_stats().snapshot()
        plancache = [a - b for a, b in zip(after[:3], before[:3])]

    # Warm: untraced anchors and traced operations alternate, so drift
    # over the phase lands on both sides of the overhead ratio.
    workload.prime("warm")
    n_warm = SMOKE_SAMPLES if workload.smoke else workload.trace_warm
    anchors: List[float] = []
    arena_before = arena_stats().snapshot()
    plancache_before = plan_cache_stats().snapshot()
    for _ in range(n_warm):
        seconds, outcome = run_op(workload, "warm")
        anchors.append(seconds)
        outcomes.setdefault("anchor", []).append(outcome)
        traced("warm")
    arena_after = arena_stats().snapshot()
    plancache_after = plan_cache_stats().snapshot()
    for i in range(3):
        plancache[i] += (plancache_after[i] - plancache_before[i]) / (
            2 * n_warm
        )
    enforce_consistency(outcomes)

    # ---- derive the metrics ------------------------------------------
    layers = phase_table(tracer)
    n_ops = {phase: tracer.op_phase.count(phase) for phase in layers}

    def per_op(kind: str, span: str, phase: str) -> float:
        key = {"busy": "busy_s", "self": "self_s", "calls": "calls"}[kind]
        return layers.get(phase, {}).get(span, {}).get(key, 0.0)

    def counter(name: str, phase: str) -> float:
        return sum(
            value for (op, key), value in tracer.counters.items()
            if key == name and op >= 0 and tracer.op_phase[op] == phase
        ) / max(1, n_ops.get(phase, 0))

    def coverage(phase: str) -> float:
        root = f"op.{phase}"
        busy = per_op("busy", root, phase)
        return 1.0 - per_op("self", root, phase) / busy if busy else 0.0

    multiply = per_op("busy", "gnn.multiply", "warm")
    extras: Dict[str, float] = {
        "core.plancache_hits": plancache[0],
        "core.plancache_misses": plancache[1],
        "core.plancache_evictions": plancache[2],
        "cluster.arena_grows": arena_after[1] - arena_before[1],
        "gnn.multiply_overhead_s": (
            multiply - per_op("busy", "dist.distribute", "warm")
            - per_op("busy", "core.execute", "warm")
        ) if multiply else 0.0,
        "serve.engine_s": multiply if workload.serving else 0.0,
        "serve.scheduler_self_s": (
            per_op("self", "op.warm", "warm") if workload.serving else 0.0
        ),
        "trace.overhead": (
            statistics.median(traced_s["warm"]) / statistics.median(anchors)
        ),
        "trace.coverage_cold": coverage("cold"),
        "trace.coverage_warm": coverage("warm"),
    }
    extras.update(workload.layer_extras(outcomes))

    per_layer: Dict[str, Any] = {}
    for metric in PER_LAYER:
        reason = missing_reason(metric, tracer.missing)
        if reason is not None:
            per_layer[metric.name] = {
                "value": None, "unit": metric.unit, "reason": reason,
            }
            continue
        kind = metric.rule[0]
        if kind == "extra":
            value = extras.get(metric.name, 0)
        elif kind == "counter":
            value = counter(metric.name, metric.rule[1])
        else:
            value = per_op(*metric.rule)
        per_layer[metric.name] = {"value": value, "unit": metric.unit}

    result = tally(outcomes)
    result.update({
        "sizes": workload.sizes(),
        "per_layer": per_layer,
        "layers": layers,
        "trace": {
            "ops": n_ops,
            "anchor_s": anchors,
            "traced_s": traced_s["warm"],
            "spans": len(tracer.spans),
            "missing_probes": tracer.missing,
            "file": None,
        },
    })
    if trace_path is not None:
        tracer.write_chrome_trace(trace_path)
        result["trace"]["file"] = os.path.basename(trace_path)
    return result
