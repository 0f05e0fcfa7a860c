"""``run.py --compare BASE.json NEW.json``: apply the bounds.

Per workload, one row per end-to-end metric: both medians, the ratio
with its base, the bound, and a verdict.

* ``ok`` — the new median is not worse than the base's by more than
  the bound.
* ``regressed`` — it is; or an exact metric (simulated clock, bytes)
  differs at all; or ``failed_share`` grew.
* ``unresolved`` — the base's own inter-quartile range is wider than
  the bound and the two runs' samples overlap, so the pair cannot
  resolve a change of the size the bound cares about either way.

Per-layer metrics carry no bound; the exact ones (counts, bytes) are
listed when they differ, because a changed count means the model or
the schedule changed, not the speed.

Exits 1 on any regression, 2 when the two documents cannot be compared
(different seed, a smoke run), 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from catalog import END_TO_END

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def verdict(spec, base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """The verdict for one (metric, workload) pair."""
    if spec.exact:
        if spec.name == "failed_share":
            return REGRESSED if new["value"] > base["value"] else OK
        return OK if new["value"] == base["value"] else REGRESSED
    median = base["value"]
    spread = (base.get("q3", median) - base.get("q1", median)) / median
    overlap = (
        new.get("min", new["value"]) <= base.get("max", median)
        and base.get("min", median) <= new.get("max", new["value"])
    )
    if spread > spec.bound and overlap:
        return UNRESOLVED
    return REGRESSED if new["value"] > median * (1 + spec.bound) else OK


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[Tuple]:
    """Rows ``(workload, metric, base, new, unit, ratio, bound,
    verdict)`` over the workloads and metrics both documents hold."""
    rows = []
    for name, old in base["workloads"].items():
        fresh = new["workloads"].get(name)
        if fresh is None:
            continue
        for spec in END_TO_END:
            a = old.get("end_to_end", {}).get(spec.name)
            b = fresh.get("end_to_end", {}).get(spec.name)
            if a is None or b is None:
                continue
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            rows.append((
                name, spec.name, a["value"], b["value"], a["unit"], ratio,
                spec.bound, verdict(spec, a, b),
            ))
    return rows


def changed_counts(base: Dict[str, Any], new: Dict[str, Any]) -> List[Tuple]:
    """``(workload, metric, base, new)`` for every exact per-layer
    metric (unit ``count`` or ``B``) the two documents disagree on."""
    rows = []
    for name, old in base["workloads"].items():
        fresh = new["workloads"].get(name, {}).get("per_layer", {})
        for metric, a in old.get("per_layer", {}).items():
            b = fresh.get(metric)
            if b is None or a["unit"] not in ("count", "B"):
                continue
            if a["value"] != b["value"]:
                rows.append((name, metric, a["value"], b["value"]))
    return rows


def compare_files(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    for key in ("schema", "seed", "seconds"):
        if base.get(key) != new.get(key):
            print(f"cannot compare: {key} differs "
                  f"({base.get(key)!r} vs {new.get(key)!r})", file=sys.stderr)
            return 2
    if base.get("smoke") or new.get("smoke"):
        print("cannot compare: a --smoke document measures other inputs",
              file=sys.stderr)
        return 2
    rows = compare(base, new)
    print(f"{'workload':<12} {'metric':<15} {'base':>14} {'new':>14} "
          f"{'unit':<6} {'new/base':>9} {'bound':>6}  verdict")
    for name, metric, a, b, unit, ratio, bound, result in rows:
        limit = "==" if bound == 0 else f"+{bound:.0%}"
        print(f"{name:<12} {metric:<15} {a:>14.6g} {b:>14.6g} {unit:<6} "
              f"{ratio:>9.4f} {limit:>6}  {result}")
    for name, metric, a, b in changed_counts(base, new):
        print(f"{name:<12} {metric:<34} {a!r} -> {b!r}  (exact layer count)")
    counts = {
        result: sum(1 for row in rows if row[-1] == result)
        for result in (OK, REGRESSED, UNRESOLVED)
    }
    print(f"{len(rows)} rows: {counts[OK]} ok, {counts[REGRESSED]} "
          f"regressed, {counts[UNRESOLVED]} unresolved "
          f"(base {base['code']['git_commit']}, "
          f"new {new['code']['git_commit']})")
    return 1 if counts[REGRESSED] else 0
