"""Outside-in span tracer for the canonical benchmark.

Nothing under ``src/`` knows about this module.  Spans come from two
places only:

* the benchmark's own ``with tracer.span(...)`` blocks around the
  public calls it makes, and
* *probes*: for the traced pass only, a public callable is replaced by
  a timing wrapper **in the namespace of the module that calls it**
  (``repro.core.preprocess.compute_rank_stripe_stats``) or on the class
  that owns it (``SimMPI.rget_row_chunks``), and restored afterwards.

A probe whose target no longer exists is recorded in
:attr:`Tracer.missing` with the reason and every metric derived from it
reports ``null`` — a refactor of ``src/`` never has to edit the
benchmark to keep the end-to-end numbers flowing.

Spans are ``(name, start, end, parent, op)`` tuples kept in memory;
``parent`` is the index of the enclosing span (-1 for a root) and
``op`` the index of the operation (one timed top-level call) the span
belongs to.  The benchmark runs the program serially
(``REPRO_EXEC_WORKERS`` unset), so one span stack is enough.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP = range(5)


@dataclass(frozen=True)
class Probe:
    """One callable to time from outside.

    Attributes:
        span: span name, ``<layer>.<what>``.
        module: dotted module whose namespace holds the callable.
        attr: ``"function"`` or ``"Class.method"`` inside that module.
        after: optional ``after(tracer, result)`` hook run on the
            return value — counts are taken at the same boundary the
            time is (bytes of a finished run, stripes of a built plan).
    """

    span: str
    module: str
    attr: str
    after: Optional[Callable[["Tracer", Any], None]] = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """In-memory span recorder with install/restore of probes."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: ``(op, counter name) -> value`` filled by probe hooks.
        self.counters: Dict[Tuple[int, str], float] = defaultdict(float)
        #: span name -> why it cannot be measured.
        self.missing: Dict[str, str] = {}
        #: op index -> phase label ("setup", "cold", "warm", ...).
        self.op_phase: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self._op)

    @contextmanager
    def op(self, phase: str):
        """One operation: a fresh op id and its root span ``op.<phase>``."""
        self._op = len(self.op_phase)
        self.op_phase.append(phase)
        try:
            with self.span(f"op.{phase}"):
                yield self._op
        finally:
            self._op = -1

    def count(self, name: str, value: float = 1) -> None:
        """Add to a counter of the current operation."""
        self.counters[(self._op, name)] += value

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        """``fn`` with a span around every call (kept lean: the warm
        path calls some probes thousands of times per operation)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            # The slot is reserved before the call so children can name
            # it as their parent; the record itself is one tuple written
            # once the call returns.
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._op)
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def install(self, probes: List[Probe]) -> None:
        """Patch every probe target; unresolvable ones go to ``missing``."""
        for probe in probes:
            try:
                owner, attr, raw = _resolve(probe)
            except (ImportError, AttributeError) as exc:
                self.missing[probe.span] = (
                    f"probe target {probe.target} not found: {exc}"
                )
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    self.wrap(probe.span, raw.__func__, probe.after)
                )
            else:
                wrapped = self.wrap(probe.span, raw, probe.after)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched callable (reverse install order)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, probes: List[Probe]):
        self.install(probes)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def summarize(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per operation, per span name: calls, busy and self seconds.

        ``self_s`` is the span's duration minus the part its direct
        children cover.  ``busy_s`` is the duration of the outermost
        spans of that name (a span nested inside a same-named ancestor
        is not counted twice), so ``busy_s`` of a layer is the time the
        operation spent at or below it.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        table: Dict[int, Dict[str, Dict[str, float]]] = {}
        for idx, span in enumerate(spans):
            row = table.setdefault(span[OP], {}).setdefault(
                span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            duration = span[END] - span[START]
            row["calls"] += 1
            row["self_s"] += duration - child_time[idx]
            if not self._nested_in_same_name(idx):
                row["busy_s"] += duration
        return table

    def _nested_in_same_name(self, idx: int) -> bool:
        spans = self.spans
        name = spans[idx][NAME]
        parent = spans[idx][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    def write_chrome_trace(self, path) -> int:
        """Write the spans as gzipped Chrome-trace JSON; returns the
        event count.  One track (``tid``) per operation, labelled with
        its phase, so cold and warm operations line up under each
        other in Perfetto / ``chrome://tracing``.  Of each phase only
        the first operation is written: later ones repeat it span for
        span, and the per-stripe spans make a serving trace megabytes
        per operation."""
        first_of_phase = {
            self.op_phase.index(phase) for phase in set(self.op_phase)
        }
        kept = [s for s in self.spans if s[OP] in first_of_phase]
        origin = min((s[START] for s in kept), default=0.0)
        events = [
            {
                "name": "thread_name", "ph": "M", "pid": 1, "tid": op + 1,
                "args": {"name": f"op{op}:{self.op_phase[op]}"},
            }
            for op in sorted(first_of_phase)
        ]
        for span in kept:
            events.append({
                "name": span[NAME],
                "ph": "X",
                "pid": 1,
                "tid": span[OP] + 1,
                "ts": round((span[START] - origin) * 1e6, 1),
                "dur": round((span[END] - span[START]) * 1e6, 1),
            })
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                handle, separators=(",", ":"),
            )
        return len(events)


def _resolve(probe: Probe) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of a probe target.

    The raw attribute comes from the owner's ``__dict__`` so
    ``classmethod`` / ``staticmethod`` descriptors survive the round
    trip through patch and restore.
    """
    owner: Any = importlib.import_module(probe.module)
    *path, attr = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    try:
        raw = vars(owner)[attr]
    except KeyError:
        raise AttributeError(
            f"{owner!r} does not define {attr!r}"
        ) from None
    if not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        raise AttributeError(f"{probe.target} is not callable")
    return owner, attr, raw
