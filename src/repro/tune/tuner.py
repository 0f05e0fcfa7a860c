"""The autotuner: decision cache, probe mode, and drift feedback.

``Tuner`` turns :mod:`repro.tune.model` predictions into decisions:

* **Decide** — rank every (algorithm, grid) candidate by corrected
  predicted seconds and pick the fastest feasible one.
* **Cache** — decisions are content-addressed exactly like plan-cache
  entries (matrix content digest + K + machine shape + coefficients +
  candidate set + tuner version) in an in-process dict plus an
  optional atomic-write disk layer, so repeat invocations — the
  serving scheduler asking about the same matrix for every group —
  cost one dictionary lookup.
* **Probe** — optionally execute the top-2 predicted candidates on a
  truncated K-panel (simulated seconds only; dense values never affect
  the analytic clock) and keep the measured winner.  This is the
  budgeted insurance against the rare cells the model misranks.
* **Drift feedback** — every observed run can be fed back via
  :meth:`Tuner.observe`; when the mean relative drift of an
  algorithm's recent window exceeds the threshold, a multiplicative
  correction is re-fitted (:func:`repro.core.calibration.fit_correction`)
  and only the decision-cache entries whose candidate set contains
  that algorithm are invalidated — memory entries eagerly, disk
  entries lazily on their next lookup (each stores the correction
  snapshot it was decided under).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cluster.machine import MachineConfig
from ..core.calibration import fit_correction
from ..core.model import CostCoefficients
from ..core.plancache import AUTO, PlanCacheLike, matrix_content_digest
from ..dist.grid import (
    GRID_LAYOUT_CODES,
    ProcessGrid,
    enumerate_grids,
    grid_from_code,
)
from ..errors import ConfigurationError
from ..sparse.coo import COOMatrix
from .model import CandidatePrediction, CostModel, rank_predictions

#: Version of the decision logic; bumping invalidates every cached
#: decision (it participates in the key, like PLAN_FORMAT_VERSION).
TUNER_VERSION = 1

#: Default candidate algorithms (every registry entry has a mirror).
DEFAULT_ALGORITHMS = (
    "Allgather",
    "AsyncCoarse",
    "AsyncFine",
    "DS1",
    "DS2",
    "DS4",
    "DS8",
    "TwoFace",
)

#: File extension of on-disk decision entries (JSON documents).
DECISION_SUFFIX = ".tune"


@dataclass
class DecisionCacheStats:
    """Counters of decision-cache activity (plan-cache idiom)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (self.hits, self.misses, self.stores, self.invalidations)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
        }


def _grid_from_dict(doc: dict) -> ProcessGrid:
    return grid_from_code(
        GRID_LAYOUT_CODES[doc["layout"]], int(doc["p_r"]), int(doc["depth"])
    )


@dataclass
class TuneDecision:
    """One resolved (matrix, K, machine) -> (algorithm, grid) choice.

    ``candidates`` is the full ranked table (feasible candidates
    fastest-first, then infeasible ones), each entry the
    :meth:`~repro.tune.model.CandidatePrediction.as_dict` document;
    ``chosen`` indexes into it.  ``probed`` maps candidate labels to
    measured probe seconds when probe mode ran.
    """

    key: str
    k: int
    candidates: List[dict]
    chosen: int
    corrections: Dict[str, str]  # algorithm -> correction, float hex
    probed: Dict[str, float] = field(default_factory=dict)
    probe_k: Optional[int] = None
    tuner_version: int = TUNER_VERSION
    cache_hit: bool = False  # runtime flag, not persisted

    @property
    def chosen_candidate(self) -> dict:
        return self.candidates[self.chosen]

    @property
    def algorithm(self) -> str:
        return self.chosen_candidate["algorithm"]

    @property
    def grid(self) -> ProcessGrid:
        return _grid_from_dict(self.chosen_candidate)

    @property
    def grid_token(self) -> str:
        return self.chosen_candidate["grid"]

    @property
    def label(self) -> str:
        return f"{self.algorithm}@{self.grid_token}"

    @property
    def predicted_seconds(self) -> float:
        return float(self.chosen_candidate["seconds"])

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "k": self.k,
            "candidates": self.candidates,
            "chosen": self.chosen,
            "corrections": self.corrections,
            "probed": self.probed,
            "probe_k": self.probe_k,
            "tuner_version": self.tuner_version,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TuneDecision":
        return cls(
            key=doc["key"],
            k=int(doc["k"]),
            candidates=list(doc["candidates"]),
            chosen=int(doc["chosen"]),
            corrections=dict(doc["corrections"]),
            probed={k: float(v) for k, v in doc.get("probed", {}).items()},
            probe_k=doc.get("probe_k"),
            tuner_version=int(doc["tuner_version"]),
        )


class DecisionCache:
    """Content-addressed decision store: memory dict + optional disk.

    Disk writes are atomic (temp file + ``os.replace``); corrupt or
    version-mismatched entries are invalidated and deleted rather than
    raised, mirroring :class:`repro.core.plancache.PlanCache`.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = DecisionCacheStats()
        self._memory: Dict[str, TuneDecision] = {}
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}{DECISION_SUFFIX}"

    def get(self, key: str) -> Optional[TuneDecision]:
        with self._lock:
            decision = self._memory.get(key)
            if decision is not None:
                self.stats.hits += 1
                return decision
            if self.cache_dir is not None:
                path = self._path(key)
                if path.exists():
                    try:
                        doc = json.loads(path.read_text())
                        decision = TuneDecision.from_dict(doc)
                        if decision.tuner_version != TUNER_VERSION:
                            raise ValueError("tuner version mismatch")
                    except (ValueError, KeyError, TypeError, OSError):
                        self.stats.invalidations += 1
                        try:
                            path.unlink()
                        except OSError:
                            pass
                    else:
                        self._memory[key] = decision
                        self.stats.hits += 1
                        return decision
            self.stats.misses += 1
            return None

    def put(self, key: str, decision: TuneDecision) -> None:
        with self._lock:
            self._memory[key] = decision
            self.stats.stores += 1
            if self.cache_dir is None:
                return
            path = self._path(key)
            tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(decision.to_dict()))
            os.replace(tmp, path)

    def invalidate(self, key: str) -> None:
        """Drop one entry from both layers (counted once)."""
        with self._lock:
            dropped = self._memory.pop(key, None) is not None
            if self.cache_dir is not None:
                path = self._path(key)
                if path.exists():
                    try:
                        path.unlink()
                        dropped = True
                    except OSError:
                        pass
            if dropped:
                self.stats.invalidations += 1

    def invalidate_algorithm(self, algorithm: str) -> int:
        """Eagerly drop memory entries whose table names ``algorithm``.

        Disk entries are left for the lazy correction-snapshot check at
        their next :meth:`get` — only affected entries are ever
        touched.  Returns the number of entries dropped.
        """
        with self._lock:
            affected = [
                key
                for key, decision in self._memory.items()
                if any(
                    c["algorithm"] == algorithm
                    for c in decision.candidates
                )
            ]
            for key in affected:
                del self._memory[key]
                if self.cache_dir is not None:
                    path = self._path(key)
                    if path.exists():
                        try:
                            path.unlink()
                        except OSError:
                            pass
            self.stats.invalidations += len(affected)
            return len(affected)


@dataclass
class _DriftTracker:
    """Recent (predicted, observed) pairs for one algorithm."""

    window: deque

    def drift(self, correction: float) -> float:
        """Mean relative error of corrected predictions in the window."""
        if not self.window:
            return 0.0
        errs = [
            abs(obs - correction * pred) / obs
            for pred, obs in self.window
            if obs > 0
        ]
        return float(np.mean(errs)) if errs else 0.0


class Tuner:
    """Cost-model-driven layout + algorithm selection.

    Args:
        machine: the simulated machine decisions target (fault-free).
        coeffs: Two-Face coefficients the consumer will run with.
        algorithms: candidate algorithm names (default: the registry).
        grids: explicit candidate grids; default enumerates every legal
            layout over the machine's node count
            (:func:`repro.dist.grid.enumerate_grids`).
        probe: execute the top-2 predicted candidates and keep the
            measured winner (insurance against model misranking).
        probe_k: truncated panel width for probes; default
            ``max(8, k // 4)`` capped at ``k``.
        drift_threshold: mean relative drift above which an algorithm's
            correction is re-fitted (and its cached decisions dropped).
        drift_window: observations kept per algorithm for the fit.
        cache: a :class:`DecisionCache`, a directory path for a
            disk-backed one, or None for a fresh in-memory cache.
        stripe_width / classify_k / plan_cache: forwarded to the probe
            algorithms, and the first two to the cost model, so
            predictions price the configuration the consumer executes.
    """

    def __init__(
        self,
        machine: MachineConfig,
        coeffs: Optional[CostCoefficients] = None,
        algorithms: Optional[Sequence[str]] = None,
        grids: Optional[Sequence[ProcessGrid]] = None,
        probe: bool = False,
        probe_k: Optional[int] = None,
        drift_threshold: float = 0.25,
        drift_window: int = 8,
        cache: Union[DecisionCache, str, Path, None] = None,
        stripe_width: Optional[int] = None,
        classify_k: Optional[int] = None,
        plan_cache: PlanCacheLike = AUTO,
    ):
        if drift_threshold <= 0:
            raise ConfigurationError(
                f"drift_threshold must be positive: {drift_threshold}"
            )
        self.machine = machine
        self.coeffs = coeffs if coeffs is not None else CostCoefficients()
        self.algorithms = tuple(
            algorithms if algorithms is not None else DEFAULT_ALGORITHMS
        )
        self.grids = (
            list(grids)
            if grids is not None
            else enumerate_grids(machine.n_nodes)
        )
        self.probe = probe
        self.probe_k = probe_k
        self.drift_threshold = drift_threshold
        self.drift_window = drift_window
        if isinstance(cache, DecisionCache):
            self.cache = cache
        else:
            self.cache = DecisionCache(cache)
        self.stripe_width = stripe_width
        self.classify_k = classify_k
        self.plan_cache = plan_cache
        self.model = CostModel(
            machine,
            coeffs=self.coeffs,
            stripe_width=stripe_width,
            classify_k=classify_k,
        )
        self.corrections: Dict[str, float] = {}
        self.recalibrations = 0
        self.observations: List[dict] = []
        self._trackers: Dict[str, _DriftTracker] = {}

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def decision_key(self, A: COOMatrix, k: int) -> str:
        """Content hash of everything that shapes a decision."""
        m = self.machine
        parts = [
            f"tune{TUNER_VERSION}",
            matrix_content_digest(A),
            f"k{k}",
            f"p{m.n_nodes}",
            f"t{m.threads_per_node}",
            f"mem{m.memory_capacity}",
            "c" + ",".join(
                float(v).hex()
                for v in (
                    self.coeffs.beta_s, self.coeffs.alpha_s,
                    self.coeffs.beta_a, self.coeffs.alpha_a,
                    self.coeffs.gamma_a, self.coeffs.kappa_a,
                )
            ),
            f"w{self.stripe_width if self.stripe_width else 'auto'}",
            f"ck{self.classify_k if self.classify_k else -1}",
            "a" + ",".join(sorted(self.algorithms)),
            "g" + ",".join(sorted(g.cache_token() for g in self.grids)),
            f"pr{int(self.probe)}:{self.probe_k or 'auto'}",
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    # ------------------------------------------------------------------
    # Decide
    # ------------------------------------------------------------------
    def tune(self, A: COOMatrix, k: int) -> TuneDecision:
        """The cached (or freshly decided) choice for this cell."""
        key = self.decision_key(A, k)
        cached = self.cache.get(key)
        if cached is not None:
            if self._corrections_current(cached):
                # Copy: the stored entry must stay cache_hit=False so
                # earlier references to the deciding call are not
                # retroactively flagged.
                return replace(cached, cache_hit=True)
            self.cache.invalidate(key)
        decision = self._decide(A, k, key)
        self.cache.put(key, decision)
        return decision

    def _corrections_current(self, decision: TuneDecision) -> bool:
        """True when the entry was decided under today's corrections."""
        names = {c["algorithm"] for c in decision.candidates}
        snapshot = {
            name: float(self.corrections.get(name, 1.0)).hex()
            for name in sorted(names)
        }
        return snapshot == decision.corrections

    def _decide(self, A: COOMatrix, k: int, key: str) -> TuneDecision:
        predictions = self.model.predict_cell(
            A, k, self.algorithms, self.grids
        )
        ranked = rank_predictions(predictions, self.corrections)
        if not ranked:
            notes = "; ".join(
                sorted({p.note for p in predictions if p.note})
            )
            raise ConfigurationError(
                f"no feasible (algorithm, grid) candidate for this cell"
                f"{': ' + notes if notes else ''}"
            )
        infeasible = sorted(
            (p for p in predictions if not p.feasible),
            key=lambda p: p.label,
        )
        table = [p.as_dict() for p in ranked + infeasible]
        chosen = 0
        probed: Dict[str, float] = {}
        probe_k = None
        if self.probe and len(ranked) > 1:
            probe_k = self._probe_width(k)
            probed = self._run_probes(A, probe_k, ranked[:2])
            if probed:
                best = min(probed, key=lambda label: (probed[label], label))
                chosen = next(
                    i for i, c in enumerate(table)
                    if f"{c['algorithm']}@{c['grid']}" == best
                )
        snapshot = {
            name: float(self.corrections.get(name, 1.0)).hex()
            for name in sorted({p.algorithm for p in predictions})
        }
        return TuneDecision(
            key=key,
            k=k,
            candidates=table,
            chosen=chosen,
            corrections=snapshot,
            probed=probed,
            probe_k=probe_k,
        )

    def _probe_width(self, k: int) -> int:
        if self.probe_k is not None:
            return max(1, min(self.probe_k, k))
        return max(8, k // 4) if k > 8 else k

    def _run_probes(
        self,
        A: COOMatrix,
        probe_k: int,
        top: Sequence[CandidatePrediction],
    ) -> Dict[str, float]:
        """Measured simulated seconds of the leading candidates.

        The dense values never influence the analytic clock, so a
        deterministic all-ones panel keeps probes reproducible.
        """
        B = np.ones((A.shape[1], probe_k), dtype=np.float64)
        measured: Dict[str, float] = {}
        for candidate in top:
            algo = self.make_algorithm(candidate.algorithm)
            result = algo.run(A, B, self.machine, grid=candidate.grid)
            if not result.failed:
                measured[candidate.label] = result.seconds
        return measured

    def make_algorithm(self, name: str):
        """A runnable instance configured like the model priced it."""
        from ..algorithms.registry import make_algorithm
        from ..algorithms.twoface import AsyncFine, TwoFace

        if name == "TwoFace":
            return TwoFace(
                stripe_width=self.stripe_width,
                coeffs=self.coeffs,
                plan_cache=self.plan_cache,
                classify_k=self.classify_k,
            )
        if name == "AsyncFine":
            return AsyncFine(
                stripe_width=self.stripe_width,
                coeffs=self.coeffs,
                plan_cache=self.plan_cache,
            )
        return make_algorithm(name)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def observe(
        self,
        algorithm: str,
        predicted: float,
        observed: float,
        grid_token: str = "",
    ) -> bool:
        """Record one predicted-vs-observed pair; maybe recalibrate.

        Returns True when the drift threshold tripped and the
        algorithm's correction was re-fitted (affected cache entries
        are invalidated as a side effect).
        """
        correction = self.corrections.get(algorithm, 1.0)
        drift = (
            abs(observed - correction * predicted) / observed
            if observed > 0
            else 0.0
        )
        self.observations.append(
            {
                "algorithm": algorithm,
                "grid": grid_token,
                "predicted": predicted,
                "observed": observed,
                "drift": drift,
            }
        )
        tracker = self._trackers.get(algorithm)
        if tracker is None:
            tracker = _DriftTracker(deque(maxlen=self.drift_window))
            self._trackers[algorithm] = tracker
        tracker.window.append((predicted, observed))
        if tracker.drift(correction) <= self.drift_threshold:
            return False
        pairs = list(tracker.window)
        self.corrections[algorithm] = fit_correction(
            [p for p, _ in pairs], [o for _, o in pairs]
        )
        self.recalibrations += 1
        self.cache.invalidate_algorithm(algorithm)
        return True

    def record_run(self, decision: TuneDecision, observed: float) -> bool:
        """Feed a finished run of a decision back into the loop."""
        return self.observe(
            decision.algorithm,
            decision.predicted_seconds,
            observed,
            grid_token=decision.grid_token,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Telemetry snapshot: cache counters + feedback state."""
        return {
            "decision_cache": self.cache.stats.as_dict(),
            "recalibrations": self.recalibrations,
            "corrections": dict(self.corrections),
            "observations": len(self.observations),
        }
