"""Content-addressed persistent plan cache (amortised preprocessing).

The paper treats preprocessing as a real, one-time cost (§7.3, Table 6)
and writes the classified matrices "to the file system in a bespoke
binary format" so later runs skip classification entirely.  This module
is that skip-path as a subsystem: planning inputs are content-hashed
into a key, finished :class:`~repro.core.plan.TwoFacePlan`s are stored
under that key — in an in-process LRU layer and, optionally, on disk
via the :mod:`repro.core.serialize` v2 container — and any later
``preprocess``-equivalent call with the same inputs gets the plan back
without touching the classifier or the matrix builders.

Key derivation (see also DESIGN.md §7): SHA-256 over

* the matrix *content* digest (shape, partition width, and the raw
  row/col/val bytes — values travel inside plans, so they are part of
  the identity),
* ``k``, ``stripe_width``, ``panel_height``,
* the six :class:`~repro.core.model.CostCoefficients` (hex-exact),
* the force/override classification flags,
* the ``classify_k`` classification pin (normalised: pinning at ``k``
  itself hashes like no pin at all),
* the machine memory capacity (the §6.3 memory fallback consumes it),
* ``PLAN_FORMAT_VERSION`` — bumping the serialisation format
  invalidates every existing entry.

``classify_override`` hooks are arbitrary callables and therefore not
content-addressable; calls carrying one bypass the cache.

Disk writes are atomic (temp file + ``os.replace``) and corrupt or
truncated entries are invalidated (counted, deleted, re-planned) rather
than raised.  Counters live in a process-global
:class:`PlanCacheStats` surfaced by ``DistSpMMEngine.cache_stats()``
and the ``repro-perf/3`` telemetry schema.

The default cache is configured by the ``REPRO_PLAN_CACHE`` environment
variable: unset/empty/``off``/``0`` disables it, ``mem`` enables the
in-process layer only, anything else is a cache directory.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..cluster.machine import MachineConfig
from ..dist.matrices import DistSparseMatrix
from ..errors import ConfigurationError, FormatError
from ..sparse.coo import COOMatrix
from .model import CostCoefficients
from .plan import TwoFacePlan
from .preprocess import (
    PreprocessCostModel,
    PreprocessReport,
    derive_report,
    preprocess,
)
from .serialize import PLAN_FORMAT_VERSION, load_plan, save_plan

#: Environment variable configuring the process-global plan cache.
PLAN_CACHE_ENV = "REPRO_PLAN_CACHE"

#: Env values (case-insensitive) that disable the cache.
_DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled"})

#: Env value selecting the memory-only cache (no disk persistence).
_MEMORY_VALUE = "mem"

#: Default capacity of the in-process LRU layer, in *runs*: a 1D plan
#: fills one slot, a layer plan of a depth-``d`` grid ``1/d`` of one, so
#: a grid run costs what a 1D run costs.  Plans are a few MB at the
#: simulator's matrix scale; eight slots hold a whole Figure sweep
#: (Two-Face and AsyncFine on 1D and one grid are four).
DEFAULT_MEMORY_ENTRIES = 8

#: File extension of on-disk entries (the v2 plan container).
ENTRY_SUFFIX = ".plan"


@dataclass
class PlanCacheStats:
    """Counters of plan-cache activity.

    Attributes:
        hits: lookups served from memory or disk.
        misses: lookups that found nothing (a fresh plan was built).
        evictions: plans dropped from the in-process LRU layer.
        invalidations: on-disk entries found corrupt/truncated and
            discarded (the lookup then proceeds as a miss).
        stores: plans written into the cache.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stores: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stores = 0

    def snapshot(self) -> Tuple[int, int, int, int, int]:
        return (
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            self.stores,
        )


#: Process-global counters; every cache without an explicit sink feeds
#: them, so engines/telemetry read one place regardless of which cache
#: instance served the lookup.
PLAN_CACHE_STATS = PlanCacheStats()


def plan_cache_stats() -> PlanCacheStats:
    """The process-global plan-cache counters."""
    return PLAN_CACHE_STATS


def reset_plan_cache_stats() -> None:
    """Zero the process-global counters (test/bench hygiene)."""
    PLAN_CACHE_STATS.reset()


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def matrix_content_digest(matrix: COOMatrix) -> str:
    """SHA-256 of a COO matrix's shape and nonzero content.

    The digest is memoised on the matrix object (its arrays are treated
    as immutable throughout the library), so repeated planning against
    one cached suite matrix hashes the arrays once.
    """
    cached = getattr(matrix, "_content_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(f"coo:{matrix.shape[0]}x{matrix.shape[1]}:".encode("ascii"))
    h.update(matrix.rows.tobytes())
    h.update(matrix.cols.tobytes())
    h.update(matrix.vals.tobytes())
    digest = h.hexdigest()
    matrix._content_digest = digest
    return digest


def plan_cache_key(
    A: DistSparseMatrix,
    k: int,
    stripe_width: int,
    panel_height: int = 32,
    coeffs: Optional[CostCoefficients] = None,
    machine: Optional[MachineConfig] = None,
    force_all_async: bool = False,
    force_all_sync: bool = False,
    classify_k: Optional[int] = None,
    grid=None,
) -> str:
    """Content hash of every input that shapes the resulting plan.

    Two ``preprocess`` calls produce bitwise-identical plans iff their
    keys match; anything that can change a classification or a built
    matrix participates (see the module docstring for the full list).
    A ``classify_k`` equal to ``k`` (or None) normalises to the unpinned
    key — pinning classification at the run's own width changes
    nothing, so both spellings share one entry.  Likewise a ``grid``
    of None and an explicit ``Grid1D`` share the ``g1d`` token — both
    spell the plain 1D layout; 1.5D/2D layouts get their own entries
    (the same layer content classifies differently per layout because
    the coefficients are re-scaled to the sub-communicator).
    """
    coeffs = coeffs if coeffs is not None else CostCoefficients()
    if classify_k == k:
        classify_k = None
    grid_token = "1d" if grid is None else grid.cache_token()
    parts = [
        f"fmt{PLAN_FORMAT_VERSION}",
        matrix_content_digest(A.global_matrix),
        f"p{A.partition.n_parts}",
        f"k{k}",
        f"w{stripe_width}",
        f"h{panel_height}",
        "c" + ",".join(
            float(v).hex() for v in (
                coeffs.beta_s, coeffs.alpha_s, coeffs.beta_a,
                coeffs.alpha_a, coeffs.gamma_a, coeffs.kappa_a,
            )
        ),
        f"fa{int(force_all_async)}",
        f"fs{int(force_all_sync)}",
        # The §6.3 memory fallback flips stripes based on capacity.
        f"mem{-1 if machine is None else machine.memory_capacity}",
        # Serving's K-panel fusion pins classification at one width.
        f"ck{-1 if classify_k is None else classify_k}",
        # Process-grid layout (PR7): layer plans are layout-qualified.
        f"g{grid_token}",
    ]
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
def _remember(cache, key: str, plan: TwoFacePlan) -> None:
    """Hold ``plan`` as the most recent entry of ``cache``'s LRU (a
    :class:`PlanCache` or a namespace) and evict the oldest while the
    held plans fill more than ``max_memory_entries`` slots.  A layer
    plan of a depth-``d`` grid fills ``1/d`` of a slot (exact, so ``d``
    layers are one), which makes a grid run as cheap to hold as a 1D run.
    """
    if cache.max_memory_entries == 0:
        return
    with cache._lock:
        memory = cache._memory
        memory[key] = plan
        memory.move_to_end(key)
        used = sum(Fraction(1, p.grid_spec.depth) for p in memory.values())
        while used > cache.max_memory_entries:
            _, oldest = memory.popitem(last=False)
            used -= Fraction(1, oldest.grid_spec.depth)
            cache.stats.evictions += 1


class PlanCache:
    """Two-layer (LRU memory + optional disk) plan cache.

    Args:
        cache_dir: directory for persistent entries; None keeps plans
            in memory only.  Created on first store.
        max_memory_entries: LRU capacity in slots (a 1D plan is one,
            a depth-``d`` grid's layer plan ``1/d``); 0 disables the
            memory layer (every hit deserialises from disk).
        stats: counter sink; defaults to the process-global
            :data:`PLAN_CACHE_STATS`.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        stats: Optional[PlanCacheStats] = None,
    ):
        if max_memory_entries < 0:
            raise ConfigurationError(
                f"max_memory_entries must be >= 0: {max_memory_entries}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_memory_entries = max_memory_entries
        self.stats = stats if stats is not None else PLAN_CACHE_STATS
        self._memory: "OrderedDict[str, TwoFacePlan]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Optional[Path]:
        """On-disk location of ``key`` (None for memory-only caches)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}{ENTRY_SUFFIX}"

    def get(self, key: str) -> Optional[TwoFacePlan]:
        """The cached plan for ``key``, or None (counted as a miss).

        A corrupt or truncated disk entry is deleted and counted as an
        invalidation; the lookup then reports a miss so the caller
        falls back to a fresh plan.
        """
        with self._lock:
            plan = self._memory.get(key)
            if plan is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return plan
        plan = self._disk_load(key, self.stats)
        if plan is not None:
            self.stats.hits += 1
            _remember(self, key, plan)
            return plan
        self.stats.misses += 1
        return None

    def put(self, key: str, plan: TwoFacePlan) -> None:
        """Store ``plan`` under ``key`` in both layers.

        The disk write is atomic: the container is written to a
        pid-suffixed temp file and renamed into place, so a concurrent
        reader (or a crash mid-write) never observes a torn entry.
        """
        _remember(self, key, plan)
        self._disk_store(key, plan)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    def _disk_load(
        self, key: str, stats: PlanCacheStats
    ) -> Optional[TwoFacePlan]:
        """Load ``key`` from the disk layer (shared with namespaces).

        Corrupt or truncated entries are deleted and counted as an
        invalidation against ``stats``; the caller then treats the
        lookup as a miss.  No hit/miss counters are touched here — the
        caller attributes them (a tenant namespace attributes them to
        its own sink).
        """
        path = self.entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            return load_plan(path)
        except (FormatError, OSError, ValueError):
            stats.invalidations += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, plan: TwoFacePlan) -> None:
        """Atomically write ``key`` to the disk layer (if any)."""
        path = self.entry_path(key)
        if path is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f"{ENTRY_SUFFIX}.tmp{os.getpid()}")
        try:
            save_plan(plan, tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer (and the disk entries when asked)."""
        with self._lock:
            self._memory.clear()
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for entry in self.cache_dir.glob(f"*{ENTRY_SUFFIX}"):
                try:
                    entry.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


# ----------------------------------------------------------------------
# Per-tenant namespaces (serving layer)
# ----------------------------------------------------------------------
class PlanCacheNamespace:
    """A tenant-scoped view over a shared :class:`PlanCache`.

    The serving layer (:mod:`repro.serve`) gives every tenant its own
    namespace.  Content addressing means two tenants planning the same
    (matrix, K, config) produce the *same* key, so the expensive disk
    entry is written once and shared — but each namespace keeps its own
    in-memory LRU layer and its own :class:`PlanCacheStats` sink, so one
    tenant's working set can neither evict another's hot plans nor
    pollute another's hit-rate accounting.

    Args:
        parent: the shared cache whose disk layer is reused.  A
            memory-only parent still isolates tenants; they simply have
            nothing to share.
        tenant: namespace label (surfaced in serving telemetry).
        max_memory_entries: per-tenant LRU capacity; 0 disables the
            namespace memory layer (every hit deserialises from disk).
    """

    def __init__(
        self,
        parent: PlanCache,
        tenant: str,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        if not isinstance(parent, PlanCache):
            raise ConfigurationError(
                f"namespace parent must be a PlanCache: {parent!r}"
            )
        if max_memory_entries < 0:
            raise ConfigurationError(
                f"max_memory_entries must be >= 0: {max_memory_entries}"
            )
        self.parent = parent
        self.tenant = tenant
        self.max_memory_entries = max_memory_entries
        self.stats = PlanCacheStats()  # namespace-local, not global
        self._memory: "OrderedDict[str, TwoFacePlan]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def cache_dir(self) -> Optional[Path]:
        """The shared disk directory (None for memory-only parents)."""
        return self.parent.cache_dir

    def get(self, key: str) -> Optional[TwoFacePlan]:
        """The cached plan for ``key``, counted against this tenant."""
        with self._lock:
            plan = self._memory.get(key)
            if plan is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return plan
        plan = self.parent._disk_load(key, self.stats)
        if plan is not None:
            self.stats.hits += 1
            _remember(self, key, plan)
            return plan
        self.stats.misses += 1
        return None

    def put(self, key: str, plan: TwoFacePlan) -> None:
        """Store ``plan``: tenant LRU + the shared disk layer."""
        _remember(self, key, plan)
        self.parent._disk_store(key, plan)
        self.stats.stores += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


# ----------------------------------------------------------------------
# Process-global cache (resolved from REPRO_PLAN_CACHE)
# ----------------------------------------------------------------------
_GLOBAL_CACHE: Optional[PlanCache] = None
#: Env value the global cache was resolved from; a sentinel of None
#: means "never resolved / explicitly configured".
_GLOBAL_SOURCE: Optional[str] = None
_GLOBAL_EXPLICIT = False
_GLOBAL_LOCK = threading.Lock()


def get_plan_cache() -> Optional[PlanCache]:
    """The process-global cache per ``REPRO_PLAN_CACHE`` (or None).

    The env variable is re-read on every call, so tests and benchmarks
    that flip it mid-process see the change; the cache instance (and
    its warm memory layer) is reused while the value is stable.  An
    explicit :func:`configure_plan_cache` overrides the environment
    until :func:`reset_plan_cache`.
    """
    global _GLOBAL_CACHE, _GLOBAL_SOURCE
    with _GLOBAL_LOCK:
        if _GLOBAL_EXPLICIT:
            return _GLOBAL_CACHE
        raw = os.environ.get(PLAN_CACHE_ENV, "").strip()
        if raw != _GLOBAL_SOURCE:
            _GLOBAL_SOURCE = raw
            if raw.lower() in _DISABLED_VALUES:
                _GLOBAL_CACHE = None
            elif raw.lower() == _MEMORY_VALUE:
                _GLOBAL_CACHE = PlanCache(cache_dir=None)
            else:
                _GLOBAL_CACHE = PlanCache(cache_dir=raw)
        return _GLOBAL_CACHE


def configure_plan_cache(cache: Optional[PlanCache]) -> Optional[PlanCache]:
    """Install ``cache`` as the process-global cache (env is ignored)."""
    global _GLOBAL_CACHE, _GLOBAL_EXPLICIT
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE = cache
        _GLOBAL_EXPLICIT = True
        return cache


def reset_plan_cache() -> None:
    """Drop the global cache and resume resolving from the environment."""
    global _GLOBAL_CACHE, _GLOBAL_SOURCE, _GLOBAL_EXPLICIT
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE = None
        _GLOBAL_SOURCE = None
        _GLOBAL_EXPLICIT = False


#: Sentinel for "use the process-global cache" in keyword defaults.
AUTO = "auto"

#: Type accepted wherever a cache can be supplied.
PlanCacheLike = Union[None, str, PlanCache, PlanCacheNamespace]


def resolve_plan_cache(
    cache: PlanCacheLike = AUTO,
) -> Union[None, PlanCache, PlanCacheNamespace]:
    """Normalise a cache argument: AUTO → global, None → disabled.

    Tenant namespaces pass through unchanged — they share the
    get/put surface of :class:`PlanCache`.
    """
    if cache is None or isinstance(cache, (PlanCache, PlanCacheNamespace)):
        return cache
    if cache == AUTO:
        return get_plan_cache()
    raise ConfigurationError(f"not a plan cache: {cache!r}")


# ----------------------------------------------------------------------
# Cached preprocessing
# ----------------------------------------------------------------------
def cached_preprocess(
    A: DistSparseMatrix,
    k: int,
    stripe_width: int,
    coeffs: Optional[CostCoefficients] = None,
    machine: Optional[MachineConfig] = None,
    panel_height: int = 32,
    cost_model: Optional[PreprocessCostModel] = None,
    force_all_async: bool = False,
    force_all_sync: bool = False,
    classify_override: Optional[Callable] = None,
    plan_workers: Optional[int] = None,
    cache: PlanCacheLike = AUTO,
    classify_k: Optional[int] = None,
    grid=None,
) -> Tuple[TwoFacePlan, PreprocessReport]:
    """:func:`~repro.core.preprocess.preprocess` behind the plan cache.

    Same signature and return contract as ``preprocess`` plus ``cache``
    (AUTO = the ``REPRO_PLAN_CACHE``-configured global cache; None
    disables caching; or an explicit :class:`PlanCache`).  On a hit the
    plan is returned without classification or construction and the
    report is re-derived from the plan (``report.cache_hit`` is True;
    the modelled Table 6 numbers match a cold build bit-for-bit).
    Calls with a ``classify_override`` bypass the cache — the hook is
    not content-addressable.
    """
    cache = resolve_plan_cache(cache)
    if cache is None or classify_override is not None:
        return preprocess(
            A, k, stripe_width, coeffs=coeffs, machine=machine,
            panel_height=panel_height, cost_model=cost_model,
            force_all_async=force_all_async,
            force_all_sync=force_all_sync,
            classify_override=classify_override,
            plan_workers=plan_workers,
            classify_k=classify_k,
            grid=grid,
        )
    key = plan_cache_key(
        A, k, stripe_width, panel_height=panel_height, coeffs=coeffs,
        machine=machine, force_all_async=force_all_async,
        force_all_sync=force_all_sync, classify_k=classify_k,
        grid=grid,
    )
    started = time.perf_counter()
    plan = cache.get(key)
    if plan is not None:
        report = derive_report(
            plan, A.nnz, cost_model=cost_model,
            wall_seconds=time.perf_counter() - started, cache_hit=True,
        )
        return plan, report
    plan, report = preprocess(
        A, k, stripe_width, coeffs=coeffs, machine=machine,
        panel_height=panel_height, cost_model=cost_model,
        force_all_async=force_all_async, force_all_sync=force_all_sync,
        plan_workers=plan_workers, classify_k=classify_k, grid=grid,
    )
    cache.put(key, plan)
    return plan, report
