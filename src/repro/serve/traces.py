"""Synthetic request traces for the serving layer.

Three arrival patterns, all generated from a seeded
``np.random.default_rng`` so a (kind, seed, parameters) triple replays
bit-identically — including every request's dense block:

* :func:`bursty_trace` — tight bursts separated by idle gaps, the
  pattern K-panel fusion exploits best (a burst against one matrix
  fuses into one wide SpMM).
* :func:`diurnal_trace` — a smooth sinusoidal rate, peak-and-trough
  like a day of traffic.
* :func:`hot_matrix_trace` — bursty arrivals with a skewed matrix
  popularity (one hot matrix takes most requests), the scenario of the
  ``repro serve --require-speedup`` gate and the ``serve_*`` benchmark
  workloads.

Traces reference matrices by suite name; the caller supplies the loaded
:class:`~repro.sparse.coo.COOMatrix` objects (so trace generation and
matrix generation stay independently seeded).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sparse.coo import COOMatrix
from .request import ServeRequest

#: Default tenant population.
DEFAULT_TENANTS = ("tenant-a", "tenant-b", "tenant-c")

#: Trace kinds accepted by :func:`make_trace` (and ``repro serve``).
TRACE_KINDS = ("bursty", "diurnal", "hot")


def _check(matrices: Dict[str, COOMatrix], n_requests: int, k: int) -> None:
    if not matrices:
        raise ConfigurationError("a trace needs at least one matrix")
    if n_requests < 1:
        raise ConfigurationError(f"n_requests must be >= 1: {n_requests}")
    if k < 1:
        raise ConfigurationError(f"request width k must be >= 1: {k}")


def _finish(
    matrices: Dict[str, COOMatrix],
    arrivals: List[float],
    picks: List[str],
    tenants: Sequence[str],
    k: int,
    rng: np.random.Generator,
    deadline_slack: Optional[float],
) -> List[ServeRequest]:
    """Assemble requests: ids in arrival order, seeded per-request B."""
    requests = []
    for i, (arrival, name) in enumerate(zip(arrivals, picks)):
        cols = matrices[name].shape[1]
        requests.append(
            ServeRequest(
                request_id=i,
                tenant=tenants[int(rng.integers(len(tenants)))],
                matrix=name,
                B=rng.standard_normal((cols, k)),
                arrival=arrival,
                deadline=(
                    None if deadline_slack is None
                    else arrival + deadline_slack
                ),
            )
        )
    return requests


def bursty_trace(
    matrices: Dict[str, COOMatrix],
    n_requests: int = 48,
    k: int = 8,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    seed: int = 7,
    burst_size: int = 8,
    burst_gap: float = 0.5,
    intra_gap: float = 1e-4,
    deadline_slack: Optional[float] = None,
) -> List[ServeRequest]:
    """Bursts of ``burst_size`` back-to-back requests, idle in between.

    Matrices are drawn uniformly per request, so mixed-matrix bursts
    exercise the scheduler's per-group queues.
    """
    _check(matrices, n_requests, k)
    if burst_size < 1:
        raise ConfigurationError(f"burst_size must be >= 1: {burst_size}")
    rng = np.random.default_rng(seed)
    names = sorted(matrices)
    arrivals: List[float] = []
    picks: List[str] = []
    t = 0.0
    while len(arrivals) < n_requests:
        for _ in range(min(burst_size, n_requests - len(arrivals))):
            arrivals.append(t + float(rng.uniform(0.0, intra_gap)))
            picks.append(names[int(rng.integers(len(names)))])
        t += burst_gap
    order = np.argsort(arrivals, kind="stable")
    arrivals = [arrivals[i] for i in order]
    picks = [picks[i] for i in order]
    return _finish(matrices, arrivals, picks, tenants, k, rng,
                   deadline_slack)


def diurnal_trace(
    matrices: Dict[str, COOMatrix],
    n_requests: int = 48,
    k: int = 8,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    seed: int = 7,
    base_gap: float = 0.05,
    period: float = 10.0,
    amplitude: float = 0.9,
    deadline_slack: Optional[float] = None,
) -> List[ServeRequest]:
    """A smooth peak-and-trough arrival rate (sinusoidal, period long
    relative to the gaps).

    Inter-arrival gaps stretch when the instantaneous rate is low
    (``amplitude`` -> 1 makes the trough nearly silent) and compress at
    the peak, where fusion opportunities concentrate.
    """
    _check(matrices, n_requests, k)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError(
            f"amplitude must be in [0, 1): {amplitude}"
        )
    rng = np.random.default_rng(seed)
    names = sorted(matrices)
    arrivals = []
    picks = []
    t = 0.0
    for _ in range(n_requests):
        rate = 1.0 + amplitude * np.sin(2.0 * np.pi * t / period)
        rate = max(rate, 1.0 - amplitude)
        t += float(rng.exponential(base_gap / rate))
        arrivals.append(t)
        picks.append(names[int(rng.integers(len(names)))])
    return _finish(matrices, arrivals, picks, tenants, k, rng,
                   deadline_slack)


def hot_matrix_trace(
    matrices: Dict[str, COOMatrix],
    n_requests: int = 48,
    k: int = 8,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    seed: int = 7,
    hot: Optional[str] = None,
    hot_fraction: float = 0.85,
    burst_size: int = 8,
    burst_gap: float = 0.5,
    intra_gap: float = 1e-4,
    deadline_slack: Optional[float] = None,
) -> List[ServeRequest]:
    """Bursty arrivals with a skewed matrix popularity.

    ``hot`` (default: the alphabetically first matrix) receives
    ``hot_fraction`` of the requests; the rest spread uniformly over
    the other matrices.  This is the serving scenario where fusion pays
    most: bursts against the hot matrix collapse into single wide
    K-panels.
    """
    _check(matrices, n_requests, k)
    if not 0.0 < hot_fraction <= 1.0:
        raise ConfigurationError(
            f"hot_fraction must be in (0, 1]: {hot_fraction}"
        )
    names = sorted(matrices)
    hot = hot if hot is not None else names[0]
    if hot not in matrices:
        raise ConfigurationError(f"hot matrix {hot!r} not in trace set")
    cold = [n for n in names if n != hot] or [hot]
    rng = np.random.default_rng(seed)
    arrivals = []
    picks = []
    t = 0.0
    while len(arrivals) < n_requests:
        for _ in range(min(burst_size, n_requests - len(arrivals))):
            arrivals.append(t + float(rng.uniform(0.0, intra_gap)))
            if float(rng.uniform()) < hot_fraction:
                picks.append(hot)
            else:
                picks.append(cold[int(rng.integers(len(cold)))])
        t += burst_gap
    order = np.argsort(arrivals, kind="stable")
    arrivals = [arrivals[i] for i in order]
    picks = [picks[i] for i in order]
    return _finish(matrices, arrivals, picks, tenants, k, rng,
                   deadline_slack)


def make_trace(kind: str, matrices: Dict[str, COOMatrix], **kwargs):
    """Dispatch on trace ``kind`` (one of :data:`TRACE_KINDS`)."""
    makers = {
        "bursty": bursty_trace,
        "diurnal": diurnal_trace,
        "hot": hot_matrix_trace,
    }
    if kind not in makers:
        raise ConfigurationError(
            f"unknown trace kind {kind!r}; pick one of {TRACE_KINDS}"
        )
    return makers[kind](matrices, **kwargs)
