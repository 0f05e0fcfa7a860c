"""Pluggable transport layer (DESIGN.md §11).

The algorithms in this library consume a narrow data-plane surface —
one-sided row-chunk gets, multicast/allgather/allreduce, group
collectives, barriers, clocks, and traffic counters.  Historically that
surface was :class:`~repro.cluster.simmpi.SimMPI` and nothing else;
this package names the boundary and provides interchangeable
implementations behind it:

* :class:`~repro.transport.sim.SimTransport` — the existing simulator,
  byte-identical to the pre-transport code path (it *is* ``SimMPI``
  plus a name tag).  The default.
* :class:`~repro.transport.shm.ShmTransport` — real OS processes over
  ``multiprocessing.shared_memory``: the dense ``B`` panel and the
  per-worker fetch arenas live in zero-copy shared segments, one-sided
  gets are direct reads of the owner's segment driven by the plan's
  cached :class:`~repro.core.formats.TransferSchedule` offsets, and
  per-rank ``perf_counter`` clocks feed a wall-clock telemetry lane.

``get_transport(name)`` resolves a CLI/config token into one of the
above.  Executor-style transports (shm) expose
``run_algorithm(algorithm, A, B, machine, ...)``; the simulator is a
data-plane class that ``DistSpMMAlgorithm.run`` instantiates inline.
"""

from __future__ import annotations

from .base import Transport, TransportError, TransportUnavailable
from .sim import SimTransport

#: Public transport tokens, in preference order.
TRANSPORT_NAMES = ("sim", "shm")


def transport_names():
    """The selectable transport tokens (CLI choices)."""
    return list(TRANSPORT_NAMES)


def get_transport(name):
    """Resolve a transport token or instance.

    Args:
        name: ``"sim"`` / ``"shm"``, ``None`` (= sim), or
            an already-constructed transport object (returned as-is,
            so callers can pass a configured
            :class:`~repro.transport.shm.ShmTransport`).

    Returns:
        ``SimTransport`` (the *class*, a ``SimMPI`` subclass the run
        loop instantiates per cluster) for the simulator, or a
        :class:`Transport` instance for executor transports.

    Raises:
        TransportError: unknown token.
        TransportUnavailable: the backend cannot run here (raised on
            use for shm, not at resolution time).
    """
    if name is None:
        return SimTransport
    if not isinstance(name, str):
        return name  # an instance (duck-typed: run_algorithm / SimMPI)
    token = name.strip().lower()
    if token in ("", "sim"):
        return SimTransport
    if token == "shm":
        from .shm import ShmTransport

        return ShmTransport()
    raise TransportError(
        f"unknown transport {name!r}; pick one of {TRANSPORT_NAMES}"
    )


__all__ = [
    "Transport",
    "TransportError",
    "TransportUnavailable",
    "SimTransport",
    "TRANSPORT_NAMES",
    "transport_names",
    "get_transport",
]
