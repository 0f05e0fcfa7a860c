"""Transport protocol: the data-plane boundary the algorithms consume.

What moved out of :class:`~repro.cluster.simmpi.SimMPI` is a *name* for
its surface, not the code: the simulator remains the reference
implementation (see :class:`~repro.transport.sim.SimTransport`).  The
surface an algorithm touches is narrow:

==================  ================================================
operation           SimMPI method(s)
==================  ================================================
one-sided gets      ``rget_row_chunks``
collectives         ``allgather`` / ``multicast``
clocks              per-node simulated clocks (``cluster.nodes[r].clock``)
accounting          ``traffic`` counters, ``events`` log, ``apply_account``
==================  ================================================

The block baselines' schedules (ring allgathers, whole-block gets,
cyclic shifts) and the grid reduction are booked on the same
``traffic`` counters and ``events`` log by
:mod:`repro.algorithms.schedule`, the module the shm transport books
them with too.

Executor transports (shm, mpi) do not re-implement that call-by-call
surface; they take the *plan* the algorithms would have driven through
it and execute the same kernels against real memory, returning the
same :class:`~repro.algorithms.base.SpMMResult` shape with wall-clock
seconds in a separate telemetry lane.
"""

from __future__ import annotations

import abc


class TransportError(RuntimeError):
    """A transport failed to execute (worker crash, bad token, ...)."""


class TransportUnavailable(TransportError):
    """The backend cannot run in this environment (missing dependency,
    no ``/dev/shm``, unsupported start method).  CI legs and tests
    treat this as a skip, not a failure."""


class Transport(abc.ABC):
    """An executor-style transport: runs a whole distributed SpMM.

    Implementations own process/worker lifecycle, memory placement, and
    timing; they must produce a result whose ``C`` matches the
    simulator's to 1e-12 for the same inputs (the conformance suite in
    ``tests/transport`` enforces this).
    """

    #: Token used by ``--transport`` and recorded in telemetry cells.
    name = "abstract"

    @classmethod
    def available(cls):
        """Whether this backend can run in the current environment."""
        return False

    @abc.abstractmethod
    def run_algorithm(self, algorithm, A, B, machine, threads=None, grid=None):
        """Execute ``algorithm`` on ``A @ B`` for ``machine``.

        Mirrors :meth:`repro.algorithms.base.DistSpMMAlgorithm.run`;
        returns an :class:`~repro.algorithms.base.SpMMResult` whose
        ``extras`` carry ``transport`` and wall-clock fields.
        """
        raise NotImplementedError
