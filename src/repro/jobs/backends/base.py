"""The executor-backend protocol the farm engine dispatches through.

The :class:`~repro.jobs.engine.ExecutionEngine` owns everything about a
run that must be *policy* — retry accounting, backoff, corrupt-input
healing, dead-job quarantine, the farm report.  A backend
owns only *mechanism*: given a ready job payload, run it somewhere and
eventually hand back a :class:`Completion`.  The engine drives every
backend through the same loop::

    while pending or backend.in_flight:
        submit ready jobs while backend.can_accept()
        for completion in backend.poll(budget):
            retire / retry / requeue
        if backend.broken:
            replace the backend (rebuild, or degrade to serial)

Two backends ship: in-process serial execution
(:class:`~repro.jobs.backends.serial.SerialBackend`) and a local process
pool (:class:`~repro.jobs.backends.pool.PoolBackend`).  A new backend
implements this interface and passes the conformance suite in
``tests/jobs/test_backend_conformance.py``; nothing else in the farm
needs to change.

**Failure vocabulary.**  A completion either carries a timing ``record``
(the job retired) or an ``error``.  ``charged=False`` marks an innocent
victim — a job whose attempt never really ran because its executor was
condemned (a pool-mate hung) — which the engine requeues without
spending one of its retry attempts.  Backends
that cannot tell victims apart from culprits charge everyone; that is
deterministic, which matters more than fairness here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.jobs.graph import Job  # re-exported for backend authors


@dataclass
class Completion:
    """One settled job attempt, as reported by a backend."""

    job: Job
    attempt: int
    #: Timing record from the worker (``execute_job``'s return) on success.
    record: dict | None = None
    #: The failure on error; classified by the engine's retry machinery.
    error: BaseException | None = None
    #: False: an innocent victim of executor loss — requeue uncharged.
    charged: bool = True


@runtime_checkable
class ExecutorBackend(Protocol):
    """Protocol every execution backend implements."""

    #: ``"serial"`` or ``"pool"``; the engine's degradation policy keys on it.
    name: str

    @property
    def in_flight(self) -> int:
        """Number of submitted jobs not yet returned by :meth:`poll`."""

    @property
    def broken(self) -> bool:
        """True when the backend can no longer accept or finish work."""

    def can_accept(self) -> bool:
        """May the engine submit another job right now?"""

    def submit(self, job: Job, payload: dict, attempt: int,
               timeout: float | None) -> None:
        """Start one job attempt.  Raises
        :class:`~concurrent.futures.process.BrokenProcessPool` if the
        backend discovered mid-submit that it is broken; the engine
        unwinds the attempt and replaces the backend."""

    def poll(self, timeout: float) -> list[Completion]:
        """Settled attempts, blocking up to *timeout* seconds for the
        first one.  Also where condemnation happens: a backend noticing
        an expired deadline or a dead executor settles every affected
        in-flight job (culprits charged, victims not) before returning."""

    def shutdown(self) -> None:
        """Release executors.  Idempotent; never blocks on hung work."""

