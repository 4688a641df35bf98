"""The executor-backend protocol the farm engine dispatches through.

The :class:`~repro.jobs.engine.ExecutionEngine` owns everything about a
run that must be *policy* — corrupt-input healing, dead-job quarantine,
the farm report.  A backend owns only *mechanism*: given a ready job
payload, run it somewhere and eventually hand back a
:class:`Completion`.  The engine drives every backend through the same
loop::

    while pending or backend.in_flight:
        submit ready jobs while backend.can_accept()
        for completion in backend.poll(budget):
            retire / heal / kill
        if backend.broken:
            replace the backend with a fresh one

Two backends ship: in-process serial execution
(:class:`~repro.jobs.backends.serial.SerialBackend`) and a local process
pool (:class:`~repro.jobs.backends.pool.PoolBackend`).  A new backend
implements this interface and passes the conformance suite in
``tests/jobs/test_backend_conformance.py``; nothing else in the farm
needs to change.

**Failure vocabulary.**  A completion either carries a timing ``record``
(the job retired) or an ``error``: the exception the job raised, or
:class:`~concurrent.futures.process.BrokenProcessPool` for a job whose
executor died under it.  Each job's one attempt settles exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.jobs.graph import Job  # re-exported for backend authors


@dataclass
class Completion:
    """One settled job, as reported by a backend."""

    job: Job
    #: Timing record from the worker (``execute_job``'s return) on success.
    record: dict | None = None
    #: The failure on error; classified by the engine.
    error: BaseException | None = None


@runtime_checkable
class ExecutorBackend(Protocol):
    """Protocol every execution backend implements."""

    @property
    def in_flight(self) -> int:
        """Number of submitted jobs not yet returned by :meth:`poll`."""

    @property
    def broken(self) -> bool:
        """True when the backend can no longer accept or finish work."""

    def can_accept(self) -> bool:
        """May the engine submit another job right now?"""

    def submit(self, job: Job, payload: dict) -> None:
        """Start one job.  Raises
        :class:`~concurrent.futures.process.BrokenProcessPool` if the
        backend discovered mid-submit that it is broken; the job stays
        pending and the engine replaces the backend."""

    def poll(self, timeout: float) -> list[Completion]:
        """Settled jobs, blocking up to *timeout* seconds for the first
        one.  Also where condemnation happens: a backend noticing a dead
        executor settles every in-flight job before returning, so none
        is lost when the engine replaces it."""

    def shutdown(self) -> None:
        """Release executors.  Idempotent; never blocks on dead workers."""

