"""In-process serial execution backend (the default, ``--jobs 1``).

The degenerate — and most trustworthy — backend: :meth:`submit` runs the
job synchronously in the calling process and queues its completion for
the next :meth:`poll`.  One job is in flight at a time, so the engine's
dispatch loop reduces to exactly a serial executor: pick a ready job,
run it, handle the outcome, repeat.  This backend can never break; it
is also what the engine falls back to when no process pool can be
created.
"""

from __future__ import annotations

from repro.jobs.backends.base import Completion
from repro.jobs.graph import Job
from repro.jobs.worker import execute_job


class SerialBackend:
    """Runs every job synchronously in the engine's own process."""

    def __init__(self):
        self._completed: list[Completion] = []

    @property
    def in_flight(self) -> int:
        return len(self._completed)

    @property
    def broken(self) -> bool:
        return False

    def can_accept(self) -> bool:
        # One at a time: the engine must settle each outcome before the
        # next dispatch, because a failure may requeue producers or kill
        # dependents that this sweep would otherwise still run.
        return not self._completed

    def submit(self, job: Job, payload: dict) -> None:
        try:
            record = execute_job(payload)
        except Exception as exc:
            self._completed.append(Completion(job, error=exc))
        else:
            self._completed.append(Completion(job, record=record))

    def poll(self, timeout: float) -> list[Completion]:
        settled, self._completed = self._completed, []
        return settled

    def shutdown(self) -> None:
        pass
