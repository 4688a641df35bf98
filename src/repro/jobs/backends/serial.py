"""In-process serial execution backend (the default, ``--jobs 1``).

The degenerate — and most trustworthy — backend: :meth:`submit` runs the
job synchronously in the calling process and queues its completion for
the next :meth:`poll`.  One job is in flight at a time, so the engine's
dispatch loop reduces to exactly the old serial executor: pick a ready
job, run it, handle the outcome, repeat.

Timeouts are preemptive here: attempts run under
:func:`~repro.jobs.retry.call_with_timeout` (``SIGALRM`` where
available), so a hung job raises :class:`~repro.jobs.retry.JobTimeout`
mid-flight instead of condemning anything.  This backend can never
break; it is also what every other backend degrades to.
"""

from __future__ import annotations

from repro.jobs.backends.base import Completion
from repro.jobs.graph import Job
from repro.jobs.retry import call_with_timeout
from repro.jobs.worker import execute_job


class SerialBackend:
    """Runs every job synchronously in the engine's own process."""

    name = "serial"

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

    def submit(self, job: Job, payload: dict, attempt: int,
               timeout: float | None) -> None:
        try:
            record = call_with_timeout(execute_job, payload, timeout)
        except Exception as exc:
            self._completed.append(Completion(job, attempt, error=exc))
        else:
            self._completed.append(Completion(job, attempt, record=record))

    def poll(self, timeout: float) -> list[Completion]:
        settled, self._completed = self._completed, []
        return settled

    def shutdown(self) -> None:
        pass
