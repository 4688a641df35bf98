"""Local process-pool execution backend (``--jobs N`` with N > 1).

Re-hosts the farm's :class:`~concurrent.futures.ProcessPoolExecutor`
path behind the :class:`~repro.jobs.backends.base.ExecutorBackend`
protocol.  Jobs are shipped to pool workers as picklable payloads and
exchange artifacts exclusively through the content-addressed cache, so
results are byte-identical regardless of worker count or scheduling
order.

A worker that dies breaks the whole pool, and the culprit cannot be told
from its pool-mates.  The backend then *condemns* the pool: every
in-flight future that actually finished settles with its own outcome,
the unfinished rest fail with :class:`BrokenProcessPool`, and the
backend reports itself broken so the engine continues on a fresh pool.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.jobs.backends.base import Completion
from repro.jobs.graph import Job
from repro.jobs.worker import execute_job


class PoolBackend:
    """Runs jobs across a local :class:`ProcessPoolExecutor`.

    Raises :class:`BrokenProcessPool`/:class:`OSError` from the
    constructor when no pool can be created at all (the engine catches
    this and runs serially).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("pool backend needs a positive worker count")
        self.workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._running: dict[Future, Job] = {}
        self._broken = False

    @property
    def in_flight(self) -> int:
        return len(self._running)

    @property
    def broken(self) -> bool:
        return self._broken

    def can_accept(self) -> bool:
        # Keep the dispatch window modestly ahead of the workers so a
        # failure settles before the whole ready set is committed.
        return not self._broken and len(self._running) < 2 * self.workers

    def submit(self, job: Job, payload: dict) -> None:
        try:
            future = self._pool.submit(execute_job, payload)
        except (BrokenProcessPool, RuntimeError) as exc:
            self._broken = True
            raise BrokenProcessPool(str(exc) or "process pool is broken") from exc
        self._running[future] = job

    def poll(self, timeout: float) -> list[Completion]:
        if not self._running:
            return []
        finished, _ = wait(self._running, timeout=timeout, return_when=FIRST_COMPLETED)
        completions = [
            self._settle(future, self._running.pop(future)) for future in finished
        ]
        if self._broken or any(
            isinstance(c.error, BrokenProcessPool) for c in completions
        ):
            completions.extend(self._condemn())
        return completions

    def shutdown(self) -> None:
        """Tear the pool down without waiting on dead workers."""
        processes = []
        try:
            processes = list((self._pool._processes or {}).values())
        except AttributeError:  # pragma: no cover - CPython internal moved
            pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already gone
                pass

    # -- internals -------------------------------------------------------

    @staticmethod
    def _settle(future: Future, job: Job) -> Completion:
        try:
            record = future.result()
        except Exception as exc:
            return Completion(job, error=exc)
        return Completion(job, record=record)

    def _condemn(self) -> list[Completion]:
        """Settle every in-flight future of a pool that must die.

        Futures that *finished* — even between the dispatcher's ``wait``
        and this condemnation — settle with their own outcome, so a job
        that completed is never reported dead.  The rest fail with
        :class:`BrokenProcessPool`; the engine still retires any of them
        whose artifact landed before the pool died.
        """
        self._broken = True
        completions = [
            self._settle(future, job)
            if future.done() and not future.cancelled()
            else Completion(
                job, error=BrokenProcessPool("worker process died unexpectedly")
            )
            for future, job in self._running.items()
        ]
        self._running.clear()
        return completions
