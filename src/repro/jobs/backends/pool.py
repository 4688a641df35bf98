"""Local process-pool execution backend (``--jobs N`` with N > 1).

Re-hosts the farm's :class:`~concurrent.futures.ProcessPoolExecutor`
path behind the :class:`~repro.jobs.backends.base.ExecutorBackend`
protocol.  Jobs are shipped to pool workers as picklable payloads and
exchange artifacts exclusively through the content-addressed cache, so
results are byte-identical regardless of worker count or scheduling
order.

Timeouts are enforced by condemnation: a hung worker cannot be cancelled
through the executor API, so any expired deadline condemns the whole
pool.  Condemnation first *harvests* every future that actually finished
— their jobs retire normally, and can therefore never be requeued and
executed twice (the double-execution bug the old degradation path had) —
then charges expired jobs a timeout, fails the unfinished rest as
uncharged victims, and marks the backend broken so the engine rebuilds
it (or degrades to serial once :attr:`~repro.jobs.retry.RetryPolicy.
max_pool_rebuilds` is exhausted).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.jobs.backends.base import Completion
from repro.jobs.graph import Job
from repro.jobs.retry import JobTimeout
from repro.jobs.worker import execute_job


@dataclass
class _InFlight:
    """Bookkeeping for one submitted job."""

    job: Job
    attempt: int
    deadline: float | None
    timeout: float | None


class PoolBackend:
    """Runs jobs across a local :class:`ProcessPoolExecutor`.

    Raises :class:`BrokenProcessPool`/:class:`OSError` from the
    constructor when no pool can be created at all (the engine catches
    this and runs serially).
    """

    name = "pool"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("pool backend needs a positive worker count")
        self.workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._running: dict[Future, _InFlight] = {}
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

    def submit(self, job: Job, payload: dict, attempt: int,
               timeout: float | None) -> None:
        deadline = time.monotonic() + timeout if timeout else None
        try:
            future = self._pool.submit(execute_job, payload)
        except (BrokenProcessPool, RuntimeError) as exc:
            self._broken = True
            raise BrokenProcessPool(str(exc) or "process pool is broken") from exc
        self._running[future] = _InFlight(job, attempt, deadline, timeout)

    def poll(self, timeout: float) -> list[Completion]:
        if not self._running:
            return []
        finished, _ = wait(
            self._running,
            timeout=self._wait_budget(timeout),
            return_when=FIRST_COMPLETED,
        )
        completions: list[Completion] = []
        pool_broken = False
        for future in finished:
            entry = self._running.pop(future)
            completion = self._settle(future, entry)
            if isinstance(completion.error, BrokenProcessPool):
                pool_broken = True
            completions.append(completion)
        if pool_broken:
            completions.extend(self._condemn(pool_died=True))
        elif self._deadline_expired():
            completions.extend(self._condemn(pool_died=False))
        return completions

    def shutdown(self) -> None:
        """Tear the pool down without waiting on hung or dead workers."""
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

    def _wait_budget(self, timeout: float) -> float:
        """Block at most *timeout*, shortened to the nearest deadline."""
        now = time.monotonic()
        deadlines = [
            e.deadline for e in self._running.values() if e.deadline is not None
        ]
        if deadlines:
            timeout = min(timeout, max(0.01, min(deadlines) - now))
        return timeout

    def _deadline_expired(self) -> bool:
        now = time.monotonic()
        return any(
            e.deadline is not None and now > e.deadline
            for e in self._running.values()
        )

    @staticmethod
    def _settle(future: Future, entry: _InFlight) -> Completion:
        try:
            record = future.result()
        except Exception as exc:
            return Completion(entry.job, entry.attempt, error=exc)
        return Completion(entry.job, entry.attempt, record=record)

    def _condemn(self, pool_died: bool) -> list[Completion]:
        """Settle every in-flight future of a pool that must die.

        Futures that *finished* — even between the dispatcher's ``wait``
        and this condemnation — retire normally: requeuing them would
        execute their job a second time even though its artifact
        already landed.  Of the rest, a crashed pool
        charges everyone (the culprit cannot be told apart from its
        pool-mates, which stays deterministic), while a timeout
        condemnation charges only the expired jobs and requeues the
        innocent in-flight rest uncharged.
        """
        self._broken = True
        now = time.monotonic()
        completions: list[Completion] = []
        for future, entry in list(self._running.items()):
            if future.done() and not future.cancelled():
                completions.append(self._settle(future, entry))
            elif entry.deadline is not None and now > entry.deadline:
                # A deadline exists only when the attempt had a timeout.
                completions.append(
                    Completion(
                        entry.job,
                        entry.attempt,
                        error=JobTimeout(
                            f"job exceeded its {entry.timeout:.1f}s "
                            f"wall-clock budget"
                        ),
                    )
                )
            else:
                completions.append(
                    Completion(
                        entry.job,
                        entry.attempt,
                        error=BrokenProcessPool(
                            "worker process died unexpectedly"
                        ),
                        charged=pool_died,
                    )
                )
        self._running.clear()
        return completions
