"""Job graph construction and the fault-tolerant execution engine.

The planner expands a pooled list of experiment requests into a
deduplicated :class:`JobGraph` sharded at (benchmark × stage)
granularity::

    compile ──> trace ──> analysis (one per option set)

The compile stage runs in the planner itself: it is three orders of
magnitude cheaper than tracing, and its product — the program fingerprint
that addresses every downstream artifact — is needed to build the graph
at all.  On a warm cache the planner does not even compile: it hashes the
cached disassembly listing instead.  The trace stage also stores the
run's branch profile under the trace's key, so there is no profile stage.

The :class:`ExecutionEngine` then retires the graph.  Jobs whose artifact
already exists in the cache are recorded as hits and skipped; the rest
are dispatched through a pluggable :class:`~repro.jobs.backends.base.
ExecutorBackend` — in-process serial execution (``jobs=1``, the default
and what the test suite exercises) or a local
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) — each
job as soon as its dependencies have retired.  Workers exchange
artifacts exclusively through the content-addressed cache (see
:mod:`repro.jobs.worker`), so results are byte-identical regardless of
backend, worker count, or scheduling order.

The engine treats partial failure the way a speculative machine treats
misspeculation — detect, discard, re-execute:

* a failed attempt is retried under the :class:`~repro.jobs.retry.
  RetryPolicy` (bounded attempts, exponential backoff with deterministic
  jitter, optional per-attempt wall-clock timeouts);
* a job that exhausts its budget is quarantined as *dead* — with its
  dependents — and the run continues; full provenance lands in the
  :class:`~repro.jobs.report.FarmReport`;
* a :class:`~repro.vm.trace_io.CorruptArtifactError` from a consumer
  re-enqueues the *producer* of the damaged (and now quarantined)
  artifact, then the consumer, so corruption heals instead of crashing;
* a broken process pool (crashed worker) is rebuilt; if pools keep
  dying the engine degrades to serial in-process execution.

The cache is the farm's only memory: a killed invocation recovers when
the same command is rerun, because every job that finished published its
artifact and is a hit the second time.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable

from repro import telemetry
from repro.asm.disassembler import disassemble
from repro.bench import SUITE
from repro.core.results import ENGINES
from repro.jobs import keys
from repro.jobs.backends import Completion
from repro.jobs.cache import ArtifactCache
from repro.jobs.faults import FaultPlan
from repro.jobs.graph import Job, JobGraph
from repro.jobs.report import DEAD, HIT, RUN, FarmReport
from repro.jobs.requests import AnalysisRequest, Request
from repro.jobs.retry import JobTimeout, RetryPolicy
from repro.vm.trace_io import CorruptArtifactError

__all__ = [
    "Job",
    "JobGraph",
    "RequestKeys",
    "Planner",
    "ExecutionEngine",
]


@dataclass(frozen=True)
class RequestKeys:
    """Content addresses of every artifact one request resolves to.

    ``result`` is ``None`` for a bare :class:`TraceRequest`.  Exposed so
    callers that need to map a request back to its artifacts after a run
    (tests that inspect the cache) share the planner's key derivation
    instead of re-implementing it.
    """

    compile: str
    trace: str
    result: str | None = None

    def all(self) -> tuple[str, ...]:
        keys_ = (self.compile, self.trace, self.result)
        return tuple(k for k in keys_ if k is not None)


class Planner:
    """Expands requests into a job graph against one cache/config.

    ``engine`` names the analyzer engine every analysis job runs: run
    policy, like the fault plan, but it goes into each result's key, so
    a legacy result is cached apart from a fused one.  An unknown
    engine is rejected here, not left to kill every analysis job.
    """

    def __init__(
        self,
        cache: ArtifactCache,
        report: FarmReport,
        telemetry_dir: str | None = None,
        profile: bool = False,
        engine: str = "fused",
    ):
        self.cache = cache
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.report = report
        self.engine = engine
        self.telemetry_dir = str(telemetry_dir) if telemetry_dir is not None else None
        self.profile = profile
        self._fingerprints: dict[tuple[str, int], str] = {}

    def _telemetry_payload(self) -> tuple[str | None, bool]:
        """Telemetry directory + profile flag to embed in job payloads.

        Falls back to the process-wide telemetry state so callers that
        configured telemetry globally need not thread it through here.
        """
        directory = self.telemetry_dir
        if directory is None and telemetry.enabled():
            configured = telemetry.telemetry_dir()
            directory = str(configured) if configured is not None else None
        return directory, self.profile or telemetry.profiling()

    # -- compile stage (runs in-process during planning) ----------------

    def fingerprint(self, benchmark: str, scale: int) -> str:
        """Program fingerprint for (benchmark, scale), via the compile stage.

        Cache hit: hash the stored disassembly without compiling.
        Cache miss — or a corrupt cached listing — compile, disassemble,
        store the listing.
        """
        memo = self._fingerprints.get((benchmark, scale))
        if memo is not None:
            return memo
        spec = SUITE[benchmark]
        source = spec.source(scale)
        compile_key = keys.compile_key(benchmark, scale, source)
        fingerprint = None
        if self.cache.has_asm(compile_key):
            try:
                fingerprint = keys.fingerprint_text(self.cache.load_asm(compile_key))
                self.report.record(compile_key, "compile", benchmark, HIT)
            except CorruptArtifactError as exc:
                self.report.record_failure(
                    compile_key, "compile", benchmark, "corrupt", 1, str(exc),
                    retried=True,
                )
        if fingerprint is None:
            started = time.time()
            listing = disassemble(spec.compile(scale))
            self.cache.store_asm(compile_key, listing)
            fingerprint = keys.fingerprint_text(listing)
            self.report.record(
                compile_key, "compile", benchmark, RUN, time.time() - started
            )
        self._fingerprints[(benchmark, scale)] = fingerprint
        return fingerprint

    # -- downstream stages ----------------------------------------------

    def _resolve(self, request: Request, default_scale, default_max_steps):
        spec = SUITE[request.benchmark]
        scale = default_scale if default_scale is not None else spec.default_scale
        max_steps = (
            request.max_steps if request.max_steps is not None else default_max_steps
        )
        return scale, max_steps

    def request_keys(
        self,
        request: Request,
        default_scale: int | None,
        default_max_steps: int,
    ) -> RequestKeys:
        """Content addresses of every artifact *request* maps to.

        The one key derivation :meth:`plan` builds its jobs on (running
        the in-planner compile stage when the fingerprint is not
        memoized), without adding any jobs to a graph.
        """
        scale, max_steps = self._resolve(request, default_scale, default_max_steps)
        spec = SUITE[request.benchmark]
        compile_key = keys.compile_key(
            request.benchmark, scale, spec.source(scale)
        )
        trace_key = keys.trace_key(
            self.fingerprint(request.benchmark, scale), scale, max_steps
        )
        result_key = None
        if isinstance(request, AnalysisRequest):
            result_key = keys.result_key(trace_key, self.engine, request.options())
        return RequestKeys(compile_key, trace_key, result_key)

    def plan(
        self,
        requests: Iterable[Request],
        default_scale: int | None,
        default_max_steps: int,
    ) -> JobGraph:
        graph = JobGraph()
        telemetry_dir, profile = self._telemetry_payload()
        shared = {
            "cache_dir": str(self.cache.root),
            "telemetry": telemetry_dir,
            "profiling": profile,
        }
        for request in requests:
            scale, max_steps = self._resolve(
                request, default_scale, default_max_steps
            )
            keys_ = self.request_keys(request, default_scale, default_max_steps)
            benchmark = request.benchmark
            graph.add(
                Job(
                    key=keys_.trace,
                    stage="trace",
                    benchmark=benchmark,
                    payload={
                        "stage": "trace",
                        "key": keys_.trace,
                        "benchmark": benchmark,
                        "scale": scale,
                        "max_steps": max_steps,
                        **shared,
                    },
                )
            )
            if keys_.result is None:
                continue
            graph.add(
                Job(
                    key=keys_.result,
                    stage="analyze",
                    benchmark=benchmark,
                    deps=(keys_.trace,),
                    payload={
                        "stage": "analyze",
                        "key": keys_.result,
                        "benchmark": benchmark,
                        "scale": scale,
                        "trace": keys_.trace,
                        "engine": self.engine,
                        "options": request.options(),
                        **shared,
                    },
                )
            )
        return graph


class _RunState:
    """Mutable bookkeeping shared by the serial and parallel executors."""

    def __init__(self, graph: JobGraph, pending: dict, done: set):
        self.graph = graph
        self.pending = pending
        self.done = done
        self.dead: set[str] = set()
        self.attempts: dict[str, int] = {}
        #: Monotonic deadline before which a requeued job may not run.
        self.not_before: dict[str, float] = {}
        #: Corrupt-input heals granted per consumer (bounds heal cycles).
        self.corrupt_heals: dict[str, int] = {}

    def next_attempt(self, key: str) -> int:
        attempt = self.attempts.get(key, 0) + 1
        self.attempts[key] = attempt
        return attempt

    def unwind_attempt(self, key: str) -> None:
        """Forget an attempt that never ran (e.g. a cancelled submit)."""
        if self.attempts.get(key, 0) > 0:
            self.attempts[key] -= 1

    def runnable(self, now: float) -> list[Job]:
        return [
            job
            for job in self.pending.values()
            if all(dep in self.done for dep in job.deps)
            and self.not_before.get(job.key, 0.0) <= now
        ]

    def earliest_backoff(self) -> float | None:
        deadlines = [
            self.not_before[job.key]
            for job in self.pending.values()
            if job.key in self.not_before
            and all(dep in self.done for dep in job.deps)
        ]
        return min(deadlines) if deadlines else None


class ExecutionEngine:
    """Retires a job graph through a pluggable executor backend.

    ``retry`` bounds attempts, backoff, and per-attempt timeouts;
    ``faults`` arms the deterministic fault injector (a spec string or a
    :class:`~repro.jobs.faults.FaultPlan`).  A job whose artifact is
    already cached is a hit and never dispatched.

    The executor is a local process pool of ``jobs`` workers when
    ``jobs > 1``, else serial in-process execution.
    """

    def __init__(
        self,
        cache: ArtifactCache,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        faults: str | FaultPlan | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be a positive worker count")
        self.cache = cache
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        if isinstance(faults, str):
            faults = FaultPlan.from_spec(faults)
        self.faults = faults

    def execute(self, graph: JobGraph, report: FarmReport) -> None:
        done: set[str] = set()
        pending: dict[str, Job] = {}
        for job in graph:
            if self._cached(job):
                report.record(job.key, job.stage, job.benchmark, HIT)
                done.add(job.key)
            else:
                pending[job.key] = job
        if not pending:
            return
        state = _RunState(graph, pending, done)
        with telemetry.span("farm.execute", jobs=len(pending), workers=self.jobs):
            self._execute(state, report)
        self._merge_telemetry()

    @staticmethod
    def _merge_telemetry() -> None:
        """Fold worker span sinks into the main ``spans.jsonl``.

        Worker processes each append to their own sink file (they cannot
        share the main one); after the pool drains, the engine merges them
        in deterministic file-name order.  Also covers worker files left
        by an earlier interrupted run.
        """
        directory = telemetry.telemetry_dir()
        if directory is None:
            return
        telemetry.flush()
        telemetry.merge_worker_sinks(directory)

    @staticmethod
    def _note_queue_depth(depth: int) -> None:
        if telemetry.enabled():
            telemetry.METRICS.gauge("repro_jobs_queue_depth_peak").set_max(depth)

    def _cached(self, job: Job) -> bool:
        if job.stage == "trace":
            # The trace job publishes the trace, then its profile.
            return self.cache.has_trace(job.key) and self.cache.has_profile(job.key)
        return self.cache.has_result(job.key)

    # -- payloads -------------------------------------------------------

    def _payload(self, job: Job, attempt: int, in_process: bool) -> dict:
        payload = dict(job.payload, attempt=attempt)
        if in_process:
            payload["in_process"] = True
        if self.faults is not None:
            payload["faults"] = self.faults.to_spec()
        if telemetry.enabled():
            # The worker's job.<stage> span parents to the open span here
            # (farm.execute) in the run's trace.  Only set when telemetry
            # is on, so disabled runs ship byte-identical payloads.
            open_span = telemetry.current_span()
            payload["trace_id"] = getattr(open_span, "trace_id", None)
            payload["parent_id"] = getattr(open_span, "span_id", None)
        return payload

    # -- failure handling ----------------------------------------------

    @staticmethod
    def _classify(exc: BaseException) -> str:
        if isinstance(exc, JobTimeout):
            return "timeout"
        if isinstance(exc, CorruptArtifactError):
            return "corrupt"
        if isinstance(exc, BrokenProcessPool):
            return "crash"
        return "error"

    def _handle_failure(
        self,
        state: _RunState,
        report: FarmReport,
        job: Job,
        attempt: int,
        exc: BaseException,
    ) -> None:
        """Requeue a failed attempt, or quarantine the job as dead."""
        kind = self._classify(exc)
        if kind == "corrupt" and self._requeue_corrupt_producer(
            state, report, job, attempt, exc
        ):
            return
        fatal = attempt >= self.retry.max_attempts
        message = str(exc) or type(exc).__name__
        report.record_failure(
            job.key, job.stage, job.benchmark, kind, attempt, message,
            retried=not fatal,
        )
        if fatal:
            self._kill_job(state, report, job)
        else:
            state.pending[job.key] = job
            state.not_before[job.key] = time.monotonic() + self.retry.delay(
                job.key, attempt
            )

    def _requeue_corrupt_producer(
        self,
        state: _RunState,
        report: FarmReport,
        job: Job,
        attempt: int,
        exc: BaseException,
    ) -> bool:
        """Heal a corrupt *input*: re-run its producer, then this job.

        The cache has already quarantined the damaged artifact; if its
        producer is part of this graph, pull it back out of ``done`` so
        it re-executes, and requeue the consumer without charging it an
        attempt (the failure was not its fault).  Returns False when the
        producer is unknown, leaving ordinary retry handling to run.
        """
        producer_key = getattr(exc, "key", None)
        producer = state.graph.jobs.get(producer_key) if producer_key else None
        if producer is None or producer.key == job.key:
            return False
        # A producer whose output is corrupt *every* time (persistent
        # disk fault, or times=0 injection) must not heal forever: once
        # the consumer has been granted max_attempts heals, fall back to
        # ordinary retry accounting so the job eventually dies.
        heals = state.corrupt_heals.get(job.key, 0) + 1
        if heals > self.retry.max_attempts:
            return False
        state.corrupt_heals[job.key] = heals
        report.record_failure(
            job.key, job.stage, job.benchmark, "corrupt", attempt, str(exc),
            retried=True,
        )
        state.done.discard(producer.key)
        state.pending[producer.key] = producer
        # The producer's previous outcome (a hit or an earlier run) is
        # stale: drop its record so the re-execution is reported.
        report.records.pop(producer.key, None)
        state.unwind_attempt(job.key)
        state.pending[job.key] = job
        return True

    def _kill_job(self, state: _RunState, report: FarmReport, job: Job) -> None:
        """Quarantine a job as dead, along with every transitive dependent."""
        report.record(job.key, job.stage, job.benchmark, DEAD)
        state.dead.add(job.key)
        state.pending.pop(job.key, None)
        self._kill_dead_dependents(state, report)

    def _kill_dead_dependents(self, state: _RunState, report: FarmReport) -> None:
        changed = True
        while changed:
            changed = False
            for job in list(state.pending.values()):
                lost = [dep for dep in job.deps if dep in state.dead]
                if not lost:
                    continue
                report.record_failure(
                    job.key, job.stage, job.benchmark, "dependency", 0,
                    f"dependency {lost[0][:12]} is dead", retried=False,
                )
                report.record(job.key, job.stage, job.benchmark, DEAD)
                state.dead.add(job.key)
                del state.pending[job.key]
                changed = True

    @staticmethod
    def _retire(
        state: _RunState, report: FarmReport, job: Job, seconds: float
    ) -> None:
        report.record(job.key, job.stage, job.benchmark, RUN, seconds)
        state.done.add(job.key)

    # -- the backend dispatch loop ---------------------------------------

    def _make_backend(self, report: FarmReport):
        """Instantiate the backend, degrading pool→serial if no pool fits."""
        from repro.jobs.backends.serial import SerialBackend

        if self.jobs == 1:
            return SerialBackend()
        from repro.jobs.backends.pool import PoolBackend

        try:
            return PoolBackend(self.jobs)
        except (BrokenProcessPool, OSError) as exc:
            report.note(f"process pool unavailable ({exc}); running serially")
            return SerialBackend()

    def _replace_backend(
        self, rebuilds: int, report: FarmReport
    ) -> tuple[object, int]:
        """A broken pool's successor: a fresh pool, or serial execution
        once rebuilds run out (the serial backend never breaks)."""
        from repro.jobs.backends.serial import SerialBackend

        rebuilds += 1
        if rebuilds > self.retry.max_pool_rebuilds:
            report.note(
                f"process pool died {rebuilds} times; degrading "
                f"to serial in-process execution"
            )
            return SerialBackend(), rebuilds
        report.note(
            f"process pool died (rebuild {rebuilds}/"
            f"{self.retry.max_pool_rebuilds}); rebuilding"
        )
        return self._make_backend(report), rebuilds

    def _execute(self, state: _RunState, report: FarmReport) -> None:
        backend = self._make_backend(report)
        rebuilds = 0
        try:
            while state.pending or backend.in_flight:
                now = time.monotonic()
                dispatched = False
                for job in state.runnable(now):
                    if not backend.can_accept():
                        break
                    if job.key not in state.pending:
                        continue  # requeued/killed earlier this sweep
                    attempt = state.next_attempt(job.key)
                    payload = self._payload(
                        job,
                        attempt,
                        in_process=backend.name == "serial",
                    )
                    try:
                        backend.submit(
                            job, payload, attempt, self.retry.job_timeout
                        )
                    except BrokenProcessPool:
                        state.unwind_attempt(job.key)
                        break
                    del state.pending[job.key]
                    dispatched = True
                self._note_queue_depth(len(state.pending) + backend.in_flight)
                if backend.in_flight:
                    for completion in backend.poll(self._poll_budget(state)):
                        self._settle(state, report, completion)
                elif not dispatched and not backend.broken:
                    wake_at = state.earliest_backoff()
                    if wake_at is not None:
                        time.sleep(max(0.0, wake_at - time.monotonic()))
                        continue
                    if state.pending:
                        raise RuntimeError("job graph has a dependency cycle")
                if backend.broken:
                    backend.shutdown()
                    backend, rebuilds = self._replace_backend(rebuilds, report)
        finally:
            backend.shutdown()

    def _settle(
        self, state: _RunState, report: FarmReport, completion: Completion
    ) -> None:
        """Fold one backend completion into the run state."""
        job, attempt = completion.job, completion.attempt
        if completion.record is not None:
            self._retire(state, report, job, completion.record["seconds"])
            return
        if not completion.charged:
            # Innocent victim of executor loss: requeue without spending
            # an attempt — unless its artifact actually landed (the job
            # finished but its acknowledgement was lost), in which case
            # it must retire, never execute twice.
            state.unwind_attempt(job.key)
            if self._cached(job):
                self._retire(state, report, job, 0.0)
            else:
                state.pending[job.key] = job
            return
        if isinstance(completion.error, BrokenProcessPool) and self._cached(job):
            # The executor died *after* the job published its artifact:
            # retiring from the cache is the only outcome that cannot
            # run the job a second time.
            self._retire(state, report, job, 0.0)
            return
        self._handle_failure(state, report, job, attempt, completion.error)

    def _poll_budget(self, state: _RunState) -> float:
        """How long a backend may block in :meth:`poll`.

        Short enough to notice backoff expiries; backends shorten it
        further to their nearest in-flight deadline.
        """
        horizon = 0.5
        wake_at = state.earliest_backoff()
        if wake_at is not None:
            horizon = min(horizon, max(0.01, wake_at - time.monotonic()))
        return horizon
