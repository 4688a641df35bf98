"""Shared experiment infrastructure.

A :class:`SuiteRunner` owns the expensive artifacts — compiled programs,
traces, branch profiles, analysis results — and caches them so the
table/figure modules can share one set of runs.  All experiments in a
session therefore analyze the *same* traces, exactly as the paper derives
every table and figure from one set of pixie runs.

A benchmark's program is built on first use: the farm addresses every
artifact from the stored asm listing, so a render served from a warm
cache (Tables 2 and 3, say) compiles nothing.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from repro import telemetry
from repro.bench import BenchmarkSpec, get
from repro.core import ALL_MODELS, AnalysisResult, MachineModel
from repro.diagnostics import DiagnosticError, Severity
from repro.isa import Program
from repro.prediction import BranchStats, ProfilePredictor
from repro.jobs import (
    DEAD,
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    TraceRequest,
)
from repro.vm import CorruptArtifactError, Trace


class DeadJobError(RuntimeError):
    """An artifact the runner needs was not produced: its farm job died."""


@dataclass(frozen=True)
class RunConfig:
    """Trace budget and execution configuration.

    ``max_steps`` plays the role of the paper's 100M-instruction pixie cap,
    scaled to what a Python interpreter sustains.  ``scale`` overrides each
    benchmark's default workload scale (None keeps the defaults).
    ``verify`` runs the object-code verifier and trace sanitizer over every
    benchmark before its numbers are used, raising
    :class:`~repro.diagnostics.DiagnosticError` on any error-severity
    finding.

    ``cache_dir`` is the directory of the content-addressed artifact
    cache of :mod:`repro.jobs` that every artifact is produced into and
    loaded from.  None (the default) gives the runner a throwaway cache,
    removed when the runner is collected or the process exits.  ``jobs``
    is the worker-process count used when experiment requirements are
    prefetched through the farm; 1 runs jobs serially in-process.

    ``engine`` selects the analyzer implementation every analyze job
    runs: ``"fused"`` (the default single-pass engine) or ``"legacy"``
    (the original per-model sweep, kept as a differential-testing
    oracle).  The engine is part of each result's cache key, so a legacy
    run executes the oracle rather than being served a fused result.

    ``telemetry_dir`` enables the observability layer of
    :mod:`repro.telemetry` at that directory: spans from every pipeline
    stage land in ``spans.jsonl`` there (farm workers inherit the
    directory through their job payloads), and the process-wide metrics
    registry fills in.  ``profile`` additionally arms the opt-in cProfile
    hooks.  Both default to off, which costs nothing.

    A farm job that fails is dead on its first failure: there is no
    retry setting, because every job is a pure function of its content
    key and would fail the same way again.  Rerunning with the same
    config is the retry: it executes exactly the jobs whose artifacts
    are missing.  See ``docs/robustness.md``.
    """

    max_steps: int = 150_000
    scale: int | None = None
    verify: bool = False
    jobs: int = 1
    cache_dir: str | Path | None = None
    engine: str = "fused"
    telemetry_dir: str | Path | None = None
    profile: bool = False


class BenchmarkRun:
    """One benchmark's trace plus everything derived from it.

    The trace lives in the artifact cache behind an ``opener(program)``
    producing fresh streaming readers.  :attr:`trace` materializes it
    lazily for the consumer that genuinely needs whole-trace columns
    (the verifier); chunk-wise consumers call :meth:`trace_source`
    and never pay the memory.  :attr:`stats` (Table 2) comes from the profile's
    counts, with no pass over the trace.

    :attr:`program` is built on first use, so a consumer of the cached
    profile alone compiles nothing; opening the trace compiles the
    program, which the reader is bound to.
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        scale: int | None,
        predictor: ProfilePredictor,
        opener,
    ):
        self.spec = spec
        self.scale = scale
        self.predictor = predictor
        self._trace: Trace | None = None
        self._opener = opener

    @cached_property
    def program(self) -> Program:
        """The compiled benchmark (memoized per spec and scale)."""
        return self.spec.compile(self.scale)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def trace(self) -> Trace:
        """The whole trace in memory (materialized from the cache lazily)."""
        if self._trace is None:
            self._trace = self.trace_source().to_trace()
        return self._trace

    def trace_source(self):
        """A fresh streaming :class:`~repro.vm.trace_io.TraceReader`:
        bounded memory at any budget."""
        return self._opener(self.program)

    @property
    def stats(self) -> BranchStats:
        """Branch statistics of the run under its own profile predictor."""
        return self.predictor.stats()


class SuiteRunner:
    """Caches traces and analysis results across experiment modules.

    Every expensive artifact — traces, branch profiles, analysis results
    — is produced by the farm of :mod:`repro.jobs` into the
    content-addressed cache at :attr:`cache_dir` and loaded from there:
    :meth:`prefetch` farms the work for a set of experiment requests
    across worker processes before the experiment modules render
    anything, and :meth:`run` / :meth:`analyze` retire their one request
    through the same planner and a serial engine, so the stage functions
    of :mod:`repro.jobs.worker` are the only definition of each stage.
    """

    def __init__(self, config: RunConfig | None = None):
        self.config = config if config is not None else RunConfig()
        if self.config.telemetry_dir is not None:
            telemetry.configure(
                self.config.telemetry_dir, profile=self.config.profile
            )
        self._runs: dict[str, BenchmarkRun] = {}
        #: Every analysis this runner has loaded, by request.
        self.results: dict[AnalysisRequest, AnalysisResult] = {}
        self.farm_report = FarmReport()
        cache_dir = self.config.cache_dir
        if cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
            weakref.finalize(self, shutil.rmtree, cache_dir, ignore_errors=True)
        self._cache = ArtifactCache(cache_dir)
        self._planner = Planner(
            self._cache, self.farm_report, engine=self.config.engine
        )

    @property
    def cache_dir(self) -> Path:
        """The artifact cache directory, throwaway when the config has none."""
        return self._cache.root

    def prefetch(self, requests: Iterable) -> None:
        """Produce all artifacts for *requests* up front, possibly in parallel.

        Expands the requests into a compile → trace → analysis job graph,
        skips jobs whose artifact is already cached, and runs the rest
        across ``RunConfig.jobs`` worker processes (serially in-process
        for ``jobs=1``).  Subsequent :meth:`run` / :meth:`analyze` calls
        then find every job a cache hit and only load the artifacts.

        With ``RunConfig.verify`` set, every benchmark the requests name
        also gets its full-model analysis: :meth:`_verify` reads it for
        the STA412 ORACLE check, and would otherwise retire it serially
        while rendering.
        """
        requests = list(requests)
        if self.config.verify:
            benchmarks = dict.fromkeys(request.benchmark for request in requests)
            requests += [AnalysisRequest(name) for name in benchmarks]
        self._retire(requests, self.config.jobs)

    def _retire(self, requests: Iterable, jobs: int) -> None:
        graph = self._planner.plan(
            requests, self.config.scale, self.config.max_steps
        )
        ExecutionEngine(self._cache, jobs).execute(graph, self.farm_report)

    def _load(self, request, load):
        """Retire *request* serially through the farm, then ``load(keys)``.

        The farm skips every job whose artifact the cache already holds.
        A job that died raises :class:`DeadJobError`
        with its last failure.  A load that finds its artifact corrupt
        has already quarantined it, so the request is retired once more
        to re-produce it; a second failure propagates.
        """
        keys = self._planner.request_keys(
            request, self.config.scale, self.config.max_steps
        )
        # A job that already died (during prefetch, or for an earlier
        # experiment) is not run again: it would fail the same way twice.
        self._raise_if_dead(keys)
        self._retire([request], jobs=1)
        self._raise_if_dead(keys)
        try:
            return load(keys)
        except CorruptArtifactError as exc:
            # The first-sighting rule would hide the re-run behind the
            # stale hit, so drop the hit and record why.
            stale = self.farm_report.records.pop(exc.key, None)
            if stale is not None:
                self.farm_report.record_failure(
                    exc.key, stale.stage, stale.benchmark, "corrupt",
                    str(exc), fatal=False,
                )
            self._retire([request], jobs=1)
            return load(keys)

    def _raise_if_dead(self, keys) -> None:
        for key in keys.all():
            record = self.farm_report.records.get(key)
            if record is not None and record.status == DEAD:
                # A job is only killed after a failure is recorded for it.
                cause = [f for f in self.farm_report.failures if f.key == key][-1]
                raise DeadJobError(
                    f"{record.stage} job for {record.benchmark} is dead: "
                    f"{cause.message}"
                )

    def run(self, name: str) -> BenchmarkRun:
        """Trace and profile one benchmark (cached); compile on first use."""
        cached = self._runs.get(name)
        if cached is not None:
            return cached
        with telemetry.span("runner.run", benchmark=name):
            # The trace stays in the cache, read through streaming readers,
            # so a 100M-step budget costs no resident memory.
            cache = self._cache
            request = TraceRequest(name)
            run = BenchmarkRun(
                spec=get(name),
                scale=self.config.scale,
                predictor=self._load(
                    request, lambda keys: cache.load_profile(keys.trace)
                ),
                opener=lambda program: self._load(
                    request,
                    lambda keys: cache.open_trace_reader(keys.trace, program),
                ),
            )
            if self.config.verify:
                self._verify(run)
        self._runs[name] = run
        return run

    def _verify(self, run: BenchmarkRun) -> None:
        """Cross-check the compiled program and its trace (RunConfig.verify)."""
        from repro.analysis.static import analyze_static
        from repro.analysis.static.differential import check_static_vs_dynamic
        from repro.analysis.verify import verify_program
        from repro.vm.sanitize import sanitize_trace

        facts = analyze_static(run.program)
        diagnostics = verify_program(run.program, name=run.name)
        diagnostics += sanitize_trace(run.trace, analysis=facts.analysis, name=run.name)
        # Static-vs-dynamic differential gate (STA41x).  The trace may be
        # truncated (the runner does not record whether the VM halted), so
        # the halted-only whole-program bound is skipped; every other claim
        # is checked record for record.  STA412 reads Table 3's result,
        # loaded without analyze(), which would verify this run again.
        result = self._load(
            AnalysisRequest(run.name), lambda keys: self._cache.load_result(keys.result)
        )
        diagnostics += check_static_vs_dynamic(
            facts, run.trace, result=result, halted=False, name=run.name
        )
        errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
        if errors:
            raise DiagnosticError(errors, context=run.name)

    def analyze(
        self, name: str, models: Sequence[MachineModel] = ALL_MODELS, **options
    ) -> AnalysisResult:
        """Limit-analyze one benchmark's trace (memoized per request).

        *options* are the :class:`~repro.jobs.AnalysisRequest` option
        fields (``window``, ``latencies``, ``predictor`` by name, ...);
        the request is retired through the farm under the run's engine.
        """
        request = AnalysisRequest(name, tuple(models), **options)
        result = self.results.get(request)
        if result is None:
            if self.config.verify:
                self.run(name)  # verify the run before its numbers are used
            cache = self._cache
            result = self._load(
                request, lambda keys: cache.load_result(keys.result)
            )
            self.results[request] = result
        return result


@dataclass
class TextTable:
    """Minimal fixed-width table renderer for experiment reports."""

    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    title: str = ""

    def add(self, *cells: object) -> None:
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(h.rjust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)
