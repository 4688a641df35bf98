"""Shared experiment infrastructure.

A :class:`SuiteRunner` owns the expensive artifacts — compiled programs,
traces, static analyses, trained predictors — and caches them so the
table/figure modules can share one set of runs.  All experiments in a
session therefore analyze the *same* traces, exactly as the paper derives
every table and figure from one set of pixie runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro import telemetry
from repro.bench import SUITE, BenchmarkSpec
from repro.core import ALL_MODELS, AnalysisResult, LimitAnalyzer, MachineModel
from repro.diagnostics import DiagnosticError, Severity
from repro.prediction import BranchPredictor, BranchStats, ProfilePredictor, branch_stats
from repro.jobs import (
    HIT,
    RUN,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    RetryPolicy,
)
from repro.jobs import keys as jobkeys
from repro.vm import CorruptArtifactError, FastVM, Trace


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

    ``cache_dir`` enables the persistent content-addressed artifact cache
    of :mod:`repro.jobs` at that directory (None — the default, which the
    test suite exercises — keeps everything in-process and in-memory, the
    pre-farm behavior).  ``jobs`` is the worker-process count used when
    experiment requirements are prefetched through the farm; 1 runs jobs
    serially in-process.

    ``engine`` selects the analyzer implementation: ``"fused"`` (the
    default single-pass engine) or ``"legacy"`` (the original per-model
    sweep, kept as a differential-testing oracle).  Legacy runs bypass
    the persistent result cache so the oracle path is actually executed
    rather than served a cached fused result.

    ``telemetry_dir`` enables the observability layer of
    :mod:`repro.telemetry` at that directory: spans from every pipeline
    stage land in ``spans.jsonl`` there (farm workers inherit the
    directory through their job payloads), and the process-wide metrics
    registry fills in.  ``profile`` additionally arms the opt-in cProfile
    hooks.  Both default to off, which costs nothing.

    ``retries`` bounds how many times a failed farm job is requeued
    (with exponential backoff and deterministic jitter) before it is
    quarantined as dead; ``job_timeout`` is the per-attempt wall-clock
    budget in seconds (None: unbounded).  ``resume`` skips jobs an
    interrupted identical invocation already retired (per the run
    journal).  ``inject_faults`` arms the deterministic fault injector
    with a spec string (see :mod:`repro.jobs.faults`) — chaos-testing
    only.  See ``docs/robustness.md``.
    """

    max_steps: int = 150_000
    scale: int | None = None
    verify: bool = False
    jobs: int = 1
    cache_dir: str | Path | None = None
    engine: str = "fused"
    telemetry_dir: str | Path | None = None
    profile: bool = False
    retries: int = 2
    job_timeout: float | None = None
    resume: bool = False
    inject_faults: str | None = None


class BenchmarkRun:
    """One benchmark's trace plus everything derived from it.

    The trace is held either in memory (``trace=``, the no-cache path) or
    in the content-addressed cache behind an ``opener`` producing fresh
    streaming readers.  :attr:`trace` materializes lazily for consumers
    that genuinely need whole-trace columns (the verifier, ablations);
    chunk-wise consumers call :meth:`trace_source` and never pay the
    memory.  :attr:`stats` (Table 2) is likewise computed on first use,
    chunk-wise.
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        analyzer: LimitAnalyzer,
        predictor: ProfilePredictor,
        trace: Trace | None = None,
        opener=None,
    ):
        if trace is None and opener is None:
            raise ValueError("BenchmarkRun needs a trace or an opener")
        self.spec = spec
        self.analyzer = analyzer
        self.predictor = predictor
        self._trace = trace
        self._opener = opener
        self._stats: BranchStats | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def trace(self) -> Trace:
        """The whole trace in memory (materialized from the cache lazily)."""
        if self._trace is None:
            self._trace = self._opener().to_trace()
        return self._trace

    def trace_source(self):
        """The cheapest full-trace source for chunk-wise consumers.

        A fresh streaming :class:`~repro.vm.trace_io.TraceReader` when
        the trace lives in the artifact cache (bounded memory at any
        budget), else the in-memory :class:`Trace`.
        """
        if self._trace is not None:
            return self._trace
        return self._opener()

    @property
    def stats(self) -> BranchStats:
        """Branch statistics under the run's predictor (computed lazily)."""
        if self._stats is None:
            self._stats = branch_stats(self.trace_source(), self.predictor)
        return self._stats


class SuiteRunner:
    """Caches traces and analysis results across experiment modules.

    With ``RunConfig.cache_dir`` set, every expensive artifact — traces,
    branch profiles, analysis results — is additionally read from and
    written to the persistent content-addressed store of
    :mod:`repro.jobs`, and :meth:`prefetch` can farm the work for a set
    of experiment requests across worker processes before the experiment
    modules render anything.  Without a cache directory the runner is the
    original serial, in-process engine.
    """

    def __init__(self, config: RunConfig | None = None):
        self.config = config if config is not None else RunConfig()
        if self.config.telemetry_dir is not None:
            telemetry.configure(
                self.config.telemetry_dir, profile=self.config.profile
            )
            # One distributed trace per invocation: every root span of
            # this run (and, via job payloads, every farm-worker span)
            # shares it, so repro-trace reassembles the whole run.
            if telemetry.context.current() is None:
                telemetry.context.set_default(telemetry.context.mint())
        self._runs: dict[str, BenchmarkRun] = {}
        self._results: dict[tuple, AnalysisResult] = {}
        self.farm_report = FarmReport()
        self._cache = None
        self._planner = None
        if self.config.cache_dir is not None:
            self._cache = ArtifactCache(self.config.cache_dir)
            self._planner = Planner(self._cache, self.farm_report)

    def _scale_for(self, spec: BenchmarkSpec) -> int:
        return self.config.scale if self.config.scale is not None else spec.default_scale

    def prefetch(self, requests: Iterable) -> None:
        """Produce all artifacts for *requests* up front, possibly in parallel.

        Expands the requests into a compile → trace → profile → analysis
        job graph, skips jobs whose artifact is already cached, and runs
        the rest across ``RunConfig.jobs`` worker processes (serially
        in-process for ``jobs=1``).  Subsequent :meth:`run` /
        :meth:`analyze` calls then load the artifacts instead of
        recomputing.  A no-op without a cache directory (workers ship
        artifacts through the cache).
        """
        if self._cache is None:
            return
        graph = self._planner.plan(
            requests, self.config.scale, self.config.max_steps
        )
        engine = ExecutionEngine(
            self._cache,
            jobs=self.config.jobs,
            retry=RetryPolicy(
                max_attempts=self.config.retries + 1,
                job_timeout=self.config.job_timeout,
            ),
            faults=self.config.inject_faults,
            resume=self.config.resume,
        )
        engine.execute(graph, self.farm_report)

    def run(self, name: str) -> BenchmarkRun:
        """Compile, trace, and profile one benchmark (cached)."""
        cached = self._runs.get(name)
        if cached is not None:
            return cached
        spec = SUITE[name]
        with telemetry.span("runner.run", benchmark=name):
            if self._cache is None:
                program = spec.compile(self.config.scale)
                trace = FastVM(program).run(max_steps=self.config.max_steps).trace
                predictor = ProfilePredictor.from_trace(trace)
                run = BenchmarkRun(
                    spec=spec,
                    analyzer=LimitAnalyzer(program),
                    predictor=predictor,
                    trace=trace,
                )
            else:
                program, opener, predictor = self._materialize(spec)
                run = BenchmarkRun(
                    spec=spec,
                    analyzer=LimitAnalyzer(program),
                    predictor=predictor,
                    opener=opener,
                )
            if self.config.verify:
                self._verify(run)
        self._runs[name] = run
        return run

    def _materialize(self, spec: BenchmarkSpec):
        """Produce (or find) one benchmark's trace and profile in the cache.

        The trace is produced by the specialized VM streaming straight
        into the cache — it never materializes in this process — and is
        consumed through streaming readers, so a 100M-step budget costs
        the runner no resident memory.  A cached artifact that fails
        integrity verification has already been quarantined by the cache;
        it is transparently re-produced (and re-stored) here instead of
        crashing the run.
        """
        scale = self._scale_for(spec)
        trace_key = self._trace_key(spec.name)
        program = spec.compile(scale)
        cache = self._cache

        def opener():
            return cache.open_trace_reader(trace_key, program)

        have_trace = False
        if cache.has_trace(trace_key):
            try:
                cache.open_trace_reader(trace_key, program)
                have_trace = True
                self.farm_report.record(trace_key, "trace", spec.name, HIT)
            except CorruptArtifactError as exc:
                self.farm_report.record_failure(
                    trace_key, "trace", spec.name, "corrupt", 1, str(exc),
                    retried=True,
                )
        if not have_trace:
            started = time.time()
            with cache.store_trace_stream(trace_key, program) as writer:
                FastVM(program).run(
                    max_steps=self.config.max_steps, sink=writer
                )
            self.farm_report.record(
                trace_key, "trace", spec.name, RUN, time.time() - started
            )
        profile_key = jobkeys.profile_key(trace_key)
        predictor = None
        if cache.has_profile(profile_key):
            try:
                predictor = cache.load_profile(profile_key)
                self.farm_report.record(profile_key, "profile", spec.name, HIT)
            except CorruptArtifactError as exc:
                self.farm_report.record_failure(
                    profile_key, "profile", spec.name, "corrupt", 1, str(exc),
                    retried=True,
                )
        if predictor is None:
            started = time.time()
            predictor = ProfilePredictor.from_source(opener())
            cache.store_profile(profile_key, predictor)
            self.farm_report.record(
                profile_key, "profile", spec.name, RUN, time.time() - started
            )
        return program, opener, predictor

    def _trace_key(self, name: str) -> str:
        spec = SUITE[name]
        scale = self._scale_for(spec)
        fingerprint = self._planner.fingerprint(name, scale)
        return jobkeys.trace_key(fingerprint, scale, self.config.max_steps)

    def _verify(self, run: BenchmarkRun) -> None:
        """Cross-check the compiled program and its trace (RunConfig.verify)."""
        from repro.analysis.static import analyze_static
        from repro.analysis.static.differential import check_static_vs_dynamic
        from repro.analysis.verify import verify_program
        from repro.vm.sanitize import sanitize_trace

        diagnostics = verify_program(run.analyzer.program, name=run.name)
        diagnostics += sanitize_trace(
            run.trace, analysis=run.analyzer.analysis, name=run.name
        )
        # Static-vs-dynamic differential gate (STA41x).  The trace may be
        # truncated (the runner does not record whether the VM halted), so
        # the halted-only whole-program bound is skipped; every other claim
        # is checked record for record.
        facts = analyze_static(run.analyzer.program, run.analyzer.analysis)
        result = run.analyzer.analyze(run.trace, models=[MachineModel.ORACLE])
        diagnostics += check_static_vs_dynamic(
            facts, run.trace, result=result, halted=False, name=run.name
        )
        errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
        if errors:
            raise DiagnosticError(errors, context=run.name)

    def analyze(
        self,
        name: str,
        models: Sequence[MachineModel] = ALL_MODELS,
        perfect_unrolling: bool = True,
        perfect_inlining: bool = True,
        collect_misprediction_stats: bool = False,
        predictor: BranchPredictor | None = None,
    ) -> AnalysisResult:
        """Limit-analyze one benchmark's trace (cached per option set).

        A custom ``predictor`` bypasses the cache (ablations construct their
        own predictors with internal state).
        """
        if predictor is not None:
            run = self.run(name)
            return run.analyzer.analyze(
                run.trace_source(),
                models=models,
                predictor=predictor,
                perfect_unrolling=perfect_unrolling,
                perfect_inlining=perfect_inlining,
                collect_misprediction_stats=collect_misprediction_stats,
                engine=self.config.engine,
            )
        key = (
            name,
            tuple(models),
            perfect_unrolling,
            perfect_inlining,
            collect_misprediction_stats,
            self.config.engine,
        )
        cached = self._results.get(key)
        if cached is not None:
            return cached
        result_key = None
        # The legacy engine exists as a differential oracle: serving it a
        # persistently cached (fused-produced) result would skip the very
        # code path the caller asked to exercise.
        if self._cache is not None and self.config.engine == "fused":
            result_key = jobkeys.result_key(
                self._trace_key(name),
                tuple(m.label for m in models),
                perfect_unrolling,
                perfect_inlining,
                collect_misprediction_stats,
            )
            # A persistent hit needs neither the trace nor the program.
            if self._cache.has_result(result_key):
                try:
                    cached = self._cache.load_result(result_key)
                    self.farm_report.record(result_key, "analyze", name, HIT)
                    self._results[key] = cached
                    return cached
                except CorruptArtifactError as exc:
                    # Quarantined by the cache; fall through and re-analyze.
                    self.farm_report.record_failure(
                        result_key, "analyze", name, "corrupt", 1, str(exc),
                        retried=True,
                    )
        run = self.run(name)
        started = time.time()
        with telemetry.span(
            "runner.analyze", benchmark=name, engine=self.config.engine
        ):
            cached = run.analyzer.analyze(
                run.trace_source(),
                models=models,
                predictor=run.predictor,
                perfect_unrolling=perfect_unrolling,
                perfect_inlining=perfect_inlining,
                collect_misprediction_stats=collect_misprediction_stats,
                engine=self.config.engine,
            )
        if result_key is not None:
            self._cache.store_result(result_key, cached)
            self.farm_report.record(
                result_key, "analyze", name, RUN, time.time() - started
            )
        self._results[key] = cached
        return cached


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
