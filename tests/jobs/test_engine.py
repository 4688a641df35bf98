"""Tests for the planner and execution engine (repro.jobs.engine)."""

import pytest

from repro.core import MachineModel
from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    TraceRequest,
)

M = MachineModel
MAX_STEPS = 4_000


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def plan(cache, report, requests, max_steps=MAX_STEPS):
    return Planner(cache, report).plan(requests, None, max_steps)


class TestPlanner:
    def test_trace_request_expands_to_trace_and_profile(self, cache):
        """One trace job, which stores the trace and its branch profile."""
        report = FarmReport()
        graph = plan(cache, report, [TraceRequest("awk")])
        (job,) = graph
        assert job.stage == "trace"
        # The compile stage ran inside the planner and was recorded.
        assert report.total == 1
        assert next(iter(report.records.values())).stage == "compile"
        ExecutionEngine(cache, jobs=1).execute(graph, report)
        assert cache.has_trace(job.key)
        assert cache.has_profile(job.key)

    def test_analysis_request_implies_trace_and_profile(self, cache):
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        assert sorted(job.stage for job in graph) == ["analyze", "trace"]

    def test_requests_deduplicate(self, cache):
        requests = [
            TraceRequest("awk"),
            AnalysisRequest("awk"),
            AnalysisRequest("awk"),  # exact duplicate
            AnalysisRequest("awk", models=(M.BASE,)),  # distinct option set
        ]
        graph = plan(cache, FarmReport(), requests)
        assert sorted(job.stage for job in graph) == [
            "analyze",
            "analyze",
            "trace",
        ]

    def test_analysis_depends_on_trace_and_profile(self, cache):
        """The profile is stored under the trace's key by the trace job,
        so that job is the analysis's only dependency."""
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        jobs = {job.stage: job for job in graph}
        assert jobs["analyze"].deps == (jobs["trace"].key,)
        assert jobs["analyze"].payload["trace"] == jobs["trace"].key
        assert "profile" not in jobs["analyze"].payload

    def test_unknown_predictor_rejected_before_any_job_runs(self, cache):
        report = FarmReport()
        with pytest.raises(ValueError) as excinfo:
            plan(cache, report, [AnalysisRequest("awk", predictor="oracle")])
        assert "'oracle'" in str(excinfo.value)
        assert "always-taken, always-not-taken, btfnt" in str(excinfo.value)
        # Only the in-planner compile stage ran; no job was planned.
        assert {record.stage for record in report.records.values()} == {"compile"}

    def test_unknown_program_rejected_before_any_job_runs(self, cache):
        from repro.experiments import RunConfig, SuiteRunner

        report = FarmReport()
        with pytest.raises(KeyError) as excinfo:
            plan(cache, report, [TraceRequest("awk"), AnalysisRequest("nope")])
        message = str(excinfo.value)
        assert "unknown benchmark 'nope'" in message
        assert "awk, ccom" in message and "demo-branches, demo-guarded" in message
        # Only awk's in-planner compile stage ran; no job was planned.
        assert {record.stage for record in report.records.values()} == {"compile"}
        # The runner's lookups go through the same planner.
        runner = SuiteRunner(RunConfig(max_steps=MAX_STEPS, cache_dir=cache.root))
        with pytest.raises(KeyError, match="unknown benchmark 'nope'"):
            runner.analyze("nope")
        with pytest.raises(KeyError, match="unknown benchmark 'nope'"):
            runner.prefetch([TraceRequest("nope")])
        assert runner.farm_report.records == {}

    def test_unknown_engine_rejected_by_the_planner(self, cache):
        with pytest.raises(ValueError, match="unknown engine 'turbo'"):
            Planner(cache, FarmReport(), engine="turbo")

    def test_max_steps_override_forks_the_trace(self, cache):
        graph = plan(
            cache,
            FarmReport(),
            [TraceRequest("awk"), TraceRequest("awk", max_steps=999)],
        )
        assert sum(1 for job in graph if job.stage == "trace") == 2

    def test_warm_planner_hashes_listing_instead_of_compiling(self, cache):
        first = FarmReport()
        plan(cache, first, [TraceRequest("awk")])
        assert first.executed_in("compile") == 1
        second = FarmReport()
        plan(cache, second, [TraceRequest("awk")])
        assert second.executed_in("compile") == 0
        assert second.hits == 1


class TestSerialExecution:
    def test_produces_all_artifacts(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        ExecutionEngine(cache, jobs=1).execute(graph, report)
        for job in graph:
            if job.stage == "trace":
                assert cache.has_trace(job.key)
                assert cache.has_profile(job.key)
            else:
                assert cache.has_result(job.key)
        assert report.executed == 3  # compile + trace + analyze
        assert report.hits == 0

    def test_trace_without_its_profile_is_not_cached(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [TraceRequest("awk")])
        ExecutionEngine(cache, jobs=1).execute(graph, report)
        (job,) = graph
        cache.profile_path(job.key).unlink()
        rerun = FarmReport()
        ExecutionEngine(cache, jobs=1).execute(graph, rerun)
        assert rerun.executed_in("trace") == 1
        assert cache.has_profile(job.key)

    def test_second_execution_all_hits(self, cache):
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        report = FarmReport()
        graph = plan(cache, report, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, report)
        warm = FarmReport()
        graph = plan(cache, warm, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, warm)
        assert warm.executed == 0
        assert warm.hit_rate == 100.0

    def test_rejects_bad_worker_count(self, cache):
        with pytest.raises(ValueError, match="positive"):
            ExecutionEngine(cache, jobs=0)


class TestParallelExecution:
    def test_parallel_artifacts_match_serial(self, cache, tmp_path):
        requests = [
            AnalysisRequest("awk", models=(M.BASE, M.ORACLE)),
            AnalysisRequest("eqntott", models=(M.BASE, M.ORACLE)),
        ]
        serial_report = FarmReport()
        graph = plan(cache, serial_report, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, serial_report)

        parallel_cache = ArtifactCache(tmp_path / "parallel")
        parallel_report = FarmReport()
        graph = plan(parallel_cache, parallel_report, requests)
        ExecutionEngine(parallel_cache, jobs=2).execute(graph, parallel_report)

        assert parallel_report.executed == serial_report.executed
        for record in serial_report.records.values():
            if record.stage == "analyze":
                a = cache.load_result(record.key)
                b = parallel_cache.load_result(record.key)
                assert a.to_json() == b.to_json()
            elif record.stage == "trace":
                assert parallel_cache.has_trace(record.key)
