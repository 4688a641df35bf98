"""Tests for the deterministic fault injector (repro.jobs.faults) and the
engine's recovery machinery exercised through it."""

import pytest

from repro.core import MachineModel
from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    FaultClause,
    FaultPlan,
    FaultSpecError,
    Planner,
    RetryPolicy,
)
from repro.jobs.faults import trigger_before, InjectedFault

M = MachineModel
MAX_STEPS = 4_000

#: Fast retry schedule so chaotic tests do not sleep for real.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_cap=0.01)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def plan(cache, report, requests, max_steps=MAX_STEPS):
    return Planner(cache, report).plan(requests, None, max_steps)


class TestSpecParsing:
    def test_single_clause(self):
        plan = FaultPlan.from_spec("stage=trace,mode=raise,rate=0.5,seed=42")
        (clause,) = plan.clauses
        assert clause.stage == "trace"
        assert clause.mode == "raise"
        assert clause.rate == 0.5
        assert clause.seed == 42
        assert clause.times == 1  # default

    def test_multiple_clauses(self):
        plan = FaultPlan.from_spec("mode=raise;stage=analyze,mode=truncate")
        assert len(plan.clauses) == 2
        assert plan.clauses[1].stage == "analyze"

    def test_roundtrips_through_spec_syntax(self):
        spec = "mode=hang,stage=trace,rate=0.25,times=2,seed=9,secs=1.5"
        plan = FaultPlan.from_spec(spec)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "stage=trace",  # missing mode
            "mode=explode",  # unknown mode
            "mode=raise,rate=2.0",  # rate out of range
            "mode=raise,times=-1",
            "mode=hang,secs=-5",
            "mode=raise,bogus=1",  # unknown field
            "mode=raise,rate=abc",  # unparseable value
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(spec)


class TestClauseMatching:
    def test_stage_gating(self):
        clause = FaultClause(mode="raise", stage="trace")
        assert clause.matches("trace", "k", 1)
        assert not clause.matches("analyze", "k", 1)

    def test_times_limits_attempts(self):
        clause = FaultClause(mode="raise", times=2)
        assert clause.matches("trace", "k", 1)
        assert clause.matches("trace", "k", 2)
        assert not clause.matches("trace", "k", 3)

    def test_times_zero_fires_forever(self):
        clause = FaultClause(mode="raise", times=0)
        assert clause.matches("trace", "k", 99)

    def test_rate_selection_is_deterministic(self):
        clause = FaultClause(mode="raise", rate=0.5, seed=7)
        keys = [f"key-{i}" for i in range(200)]
        first = [clause.matches("trace", k, 1) for k in keys]
        second = [clause.matches("trace", k, 1) for k in keys]
        assert first == second  # replayable
        hit = sum(first)
        assert 0 < hit < len(keys)  # selects a real subset

    def test_seed_changes_the_selection(self):
        keys = [f"key-{i}" for i in range(200)]
        a = FaultClause(mode="raise", rate=0.5, seed=1)
        b = FaultClause(mode="raise", rate=0.5, seed=2)
        assert [a.matches("t", k, 1) for k in keys] != [
            b.matches("t", k, 1) for k in keys
        ]

    def test_in_process_exit_is_softened(self):
        """mode=exit must not kill the coordinating process."""
        clause = FaultClause(mode="exit")
        payload = {"stage": "trace", "key": "k", "in_process": True}
        with pytest.raises(InjectedFault, match="softened"):
            trigger_before(clause, payload)


class TestEngineRecovery:
    def test_transient_fault_is_retried_to_success(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache, jobs=1, retry=FAST, faults="mode=raise,times=1"
        )
        engine.execute(graph, report)
        assert report.dead == 0
        assert report.retries >= 1
        assert all(f.kind == "error" for f in report.failures)
        for job in graph:
            if job.stage == "analyze":
                assert cache.has_result(job.key)

    def test_persistent_fault_quarantines_job_and_dependents(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache, jobs=1, retry=FAST, faults="stage=trace,mode=raise,times=0"
        )
        engine.execute(graph, report)
        # trace dead + analyze dead by dependency.
        assert report.dead == 2
        kinds = {f.kind for f in report.failures}
        assert "dependency" in kinds
        gave_up = [f for f in report.failures if not f.retried]
        assert gave_up  # the fatal attempt has provenance

    def test_corrupted_artifact_heals_via_producer_rerun(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache, jobs=1, retry=FAST,
            faults="stage=trace,mode=truncate,times=1",
        )
        engine.execute(graph, report)
        assert report.dead == 0
        assert report.corrupt_artifacts >= 1
        assert list(cache.corrupt_dir().iterdir())  # quarantine is populated
        for job in graph:
            if job.stage == "analyze":
                assert cache.has_result(job.key)

    def test_garbage_artifact_heals_too(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache, jobs=1, retry=FAST,
            faults="stage=trace,mode=garbage,times=1",
        )
        engine.execute(graph, report)
        assert report.dead == 0
        for job in graph:
            if job.stage == "analyze":
                assert cache.has_result(job.key)

    def test_in_process_crash_mode_survives_and_retries(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache, jobs=1, retry=FAST, faults="mode=exit,times=1"
        )
        engine.execute(graph, report)  # must not kill this process
        assert report.dead == 0
        assert report.retries >= 1

    def test_hang_reaped_by_serial_timeout(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache,
            jobs=1,
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.001, backoff_cap=0.01,
                job_timeout=0.5,
            ),
            faults="stage=trace,mode=hang,secs=30,times=1",
        )
        engine.execute(graph, report)
        assert report.timeouts >= 1
        assert report.dead == 0
        for job in graph:
            if job.stage == "analyze":
                assert cache.has_result(job.key)

    def test_chaotic_run_byte_identical_to_clean_run(self, cache, tmp_path):
        requests = [AnalysisRequest("awk", models=(M.BASE, M.ORACLE))]
        clean_report = FarmReport()
        graph = plan(cache, clean_report, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, clean_report)

        chaotic_cache = ArtifactCache(tmp_path / "chaotic")
        chaotic_report = FarmReport()
        graph = plan(chaotic_cache, chaotic_report, requests)
        ExecutionEngine(
            chaotic_cache, jobs=1, retry=FAST,
            faults="mode=raise,rate=0.6,times=1,seed=3",
        ).execute(graph, chaotic_report)

        assert chaotic_report.dead == 0
        for record in clean_report.records.values():
            if record.stage == "analyze":
                a = cache.load_result(record.key).to_json()
                b = chaotic_cache.load_result(record.key).to_json()
                assert a == b


class TestEngineRecoveryParallel:
    def test_worker_crash_rebuilds_the_pool(self, cache):
        report = FarmReport()
        graph = plan(
            cache,
            report,
            [AnalysisRequest("awk", models=(M.BASE,)),
             AnalysisRequest("eqntott", models=(M.BASE,))],
        )
        engine = ExecutionEngine(
            cache, jobs=2,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.001,
                              backoff_cap=0.01),
            faults="stage=trace,mode=exit,times=1",
        )
        engine.execute(graph, report)
        assert report.dead == 0
        crash_failures = [f for f in report.failures if f.kind == "crash"]
        assert crash_failures
        for job in graph:
            if job.stage == "analyze":
                assert cache.has_result(job.key)

    def test_hung_worker_reaped_by_parallel_timeout(self, cache):
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache,
            jobs=2,
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.001, backoff_cap=0.01,
                job_timeout=1.0,
            ),
            faults="stage=trace,mode=hang,secs=60,times=1",
        )
        engine.execute(graph, report)
        assert report.timeouts >= 1
        assert report.dead == 0
        for job in graph:
            if job.stage == "analyze":
                assert cache.has_result(job.key)
