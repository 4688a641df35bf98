"""A rerun is the recovery mechanism: the artifact cache decides what it skips.

Every job that finished published its artifact, so rerunning the same
request (or the same ``repro-experiments`` command) executes exactly the
jobs whose artifacts are missing — after a kill, after an eviction, or
after jobs died — and nothing else.
"""

from collections import Counter

import pytest

from repro.core import MachineModel
from repro.experiments import RunConfig, SuiteRunner
from repro.experiments.cli import EXPERIMENTS
from repro.experiments.runner import DeadJobError
from repro.jobs import (
    DEAD,
    HIT,
    RUN,
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
)

M = MachineModel
MAX_STEPS = 4_000


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def plan(cache, report, requests, max_steps=MAX_STEPS):
    return Planner(cache, report).plan(requests, None, max_steps)


def run(cache, requests):
    report = FarmReport()
    graph = plan(cache, report, requests)
    ExecutionEngine(cache, jobs=1).execute(graph, report)
    return graph, report


class TestResume:
    def test_full_resume_executes_zero_jobs(self, cache):
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        _, first = run(cache, requests)
        assert first.executed == 3  # compile + trace + analyze

        _, rerun = run(cache, requests)
        assert rerun.executed == 0
        assert rerun.hits == 3  # compile (planner-side) + the 2 farm jobs
        assert rerun.hit_rate == 100.0

    def test_without_resume_cached_jobs_are_plain_hits(self, cache):
        # There is no resume mode: a warm rerun through a plain engine
        # takes every job from the cache as an ordinary hit.
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        run(cache, requests)

        warm = FarmReport()
        graph = plan(cache, warm, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, warm)
        assert warm.executed == 0
        assert warm.hits == 3  # compile (planner-side) + the 2 farm jobs
        assert {r.status for r in warm.records.values()} == {HIT}

    def test_resume_reexecutes_jobs_with_missing_artifacts(self, cache):
        """Evicted artifacts, and only those, are re-produced."""
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        graph, _ = run(cache, requests)

        analyze = next(job for job in graph if job.stage == "analyze")
        cache.result_path(analyze.key).unlink()
        cache.checksum_path(cache.result_path(analyze.key)).unlink()

        _, rerun = run(cache, requests)
        assert rerun.executed == 1
        assert rerun.executed_in("analyze") == 1
        assert rerun.hits == 2  # compile + trace
        assert cache.has_result(analyze.key)

    def test_cold_run_writes_no_journal(self, cache):
        _, first = run(cache, [AnalysisRequest("awk", models=(M.BASE,))])
        assert first.executed == 3
        assert sorted(p.name for p in cache.root.iterdir()) == [
            "asm", "profiles", "results", "traces",
        ]


def block_results(store):
    """Make every analyze job fail for real: a *file* named ``results``
    stands where the cache's results directory belongs, so storing a
    result fails in ``mkdir`` (even for root).  Returns the file."""
    store.mkdir(parents=True, exist_ok=True)
    blocker = store / "results"
    blocker.write_text("")
    return blocker


def records_with(report, status):
    return {k for k, r in report.records.items() if r.status == status}


class TestRerunAfterDeadJobs:
    def test_plain_rerun_finishes_only_the_dead_jobs(self, tmp_path):
        table3 = EXPERIMENTS["table3"]

        def runner(store):
            return SuiteRunner(RunConfig(max_steps=MAX_STEPS, cache_dir=tmp_path / store))

        def render(suite):
            suite.prefetch(table3.requirements(suite.config))
            return table3.run(suite)

        clean = render(runner("clean"))

        blocker = block_results(tmp_path / "store")
        faulty = runner("store")
        faulty.prefetch(table3.requirements(faulty.config))
        died = records_with(faulty.farm_report, DEAD)
        analyze = {
            k for k, r in faulty.farm_report.records.items() if r.stage == "analyze"
        }
        assert died == analyze
        assert len(died) == len(table3.requirements(faulty.config))
        # The trace jobs the analyses needed survived them.
        assert faulty.farm_report.executed_in("trace") == len(died)

        blocker.unlink()
        rerun = runner("store")
        assert render(rerun) == clean
        assert records_with(rerun.farm_report, RUN) == died

    def test_dead_job_is_not_run_again(self, tmp_path):
        # A job that died during prefetch raises from its DEAD record when
        # an experiment loads it; running it again would fail it a second
        # time and report the failure twice.
        table3 = EXPERIMENTS["table3"]
        block_results(tmp_path / "store")
        faulty = SuiteRunner(
            RunConfig(max_steps=MAX_STEPS, cache_dir=tmp_path / "store")
        )
        faulty.prefetch(table3.requirements(faulty.config))
        died = records_with(faulty.farm_report, DEAD)
        with pytest.raises(DeadJobError, match="File exists"):
            table3.run(faulty)
        failed = [failure.key for failure in faulty.farm_report.failures]
        assert sorted(failed) == sorted(died)

    def test_failed_job_executes_once(self, tmp_path):
        # The first failure is final: no attempt is retried in-run, so
        # each analyze job has exactly one (fatal) failure record.
        table3 = EXPERIMENTS["table3"]
        block_results(tmp_path / "store")
        faulty = SuiteRunner(
            RunConfig(max_steps=MAX_STEPS, cache_dir=tmp_path / "store")
        )
        faulty.prefetch(table3.requirements(faulty.config))
        report = faulty.farm_report
        analyze = [k for k, r in report.records.items() if r.stage == "analyze"]
        assert analyze
        failures = Counter(failure.key for failure in report.failures)
        assert {key: failures[key] for key in analyze} == dict.fromkeys(analyze, 1)
        assert all(failure.fatal for failure in report.failures)
        assert {report.records[key].status for key in analyze} == {DEAD}
