"""A rerun is the recovery mechanism: the artifact cache decides what it skips.

Every job that finished published its artifact, so rerunning the same
request (or the same ``repro-experiments`` command) executes exactly the
jobs whose artifacts are missing — after a kill, after an eviction, or
after jobs died under injected faults — and nothing else.
"""

import pytest

from repro.core import MachineModel
from repro.experiments import RunConfig, SuiteRunner
from repro.experiments.cli import EXPERIMENTS
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


class TestRerunAfterDeadJobs:
    FAULTS = "stage=analyze,mode=raise,times=0,rate=0.5,seed=3"

    def test_plain_rerun_finishes_only_the_dead_jobs(self, tmp_path):
        table3 = EXPERIMENTS["table3"]

        def runner(store, **options):
            return SuiteRunner(
                RunConfig(max_steps=MAX_STEPS, cache_dir=tmp_path / store, **options)
            )

        def render(suite):
            suite.prefetch(table3.requirements(suite.config))
            return table3.run(suite)

        clean = render(runner("clean"))

        faulty = runner("store", retries=0, inject_faults=self.FAULTS)
        faulty.prefetch(table3.requirements(faulty.config))
        died = {k for k, r in faulty.farm_report.records.items() if r.status == DEAD}
        assert 0 < len(died) < len(table3.requirements(faulty.config))

        rerun = runner("store")
        assert render(rerun) == clean
        ran = {k for k, r in rerun.farm_report.records.items() if r.status == RUN}
        assert ran == died
