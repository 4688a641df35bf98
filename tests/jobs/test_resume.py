"""Tests for the run journal and ``--resume`` semantics."""

import json

import pytest

from repro.core import MachineModel
from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    RunJournal,
)

M = MachineModel
MAX_STEPS = 4_000


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def plan(cache, report, requests, max_steps=MAX_STEPS):
    return Planner(cache, report).plan(requests, None, max_steps)


class TestRunJournal:
    def test_missing_journal_loads_empty(self, cache):
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        journal = RunJournal(cache.root / "journal", graph)
        assert journal.load() == set()

    def test_append_then_load_roundtrip(self, cache):
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        journal = RunJournal(cache.root / "journal", graph)
        jobs = list(graph)
        journal.append(jobs[0], 0.5)
        journal.append(jobs[1], 0.25)
        journal.close()
        assert RunJournal(cache.root / "journal", graph).load() == {
            jobs[0].key,
            jobs[1].key,
        }

    def test_tolerates_torn_final_line(self, cache):
        """A SIGKILL mid-write must not poison the journal."""
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        journal = RunJournal(cache.root / "journal", graph)
        job = next(iter(graph))
        journal.append(job, 1.0)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "half-writ')  # torn by the kill
        assert RunJournal(cache.root / "journal", graph).load() == {job.key}

    def test_journal_addressed_by_graph_digest(self, cache):
        small = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        large = plan(
            cache, FarmReport(),
            [AnalysisRequest("awk"), AnalysisRequest("eqntott")],
        )
        a = RunJournal(cache.root / "journal", small)
        b = RunJournal(cache.root / "journal", large)
        assert a.path != b.path
        # Same graph, same journal file.
        again = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        assert RunJournal(cache.root / "journal", again).path == a.path


class TestResume:
    def test_full_resume_executes_zero_jobs(self, cache):
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        first = FarmReport()
        graph = plan(cache, first, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, first)
        assert first.executed == 3  # compile + trace + analyze

        resumed = FarmReport()
        graph = plan(cache, resumed, requests)
        ExecutionEngine(cache, jobs=1, resume=True).execute(graph, resumed)
        assert resumed.executed == 0
        assert resumed.resumed == 2  # every farm job came from the journal
        assert resumed.hit_rate == 100.0

    def test_without_resume_cached_jobs_are_plain_hits(self, cache):
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        first = FarmReport()
        graph = plan(cache, first, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, first)

        warm = FarmReport()
        graph = plan(cache, warm, requests)
        ExecutionEngine(cache, jobs=1, resume=False).execute(graph, warm)
        assert warm.resumed == 0
        assert warm.hits == 3  # compile (planner-side) + the 2 farm jobs

    def test_resume_reexecutes_jobs_with_missing_artifacts(self, cache):
        """Journaled but evicted artifacts are re-produced, not trusted."""
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        first = FarmReport()
        graph = plan(cache, first, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, first)

        analyze = next(job for job in graph if job.stage == "analyze")
        cache.result_path(analyze.key).unlink()
        cache.checksum_path(cache.result_path(analyze.key)).unlink()

        resumed = FarmReport()
        graph = plan(cache, resumed, requests)
        ExecutionEngine(cache, jobs=1, resume=True).execute(graph, resumed)
        assert resumed.executed == 1  # just the evicted analysis
        assert resumed.resumed == 1
        assert cache.has_result(analyze.key)

    def test_partial_journal_resumes_the_finished_prefix(self, cache):
        """Simulates a run killed after retiring only the trace job."""
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        first = FarmReport()
        graph = plan(cache, first, requests)
        ExecutionEngine(cache, jobs=1).execute(graph, first)

        # Rewrite the journal as if the run died after the trace stage.
        journal = RunJournal(cache.root / "journal", graph)
        trace_job = next(job for job in graph if job.stage == "trace")
        journal.path.write_text(
            json.dumps({"key": trace_job.key, "stage": "trace",
                        "benchmark": "awk", "seconds": 0.1}) + "\n"
        )

        resumed = FarmReport()
        graph = plan(cache, resumed, requests)
        ExecutionEngine(cache, jobs=1, resume=True).execute(graph, resumed)
        # Artifacts all exist, so nothing re-executes; only the journaled
        # job is reported as resumed, the rest as ordinary hits.
        assert resumed.executed == 0
        assert resumed.resumed == 1
        assert resumed.hits == 2  # compile (planner-side) + the analysis
