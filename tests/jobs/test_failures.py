"""A failed job is final: the engine's behaviour under real failures.

Every farm job is a pure function of its content key, so the engine
never retries one in-run.  A failed job dies with its dependents; a
corrupt input heals once by re-running its producer; a crashed pool
kills what was in flight and the rest of the graph finishes on a fresh
one.  The faults here are real: a file where a cache directory belongs,
a truncated artifact, a stage patched to damage its output or to kill
its worker.
"""

import multiprocessing
import os
from collections import Counter

import pytest

from repro.core import MachineModel
from repro.jobs import (
    DEAD,
    RUN,
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    TraceRequest,
)
from repro.jobs import worker
from tests.jobs.test_backend_conformance import artifact_bytes

M = MachineModel
MAX_STEPS = 4_000
AWK = [AnalysisRequest("awk", models=(M.BASE,))]


def run(cache, requests, jobs=1):
    report = FarmReport()
    graph = Planner(cache, report).plan(requests, None, MAX_STEPS)
    ExecutionEngine(cache, jobs).execute(graph, report)
    return graph, report


def stage_key(graph, stage, benchmark="awk"):
    [job] = [j for j in graph if j.stage == stage and j.benchmark == benchmark]
    return job.key


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestFailedJob:
    def test_failed_job_and_its_dependents_are_dead(self, tmp_path):
        # A file where the traces directory belongs: storing fails.
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "traces").write_text("")
        graph, report = run(ArtifactCache(tmp_path / "store"), AWK)
        trace, analyze = stage_key(graph, "trace"), stage_key(graph, "analyze")
        assert report.records[trace].status == DEAD
        assert report.records[analyze].status == DEAD
        [trace_failure, lost] = report.failures
        assert (trace_failure.key, trace_failure.kind) == (trace, "error")
        assert "File exists" in trace_failure.message and trace_failure.fatal
        assert (lost.key, lost.kind) == (analyze, "dependency")


class TestCorruptInput:
    def test_truncated_trace_heals_once(self, tmp_path):
        reference = ArtifactCache(tmp_path / "reference")
        _, clean = run(reference, AWK)

        cache = ArtifactCache(tmp_path / "store")
        graph, _ = run(cache, [TraceRequest("awk")])
        trace = stage_key(graph, "trace")
        truncate(cache.trace_path(trace))

        graph, report = run(cache, AWK)
        analyze = stage_key(graph, "analyze")
        assert report.dead == 0
        # The stale hit made way for the producer's re-run.
        assert report.records[trace].status == RUN
        assert report.records[analyze].status == RUN
        [failure] = report.failures
        assert (failure.key, failure.kind, failure.fatal) == (analyze, "corrupt", False)
        assert list(cache.corrupt_dir().iterdir())  # quarantine is populated
        assert artifact_bytes(cache, report) == artifact_bytes(reference, clean)

    def test_persistently_corrupt_trace_kills_its_consumer(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "store")
        produced = []
        trace_job = worker._trace_job

        def corrupting_trace_job(payload):
            trace_job(payload)
            produced.append(payload["key"])
            truncate(cache.trace_path(payload["key"]))

        monkeypatch.setattr(worker, "_trace_job", corrupting_trace_job)
        graph, report = run(cache, AWK)
        analyze = stage_key(graph, "analyze")
        # One heal, then the second corrupt input is final.
        assert produced == [stage_key(graph, "trace")] * 2
        assert report.records[analyze].status == DEAD
        assert [(f.key, f.kind, f.fatal) for f in report.failures] == [
            (analyze, "corrupt", False),
            (analyze, "corrupt", True),
        ]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patched stage only when forked",
)
class TestPoolCrash:
    BENCHMARKS = ("awk", "eqntott", "espresso", "gcc", "irsim", "tomcatv")

    def test_crash_kills_in_flight_jobs_and_the_rest_finishes(
        self, tmp_path, monkeypatch
    ):
        requests = [AnalysisRequest(name, models=(M.BASE,)) for name in self.BENCHMARKS]
        log = tmp_path / "executions.log"
        trace_job, analysis_job = worker._trace_job, worker._analysis_job

        def logged(stage):
            def job(payload):
                with open(log, "a") as out:
                    out.write(payload["key"] + "\n")
                if payload["benchmark"] == "awk" and stage is trace_job:
                    os._exit(1)  # the worker dies; so does its pool
                stage(payload)

            return job

        cache = ArtifactCache(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr(worker, "_trace_job", logged(trace_job))
            patch.setattr(worker, "_analysis_job", logged(analysis_job))
            graph, report = run(cache, requests, jobs=2)

        # No job executed twice.
        assert max(Counter(log.read_text().split()).values()) == 1
        # awk's trace died with the pool, as did every in-flight job whose
        # artifact had not landed; the rest of the graph finished.
        crashed = {f.key for f in report.failures if f.kind == "crash"}
        assert stage_key(graph, "trace") in crashed
        assert {f.kind for f in report.failures} <= {"crash", "dependency"}
        died = {k for k, r in report.records.items() if r.status == DEAD}
        assert crashed <= died
        assert {report.records[job.key].status for job in graph} == {RUN, DEAD}
        assert report.executed_in("analyze") >= 1
        assert any("fresh pool" in note for note in report.notes)

        # A plain rerun executes exactly the dead jobs and ends with the
        # artifacts a serial run produces.
        _, rerun = run(cache, requests, jobs=2)
        assert {k for k, r in rerun.records.items() if r.status == RUN} == died
        reference = ArtifactCache(tmp_path / "reference")
        _, clean = run(reference, requests)
        _, warm = run(cache, requests)
        assert artifact_bytes(cache, warm) == artifact_bytes(reference, clean)
