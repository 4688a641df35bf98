"""Backend-conformance suite: every executor backend, one contract.

Runs the same checks against the serial and pool backends: cold-cache
runs must produce byte-identical artifacts regardless of backend or
scheduling order, per-attempt timeouts must condemn hung work and let
the retry machinery recover, journal/``--resume`` must skip retired
jobs, and deterministic fault injection must converge to the same
artifacts everywhere.  A new backend earns its place by
passing this file unmodified.
"""

import hashlib
import time

import pytest

from repro.core import MachineModel
from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    RetryPolicy,
)

M = MachineModel
MAX_STEPS = 4_000
BACKENDS = ("serial", "pool")

REQUESTS = [
    AnalysisRequest("awk", models=(M.BASE, M.ORACLE)),
    AnalysisRequest("eqntott", models=(M.BASE,)),
]


def plan(cache, report, requests=REQUESTS):
    return Planner(cache, report).plan(requests, None, MAX_STEPS)


def artifact_bytes(cache, report):
    """Verified bytes and sha256 of every artifact the report's jobs produced."""
    stage_paths = {
        "trace": (cache.trace_path, cache.profile_path),
        "analyze": (cache.result_path,),
    }
    out = {}
    for record in report.records.values():
        for path_of in stage_paths.get(record.stage, ()):
            path = path_of(record.key)
            data = path.read_bytes()
            sidecar = cache.checksum_path(path).read_text().strip()
            assert sidecar == hashlib.sha256(data).hexdigest(), path
            out[(path.parent.name, record.key)] = (data, sidecar)
    return out


@pytest.fixture(params=BACKENDS)
def backend_kwargs(request):
    """ExecutionEngine kwargs selecting one backend by worker count."""
    return {"jobs": 1 if request.param == "serial" else 2}


class TestByteIdentity:
    def test_cold_run_matches_serial_reference(
        self, tmp_path, backend_kwargs
    ):
        reference_cache = ArtifactCache(tmp_path / "reference")
        reference = FarmReport()
        graph = plan(reference_cache, reference)
        ExecutionEngine(reference_cache).execute(
            graph, reference
        )

        cache = ArtifactCache(tmp_path / "subject")
        report = FarmReport()
        graph = plan(cache, report)
        ExecutionEngine(cache, **backend_kwargs).execute(graph, report)

        assert report.executed == reference.executed
        assert artifact_bytes(cache, report) == artifact_bytes(
            reference_cache, reference
        )


class TestTimeoutCondemnation:
    def test_hung_attempt_is_timed_out_and_retried(
        self, tmp_path, backend_kwargs
    ):
        cache = ArtifactCache(tmp_path / "store")
        report = FarmReport()
        graph = plan(cache, report, [AnalysisRequest("awk", models=(M.BASE,))])
        engine = ExecutionEngine(
            cache,
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.01, job_timeout=2.0
            ),
            faults="stage=trace,mode=hang,secs=60,times=1",
            **backend_kwargs,
        )
        started = time.monotonic()
        engine.execute(graph, report)
        assert time.monotonic() - started < 50  # never served the full hang
        assert report.timeouts >= 1
        assert report.dead == 0  # the retry recovered
        trace = next(
            r for r in report.records.values() if r.stage == "trace"
        )
        assert cache.has_trace(trace.key)


class TestJournalResume:
    def test_resume_skips_everything_already_retired(
        self, tmp_path, backend_kwargs
    ):
        cache = ArtifactCache(tmp_path / "store")
        report = FarmReport()
        graph = plan(cache, report)
        ExecutionEngine(cache, **backend_kwargs).execute(graph, report)
        assert report.executed > 0

        resumed = FarmReport()
        graph = plan(cache, resumed)
        ExecutionEngine(cache, resume=True, **backend_kwargs).execute(
            graph, resumed
        )
        assert resumed.executed == 0
        # Every farm job came from the journal; the compile stage runs
        # in the planner and is a plain cache hit on the second pass.
        farm_jobs = sum(
            1
            for record in report.records.values()
            if record.stage != "compile" and record.status == "run"
        )
        assert resumed.resumed == farm_jobs


class TestFaultDeterminism:
    def test_injected_faults_converge_to_identical_artifacts(
        self, tmp_path, backend_kwargs
    ):
        requests = [AnalysisRequest("awk", models=(M.BASE,))]
        reference_cache = ArtifactCache(tmp_path / "reference")
        reference = FarmReport()
        graph = plan(reference_cache, reference, requests)
        ExecutionEngine(reference_cache).execute(
            graph, reference
        )

        cache = ArtifactCache(tmp_path / "subject")
        report = FarmReport()
        graph = plan(cache, report, requests)
        engine = ExecutionEngine(
            cache,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults="stage=trace,mode=raise,times=1,seed=7",
            **backend_kwargs,
        )
        engine.execute(graph, report)
        assert report.retries >= 1
        assert report.dead == 0
        assert artifact_bytes(cache, report) == artifact_bytes(
            reference_cache, reference
        )
