"""Backend-conformance suite: every executor backend, one contract.

Runs the same checks against the serial and pool backends: cold-cache
runs must produce byte-identical artifacts regardless of backend or
scheduling order, and a rerun must find every job a cache hit.  A new
backend earns its place by passing this file unmodified.
"""

import hashlib

import pytest

from repro.core import MachineModel
from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
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


class TestRerun:
    def test_rerun_executes_nothing(self, tmp_path, backend_kwargs):
        cache = ArtifactCache(tmp_path / "store")
        report = FarmReport()
        graph = plan(cache, report)
        ExecutionEngine(cache, **backend_kwargs).execute(graph, report)
        assert report.executed > 0

        rerun = FarmReport()
        graph = plan(cache, rerun)
        ExecutionEngine(cache, **backend_kwargs).execute(graph, rerun)
        assert rerun.executed == 0
        # Every job the first run executed (compile included: it runs in
        # the planner) is a cache hit the second time.
        assert rerun.hits == report.executed
