"""Concurrent multi-engine use of one artifact cache (repro.jobs.cache).

Several ``repro-experiments`` invocations may write to the same cache
directory at once.  The atomic-rename invariant (documented in the
cache module) makes this safe: these tests pin it by racing two engines
over one cache and by exercising the startup orphan sweep.
"""

import os
import threading
import time

import pytest

from repro.bench import SUITE
from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
)
from repro.jobs.cache import ARTIFACT_DIRS, ORPHAN_MIN_AGE_S

MAX_STEPS = 2_000


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


class TestConcurrentEngines:
    def test_two_engines_race_one_cache(self, cache):
        """Two engines running the same requests concurrently must both
        succeed, and the shared artifacts must come out intact."""
        requests = [
            AnalysisRequest("awk", max_steps=MAX_STEPS),
            AnalysisRequest("eqntott", max_steps=MAX_STEPS),
        ]
        reports = [FarmReport(), FarmReport()]
        errors = []
        barrier = threading.Barrier(2)

        def run(report):
            try:
                planner = Planner(cache, report)
                graph = planner.plan(requests, None, MAX_STEPS)
                barrier.wait()
                ExecutionEngine(cache).execute(graph, report)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(r,)) for r in reports]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # Both engines retired every job (as a run or a hit)...
        for report in reports:
            assert report.dead == 0
            # 2 benchmarks x (compile + trace + analyze)
            assert report.total == 6

        # ...and every artifact is complete and checksum-clean: loading
        # re-verifies the sidecar, so a torn write would raise here.
        planner = Planner(cache, FarmReport())
        for request in requests:
            keys = planner.request_keys(request, None, MAX_STEPS)
            program = SUITE[request.benchmark].compile()
            assert cache.open_trace_reader(keys.trace, program).to_trace() is not None
            assert cache.load_profile(keys.trace) is not None
            assert cache.load_result(keys.result) is not None

    def test_racing_writers_leave_identical_bytes(self, cache):
        """Last-rename-wins is safe because racing producers of one key
        write identical bytes (content-addressed determinism)."""
        request = AnalysisRequest("awk", max_steps=MAX_STEPS)
        planner = Planner(cache, FarmReport())
        graph = planner.plan([request], None, MAX_STEPS)
        ExecutionEngine(cache).execute(graph, FarmReport())
        keys = planner.request_keys(request, None, MAX_STEPS)
        first = cache.result_path(keys.result).read_bytes()

        # Force a full re-execution into the same cache paths.
        for directory in ARTIFACT_DIRS:
            for path in (cache.root / directory).glob("*"):
                path.unlink()
        graph = planner.plan([request], None, MAX_STEPS)
        ExecutionEngine(cache).execute(graph, FarmReport())
        assert cache.result_path(keys.result).read_bytes() == first


class TestOrphanSweep:
    def test_sweep_removes_dot_temp_files_only(self, cache):
        request = AnalysisRequest("awk", max_steps=MAX_STEPS)
        planner = Planner(cache, FarmReport())
        graph = planner.plan([request], None, MAX_STEPS)
        ExecutionEngine(cache).execute(graph, FarmReport())

        # Plant orphans shaped like temp files of writers that died
        # long ago.
        planted = []
        for directory in ARTIFACT_DIRS:
            orphan = cache.root / directory / ".deadbeef.json.12345.tmp"
            orphan.write_bytes(b"partial write")
            age(orphan)
            planted.append(orphan)

        removed = cache.sweep_orphans()
        assert removed == len(planted)
        assert not any(orphan.exists() for orphan in planted)

        # Published artifacts and their sidecars were untouched.
        keys = planner.request_keys(request, None, MAX_STEPS)
        assert cache.load_result(keys.result) is not None

    def test_sweep_on_empty_cache_is_zero(self, cache):
        assert cache.sweep_orphans() == 0
        assert cache.sweep_orphans() == 0  # idempotent

    def test_fresh_temp_file_survives_the_sweep(self, cache):
        """A recently written temp file may belong to a live writer in
        another invocation sharing the cache: the sweep leaves it."""
        directory = cache.root / "traces"
        directory.mkdir(parents=True)
        fresh = directory / ".live.rtrc.gz.12345.gz"
        fresh.write_bytes(b"frame in progress")
        stale = directory / ".dead.rtrc.gz.67890.gz"
        stale.write_bytes(b"abandoned")
        age(stale)
        assert cache.sweep_orphans() == 1
        assert fresh.exists()
        assert not stale.exists()


def age(path):
    """Backdate *path* past the sweep's orphan age."""
    old = time.time() - ORPHAN_MIN_AGE_S - 60
    os.utime(path, (old, old))
