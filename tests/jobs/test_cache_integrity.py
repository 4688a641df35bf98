"""Tests for artifact-cache integrity: checksums, quarantine, torn writes."""

import hashlib
import os
import pickle
import time

import pytest

from repro.core import LimitAnalyzer, MachineModel
from repro.jobs import ArtifactCache
from repro.jobs.cache import ORPHAN_MIN_AGE_S
from repro.lang import compile_source
from repro.prediction import ProfilePredictor
from repro.vm import VM, CorruptArtifactError

SOURCE = """
int main() {
    int s = 0;
    for (int i = 0; i < 30; i++) {
        if (i % 2 == 0) s += i;
    }
    return s;
}
"""


@pytest.fixture(scope="module")
def traced():
    program = compile_source(SOURCE, name="integrity-bench")
    run = VM(program).run(max_steps=5_000)
    return program, run.trace


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def store_trace(cache, key, program, trace):
    """Stream an in-memory trace into the cache, as a producer would."""
    with cache.store_trace_stream(key, program) as writer:
        writer.write(trace.pcs, trace.addrs, trace.takens)


class TestSidecars:
    def test_every_store_writes_a_checksum(self, cache, traced):
        program, trace = traced
        cache.store_asm("a", "  halt\n")
        store_trace(cache, "t", program, trace)
        cache.store_profile("p", ProfilePredictor.from_trace(trace))
        for path in (cache.asm_path("a"), cache.trace_path("t"),
                     cache.profile_path("p")):
            assert cache.checksum_path(path).is_file()

    def test_artifact_without_sidecar_is_absent(self, cache):
        cache.store_asm("a", "  halt\n")
        cache.checksum_path(cache.asm_path("a")).unlink()
        assert not cache.has_asm("a")

    def test_sidecar_without_artifact_is_absent(self, cache):
        cache.store_asm("a", "  halt\n")
        cache.asm_path("a").unlink()
        assert not cache.has_asm("a")


class TestQuarantine:
    def test_tampered_asm_quarantined(self, cache):
        cache.store_asm("a", "  halt\n")
        cache.asm_path("a").write_text("  trap\n")
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            cache.load_asm("a")
        # Artifact and sidecar moved out of the live store.
        assert not cache.asm_path("a").is_file()
        assert not cache.checksum_path(cache.asm_path("a")).is_file()
        assert list(cache.corrupt_dir().iterdir())

    def test_error_carries_the_producer_key(self, cache):
        cache.store_asm("the-key", "  halt\n")
        cache.asm_path("the-key").write_text("damaged")
        with pytest.raises(CorruptArtifactError) as excinfo:
            cache.load_asm("the-key")
        assert excinfo.value.key == "the-key"

    def test_truncated_trace_quarantined(self, cache, traced):
        program, trace = traced
        store_trace(cache, "t", program, trace)
        path = cache.trace_path("t")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptArtifactError):
            cache.open_trace_reader("t", program).to_trace()
        assert not path.is_file()

    def test_garbage_json_profile_quarantined(self, cache, traced):
        _, trace = traced
        cache.store_profile("p", ProfilePredictor.from_trace(trace))
        cache.profile_path("p").write_bytes(b"\x00garbage\xff" * 8)
        with pytest.raises(CorruptArtifactError):
            cache.load_profile("p")

    def test_unreadable_result_payload_quarantined(self, cache, traced):
        program, trace = traced
        result = LimitAnalyzer(program).analyze(
            trace, models=[MachineModel.BASE]
        )
        cache.store_result("r", result)
        # Valid JSON, valid checksum — but not an AnalysisResult shape.
        path = cache.result_path("r")
        path.write_text('{"not": "a result"}')
        cache.checksum_path(path).write_text(
            hashlib.sha256(path.read_bytes()).hexdigest() + "\n"
        )
        with pytest.raises(CorruptArtifactError, match="unreadable result"):
            cache.load_result("r")

    def test_reproduced_after_quarantine(self, cache, traced):
        program, trace = traced
        store_trace(cache, "t", program, trace)
        cache.trace_path("t").write_bytes(b"junk")
        with pytest.raises(CorruptArtifactError):
            cache.open_trace_reader("t", program).to_trace()
        assert not cache.has_trace("t")  # engine will re-produce it
        store_trace(cache, "t", program, trace)
        loaded = cache.open_trace_reader("t", program).to_trace()
        assert loaded.pcs == trace.pcs


class TestTornWrites:
    def test_orphaned_tmp_sibling_is_not_an_artifact(self, cache):
        """A writer killed mid-store leaves only a temp file: no artifact."""
        path = cache.asm_path("a")
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / f".{path.name}.orphan").write_text("partial")
        assert not cache.has_asm("a")

    def test_orphaned_tmp_cleaned_by_sweep_not_by_stores(self, cache):
        """Stores must NOT delete temp siblings — one they can see might
        belong to a live concurrent writer, not a dead one.  Reclaiming
        genuinely dead writers' litter is sweep_orphans' job."""
        path = cache.asm_path("a")
        path.parent.mkdir(parents=True, exist_ok=True)
        orphan = path.parent / f".{path.name}.orphan"
        orphan.write_text("partial")
        cache.store_asm("a", "  halt\n")
        assert orphan.exists()  # untouched by the store
        assert cache.load_asm("a") == "  halt\n"
        old = time.time() - ORPHAN_MIN_AGE_S - 60
        os.utime(orphan, (old, old))  # its writer died long ago
        assert cache.sweep_orphans() == 1
        assert not orphan.exists()
        # Only the artifact and its sidecar remain.
        assert sorted(p.name for p in path.parent.iterdir()) == sorted(
            [path.name, cache.checksum_path(path).name]
        )

    def test_missing_sidecar_means_reproduce_not_crash(self, cache, traced):
        program, trace = traced
        store_trace(cache, "t", program, trace)
        cache.checksum_path(cache.trace_path("t")).unlink()
        assert not cache.has_trace("t")


class TestCorruptArtifactError:
    def test_subclasses_trace_format_error(self):
        from repro.vm.trace_io import TraceFormatError

        assert issubclass(CorruptArtifactError, TraceFormatError)

    def test_survives_pickling(self):
        """Must cross a ProcessPoolExecutor result pipe intact."""
        original = CorruptArtifactError("boom", key="k123", path="/tmp/x")
        clone = pickle.loads(pickle.dumps(original))
        assert str(clone) == "boom"
        assert clone.key == "k123"
        assert clone.path == "/tmp/x"
