"""Tests for the on-disk artifact store (repro.jobs.cache)."""

import pytest

from repro.core import ALL_MODELS, LimitAnalyzer, MachineModel
from repro.jobs import ArtifactCache
from repro.lang import compile_source
from repro.prediction import ProfilePredictor
from repro.vm import VM

SOURCE = """
int main() {
    int s = 0;
    for (int i = 0; i < 40; i++) {
        if (i % 3 == 0) s += i;
        else s -= 1;
    }
    return s;
}
"""


@pytest.fixture(scope="module")
def traced():
    program = compile_source(SOURCE, name="cache-bench")
    run = VM(program).run(max_steps=5_000)
    return program, run.trace


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def store_trace(cache, key, program, trace):
    """Stream an in-memory trace into the cache, as a producer would."""
    with cache.store_trace_stream(key, program) as writer:
        writer.write(trace.pcs, trace.addrs, trace.takens)


class TestTraceArtifacts:
    def test_roundtrip(self, cache, traced):
        program, trace = traced
        assert not cache.has_trace("k1")
        store_trace(cache, "k1", program, trace)
        assert cache.has_trace("k1")
        loaded = cache.open_trace_reader("k1", program).to_trace()
        assert loaded.pcs == trace.pcs
        assert loaded.addrs == trace.addrs
        assert loaded.takens == trace.takens

    def test_stored_compressed(self, cache, traced):
        program, trace = traced
        store_trace(cache, "k1", program, trace)
        import gzip

        with gzip.open(cache.trace_path("k1")) as stream:
            assert stream.read(4) == b"RTRC"

    def test_no_partial_artifacts(self, cache, traced):
        program, trace = traced
        store_trace(cache, "k1", program, trace)
        files = sorted(cache.trace_path("k1").parent.iterdir())
        # Artifact plus its checksum sidecar; no stray temp files.
        assert files == sorted(
            [cache.trace_path("k1"), cache.checksum_path(cache.trace_path("k1"))]
        )


class TestProfileArtifacts:
    def test_roundtrip_preserves_directions(self, cache, traced):
        _, trace = traced
        predictor = ProfilePredictor.from_trace(trace)
        cache.store_profile("p1", predictor)
        loaded = cache.load_profile("p1")
        assert loaded.direction_map() == predictor.direction_map()
        assert loaded.default_taken == predictor.default_taken
        assert loaded.counts() == predictor.counts()
        assert loaded.records == predictor.records == len(trace)
        assert loaded.stats() == predictor.stats()

    def test_loaded_profile_predicts_identically(self, cache, traced):
        _, trace = traced
        predictor = ProfilePredictor.from_trace(trace)
        cache.store_profile("p1", predictor)
        loaded = cache.load_profile("p1")
        for pc, _ in trace.branch_outcomes():
            assert loaded.lookup(pc) == predictor.lookup(pc)


class TestResultArtifacts:
    def test_roundtrip_renders_identically(self, cache, traced):
        program, trace = traced
        result = LimitAnalyzer(program).analyze(
            trace, collect_misprediction_stats=True
        )
        cache.store_result("r1", result)
        loaded = cache.load_result("r1")
        for model in ALL_MODELS:
            assert loaded[model].parallelism == result[model].parallelism
        assert loaded.misprediction_stats is not None

    def test_has_result(self, cache, traced):
        program, trace = traced
        assert not cache.has_result("r1")
        result = LimitAnalyzer(program).analyze(trace, models=[MachineModel.BASE])
        cache.store_result("r1", result)
        assert cache.has_result("r1")


class TestAsmArtifacts:
    def test_roundtrip(self, cache):
        cache.store_asm("a1", ".text\n  halt\n")
        assert cache.has_asm("a1")
        assert cache.load_asm("a1") == ".text\n  halt\n"

    def test_unicode_listing(self, cache):
        cache.store_asm("a2", "# プログラム\n  halt\n")
        assert cache.load_asm("a2") == "# プログラム\n  halt\n"
