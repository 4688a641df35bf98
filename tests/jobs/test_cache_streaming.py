"""Streaming trace artifacts: store_trace_stream / open_trace_reader.

The streaming pair must uphold the same integrity contract as the
whole-artifact paths: atomic publication with a checksum sidecar,
byte-identity with the non-streamed store, quarantine-and-retype for any
damage — whether caught at checksum time, at header parse, or only
mid-stream while chunks are being consumed.
"""

import pytest

from repro.jobs import ArtifactCache
from repro.lang import compile_source
from repro.vm import VM, CorruptArtifactError, FastVM, load_trace, save_trace

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
def program():
    return compile_source(SOURCE, name="stream-bench")


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


class TestStoreTraceStream:
    def test_roundtrip(self, cache, program):
        with cache.store_trace_stream("k1", program) as writer:
            FastVM(program).run(max_steps=5_000, sink=writer)
        assert cache.has_trace("k1")
        trace = VM(program).run(max_steps=5_000).trace
        loaded = cache.open_trace_reader("k1", program).to_trace()
        assert loaded.pcs == trace.pcs
        assert loaded.addrs == trace.addrs
        assert loaded.takens == trace.takens

    def test_bytes_match_whole_trace_store(self, cache, program, tmp_path):
        # Streamed store and materialize-then-save write identical
        # bytes — the racing-producer invariant.
        with cache.store_trace_stream("streamed", program) as writer:
            FastVM(program).run(max_steps=5_000, sink=writer)
        whole = tmp_path / "whole.rtrc.gz"
        save_trace(VM(program).run(max_steps=5_000).trace, whole)
        assert cache.trace_path("streamed").read_bytes() == whole.read_bytes()

    def test_checksum_sidecar_written(self, cache, program):
        with cache.store_trace_stream("k1", program) as writer:
            FastVM(program).run(max_steps=1_000, sink=writer)
        assert cache.checksum_path(cache.trace_path("k1")).exists()
        # And the sidecar verifies: a read-back succeeds.
        cache.open_trace_reader("k1", program)

    def test_error_mid_stream_publishes_nothing(self, cache, program):
        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with cache.store_trace_stream("k1", program) as writer:
                writer.write([0], [-1], [-1])
                raise Boom()
        assert not cache.has_trace("k1")
        files = list(cache.trace_path("k1").parent.iterdir())
        assert files == []  # no stray temp siblings either


class TestOpenTraceReader:
    def test_chunks_stream_the_artifact(self, cache, program):
        with cache.store_trace_stream("k1", program, chunk_size=64) as writer:
            result = FastVM(program).run(max_steps=5_000, sink=writer)
        reader = cache.open_trace_reader("k1", program)
        sizes = [len(c.pcs) for c in reader.chunks()]
        assert sum(sizes) == result.steps
        assert reader.total == result.steps
        assert max(sizes) <= 64 and len(sizes) > 1

    def test_missing_artifact_is_retyped(self, cache, program):
        # Same contract as the whole-artifact loaders: missing reads as
        # corrupt (keyed), so the engine re-produces instead of crashing.
        with pytest.raises(CorruptArtifactError, match="missing") as err:
            cache.open_trace_reader("nope", program)
        assert err.value.key == "nope"

    def test_checksum_mismatch_quarantines(self, cache, program):
        with cache.store_trace_stream("k1", program) as writer:
            FastVM(program).run(max_steps=1_000, sink=writer)
        path = cache.trace_path("k1")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError) as err:
            cache.open_trace_reader("k1", program)
        assert err.value.key == "k1"
        assert not path.exists()  # moved to quarantine
        assert list((cache.root / "corrupt").iterdir())

    def test_mid_stream_damage_quarantines(self, cache, program):
        # Damage that passes the checksum check cannot exist on disk
        # (the sidecar covers every byte), so simulate the race: the
        # file is re-damaged *after* open but before consumption — the
        # chunk iterator itself must quarantine and retype.
        with cache.store_trace_stream("k1", program, chunk_size=256) as writer:
            FastVM(program).run(max_steps=5_000, sink=writer)
        reader = cache.open_trace_reader("k1", program)
        path = cache.trace_path("k1")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError) as err:
            for _ in reader.chunks():
                pass
        assert err.value.key == "k1"
        assert not path.exists()

    def test_to_trace_matches_load_trace(self, cache, program):
        with cache.store_trace_stream("k1", program) as writer:
            FastVM(program).run(max_steps=2_000, sink=writer)
        via_reader = cache.open_trace_reader("k1", program).to_trace()
        via_load = load_trace(cache.trace_path("k1"), program)
        assert via_reader.pcs == via_load.pcs
        assert via_reader.addrs == via_load.addrs
        assert via_reader.takens == via_load.takens
