"""Tests for trace serialization."""

import gzip
import random
import struct

import pytest

from repro.asm import assemble
from repro.core import ALL_MODELS, LimitAnalyzer
from repro.vm import (
    NO_ADDR,
    VM,
    CorruptArtifactError,
    Trace,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    iter_trace_chunks,
    load_trace,
    save_trace,
)
from repro.vm.trace_io import GZIP_LEVEL

SOURCE = """
    li $t0, 6
loop:
    lw $t1, 0x2000($t0)
    addi $t1, $t1, 1
    sw $t1, 0x2000($t0)
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
"""


@pytest.fixture
def traced():
    program = assemble(SOURCE, name="tio")
    run = VM(program).run()
    return program, run.trace


class TestRoundTrip:
    def test_plain_roundtrip(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        loaded = load_trace(path, program)
        assert loaded.pcs == trace.pcs
        assert loaded.addrs == trace.addrs
        assert loaded.takens == trace.takens

    def test_gzip_roundtrip(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "t.rtrc.gz"
        save_trace(trace, path)
        loaded = load_trace(path, program)
        assert loaded.pcs == trace.pcs

    def test_loaded_trace_analyzes_identically(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        loaded = load_trace(path, program)
        analyzer = LimitAnalyzer(program)
        original = analyzer.analyze(trace)
        reloaded = analyzer.analyze(loaded)
        for model in ALL_MODELS:
            assert original[model].parallel_time == reloaded[model].parallel_time

    def test_empty_trace(self, tmp_path):
        program = assemble("halt", name="empty")
        trace = VM(program).run(max_steps=0).trace
        path = tmp_path / "e.rtrc"
        save_trace(trace, path)
        assert len(load_trace(path, program)) == 0

    def test_empty_trace_gzip(self, tmp_path):
        # Worker transport regression: an empty trace must survive the
        # compressed path too (a benchmark capped at max_steps=0).
        program = assemble("halt", name="empty")
        trace = VM(program).run(max_steps=0).trace
        path = tmp_path / "e.rtrc.gz"
        save_trace(trace, path)
        loaded = load_trace(path, program)
        assert list(loaded.pcs) == [] and list(loaded.addrs) == []
        assert list(loaded.takens) == []

    def test_non_ascii_program_name(self, tmp_path):
        # Worker transport regression: the name length field counts UTF-8
        # *bytes*, which must round-trip for multi-byte names.
        program = assemble(SOURCE, name="bénch-日本語-🧪")
        trace = VM(program).run().trace
        path = tmp_path / "u.rtrc.gz"
        save_trace(trace, path)
        loaded = load_trace(path, program)
        assert loaded.program.name == "bénch-日本語-🧪"
        assert loaded.pcs == trace.pcs

    def test_empty_trace_with_non_ascii_name(self, tmp_path):
        program = assemble("halt", name="пусто")
        trace = VM(program).run(max_steps=0).trace
        path = tmp_path / "eu.rtrc.gz"
        save_trace(trace, path)
        assert len(load_trace(path, program)) == 0

    def test_overlong_name_rejected(self, tmp_path):
        program = assemble("halt", name="x" * 70_000)
        trace = VM(program).run(max_steps=0).trace
        with pytest.raises(TraceFormatError, match="65535"):
            save_trace(trace, tmp_path / "long.rtrc")


class TestV2Streaming:
    def test_writer_reader_roundtrip(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "s.rtrc.gz"
        with TraceWriter(path, program, chunk_size=7) as writer:
            writer.write(list(trace.pcs), list(trace.addrs), list(trace.takens))
        reader = TraceReader(path, program)
        assert reader.version == 2
        assert reader.chunk_size == 7
        loaded = reader.to_trace()
        assert loaded.pcs == trace.pcs
        assert loaded.addrs == trace.addrs
        assert loaded.takens == trace.takens
        assert reader.total == len(trace)

    def test_chunks_bounded_by_chunk_size(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "s.rtrc"
        save_trace(trace, path, chunk_size=5)
        sizes = [len(c.pcs) for c in TraceReader(path, program).chunks()]
        assert all(s == 5 for s in sizes[:-1])
        assert 0 < sizes[-1] <= 5
        assert sum(sizes) == len(trace)

    def test_reader_is_reiterable(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "s.rtrc"
        save_trace(trace, path, chunk_size=4)
        reader = TraceReader(path, program)
        first = [c.pcs for c in reader.chunks()]
        second = [c.pcs for c in reader.chunks()]
        assert first == second

    def test_batch_framing_is_byte_deterministic(self, traced, tmp_path):
        # However the producer batches its writes, the bytes on disk are
        # a pure function of (records, chunk_size) — a requirement of
        # the content-addressed cache, where racing producers must store
        # identical artifacts.
        program, trace = traced
        pcs = list(trace.pcs)
        addrs = list(trace.addrs)
        takens = list(trace.takens)
        one = tmp_path / "one.rtrc"
        with TraceWriter(one, program, chunk_size=8) as writer:
            writer.write(pcs, addrs, takens)
        drip = tmp_path / "drip.rtrc"
        with TraceWriter(drip, program, chunk_size=8) as writer:
            for i in range(len(pcs)):
                writer.write(pcs[i : i + 1], addrs[i : i + 1], takens[i : i + 1])
        assert one.read_bytes() == drip.read_bytes()

    def test_save_trace_matches_streamed_bytes(self, traced, tmp_path):
        program, trace = traced
        saved = tmp_path / "a.rtrc"
        save_trace(trace, saved, chunk_size=16)
        streamed = tmp_path / "b.rtrc"
        with TraceWriter(streamed, program, chunk_size=16) as writer:
            for chunk in iter_trace_chunks(trace):
                writer.write(chunk.pcs, chunk.addrs, chunk.takens)
        assert saved.read_bytes() == streamed.read_bytes()

    def test_abort_leaves_unreadable_file(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "dead.rtrc"
        writer = TraceWriter(path, program)
        writer.write(list(trace.pcs), list(trace.addrs), list(trace.takens))
        writer.abort()
        with pytest.raises(CorruptArtifactError, match="truncated"):
            load_trace(path, program)

    def test_mismatched_column_lengths_rejected(self, traced, tmp_path):
        program, _ = traced
        with TraceWriter(tmp_path / "m.rtrc", program) as writer:
            with pytest.raises(TraceFormatError, match="lengths differ"):
                writer.write([0, 1], [NO_ADDR], [-1, -1])
            writer.write([], [], [])  # empty batches are fine

    def test_footer_total_mismatch(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "f.rtrc"
        save_trace(trace, path)
        data = bytearray(path.read_bytes())
        # The trailing u64 is the end-marker total; corrupt it.
        data[-8:] = struct.pack("<Q", len(trace) + 3)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="end marker"):
            load_trace(path, program)


def _v1_bytes(name: str, pcs, addrs, takens) -> bytes:
    """Hand-build a version-1 RTRC file (single header, whole columns)."""
    from array import array

    name_bytes = name.encode("utf-8")
    out = b"RTRC" + struct.pack("<IQH", 1, len(pcs), len(name_bytes))
    out += name_bytes
    out += array("I", pcs).tobytes()
    out += array("q", addrs).tobytes()
    out += array("b", takens).tobytes()
    return out


class TestV1Compat:
    def test_v1_file_still_loads(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "v1.rtrc"
        path.write_bytes(
            _v1_bytes(
                program.name,
                list(trace.pcs),
                list(trace.addrs),
                list(trace.takens),
            )
        )
        loaded = load_trace(path, program)
        assert loaded.pcs == trace.pcs
        assert loaded.addrs == trace.addrs
        assert loaded.takens == trace.takens

    def test_v1_reader_knows_total_up_front(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "v1.rtrc"
        path.write_bytes(
            _v1_bytes(
                program.name,
                list(trace.pcs),
                list(trace.addrs),
                list(trace.takens),
            )
        )
        reader = TraceReader(path, program)
        assert reader.version == 1
        assert reader.total == len(trace)
        assert [c.pcs for c in reader.chunks()] == [list(trace.pcs)]

    def test_v1_garbled_taken_rejected(self, traced, tmp_path):
        program, trace = traced
        takens = list(trace.takens)
        takens[2] = 5
        path = tmp_path / "v1bad.rtrc"
        path.write_bytes(
            _v1_bytes(program.name, list(trace.pcs), list(trace.addrs), takens)
        )
        with pytest.raises(TraceFormatError, match=r"outside \{-1, 0, 1\}"):
            load_trace(path, program)

    def test_unsupported_version_rejected(self, traced, tmp_path):
        program, _ = traced
        path = tmp_path / "v9.rtrc"
        path.write_bytes(b"RTRC" + struct.pack("<I", 9) + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="unsupported trace version"):
            load_trace(path, program)


class TestColumnValidation:
    """save_trace/load_trace reject out-of-range columns by name.

    Regression: a pc above u32 used to leak a bare ``OverflowError``
    from the array layer; garbled-but-well-framed takens/addrs used to
    flow straight into the analyzer.
    """

    def test_save_pc_overflow_names_record(self, traced, tmp_path):
        program, trace = traced
        bad = Trace(
            program,
            pcs=list(trace.pcs[:3]) + [1 << 40],
            addrs=list(trace.addrs[:4]),
            takens=list(trace.takens[:4]),
        )
        with pytest.raises(TraceFormatError) as err:
            save_trace(bad, tmp_path / "o.rtrc")
        assert "record 3" in str(err.value)
        assert str(1 << 40) in str(err.value)

    def test_save_negative_pc_rejected(self, traced, tmp_path):
        program, trace = traced
        bad = Trace(program, pcs=[-1], addrs=[NO_ADDR], takens=[-1])
        with pytest.raises(TraceFormatError, match="does not fit in u32"):
            save_trace(bad, tmp_path / "n.rtrc")

    def test_save_taken_out_of_range_rejected(self, traced, tmp_path):
        program, _ = traced
        bad = Trace(program, pcs=[0], addrs=[NO_ADDR], takens=[2])
        with pytest.raises(TraceFormatError, match="record 0"):
            save_trace(bad, tmp_path / "t.rtrc")

    def test_save_addr_below_no_addr_rejected(self, traced, tmp_path):
        program, _ = traced
        bad = Trace(program, pcs=[0], addrs=[-7], takens=[-1])
        with pytest.raises(TraceFormatError, match="below NO_ADDR"):
            save_trace(bad, tmp_path / "a.rtrc")

    def test_load_garbled_taken_rejected(self, traced, tmp_path):
        # Garble a taken byte *on disk* (well-framed, wrong value): the
        # reader must reject it rather than hand the analyzer nonsense.
        program, trace = traced
        path = tmp_path / "g.rtrc"
        save_trace(trace, path)
        data = bytearray(path.read_bytes())
        count = len(trace)
        # Last frame layout: ... pcs | addrs | takens | end marker (12B).
        takens_start = len(data) - 12 - count
        assert data[takens_start:takens_start + count] == bytes(
            b & 0xFF for b in trace.takens
        )
        data[takens_start] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match=r"outside \{-1, 0, 1\}"):
            load_trace(path, program)

    def test_load_garbled_addr_rejected(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "ga.rtrc"
        save_trace(trace, path)
        data = bytearray(path.read_bytes())
        count = len(trace)
        addrs_start = len(data) - 12 - count - 8 * count
        data[addrs_start : addrs_start + 8] = struct.pack("<q", -999)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="below NO_ADDR"):
            load_trace(path, program)

    def test_load_garbled_pc_rejected(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "gp.rtrc"
        save_trace(trace, path)
        data = bytearray(path.read_bytes())
        count = len(trace)
        pcs_start = len(data) - 12 - count - 8 * count - 4 * count
        data[pcs_start : pcs_start + 4] = struct.pack("<I", 100_000)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="outside program code"):
            load_trace(path, program)


class TestErrors:
    def test_bad_magic(self, traced, tmp_path):
        program, _ = traced
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError, match="bad magic"):
            load_trace(path, program)

    def test_program_name_mismatch(self, traced, tmp_path):
        _, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        other = assemble(SOURCE, name="other-name")
        with pytest.raises(TraceFormatError, match="recorded for program"):
            load_trace(path, other)

    def test_pc_out_of_range(self, traced, tmp_path):
        _, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        tiny = assemble("halt", name="tio")
        with pytest.raises(TraceFormatError, match="outside program code"):
            load_trace(path, tiny)

    def test_truncated_file(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 8])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path, program)

    def test_truncated_header(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path, program)

    def test_truncated_name(self, traced, tmp_path):
        program, trace = traced
        path = tmp_path / "t.rtrc"
        save_trace(trace, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path, program)


def _frame_offsets(name: str, counts) -> list[int]:
    """File offset of each v2 frame's pcs column, for plain files."""
    offset = 4 + 4 + 4 + 2 + len(name.encode("utf-8"))
    starts = []
    for count in counts:
        starts.append(offset + 4)
        offset += 4 + 13 * count
    return starts


class TestGzipLevel:
    def test_written_trace_is_plain_gzip_at_module_level(self, traced, tmp_path):
        # Pins both the level and determinism without a hard-coded digest:
        # the streamed writer's bytes are exactly a one-shot compression
        # of the payload at GZIP_LEVEL.
        program, trace = traced
        path = tmp_path / "l.rtrc.gz"
        save_trace(trace, path, chunk_size=8)
        data = path.read_bytes()
        payload = gzip.decompress(data)
        expected = gzip.compress(payload, compresslevel=GZIP_LEVEL, mtime=0)
        # Header byte 9 is the OS field.  gzip.compress takes zlib's
        # host-dependent value on newer Pythons; the writer pins 255
        # ("unknown") so traces are identical across hosts.
        assert data[9] == 0xFF
        assert data[:9] + data[10:] == expected[:9] + expected[10:]

    def test_reader_accepts_any_level(self, traced, tmp_path):
        program, trace = traced
        plain = tmp_path / "p.rtrc"
        save_trace(trace, plain)
        path = tmp_path / "nine.rtrc.gz"
        path.write_bytes(gzip.compress(plain.read_bytes(), compresslevel=9))
        assert load_trace(path, program).pcs == trace.pcs


class TestFastPathNamesRecord:
    """The C-speed all-clear checks hand off to the scan that names the
    record; the message is the same whichever frame the value is in."""

    RECORDS = 32
    CHUNK = 8
    POSITIONS = (0, 3, 7, 29)  # first, middle, last of frame 0; frame 3

    @pytest.fixture
    def columns(self, traced):
        program, trace = traced
        pcs = list(trace.pcs[: self.RECORDS])
        addrs = list(trace.addrs[: self.RECORDS])
        takens = list(trace.takens[: self.RECORDS])
        assert len(pcs) == self.RECORDS
        return program, pcs, addrs, takens

    @staticmethod
    def _messages(program, position):
        n_code = len(program)
        return {
            "pc": f"trace pc 100000 outside program code [0, {n_code})"
            f" at record {position}",
            "addr": f"trace addr -9 at record {position} below NO_ADDR (-1)",
            "taken": f"trace taken 3 at record {position} outside {{-1, 0, 1}}",
        }

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("column", ["addr", "taken"])
    def test_write_names_record(self, columns, tmp_path, position, column):
        program, pcs, addrs, takens = columns
        if column == "addr":
            addrs[position] = -9
        else:
            takens[position] = 3
        writer = TraceWriter(tmp_path / "w.rtrc", program, chunk_size=self.CHUNK)
        # Batches of 10 so later positions arrive in a later write call.
        with pytest.raises(TraceFormatError) as err:
            for start in range(0, self.RECORDS, 10):
                end = start + 10
                writer.write(pcs[start:end], addrs[start:end], takens[start:end])
        writer.abort()
        assert str(err.value) == self._messages(program, position)[column]

    @pytest.mark.parametrize("position", POSITIONS)
    def test_write_pc_overflow_names_record(self, columns, tmp_path, position):
        program, pcs, addrs, takens = columns
        pcs[position] = 1 << 32
        with pytest.raises(TraceFormatError) as err:
            with TraceWriter(tmp_path / "w.rtrc", program) as writer:
                for start in range(0, self.RECORDS, 10):
                    end = start + 10
                    writer.write(pcs[start:end], addrs[start:end], takens[start:end])
        assert str(err.value) == (
            f"trace pc {1 << 32} at record {position} does not fit in u32"
        )

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("column", ["pc", "addr", "taken"])
    def test_read_names_record(self, columns, tmp_path, position, column):
        program, pcs, addrs, takens = columns
        path = tmp_path / "r.rtrc"
        with TraceWriter(path, program, chunk_size=self.CHUNK) as writer:
            writer.write(pcs, addrs, takens)
        counts = [self.CHUNK] * (self.RECORDS // self.CHUNK)
        frame = position // self.CHUNK
        index = position % self.CHUNK
        count = counts[frame]
        start = _frame_offsets(program.name, counts)[frame]
        data = bytearray(path.read_bytes())
        if column == "pc":
            at = start + 4 * index
            data[at : at + 4] = struct.pack("<I", 100_000)
        elif column == "addr":
            at = start + 4 * count + 8 * index
            data[at : at + 8] = struct.pack("<q", -9)
        else:
            data[start + 12 * count + index] = 3
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as err:
            load_trace(path, program)
        assert str(err.value) == self._messages(program, position)[column]


class TestDamagedFiles:
    """Damaged bytes raise TraceFormatError (mostly its
    CorruptArtifactError subclass), never a stray exception, and a
    compressed file never decodes to different records."""

    FLIPS = 200

    @pytest.fixture
    def small(self, traced, tmp_path):
        program, trace = traced
        plain = tmp_path / "f.rtrc"
        save_trace(trace, plain, chunk_size=8)
        packed = tmp_path / "f.rtrc.gz"
        save_trace(trace, packed, chunk_size=8)
        return program, trace, plain, packed

    @staticmethod
    def _flipped(source, target, rng):
        data = bytearray(source.read_bytes())
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        target.write_bytes(bytes(data))

    def test_gzip_flip_fuzz(self, small, tmp_path):
        program, trace, _, packed = small
        rng = random.Random(14)
        target = tmp_path / "flip.rtrc.gz"
        decoded = 0
        for _ in range(self.FLIPS):
            self._flipped(packed, target, rng)
            try:
                loaded = load_trace(target, program)
            except TraceFormatError:
                continue
            decoded += 1
            assert (loaded.pcs, loaded.addrs, loaded.takens) == (
                trace.pcs,
                trace.addrs,
                trace.takens,
            )
        # Only flips in header fields gzip ignores (mtime, XFL, OS) may
        # decode; most flips must have reached a check.
        assert decoded < self.FLIPS // 4

    def test_plain_flip_fuzz(self, small, tmp_path):
        program, _, plain, _ = small
        rng = random.Random(14)
        target = tmp_path / "flip.rtrc"
        for _ in range(self.FLIPS):
            self._flipped(plain, target, rng)
            try:
                load_trace(target, program)
            except TraceFormatError:
                pass

    def test_gzip_crc_checked(self, small, tmp_path):
        # Regression: the reader stopped at the RTRC end marker and never
        # reached gzip's CRC32 trailer, so damage inside the deflate
        # stream could decode to different records with no error.
        program, _, _, packed = small
        data = bytearray(packed.read_bytes())
        data[-8] ^= 0x01  # CRC32 of the payload
        packed.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="damaged trace file"):
            load_trace(packed, program)

    def test_gzip_length_checked(self, small, tmp_path):
        program, _, _, packed = small
        data = bytearray(packed.read_bytes())
        data[-4] ^= 0x01  # ISIZE: payload length mod 2**32
        packed.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="damaged trace file"):
            load_trace(packed, program)

    def test_trailing_bytes_rejected(self, small):
        program, _, plain, _ = small
        plain.write_bytes(plain.read_bytes() + b"\x00")
        with pytest.raises(CorruptArtifactError, match="trailing bytes"):
            load_trace(plain, program)

    def test_trailing_gzip_member_rejected(self, small):
        program, _, _, packed = small
        packed.write_bytes(packed.read_bytes() + gzip.compress(b"x"))
        with pytest.raises(CorruptArtifactError, match="trailing bytes"):
            load_trace(packed, program)

    def test_garbled_deflate_block_is_typed(self, small):
        # Regression: zlib.error leaked.  BTYPE=11 is an invalid deflate
        # block type; the first block header follows the 10-byte header.
        program, _, _, packed = small
        data = bytearray(packed.read_bytes())
        data[10] |= 0b110
        packed.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="damaged trace file"):
            load_trace(packed, program)

    def test_garbled_gzip_magic_is_typed(self, small):
        # Regression: gzip.BadGzipFile leaked.
        program, _, _, packed = small
        data = bytearray(packed.read_bytes())
        data[0] ^= 0x01
        packed.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="damaged trace file"):
            TraceReader(packed, program)

    def test_truncated_gzip_is_typed(self, small):
        # gzip raises EOFError for a compressed stream cut short.
        program, _, _, packed = small
        packed.write_bytes(packed.read_bytes()[:-12])
        with pytest.raises(CorruptArtifactError):
            load_trace(packed, program)

    def test_oversized_frame_count_rejected(self, small):
        # Regression: a garbled count reached _read_exact(13 * count) and
        # raised MemoryError asking for gigabytes.
        program, _, plain, _ = small
        data = bytearray(plain.read_bytes())
        first_count = _frame_offsets(program.name, [8])[0] - 4
        data[first_count : first_count + 4] = struct.pack("<I", 0xFFFFFFF0)
        plain.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="exceeds the header's chunk size"):
            load_trace(plain, program)

    def test_garbled_v1_count_reads_as_truncated(self, traced, tmp_path):
        # A v1 count has no chunk size to bound it; reads are capped so
        # the file's end, not a terabyte allocation, stops the reader.
        program, trace = traced
        data = bytearray(
            _v1_bytes(
                program.name,
                list(trace.pcs),
                list(trace.addrs),
                list(trace.takens),
            )
        )
        data[8:16] = struct.pack("<Q", 1 << 40)
        path = tmp_path / "v1huge.rtrc"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="truncated"):
            load_trace(path, program)

    def test_garbled_name_is_typed(self, small):
        program, _, plain, _ = small
        data = bytearray(plain.read_bytes())
        data[14] = 0xFF  # first name byte: never valid UTF-8
        plain.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="not valid UTF-8"):
            load_trace(plain, program)
