"""Trace serialization (RTRC, versions 1 and 2).

The original study materialized pixie traces as files and post-processed
them; this module provides the equivalent: a compact binary format so
traces can be captured once and re-analyzed many times (or shipped between
machines).  Paths ending in ``.gz`` are transparently compressed.

Version 2 (the write format) is *chunked* so producers and consumers never
hold a whole trace in memory::

    magic   4 bytes  b"RTRC"
    version u32      currently 2
    chunk   u32      nominal records per frame (framing granularity)
    namelen u16      program-name byte length
    name    bytes    UTF-8 program name (for sanity checks only)
    -- then zero or more frames --
    count   u32      records in this frame (> 0)
    pcs     count * u32
    addrs   count * i64  (NO_ADDR = -1 for non-memory instructions)
    takens  count * i8   (NOT_BRANCH = -1 for non-branches)
    -- then the end marker --
    count   u32      0
    total   u64      sum of all frame counts (consistency check)

The explicit end marker (rather than a record count up front) is what
makes single-pass streaming writes possible: a gzip stream cannot seek
back to patch a header, and a producer does not know the record count
until the run finishes.  A file that ends without the marker was written
by a producer that died mid-store and reads as corrupt.

Version 1 — a single header followed by three whole-file columns — is
still readable everywhere a v2 file is; its compatibility path
materializes the columns (it cannot be memory-bounded) and then serves
them as chunk views.

:class:`TraceWriter` and :class:`TraceReader` are the streaming APIs;
:func:`save_trace` / :func:`load_trace` remain the whole-trace
conveniences built on top of them.  Writers re-frame whatever batch sizes
the caller supplies into exact ``chunk_size`` frames, so the bytes on
disk are a pure function of (records, chunk size) — producers that batch
differently still store byte-identical artifacts under the same
content-addressed key.
"""

from __future__ import annotations

import gzip
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterator, NamedTuple

from repro import telemetry
from repro.isa import Program
from repro.vm.trace import NO_ADDR, Trace

MAGIC = b"RTRC"
VERSION = 2

#: Versions :func:`load_trace` / :class:`TraceReader` accept.
READABLE_VERSIONS = (1, 2)

#: Default records per v2 frame: 64Ki records is ~832 KiB of column data,
#: small enough that a streaming producer/consumer pair stays bounded at
#: any trace budget and large enough that per-frame overhead is noise.
DEFAULT_CHUNK_RECORDS = 1 << 16

#: zlib level of every ``.gz`` trace.  Chosen by ``python -m
#: repro.bench.gzip_sweep`` (docs/vm.md has the table): the level with the
#: lowest encode-plus-decode seconds whose bytes per record stay within
#: 1.5x of level 9's.  Readers accept any level, so changing it never
#: strands a file, but it changes the bytes of every new trace — bump
#: ``repro.jobs.keys.SCHEMA`` with it.
GZIP_LEVEL = 3

_U32_MAX = 0xFFFFFFFF

#: Largest single ``read()`` request: a garbled length field then runs
#: into end-of-file instead of asking for gigabytes up front.
_READ_LIMIT = 1 << 24

#: The on-disk bytes of the valid takens (0, 1 and NOT_BRANCH = -1).
_TAKEN_BYTES = b"\x00\x01\xff"


class TraceFormatError(Exception):
    """Raised when a trace file is malformed or mismatched."""


class CorruptArtifactError(TraceFormatError):
    """An artifact's bytes are damaged — truncated, garbled, or failing
    checksum verification — as opposed to structurally mismatched.

    This is the shared typed error for *damaged* on-disk artifacts: the
    trace reader raises it for truncation, and the farm's
    :class:`~repro.jobs.cache.ArtifactCache` raises it (after
    quarantining the file) for any artifact whose sidecar checksum does
    not match.  ``key``/``path`` carry the artifact's content key and
    quarantine location when known, so the execution engine can
    re-produce exactly the damaged artifact.
    """

    def __init__(self, message: str, key: str | None = None, path: str | None = None):
        # All constructor inputs go through ``args`` so the exception
        # survives pickling across process-pool workers intact.
        super().__init__(message, key, path)
        self.key = key
        self.path = path

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class TraceChunk(NamedTuple):
    """One frame of trace columns, hoisted to plain lists.

    Lists rather than arrays because every consumer (the fused analyzer
    kernel, predictor training, branch statistics) iterates Python-level;
    ``tolist()`` on the decoded bytes does the unboxing once at C speed.
    """

    pcs: list
    addrs: list
    takens: list


def _open(path: str | Path, mode: str):
    path = str(path)
    if path.endswith(".gz"):
        if "w" in mode:
            # Deterministic gzip output: no mtime, no embedded filename.
            # Content-addressed cache keys assume racing producers store
            # identical bytes; gzip.open would stamp wall-clock time and
            # the (random, temp-sibling) file name into the header.
            raw = open(path, "wb")
            # filename="" keeps the FNAME field out of the header too —
            # GzipFile would otherwise embed raw.name's basename.
            stream = gzip.GzipFile(
                fileobj=raw,
                mode="wb",
                compresslevel=GZIP_LEVEL,
                mtime=0,
                filename="",
            )
            stream.myfileobj = raw  # GzipFile closes myfileobj on close()
            return stream
        return gzip.open(path, mode)
    return open(path, mode)


def _read(stream, count: int) -> bytes:
    """One ``read()``, with the gzip layer's damage reports made typed.

    A cut-short compressed stream raises ``EOFError``, a bad header,
    CRC or length trailer ``gzip.BadGzipFile``, and garbled deflate data
    ``zlib.error``; all three mean the file's bytes are damaged.
    """
    try:
        return stream.read(count)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise CorruptArtifactError(f"damaged trace file: {exc}") from exc


def _read_exact(stream, count: int) -> bytes:
    """Read exactly *count* bytes, looping over short reads.

    ``read(n)`` on buffered and gzip streams may legally return fewer than
    *n* bytes; a single short read on a multi-megabyte section would
    otherwise be misreported as a truncated file.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = _read(stream, min(remaining, _READ_LIMIT))
        if not chunk:
            raise CorruptArtifactError("truncated trace file")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _payload_bytes(count: int, name_length: int) -> int:
    """Approximate uncompressed RTRC byte size (telemetry only)."""
    return 4 + 14 + name_length + count * (4 + 8 + 1)


# -- column validation -------------------------------------------------------
#
# Every check has a C-speed all-clear test — struct packing, min()/max()
# over plain lists, bytes.translate() over the takens — and only when
# that test fails does a Python-level scan run to name the offending
# record.  These checks are what keep a hand-built trace (or
# garbled-but-well-framed bytes) from flowing into the analyzer as silent
# nonsense:
#
# * pcs must fit u32 on write (a bare packing error would otherwise leak)
#   and lie inside the program on read;
# * takens outside {-1, 0, 1} and addrs below NO_ADDR are rejected on
#   both sides.


def _pack(typecode: str, values) -> bytes:
    """Little-endian column bytes; ``struct.error`` if a value does not fit."""
    return struct.pack(f"<{len(values)}{typecode}", *values)


def _pc_column(pcs, base: int) -> bytes:
    try:
        return _pack("I", pcs)
    except struct.error:
        for index, value in enumerate(pcs):
            if not isinstance(value, int) or not 0 <= value <= _U32_MAX:
                raise TraceFormatError(
                    f"trace pc {value!r} at record {base + index} "
                    f"does not fit in u32"
                ) from None
        raise  # pragma: no cover - packing failed but every value fits


def _addr_column(addrs, base: int) -> bytes:
    try:
        column = _pack("q", addrs)
    except struct.error:
        for index, value in enumerate(addrs):
            if not isinstance(value, int) or not -(1 << 63) <= value < (1 << 63):
                raise TraceFormatError(
                    f"trace addr {value!r} at record {base + index} "
                    f"does not fit in i64"
                ) from None
        raise  # pragma: no cover
    _check_addrs(addrs, base)
    return column


def _taken_column(takens, base: int) -> bytes:
    try:
        column = _pack("b", takens)
    except struct.error:
        column = None
    if column is None or column.translate(None, _TAKEN_BYTES):
        _raise_bad_taken(takens, base)
    return column


def _check_pcs(pcs: list, n_code: int, base: int) -> None:
    if pcs and max(pcs) >= n_code:
        index, value = next((i, v) for i, v in enumerate(pcs) if v >= n_code)
        raise TraceFormatError(
            f"trace pc {value} outside program code [0, {n_code})"
            f" at record {base + index}"
        )


def _check_addrs(addrs, base: int) -> None:
    if addrs and min(addrs) < NO_ADDR:
        index, value = next((i, v) for i, v in enumerate(addrs) if v < NO_ADDR)
        raise TraceFormatError(
            f"trace addr {value} at record {base + index} "
            f"below NO_ADDR ({NO_ADDR})"
        )


def _raise_bad_taken(takens, base: int) -> None:
    for index, value in enumerate(takens):
        if not isinstance(value, int) or not -1 <= value <= 1:
            raise TraceFormatError(
                f"trace taken {value!r} at record {base + index} "
                f"outside {{-1, 0, 1}}"
            )
    raise AssertionError("unreachable")  # pragma: no cover


def _unpack(data: memoryview, typecode: str) -> list:
    """Little-endian column bytes as a list, without an interim copy."""
    if sys.byteorder == "little":
        return data.cast(typecode).tolist()
    column = array(typecode)
    column.frombytes(data)
    column.byteswap()
    return column.tolist()


def _decode_frame(
    pcs_bytes: memoryview,
    addrs_bytes: memoryview,
    takens_bytes: memoryview,
    n_code: int,
    base: int,
) -> TraceChunk:
    """Validate one frame's raw column bytes and unbox them to lists."""
    chunk = TraceChunk(
        _unpack(pcs_bytes, "I"),
        _unpack(addrs_bytes, "q"),
        takens_bytes.cast("b").tolist(),
    )
    # u32/i64 fit is guaranteed by the on-disk types, so only the range
    # checks can fire here (garbled-but-well-framed bytes).
    _check_pcs(chunk.pcs, n_code, base)
    _check_addrs(chunk.addrs, base)
    if bytes(takens_bytes).translate(None, _TAKEN_BYTES):
        _raise_bad_taken(chunk.takens, base)
    return chunk


class TraceWriter:
    """Streaming RTRC v2 writer with bounded memory.

    Accepts record batches of any size via :meth:`write` and re-frames
    them into exact ``chunk_size`` frames (the tail frame may be short),
    so on-disk bytes do not depend on how the producer batched.  Must be
    closed (or used as a context manager) for the end marker to land; a
    file without it reads as corrupt, which is exactly right for a
    producer that died mid-store.
    """

    def __init__(
        self,
        path: str | Path,
        program: Program,
        chunk_size: int = DEFAULT_CHUNK_RECORDS,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be a positive record count")
        name_bytes = program.name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise TraceFormatError("program name exceeds 65535 UTF-8 bytes")
        self.program = program
        self.chunk_size = chunk_size
        self.total = 0
        self._name_length = len(name_bytes)
        # Packed little-endian columns not yet framed.
        self._pcs = bytearray()
        self._addrs = bytearray()
        self._takens = bytearray()
        self._closed = False
        self._stream = _open(path, "wb")
        try:
            self._stream.write(MAGIC)
            self._stream.write(
                struct.pack("<IIH", VERSION, chunk_size, len(name_bytes))
            )
            self._stream.write(name_bytes)
        except BaseException:
            self._stream.close()
            raise

    def write(self, pcs, addrs, takens) -> None:
        """Append one batch of parallel columns (any equal lengths)."""
        if self._closed:
            raise ValueError("write to a closed TraceWriter")
        if not len(pcs) == len(addrs) == len(takens):
            raise TraceFormatError(
                f"column lengths differ: {len(pcs)} pcs, "
                f"{len(addrs)} addrs, {len(takens)} takens"
            )
        if not len(pcs):
            return
        base = self.total
        self._pcs += _pc_column(pcs, base)
        self._addrs += _addr_column(addrs, base)
        self._takens += _taken_column(takens, base)
        self.total += len(pcs)
        while len(self._takens) >= self.chunk_size:
            self._emit(self.chunk_size)

    def _emit(self, count: int) -> None:
        stream = self._stream
        stream.write(struct.pack("<I", count))
        stream.write(self._pcs[: 4 * count])
        stream.write(self._addrs[: 8 * count])
        stream.write(self._takens[:count])
        del self._pcs[: 4 * count]
        del self._addrs[: 8 * count]
        del self._takens[:count]
        if telemetry.enabled():
            telemetry.METRICS.counter(
                "repro_trace_chunks_written_total"
            ).inc()

    def close(self) -> None:
        """Flush buffered records, write the end marker, close the file."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._takens:
                self._emit(len(self._takens))
            self._stream.write(struct.pack("<IQ", 0, self.total))
        finally:
            self._stream.close()
        if telemetry.enabled():
            telemetry.METRICS.counter("repro_trace_bytes_written_total").inc(
                _payload_bytes(self.total, self._name_length)
            )

    def abort(self) -> None:
        """Close the underlying file *without* the end marker.

        Used on error paths: the partial file stays structurally invalid
        (it reads as truncated), which is what a consumer should see for
        an abandoned store.
        """
        if not self._closed:
            self._closed = True
            self._stream.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class TraceReader:
    """Re-iterable streaming reader for RTRC files (v1 and v2).

    Construction parses and validates the header (magic, version, program
    name) so mismatches fail fast; each :meth:`chunks` call then re-opens
    the file and streams validated :class:`TraceChunk` frames.  Being
    re-iterable is what lets one reader serve the multiple passes an
    analysis needs (predictor training, then the fused sweep) without
    ever materializing the columns.

    v2 files are read with bounded memory (one frame at a time).  The v1
    compatibility path must materialize the columns once per pass — the
    v1 layout stores each column as one whole-file run, which cannot be
    streamed in record order.
    """

    def __init__(self, path: str | Path, program: Program):
        self.path = str(path)
        self.program = program
        #: Record count; known up front for v1, set after a full
        #: :meth:`chunks` pass (or footer read) for v2.
        self.total: int | None = None
        with _open(self.path, "rb") as stream:
            self.version, self._v1_count, self._name_length = (
                self._read_header(stream)
            )

    def _read_header(self, stream) -> tuple[int, int, int]:
        magic = _read(stream, 4)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}; not a trace file")
        (version,) = struct.unpack("<I", _read_exact(stream, 4))
        if version not in READABLE_VERSIONS:
            raise TraceFormatError(f"unsupported trace version {version}")
        if version == 1:
            count, name_length = struct.unpack("<QH", _read_exact(stream, 10))
            self.total = count
        else:
            self.chunk_size, name_length = struct.unpack(
                "<IH", _read_exact(stream, 6)
            )
            count = 0
        try:
            name = _read_exact(stream, name_length).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptArtifactError(
                "trace program name is not valid UTF-8"
            ) from None
        if name != self.program.name:
            raise TraceFormatError(
                f"trace was recorded for program {name!r}, "
                f"got {self.program.name!r}"
            )
        return version, count, name_length

    def chunks(self) -> Iterator[TraceChunk]:
        """Stream the trace as validated :class:`TraceChunk` frames."""
        with _open(self.path, "rb") as stream:
            self._read_header(stream)  # skip (already validated)
            if self.version == 1:
                yield from self._v1_chunks(stream)
            else:
                yield from self._v2_chunks(stream)

    def _v1_chunks(self, stream) -> Iterator[TraceChunk]:
        count = self._v1_count
        pcs = memoryview(_read_exact(stream, 4 * count))
        addrs = memoryview(_read_exact(stream, 8 * count))
        takens = memoryview(_read_exact(stream, count))
        self._check_trailer(stream)
        if telemetry.enabled():
            telemetry.METRICS.counter("repro_trace_bytes_read_total").inc(
                _payload_bytes(count, self._name_length)
            )
            telemetry.METRICS.counter("repro_trace_chunks_read_total").inc()
        n_code = len(self.program)
        size = DEFAULT_CHUNK_RECORDS
        for start in range(0, count, size):
            end = min(start + size, count)
            yield _decode_frame(
                pcs[4 * start : 4 * end],
                addrs[8 * start : 8 * end],
                takens[start:end],
                n_code,
                start,
            )

    def _v2_chunks(self, stream) -> Iterator[TraceChunk]:
        n_code = len(self.program)
        tele = telemetry.enabled()
        streamed = 0
        while True:
            (count,) = struct.unpack("<I", _read_exact(stream, 4))
            if count == 0:
                (total,) = struct.unpack("<Q", _read_exact(stream, 8))
                if total != streamed:
                    raise CorruptArtifactError(
                        f"trace end marker records {total} != "
                        f"streamed records {streamed}"
                    )
                self._check_trailer(stream)
                self.total = total
                return
            if count > self.chunk_size:
                # Writers never frame more than the header's chunk size;
                # a larger count is a garbled length, not a frame to read.
                raise CorruptArtifactError(
                    f"trace frame of {count} records exceeds the "
                    f"header's chunk size {self.chunk_size}"
                )
            frame = memoryview(_read_exact(stream, 13 * count))
            chunk = _decode_frame(
                frame[: 4 * count],
                frame[4 * count : 12 * count],
                frame[12 * count :],
                n_code,
                streamed,
            )
            if tele:
                telemetry.METRICS.counter("repro_trace_bytes_read_total").inc(
                    count * (4 + 8 + 1)
                )
                telemetry.METRICS.counter(
                    "repro_trace_chunks_read_total"
                ).inc()
            streamed += count
            yield chunk

    @staticmethod
    def _check_trailer(stream) -> None:
        """Read past the end marker to EOF.

        For ``.gz`` files this is what reaches gzip's CRC32/ISIZE trailer:
        stopping at the marker would let damaged compressed bytes decode
        to different records with no error.  Any byte after the marker is
        damage too.
        """
        if _read(stream, 1):
            raise CorruptArtifactError("trailing bytes after trace end marker")

    def to_trace(self) -> Trace:
        """Materialize the whole file as an in-memory :class:`Trace`.

        The convenience (and v1-equivalent) path: memory is O(trace), so
        prefer :meth:`chunks` at large budgets.
        """
        pcs = array("q")
        addrs = array("q")
        takens = array("q")
        for chunk in self.chunks():
            pcs.extend(chunk.pcs)
            addrs.extend(chunk.addrs)
            takens.extend(chunk.takens)
        return Trace(program=self.program, pcs=pcs, addrs=addrs, takens=takens)


def iter_trace_chunks(source) -> Iterator[TraceChunk]:
    """Stream *source* — a :class:`Trace` or :class:`TraceReader` — as
    :class:`TraceChunk` frames.

    The shared adapter for chunk-wise consumers (the fused analyzer,
    predictor training, branch statistics, the instruction-mix table): an
    in-memory trace is served as ``DEFAULT_CHUNK_RECORDS``-sized views,
    a reader streams straight from disk.
    """
    if isinstance(source, Trace):
        size = DEFAULT_CHUNK_RECORDS
        pcs, addrs, takens = source.pcs, source.addrs, source.takens
        for start in range(0, len(source), size):
            yield TraceChunk(
                pcs[start : start + size].tolist(),
                addrs[start : start + size].tolist(),
                takens[start : start + size].tolist(),
            )
        return
    yield from source.chunks()


def trace_source_program(source) -> Program:
    """The program a :class:`Trace` or :class:`TraceReader` belongs to."""
    return source.program


def save_trace(
    trace: Trace,
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_RECORDS,
) -> None:
    """Write *trace* to *path* in the (v2) binary trace format.

    Out-of-range columns — a pc that does not fit u32, a taken outside
    {-1, 0, 1}, an addr below ``NO_ADDR`` — raise
    :class:`TraceFormatError` naming the offending record, instead of
    leaking a bare ``OverflowError`` from the array layer.
    """
    name_bytes_len = len(trace.program.name.encode("utf-8"))
    with telemetry.span(
        "trace.save",
        program=trace.program.name,
        records=len(trace),
        bytes=_payload_bytes(len(trace), name_bytes_len),
    ):
        with TraceWriter(path, trace.program, chunk_size=chunk_size) as writer:
            pcs, addrs, takens = trace.pcs, trace.addrs, trace.takens
            for start in range(0, len(trace), chunk_size):
                end = start + chunk_size
                writer.write(pcs[start:end], addrs[start:end], takens[start:end])


def load_trace(path: str | Path, program: Program) -> Trace:
    """Read a trace (v1 or v2) from *path*, attaching it to *program*.

    The program is identified by name only (the format does not embed
    code); a pc outside the program's code range, a taken outside
    {-1, 0, 1}, or an addr below ``NO_ADDR`` raises
    :class:`TraceFormatError`, which catches most mismatches and all
    garbled-but-well-framed files.
    """
    with telemetry.span("trace.load", program=program.name) as sp:
        reader = TraceReader(path, program)
        trace = reader.to_trace()
        sp.set(
            records=len(trace),
            bytes=_payload_bytes(len(trace), len(program.name.encode("utf-8"))),
        )
    return trace
