"""Persistent, content-addressed artifact store (default ``.repro-cache/``).

Layout::

    <root>/
        asm/<key>.s             disassembled object code (compile stage)
        traces/<key>.rtrc.gz    RTRC binary traces (trace stage)
        profiles/<key>.json     branch counts, records and default of the
                                trace with the same key (trace stage)
        results/<key>.json      serialized AnalysisResults (analysis stage)
        corrupt/                quarantined artifacts that failed verification
        journal/<digest>.jsonl  per-invocation retirement journals (resume)

Artifacts are immutable: a key fully determines its content (see
:mod:`repro.jobs.keys`), so writers never need to invalidate — a new
input produces a new key.

**Concurrency invariant (atomic rename).**  Every write — artifact and
sidecar alike — lands in a uniquely named temporary sibling first and is
published with an atomic :func:`os.replace` to its final, content-keyed
address.  A reader therefore observes either no file or complete bytes,
never a torn write, and concurrent producers racing to store the same
key are harmless: keys are content addresses, so the racers carry
identical bytes and last-writer-wins changes nothing.  This is what lets
any number of execution engines — pool workers of one farm run, or
several concurrent ``repro-experiments`` invocations — share one cache
directory with no locking.  The only cross-process ordering rule is
embedded in :meth:`ArtifactCache._present`: the artifact is replaced
*before* its sidecar, and presence requires both, so a reader never
trusts an artifact whose checksum has not been published yet.

Every artifact carries a sidecar checksum (``<name>.sha256``) written
from the exact bytes stored.  Loads verify it: a mismatch (torn write,
bit rot, a fault-injected truncation) moves the artifact and its sidecar
into ``corrupt/`` and raises :class:`~repro.vm.trace_io.
CorruptArtifactError`, whose ``key`` lets the execution engine re-produce
exactly the damaged artifact instead of crashing the run.  An artifact
without its sidecar (a crash landed between the two writes) is treated as
absent, so it is transparently re-produced.  Temporary files abandoned by
killed writers are reclaimed by :meth:`ArtifactCache.sweep_orphans`,
which ``repro-experiments`` runs once before planning; it only reclaims
temp files older than :data:`ORPHAN_MIN_AGE_S`, and stores themselves
never delete temp siblings, because a temp file they can see might
belong to a *live* concurrent writer, not a dead one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro import telemetry
from repro.core.results import AnalysisResult
from repro.isa import Program
from repro.prediction.profile import ProfilePredictor
from repro.vm.trace_io import (
    DEFAULT_CHUNK_RECORDS,
    CorruptArtifactError,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)

#: Sidecar suffix appended to every artifact file name.
CHECKSUM_SUFFIX = ".sha256"

#: Subdirectory quarantined artifacts are moved into.
CORRUPT_DIR = "corrupt"


#: Artifact subdirectories swept by :meth:`ArtifactCache.sweep_orphans`.
ARTIFACT_DIRS = ("asm", "traces", "profiles", "results")

#: Seconds a temp file must sit unmodified before the sweep calls it an
#: orphan.  A live stream writer touches its temp file on every frame,
#: so only writers that died long ago are reclaimed.
ORPHAN_MIN_AGE_S = 3600


class ArtifactCache:
    """On-disk artifact store addressed by content keys."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def sweep_orphans(self) -> int:
        """Delete orphaned temp siblings in the cache; return the count.

        Temporary files are dot-prefixed (``.<artifact>.<random>``) and
        only live between a writer's ``mkstemp`` and its ``os.replace``.
        Several invocations may share one cache, so a temp file counts
        as orphaned only once it has gone :data:`ORPHAN_MIN_AGE_S`
        seconds without a write.  Even a wrong guess is safe for the
        *cache* — a racing writer whose temp file vanishes under it
        treats the publish as lost to an identical-bytes racer (see
        ``_replace_published``) — but it wastes that writer's work.
        """
        cutoff = time.time() - ORPHAN_MIN_AGE_S
        removed = 0
        for kind in ARTIFACT_DIRS:
            for orphan in (self.root / kind).glob(".*"):
                try:
                    stale = orphan.is_file() and orphan.stat().st_mtime < cutoff
                except FileNotFoundError:
                    continue  # its writer published it meanwhile
                if stale:
                    _discard(orphan)
                    removed += 1
        return removed

    # -- paths ---------------------------------------------------------

    def asm_path(self, key: str) -> Path:
        return self.root / "asm" / f"{key}.s"

    def trace_path(self, key: str) -> Path:
        return self.root / "traces" / f"{key}.rtrc.gz"

    def profile_path(self, key: str) -> Path:
        return self.root / "profiles" / f"{key}.json"

    def result_path(self, key: str) -> Path:
        return self.root / "results" / f"{key}.json"

    def checksum_path(self, path: Path) -> Path:
        return path.parent / (path.name + CHECKSUM_SUFFIX)

    def corrupt_dir(self) -> Path:
        return self.root / CORRUPT_DIR

    # -- existence -----------------------------------------------------

    def _present(self, path: Path) -> bool:
        """An artifact exists only with its sidecar checksum.

        A lone artifact means the writer died between the artifact
        replace and the sidecar write; treating it as absent makes the
        next producer re-store both halves.
        """
        return path.is_file() and self.checksum_path(path).is_file()

    def has_asm(self, key: str) -> bool:
        return self._present(self.asm_path(key))

    def has_trace(self, key: str) -> bool:
        return self._present(self.trace_path(key))

    def has_profile(self, key: str) -> bool:
        return self._present(self.profile_path(key))

    def has_result(self, key: str) -> bool:
        return self._present(self.result_path(key))

    # -- compile stage -------------------------------------------------

    def store_asm(self, key: str, text: str) -> None:
        self._write_bytes(self.asm_path(key), text.encode("utf-8"))

    def load_asm(self, key: str) -> str:
        return self._verified_bytes(self.asm_path(key), key).decode("utf-8")

    # -- trace stage ---------------------------------------------------

    @contextmanager
    def store_trace_stream(
        self,
        key: str,
        program: Program,
        chunk_size: int = DEFAULT_CHUNK_RECORDS,
    ):
        """Stream a trace artifact into the cache with bounded memory.

        Yields a :class:`TraceWriter` bound to a temporary sibling; a VM
        run feeds it chunk by chunk (``FastVM(...).run(sink=writer)``),
        so the trace never materializes in the producer.  On clean exit
        the finished file is checksummed and atomically published; on
        error nothing is published and the temp file is discarded.
        """
        path = self.trace_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = _tmp_sibling(path)
        digest: str | None = None
        try:
            writer = TraceWriter(tmp, program, chunk_size=chunk_size)
            try:
                yield writer
            except BaseException:
                writer.abort()
                raise
            writer.close()
            digest = _sha256_file(tmp)
            _replace_published(tmp, path)
        finally:
            _discard(tmp)
        self._write_checksum(path, digest)

    def open_trace_reader(self, key: str, program: Program) -> TraceReader:
        """Open a streaming reader on a cached trace (bounded memory).

        Integrity is verified by hashing the file in fixed-size buffers —
        never holding the artifact in memory — and any parse failure,
        including one surfacing mid-stream from :meth:`TraceReader.chunks`,
        quarantines the artifact.
        """
        path = self.trace_path(key)
        self._verified_file(path, key)
        try:
            return _QuarantiningTraceReader(path, program, self, key)
        except TraceFormatError as exc:
            raise self._quarantine(path, key, f"unreadable trace: {exc}") from exc

    # -- branch profile (written by the trace stage) --------------------

    def store_profile(self, key: str, predictor: ProfilePredictor) -> None:
        payload = {
            "counts": {str(pc): pair for pc, pair in predictor.counts().items()},
            "records": predictor.records,
            "default_taken": predictor.default_taken,
        }
        self._write_json(self.profile_path(key), payload)

    def load_profile(self, key: str) -> ProfilePredictor:
        payload = self._verified_json(self.profile_path(key), key)
        counts = {int(pc): pair for pc, pair in payload["counts"].items()}
        return ProfilePredictor(
            counts, payload["records"], default_taken=payload["default_taken"]
        )

    # -- analysis stage ------------------------------------------------

    def store_result(self, key: str, result: AnalysisResult) -> None:
        self._write_json(self.result_path(key), result.to_json())

    def load_result(self, key: str) -> AnalysisResult:
        payload = self._verified_json(self.result_path(key), key)
        try:
            return AnalysisResult.from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise self._quarantine(
                self.result_path(key), key, f"unreadable result: {exc}"
            ) from exc

    # -- integrity -----------------------------------------------------

    def _verified_bytes(self, path: Path, key: str) -> bytes:
        """Read *path*, verifying its sidecar checksum.

        On mismatch (or a missing sidecar) the artifact is quarantined
        and :class:`CorruptArtifactError` is raised.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise self._quarantine(path, key, "artifact file is missing")
        sidecar = self.checksum_path(path)
        try:
            expected = sidecar.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            raise self._quarantine(path, key, "checksum sidecar is missing")
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise self._quarantine(
                path, key, f"checksum mismatch ({actual[:12]} != {expected[:12]})"
            )
        return data

    def _verified_file(self, path: Path, key: str) -> None:
        """Checksum-verify *path* without reading it into memory.

        The streaming sibling of :meth:`_verified_bytes`: same sidecar
        contract and quarantine behaviour, but the artifact is hashed in
        1 MiB buffers, so a 100M-record trace costs no resident memory.
        """
        if not path.is_file():
            raise self._quarantine(path, key, "artifact file is missing")
        sidecar = self.checksum_path(path)
        try:
            expected = sidecar.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            raise self._quarantine(path, key, "checksum sidecar is missing")
        actual = _sha256_file(path)
        if actual != expected:
            raise self._quarantine(
                path, key, f"checksum mismatch ({actual[:12]} != {expected[:12]})"
            )

    def _verified_json(self, path: Path, key: str) -> dict:
        data = self._verified_bytes(path, key)
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._quarantine(path, key, f"unparseable JSON: {exc}") from exc

    def _quarantine(
        self, path: Path, key: str, reason: str
    ) -> CorruptArtifactError:
        """Move a damaged artifact (and sidecar) into ``corrupt/``.

        Returns the exception for the caller to raise, so call sites
        read ``raise self._quarantine(...)`` and control flow is
        explicit.
        """
        destination = self.corrupt_dir() / path.name
        destination.parent.mkdir(parents=True, exist_ok=True)
        for victim in (path, self.checksum_path(path)):
            try:
                os.replace(victim, destination.parent / victim.name)
            except FileNotFoundError:
                pass
        kind = path.parent.name
        if telemetry.enabled():
            telemetry.METRICS.counter(
                "repro_jobs_corrupt_artifacts_total"
            ).inc(kind=kind)
        return CorruptArtifactError(
            f"corrupt {kind} artifact {path.name}: {reason} "
            f"(quarantined to {destination})",
            key=key,
            path=str(destination),
        )

    # -- plumbing ------------------------------------------------------

    def _write_json(self, path: Path, payload: dict) -> None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._write_bytes(path, text.encode("utf-8"))

    def _write_bytes(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = _tmp_sibling(path)
        try:
            tmp.write_bytes(data)
            _replace_published(tmp, path)
        finally:
            _discard(tmp)
        self._write_checksum(path, hashlib.sha256(data).hexdigest())

    def _write_checksum(self, path: Path, digest: str) -> None:
        """Atomically write *path*'s sidecar (no sidecar-of-sidecar)."""
        sidecar = self.checksum_path(path)
        tmp = _tmp_sibling(sidecar)
        try:
            tmp.write_text(digest + "\n", encoding="utf-8")
            _replace_published(tmp, sidecar)
        finally:
            _discard(tmp)


class _QuarantiningTraceReader(TraceReader):
    """A :class:`TraceReader` whose mid-stream failures quarantine.

    Checksum verification happens before the reader is handed out, but a
    checksum-consistent artifact can still be unparseable (stored damaged
    under fault injection).  Construction and the lazy :meth:`chunks` /
    :meth:`to_trace` paths translate those failures into the cache's
    quarantine-and-raise protocol so the farm can re-produce the trace.
    """

    def __init__(self, path: Path, program: Program, cache: ArtifactCache, key: str):
        self._cache = cache
        self._key = key
        super().__init__(path, program)

    def chunks(self):
        # ``to_trace`` funnels through here too, so one override covers
        # both the streaming and materializing consumers.
        try:
            yield from super().chunks()
        except TraceFormatError as exc:
            raise self._cache._quarantine(
                Path(self.path), self._key, f"unreadable trace: {exc}"
            ) from exc


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _replace_published(tmp: Path, path: Path) -> None:
    """Publish *tmp* at *path*, tolerating a racer that got there first.

    If the temp file vanished out from under this writer (an aggressive
    :meth:`ArtifactCache.sweep_orphans` on a live cache), the publish is
    only lost if nobody else published: keys are content addresses, so a
    racer's bytes at *path* are identical to ours and the store already
    succeeded from the reader's point of view.
    """
    try:
        os.replace(tmp, path)
    except FileNotFoundError:
        if not path.exists():
            raise


def _tmp_sibling(path: Path) -> Path:
    handle, name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=path.suffix
    )
    os.close(handle)
    return Path(name)


def _discard(tmp: Path) -> None:
    try:
        tmp.unlink()
    except FileNotFoundError:
        pass
