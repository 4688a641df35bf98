"""Process-wide telemetry configuration.

One mutable :class:`TelemetryState` per process, defaulting to disabled:
the null sink, no telemetry directory, profiling off.  The fast path for
instrumented code is ``state.STATE.sink.enabled`` — two attribute loads
and a bool test, no allocation — so leaving telemetry off costs nothing
measurable anywhere in the pipeline.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

from repro.telemetry.sinks import (
    NULL_SINK,
    SPANS_FILENAME,
    JsonlSink,
    worker_sink_name,
)


class TelemetryState:
    """The process's telemetry switchboard (see :func:`configure`)."""

    __slots__ = ("sink", "directory", "profile", "trace_id")

    def __init__(self):
        self.sink = NULL_SINK
        self.directory: Path | None = None
        self.profile = False
        self.trace_id: str | None = None


STATE = TelemetryState()


def configure(
    directory: str | Path,
    *,
    sink_filename: str = SPANS_FILENAME,
    worker: bool = False,
    profile: bool = False,
) -> None:
    """Enable telemetry, writing spans under *directory*.

    ``worker=True`` names the sink ``worker-<pid>.jsonl`` instead of
    ``spans.jsonl`` (farm worker processes must not append to one shared
    file concurrently).  Re-configuring with the same directory and sink
    is a no-op, so process-pool workers can call this once per job.
    ``profile=True`` arms :func:`repro.telemetry.profiler.profiled`.

    A non-worker configure mints the run's 32-hex trace id, which every
    root span of this process adopts; workers leave it alone, since
    their job spans are linked to the submitting trace from the job
    payload (:meth:`repro.telemetry.spans.Span.link`).
    """
    directory = Path(directory)
    if worker:
        sink_filename = worker_sink_name()
    path = directory / sink_filename
    current = STATE.sink
    if isinstance(current, JsonlSink) and current.path == path:
        STATE.profile = profile or STATE.profile
        return
    current.close()
    STATE.directory = directory
    STATE.sink = JsonlSink(path)
    STATE.profile = profile
    if not worker:
        STATE.trace_id = uuid.uuid4().hex


def shutdown() -> None:
    """Flush and close the sink; return the process to the disabled state."""
    STATE.sink.close()
    STATE.sink = NULL_SINK
    STATE.directory = None
    STATE.profile = False
    STATE.trace_id = None


def enabled() -> bool:
    """Is span telemetry currently on?"""
    return STATE.sink.enabled


def profiling() -> bool:
    """Are the opt-in cProfile hooks armed?"""
    return STATE.profile and STATE.directory is not None


def flush() -> None:
    """Flush buffered span records to disk (no-op when disabled)."""
    STATE.sink.flush()


def telemetry_dir() -> Path | None:
    """The configured telemetry directory, or None when disabled."""
    return STATE.directory


# -- fork safety -----------------------------------------------------------
#
# With the default fork start method, a process-pool worker inherits the
# coordinator's *open* sink: both processes would then append through one
# shared file description, interleaving lines, and the worker's spans
# would never reach a worker-<pid>.jsonl file for repro-trace to stitch.
# Flushing before the fork keeps the inherited buffer empty; reopening in
# the child swaps the inherited sink for the child's own worker sink.
# (subprocess does not run these hooks — only os.fork paths, i.e. the
# multiprocessing machinery underneath ProcessPoolExecutor.)


def _flush_before_fork() -> None:
    STATE.sink.flush()


def _reopen_in_child() -> None:
    if not isinstance(STATE.sink, JsonlSink):
        return
    directory, profile = STATE.directory, STATE.profile
    # The inherited sink was flushed pre-fork and its fd belongs to the
    # parent; drop it without closing (a close would be harmless, but a
    # late GC flush of stale inherited state would not).
    STATE.sink = NULL_SINK
    from repro.telemetry import spans  # circular at module load

    spans.reset()
    configure(directory, worker=True, profile=profile)


os.register_at_fork(
    before=_flush_before_fork, after_in_child=_reopen_in_child
)
