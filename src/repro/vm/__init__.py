"""Tracing interpreter for the repro ISA (the study's ``pixie`` equivalent).

:func:`sanitize_trace` loads :mod:`repro.vm.sanitize` (and the static
analyses it checks against) on first access (PEP 562), so running and
reading traces does not import :mod:`repro.analysis`.
"""

from repro.vm.fastvm import FastVM, fastvm_source, run_program_fast
from repro.vm.machine import RETURN_SENTINEL, VM, RunResult, VMError, run_program
from repro.vm.trace import (
    NO_ADDR,
    NOT_BRANCH,
    NOT_TAKEN,
    TAKEN,
    Trace,
    TraceRecord,
)
from repro.vm.trace_io import (
    CorruptArtifactError,
    TraceChunk,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    iter_trace_chunks,
    load_trace,
    save_trace,
)

__all__ = [
    "CorruptArtifactError",
    "FastVM",
    "NO_ADDR",
    "NOT_BRANCH",
    "NOT_TAKEN",
    "RETURN_SENTINEL",
    "RunResult",
    "TAKEN",
    "Trace",
    "TraceChunk",
    "TraceFormatError",
    "TraceReader",
    "TraceRecord",
    "TraceWriter",
    "VM",
    "VMError",
    "fastvm_source",
    "iter_trace_chunks",
    "load_trace",
    "run_program",
    "run_program_fast",
    "sanitize_trace",
    "save_trace",
]


def __getattr__(name: str):
    if name == "sanitize_trace":
        from repro.vm.sanitize import sanitize_trace

        return sanitize_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
