"""Hierarchical spans: context-manager and decorator timing.

A span measures one named region of work with a monotonic clock and
emits a JSON record when it closes::

    with telemetry.span("runner.analyze", benchmark="gcc") as sp:
        result = ...
        sp.set(counted=result.counted_instructions)

Records carry ``name``, ``id``, ``parent`` (the enclosing span's id, or
None at the root), ``trace`` (the distributed trace id the span belongs
to, or None), ``pid``, ``ts`` (wall-clock start, seconds since the
epoch), ``dur`` (monotonic duration, seconds), and an ``attrs`` object of
JSON-serializable attributes.  Nesting uses a per-thread stack; the
pipeline is single-threaded within a process (farm workers each get their
own process and sink file).

A *root* span (empty stack) adopts the run's trace id, minted by
:func:`repro.telemetry.state.configure`; nested spans inherit ``trace``
from the enclosing span.  A pool worker's ``job.<stage>`` span is
re-parented with :meth:`Span.link` to the coordinator's span that
dispatched the job, which is how worker spans stitch into the run's
trace.

When telemetry is disabled, :func:`span` returns a shared no-op object
without allocating, so instrumentation sites cost one call and a bool
test.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from typing import Any, Callable

from repro.telemetry import state

_local = threading.local()
_ids = itertools.count(1)


def mint_span_id() -> str:
    """A fresh span id (``<pid hex>-<counter hex>``), unique across processes."""
    return f"{os.getpid():x}-{next(_ids):x}"


def _stack() -> list["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class _NullSpan:
    """The disabled span: enters, exits, and records nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    def link(self, trace_id: str | None, parent_id: str | None) -> None:
        pass

    @property
    def elapsed(self) -> float:
        return 0.0


NULL_SPAN = _NullSpan()


class Span:
    """One live timed region; emitted to the sink when it exits."""

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "trace_id", "_start", "_ts"
    )

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = mint_span_id()
        self.parent_id: str | None = None
        self.trace_id: str | None = None
        self._start = 0.0
        self._ts = 0.0

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.parent_id = stack[-1].span_id
            self.trace_id = stack[-1].trace_id
        else:
            self.trace_id = state.STATE.trace_id
        stack.append(self)
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        state.STATE.sink.emit(
            {
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "trace": self.trace_id,
                "pid": os.getpid(),
                "ts": self._ts,
                "dur": duration,
                "attrs": self.attrs,
            }
        )

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def link(self, trace_id: str | None, parent_id: str | None) -> None:
        """Explicitly re-parent this span into a distributed trace.

        Overrides whatever linkage ``__enter__`` derived; spans nested
        *inside* this one inherit the new ``trace_id`` as usual.  Used by
        farm workers whose job payload carries the submitting process's
        ``trace_id`` and ``parent_id``.
        """
        self.trace_id = trace_id
        self.parent_id = parent_id

    @property
    def elapsed(self) -> float:
        """Monotonic seconds since the span was entered."""
        return time.perf_counter() - self._start


def span(name: str, **attrs: Any):
    """A context manager timing one named region (no-op when disabled)."""
    if not state.STATE.sink.enabled:
        return NULL_SPAN
    return Span(name, attrs)


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span`; defaults to the function's name."""

    def decorate(func: Callable) -> Callable:
        span_name = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not state.STATE.sink.enabled:
                return func(*args, **kwargs)
            with Span(span_name, dict(attrs)):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def record_span(name: str, duration: float, **attrs: Any) -> None:
    """Emit a completed span with an externally measured duration.

    For hot regions that time themselves with a plain ``perf_counter``
    pair instead of entering a context manager (e.g. the VM interpreter
    loop).  The record is parented to the innermost open span
    (inheriting its trace); with no open span it is a root of the run's
    trace.
    """
    if not state.STATE.sink.enabled:
        return
    stack = _stack()
    if stack:
        parent_id, trace_id = stack[-1].span_id, stack[-1].trace_id
    else:
        parent_id, trace_id = None, state.STATE.trace_id
    state.STATE.sink.emit(
        {
            "name": name,
            "id": mint_span_id(),
            "parent": parent_id,
            "trace": trace_id,
            "pid": os.getpid(),
            "ts": time.time() - duration,
            "dur": duration,
            "attrs": attrs,
        }
    )


def current_span() -> Span | _NullSpan:
    """The innermost open span of this thread (the null span when none)."""
    stack = _stack()
    return stack[-1] if stack else NULL_SPAN


def reset() -> None:
    """Drop this thread's open spans (test isolation after an abort)."""
    _stack().clear()
