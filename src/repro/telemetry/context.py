"""Trace context for cross-process span stitching.

One :class:`TraceContext` names a distributed trace (a 32-hex
``trace_id``) and the span the next emitted root span should parent to
(``parent_id``, or None at the origin).  Contexts travel two ways:

* inside farm job payloads as a ``trace_ctx`` dict, so pool worker
  processes stitch their ``worker-<pid>.jsonl`` spans into the
  submitting trace (:meth:`TraceContext.to_payload`);
* in-process via a process-wide default (:func:`set_default`), read by
  :mod:`repro.telemetry.spans` whenever a root span opens.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

_default: "TraceContext | None" = None


@dataclass(frozen=True)
class TraceContext:
    """One trace's identity plus the parent for the next root span."""

    trace_id: str
    parent_id: str | None = None

    def child(self, parent_id: str) -> "TraceContext":
        """The same trace, re-parented under *parent_id*."""
        return TraceContext(self.trace_id, parent_id)

    def to_payload(self) -> dict:
        """The picklable ``trace_ctx`` dict embedded in job payloads."""
        return {"trace_id": self.trace_id, "parent_id": self.parent_id}

    @classmethod
    def from_payload(cls, payload: dict | None) -> "TraceContext | None":
        if not payload or not payload.get("trace_id"):
            return None
        return cls(str(payload["trace_id"]), payload.get("parent_id"))


def new_trace_id() -> str:
    """A fresh 32-hex trace id."""
    return uuid.uuid4().hex


def mint() -> TraceContext:
    """A brand-new trace with no remote parent (a CLI invocation)."""
    return TraceContext(new_trace_id(), None)


def set_default(ctx: TraceContext | None) -> None:
    """Install the process-wide context (a CLI invocation's)."""
    global _default
    _default = ctx


def current() -> TraceContext | None:
    """The process-wide context, or None."""
    return _default


def clear() -> None:
    """Drop the process-wide context (telemetry shutdown)."""
    global _default
    _default = None
