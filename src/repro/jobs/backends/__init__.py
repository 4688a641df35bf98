"""Pluggable execution backends for the experiment farm.

The engine's dispatch loop drives every backend through the
:class:`~repro.jobs.backends.base.ExecutorBackend` protocol.  Backend
implementations import lazily from their modules so importing
:mod:`repro.jobs` does not pull in process pools.
"""

from repro.jobs.backends.base import Completion, ExecutorBackend, WorkerLost

__all__ = ["Completion", "ExecutorBackend", "WorkerLost"]
