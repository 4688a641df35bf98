"""Parallel experiment farm with a content-addressed artifact cache.

Turns ``repro-experiments`` from a one-shot serial script into an
incremental farm: work is sharded at (benchmark × stage) granularity —
compile, trace, analysis — dispatched through a pluggable
executor backend (in-process, or a local process pool), and every
artifact is stored on disk under a content hash so re-running
experiments only recomputes what changed.  See ``docs/jobs.md``.

The farm is also the pipeline's reliability substrate: artifacts carry
sidecar checksums and corrupt entries are quarantined and re-produced,
failed jobs are retried under a bounded :class:`RetryPolicy`, hung jobs
are timed out, dead jobs are quarantined with full provenance, a killed
run is finished by rerunning it (the cache holds every job it retired),
and a deterministic fault injector (:mod:`repro.jobs.faults`) exercises
all of it on demand.  See
``docs/robustness.md``.
"""

from repro.jobs.backends import Completion, ExecutorBackend
from repro.jobs.cache import ArtifactCache
from repro.jobs.engine import (
    ExecutionEngine,
    Job,
    JobGraph,
    Planner,
    RequestKeys,
)
from repro.jobs.faults import FaultClause, FaultPlan, FaultSpecError, InjectedFault
from repro.jobs.report import (
    DEAD,
    HIT,
    RUN,
    FailureRecord,
    FarmReport,
    JobRecord,
)
from repro.jobs.requests import AnalysisRequest, Request, TraceRequest
from repro.jobs.retry import JobTimeout, RetryPolicy

__all__ = [
    "AnalysisRequest",
    "ArtifactCache",
    "Completion",
    "DEAD",
    "ExecutionEngine",
    "ExecutorBackend",
    "FailureRecord",
    "FarmReport",
    "FaultClause",
    "FaultPlan",
    "FaultSpecError",
    "HIT",
    "InjectedFault",
    "Job",
    "JobGraph",
    "JobRecord",
    "JobTimeout",
    "Planner",
    "RUN",
    "Request",
    "RequestKeys",
    "RetryPolicy",
    "TraceRequest",
]
