"""Parallel experiment farm with a content-addressed artifact cache.

Turns ``repro-experiments`` from a one-shot serial script into an
incremental farm: work is sharded at (benchmark × stage) granularity —
compile, trace, analysis — dispatched through a pluggable
executor backend (in-process, or a local process pool), and every
artifact is stored on disk under a content hash so re-running
experiments only recomputes what changed.  See ``docs/jobs.md``.

The farm is also the pipeline's reliability substrate: artifacts carry
sidecar checksums and corrupt entries are quarantined and re-produced,
a failed job is quarantined as dead with full provenance on its first
failure, and a killed or partly dead run is finished by rerunning it
(the cache holds every job it retired).  See ``docs/robustness.md``.
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
from repro.jobs.report import (
    DEAD,
    HIT,
    RUN,
    FailureRecord,
    FarmReport,
    JobRecord,
)
from repro.jobs.requests import AnalysisRequest, Request, TraceRequest

__all__ = [
    "AnalysisRequest",
    "ArtifactCache",
    "Completion",
    "DEAD",
    "ExecutionEngine",
    "ExecutorBackend",
    "FailureRecord",
    "FarmReport",
    "HIT",
    "Job",
    "JobGraph",
    "JobRecord",
    "Planner",
    "RUN",
    "Request",
    "RequestKeys",
    "TraceRequest",
]
