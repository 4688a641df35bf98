"""The job graph: schedulable units addressed by their artifact keys.

Split out of :mod:`repro.jobs.engine` so executor backends
(:mod:`repro.jobs.backends`) can type against :class:`Job` without
importing the engine that drives them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work, addressed by its artifact key."""

    key: str
    stage: str  # "trace" | "analyze"
    benchmark: str
    payload: dict
    deps: tuple[str, ...] = ()


@dataclass
class JobGraph:
    """Deduplicated DAG of jobs, keyed by artifact address."""

    jobs: dict[str, Job] = field(default_factory=dict)

    def add(self, job: Job) -> None:
        self.jobs.setdefault(job.key, job)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs.values())

    def digest(self) -> str:
        """Stable identity of this graph (the sorted job-key set)."""
        material = "\n".join(sorted(self.jobs))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()
