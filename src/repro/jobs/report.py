"""Per-job timing, cache hit-rate, and failure accounting for a farm run.

Every unit of work the farm considers — one (benchmark × stage × option
set), identified by its content key — is recorded exactly once, either as
``run`` (the job executed and produced its artifact), ``hit`` (the
artifact was already in the cache and the job was skipped), or ``dead``
(the job failed, or a job it depends on did, and was quarantined).
Later sightings of the same key (e.g. a lazy load after a prefetch) are
ignored, so the report reflects what the invocation actually had to do.

Separately from job outcomes, every *failure* is recorded as a
:class:`FailureRecord` with full provenance — stage, failure kind,
message, and whether it killed the job — so a failed run can be audited
from the report alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import telemetry

#: Stage names in pipeline order (used only for display sorting).
STAGES = ("compile", "trace", "analyze")

RUN = "run"
HIT = "hit"
DEAD = "dead"

#: Failure kinds carried by :class:`FailureRecord`.
FAILURE_KINDS = ("error", "crash", "corrupt", "dependency")


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one farm job."""

    key: str
    stage: str
    benchmark: str
    status: str  # RUN, HIT, or DEAD
    seconds: float = 0.0
    #: Monotonic timestamp of when the outcome was recorded; with
    #: ``seconds`` this bounds the job's wall-clock window.
    recorded_at: float = 0.0


@dataclass(frozen=True)
class FailureRecord:
    """One job failure (or a dead-dependency skip)."""

    key: str
    stage: str
    benchmark: str
    kind: str  # one of FAILURE_KINDS
    message: str
    #: True when the failure killed the job; False when a corrupt
    #: artifact was quarantined and re-produced instead.
    fatal: bool


@dataclass
class FarmReport:
    """Accumulated job records for one experiment invocation."""

    records: dict[str, JobRecord] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(
        self,
        key: str,
        stage: str,
        benchmark: str,
        status: str,
        seconds: float = 0.0,
    ) -> None:
        """Record a job outcome (first sighting of a key wins)."""
        if key in self.records:
            return
        self.records[key] = JobRecord(
            key, stage, benchmark, status, seconds, time.perf_counter()
        )
        if telemetry.enabled():
            if status == HIT:
                telemetry.METRICS.counter("repro_jobs_cache_hits_total").inc(
                    stage=stage
                )
            elif status == RUN:
                telemetry.METRICS.counter("repro_jobs_cache_misses_total").inc(
                    stage=stage
                )
                telemetry.METRICS.counter("repro_jobs_stage_seconds_total").inc(
                    seconds, stage=stage
                )
            elif status == DEAD:
                telemetry.METRICS.counter("repro_jobs_dead_total").inc(
                    stage=stage
                )

    def record_failure(
        self,
        key: str,
        stage: str,
        benchmark: str,
        kind: str,
        message: str,
        fatal: bool,
    ) -> None:
        """Record one failure with its full provenance."""
        self.failures.append(
            FailureRecord(key, stage, benchmark, kind, message, fatal)
        )

    def note(self, message: str) -> None:
        """Attach a run-level note (e.g. a pool replaced after a crash)."""
        self.notes.append(message)

    # -- aggregates ----------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records.values() if r.status == RUN)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records.values() if r.status == HIT)

    @property
    def dead(self) -> int:
        return sum(1 for r in self.records.values() if r.status == DEAD)

    def executed_in(self, stage: str) -> int:
        return sum(
            1
            for r in self.records.values()
            if r.stage == stage and r.status == RUN
        )

    def hits_in(self, stage: str) -> int:
        return sum(
            1
            for r in self.records.values()
            if r.stage == stage and r.status == HIT
        )

    def seconds_in(self, stage: str) -> float:
        """CPU-seconds spent executing *stage* jobs (hits cost nothing)."""
        return sum(
            r.seconds
            for r in self.records.values()
            if r.stage == stage and r.status == RUN
        )

    def wall_in(self, stage: str) -> float:
        """Wall-clock window covered by *stage*'s executed jobs.

        Each record's ``(recorded_at - seconds, recorded_at)`` interval
        approximates when the job ran; the window spans the earliest start
        to the latest finish, so with parallel workers it is smaller than
        the CPU-second sum.
        """
        runs = [
            r
            for r in self.records.values()
            if r.stage == stage and r.status == RUN
        ]
        if not runs:
            return 0.0
        return max(r.recorded_at for r in runs) - min(
            r.recorded_at - r.seconds for r in runs
        )

    @property
    def hit_rate(self) -> float:
        """Percent of jobs satisfied from the cache (100.0 if no jobs)."""
        if not self.records:
            return 100.0
        return 100.0 * self.hits / self.total

    # -- rendering -----------------------------------------------------

    def render(self, per_job: bool = True) -> str:
        """Human-readable report (one summary line plus per-job lines).

        Failure provenance and run-level notes are always rendered —
        they are the audit trail of a failed run — while the per-job
        status lines honor *per_job*.
        """
        lines = []
        stage_order = {stage: i for i, stage in enumerate(STAGES)}
        if per_job:
            ordered = sorted(
                self.records.values(),
                key=lambda r: (stage_order.get(r.stage, len(STAGES)), r.benchmark, r.key),
            )
            for r in ordered:
                timing = f"{r.seconds:8.3f}s" if r.status == RUN else "        -"
                lines.append(
                    f"[farm] {r.stage:<8s} {r.benchmark:<12s} {r.status:<7s} {timing}"
                )
        for failure in self.failures:
            outcome = "dead" if failure.fatal else "re-produced"
            lines.append(
                f"[farm] failure  {failure.stage:<8s} {failure.benchmark:<12s} "
                f"{failure.kind}: {failure.message} ({outcome})"
            )
        for message in self.notes:
            lines.append(f"[farm] note: {message}")
        for stage in STAGES:
            stage_records = [r for r in self.records.values() if r.stage == stage]
            if not stage_records:
                continue
            ran = sum(1 for r in stage_records if r.status == RUN)
            skipped = sum(1 for r in stage_records if r.status == HIT)
            dead = sum(1 for r in stage_records if r.status == DEAD)
            hit_pct = 100.0 * skipped / len(stage_records)
            dead_text = f", {dead} dead" if dead else ""
            lines.append(
                f"[farm] {stage}: {len(stage_records)} jobs, {ran} executed, "
                f"{skipped} hits ({hit_pct:.1f}%){dead_text}, "
                f"cpu {self.seconds_in(stage):.2f}s, "
                f"wall {self.wall_in(stage):.2f}s"
            )
        dead_text = f", {self.dead} dead" if self.dead else ""
        lines.append(
            f"[farm] total {self.total} jobs: {self.executed} executed, "
            f"{self.hits} cache hits{dead_text} "
            f"(hit rate {self.hit_rate:.1f}%)"
        )
        return "\n".join(lines)
