"""Per-job timing, cache hit-rate, and failure accounting for a farm run.

Every unit of work the farm considers — one (benchmark × stage × option
set), identified by its content key — is recorded exactly once, either as
``run`` (the job executed and produced its artifact), ``hit`` (the
artifact was already in the cache and the job was skipped), ``resumed``
(the artifact was cached *and* the resume journal shows a previous
invocation retired it), or ``dead`` (the job exhausted its retry budget
and was quarantined).  Later sightings of the same key (e.g. a lazy load
after a prefetch) are ignored, so the report reflects what the
invocation actually had to do.

Separately from job outcomes, every *failed attempt* is recorded as a
:class:`FailureRecord` with full provenance — stage, attempt number,
failure kind, message — so a chaotic run can be audited from the report
alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import telemetry

#: Stage names in pipeline order (used only for display sorting).
STAGES = ("compile", "trace", "analyze")

RUN = "run"
HIT = "hit"
RESUMED = "resumed"
DEAD = "dead"

#: Failure kinds carried by :class:`FailureRecord`.
FAILURE_KINDS = ("error", "timeout", "crash", "corrupt", "dependency")


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one farm job."""

    key: str
    stage: str
    benchmark: str
    status: str  # RUN, HIT, RESUMED, or DEAD
    seconds: float = 0.0
    #: Monotonic timestamp of when the outcome was recorded; with
    #: ``seconds`` this bounds the job's wall-clock window.
    recorded_at: float = 0.0


@dataclass(frozen=True)
class FailureRecord:
    """One failed job attempt (or a dead-dependency skip)."""

    key: str
    stage: str
    benchmark: str
    kind: str  # one of FAILURE_KINDS
    attempt: int
    message: str
    #: True when the attempt was requeued; False when it killed the job.
    retried: bool


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
            if status in (HIT, RESUMED):
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
        attempt: int,
        message: str,
        retried: bool,
    ) -> None:
        """Record one failed attempt with its full provenance."""
        self.failures.append(
            FailureRecord(key, stage, benchmark, kind, attempt, message, retried)
        )
        if telemetry.enabled():
            if retried:
                telemetry.METRICS.counter("repro_jobs_retries_total").inc(
                    stage=stage
                )
            if kind == "timeout":
                telemetry.METRICS.counter("repro_jobs_timeouts_total").inc(
                    stage=stage
                )

    def note(self, message: str) -> None:
        """Attach a run-level note (e.g. a degradation event)."""
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
    def resumed(self) -> int:
        return sum(1 for r in self.records.values() if r.status == RESUMED)

    @property
    def dead(self) -> int:
        return sum(1 for r in self.records.values() if r.status == DEAD)

    @property
    def retries(self) -> int:
        """Failed attempts that were requeued."""
        return sum(1 for f in self.failures if f.retried)

    @property
    def timeouts(self) -> int:
        return sum(1 for f in self.failures if f.kind == "timeout")

    @property
    def corrupt_artifacts(self) -> int:
        return sum(1 for f in self.failures if f.kind == "corrupt")

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
        return 100.0 * (self.hits + self.resumed) / self.total

    # -- rendering -----------------------------------------------------

    def render(self, per_job: bool = True) -> str:
        """Human-readable report (one summary line plus per-job lines).

        Failure provenance and run-level notes are always rendered —
        they are the audit trail of a chaotic run — while the per-job
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
            outcome = "retried" if failure.retried else "gave up"
            lines.append(
                f"[farm] failure  {failure.stage:<8s} {failure.benchmark:<12s} "
                f"attempt {failure.attempt} {failure.kind}: "
                f"{failure.message} ({outcome})"
            )
        for message in self.notes:
            lines.append(f"[farm] note: {message}")
        for stage in STAGES:
            stage_records = [r for r in self.records.values() if r.stage == stage]
            if not stage_records:
                continue
            ran = sum(1 for r in stage_records if r.status == RUN)
            skipped = sum(
                1 for r in stage_records if r.status in (HIT, RESUMED)
            )
            dead = sum(1 for r in stage_records if r.status == DEAD)
            hit_pct = 100.0 * skipped / len(stage_records)
            dead_text = f", {dead} dead" if dead else ""
            lines.append(
                f"[farm] {stage}: {len(stage_records)} jobs, {ran} executed, "
                f"{skipped} hits ({hit_pct:.1f}%){dead_text}, "
                f"cpu {self.seconds_in(stage):.2f}s, "
                f"wall {self.wall_in(stage):.2f}s"
            )
        resumed_text = f", {self.resumed} resumed" if self.resumed else ""
        dead_text = f", {self.dead} dead" if self.dead else ""
        lines.append(
            f"[farm] total {self.total} jobs: {self.executed} executed, "
            f"{self.hits} cache hits{resumed_text}{dead_text} "
            f"(hit rate {self.hit_rate:.1f}%)"
        )
        if self.failures:
            lines.append(
                f"[farm] faults: {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.dead} dead jobs, "
                f"{self.corrupt_artifacts} corrupt artifacts"
            )
        return "\n".join(lines)
