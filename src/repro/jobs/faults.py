"""Deterministic fault injection for the experiment farm.

The farm's recovery machinery — retries, timeouts, quarantine, pool
rebuilds — is only trustworthy if it can be exercised on demand, the way
a speculative machine's recovery path is exercised by misspeculation.
This module injects *reproducible* failures into farm jobs: which jobs
fail, how, and on which attempts is a pure function of the fault spec's
seed and the job's content key, so a chaotic run can be replayed
bit-for-bit.

A fault *spec* is a semicolon-separated list of clauses, each a
comma-separated list of ``field=value`` pairs::

    stage=trace,mode=raise,rate=0.5,times=1,seed=42
    mode=exit,rate=0.2,seed=7;stage=analyze,mode=truncate,seed=7

Fields:

``mode`` (required)
    ``raise``    — raise :class:`InjectedFault` before the stage runs
    ``hang``     — sleep ``secs`` seconds (exercises job timeouts)
    ``exit``     — kill the worker process with ``os._exit`` (exercises
    pool rebuilds; converted to ``raise`` for in-process execution,
    which would otherwise kill the coordinator)
    ``truncate`` — after the stage stores its artifact, cut the file to
    half its bytes (exercises checksum quarantine)
    ``garbage``  — overwrite the stored artifact with garbage bytes
``stage``
    Only fault this pipeline stage (``trace``/``analyze``);
    default: every stage.
``rate``
    Fraction of job keys the clause selects, decided deterministically
    per (seed, key); default 1.0 (all).
``times``
    Fire only on attempts 1..N, so retries eventually succeed; 0 means
    every attempt (producing dead jobs).  Default 1.
``seed``
    Folded into the key-selection hash; default 0.
``secs``
    Hang duration for ``mode=hang``; default 300.

Specs are armed with ``repro-experiments --inject-faults SPEC`` or the
``REPRO_INJECT_FAULTS`` environment variable, and travel to pool workers
inside job payloads.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variable consulted by the CLI when --inject-faults is absent.
ENV_VAR = "REPRO_INJECT_FAULTS"

MODES = ("raise", "hang", "exit", "truncate", "garbage")

#: Exit status used by ``mode=exit`` worker crashes (recognizable in
#: pool post-mortems; any nonzero status breaks the pool identically).
CRASH_EXIT_STATUS = 13


class InjectedFault(RuntimeError):
    """A deliberately injected, transient job failure."""


class FaultSpecError(ValueError):
    """A fault spec string could not be parsed."""


def _fraction(seed: int, key: str) -> float:
    """Deterministic uniform [0, 1) draw for (seed, key)."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultClause:
    """One deterministic failure rule of a fault plan."""

    mode: str
    stage: str | None = None
    rate: float = 1.0
    times: int = 1
    seed: int = 0
    secs: float = 300.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise FaultSpecError(
                f"unknown fault mode {self.mode!r} (choose from {', '.join(MODES)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultSpecError(f"rate must be in [0, 1], got {self.rate}")
        if self.times < 0:
            raise FaultSpecError(f"times must be >= 0, got {self.times}")
        if self.secs < 0:
            raise FaultSpecError(f"secs must be >= 0, got {self.secs}")

    def matches(self, stage: str, key: str, attempt: int) -> bool:
        """Does this clause fire for *key*'s *attempt* at *stage*?"""
        if self.stage is not None and self.stage != stage:
            return False
        if self.times and attempt > self.times:
            return False
        if self.rate >= 1.0:
            return True
        return _fraction(self.seed, key) < self.rate

    def to_spec(self) -> str:
        parts = [f"mode={self.mode}"]
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        parts.append(f"rate={self.rate}")
        parts.append(f"times={self.times}")
        parts.append(f"seed={self.seed}")
        parts.append(f"secs={self.secs}")
        return ",".join(parts)


_FIELD_PARSERS = {
    "mode": str,
    "stage": str,
    "rate": float,
    "times": int,
    "seed": int,
    "secs": float,
}


@dataclass(frozen=True)
class FaultPlan:
    """An armed set of fault clauses; the first matching clause fires."""

    clauses: tuple[FaultClause, ...] = ()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``field=value,...;field=value,...`` into a plan."""
        clauses = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields: dict = {}
            for pair in chunk.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                name, _, value = pair.partition("=")
                name = name.strip()
                parser = _FIELD_PARSERS.get(name)
                if parser is None:
                    raise FaultSpecError(
                        f"unknown fault field {name!r} in clause {chunk!r}"
                    )
                try:
                    fields[name] = parser(value.strip())
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad value for {name!r} in clause {chunk!r}: {exc}"
                    ) from exc
            if "mode" not in fields:
                raise FaultSpecError(f"clause {chunk!r} is missing mode=")
            clauses.append(FaultClause(**fields))
        if not clauses:
            raise FaultSpecError("fault spec contains no clauses")
        return cls(tuple(clauses))

    def to_spec(self) -> str:
        """Serialize back to spec syntax (for embedding in job payloads)."""
        return ";".join(clause.to_spec() for clause in self.clauses)

    def match(self, stage: str, key: str, attempt: int) -> FaultClause | None:
        for clause in self.clauses:
            if clause.matches(stage, key, attempt):
                return clause
        return None


def trigger_before(clause: FaultClause, payload: dict) -> None:
    """Fire a pre-stage fault (``raise``/``hang``/``exit``) for one job."""
    stage, key, attempt = payload["stage"], payload["key"], payload.get("attempt", 1)
    tag = f"stage {stage} key {key[:12]} attempt {attempt}"
    if clause.mode == "raise":
        raise InjectedFault(f"injected fault: {tag}")
    if clause.mode == "hang":
        time.sleep(clause.secs)
        # If no timeout reaped us, still fail the attempt so the hang is
        # never mistaken for a successful job.
        raise InjectedFault(f"injected hang elapsed: {tag}")
    if clause.mode == "exit":
        if payload.get("in_process"):
            # os._exit would take down the coordinating process itself.
            raise InjectedFault(f"injected crash (in-process, softened): {tag}")
        os._exit(CRASH_EXIT_STATUS)


def corrupt_artifact(clause: FaultClause, path: Path) -> None:
    """Fire a post-store fault: damage the artifact just written at *path*.

    The sidecar checksum (written from the pristine bytes) is left
    intact, so the damage models a torn write and is caught by
    verification on the next load.
    """
    data = path.read_bytes()
    if clause.mode == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif clause.mode == "garbage":
        path.write_bytes(b"\x00garbage\xff" * 8)
