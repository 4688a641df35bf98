"""Worker-side job execution.

These functions run inside :class:`~concurrent.futures.ProcessPoolExecutor`
workers (or in-process for the serial fallback), so they are plain
top-level functions taking a picklable payload ``dict``.  Workers never
ship :class:`~repro.vm.Trace` or :class:`~repro.core.AnalysisResult`
objects back over the pipe: every artifact travels through the
content-addressed cache — traces in the RTRC binary format of
:mod:`repro.vm.trace_io`, everything else as JSON — and only a small
timing record is returned.

Programs are not shipped either: each worker recompiles the benchmark's
MiniC source locally (compilation is ~3 orders of magnitude cheaper than
tracing) and memoizes it per process via the benchmark compile cache.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.bench import SUITE
from repro.core import MachineModel
from repro.isa import OpKind
from repro.jobs import faults
from repro.jobs.cache import ArtifactCache
from repro.prediction import ProfilePredictor, branch_stats, named_predictor
from repro.vm import FastVM


def execute_job(payload: dict) -> dict:
    """Run one farm job described by *payload*; return its timing record.

    A ``telemetry`` payload entry names the telemetry directory: worker
    processes configure themselves against it on first use (each process
    appends to its own ``worker-<pid>.jsonl`` sink, merged by the engine
    afterwards).  In the serial in-process case telemetry is already
    configured, so the job's spans land directly in the main sink.

    A ``faults`` payload entry arms the deterministic fault injector for
    this job: pre-stage faults (raise/hang/exit) fire before any work,
    post-store faults (truncate/garbage) damage the artifact the stage
    just wrote — always keyed by (seed, job key, attempt), so a chaotic
    run replays identically.

    ``trace_id`` and ``parent_id`` payload entries name the submitting
    process's trace and open span: the ``job.<stage>`` span (and
    everything nested under it) is linked into that trace, so
    ``repro-trace`` reassembles one waterfall across the coordinator and
    every ``worker-<pid>.jsonl`` sink.
    """
    telemetry_dir = payload.get("telemetry")
    if telemetry_dir and not telemetry.enabled():
        telemetry.configure(
            telemetry_dir, worker=True, profile=bool(payload.get("profiling"))
        )
    started = time.time()
    stage = payload["stage"]
    clause = None
    if payload.get("faults"):
        plan = faults.FaultPlan.from_spec(payload["faults"])
        clause = plan.match(stage, payload["key"], payload.get("attempt", 1))
    if clause is not None and clause.mode in ("raise", "hang", "exit"):
        faults.trigger_before(clause, payload)
    with telemetry.span(
        f"job.{stage}", benchmark=payload["benchmark"], key=payload["key"]
    ) as job_span, telemetry.profiled(f"job-{stage}-{payload['benchmark']}"):
        if "trace_id" in payload:
            job_span.link(payload["trace_id"], payload["parent_id"])
        if stage == "trace":
            _trace_job(payload)
        elif stage == "analyze":
            _analysis_job(payload)
        else:
            raise ValueError(f"unknown job stage {stage!r}")
    if clause is not None and clause.mode in ("truncate", "garbage"):
        faults.corrupt_artifact(clause, _artifact_path(payload))
    telemetry.flush()
    return {
        "key": payload["key"],
        "stage": stage,
        "benchmark": payload["benchmark"],
        "seconds": time.time() - started,
    }


def _artifact_path(payload: dict):
    """On-disk location of the artifact this job's stage produces."""
    cache = ArtifactCache(payload["cache_dir"])
    lookup = {"trace": cache.trace_path, "analyze": cache.result_path}
    return lookup[payload["stage"]](payload["key"])


def _program(payload: dict):
    return SUITE[payload["benchmark"]].compile(payload["scale"])


def _trace_job(payload: dict) -> None:
    # Specialized VM, streamed straight into the cache: the trace never
    # materializes in worker memory, so the budget is disk-bound only.
    # The run's own branch counts are the profile, so no pass over the
    # stored trace is needed to train it.
    cache = ArtifactCache(payload["cache_dir"])
    program = _program(payload)
    with cache.store_trace_stream(payload["key"], program) as writer:
        result = FastVM(program).run(max_steps=payload["max_steps"], sink=writer)
    cache.store_profile(payload["key"], ProfilePredictor.from_run(result))


def _analysis_job(payload: dict) -> None:
    # The result carries the predictor's branch statistics: the profile
    # knows its own, any other predictor takes one more pass.
    from repro.core.analyzer import LimitAnalyzer

    cache = ArtifactCache(payload["cache_dir"])
    program = _program(payload)
    reader = cache.open_trace_reader(payload["trace"], program)
    profile = cache.load_profile(payload["trace"])
    options = dict(payload["options"])
    predictor = named_predictor(options["predictor"], reader, profile)
    options.update(
        models=[MachineModel(label) for label in options["models"]],
        latencies={OpKind(kind): cycles for kind, cycles in options["latencies"]},
        predictor=predictor,
    )
    result = LimitAnalyzer(program).analyze(
        reader, engine=payload["engine"], **options
    )
    result.branch_stats = (
        profile.stats() if predictor is profile else branch_stats(reader, predictor)
    )
    cache.store_result(payload["key"], result)
