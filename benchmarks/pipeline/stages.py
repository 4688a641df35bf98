"""Child-process side of the pipeline benchmark.

``bench.py`` runs every measured step in a fresh interpreter, one at a
time, so interpreter start-up, MiniC compilation and fused-kernel
generation are paid on every iteration exactly as on every user
invocation.  This script is that interpreter's entry point::

    PYTHONPATH=src python3 benchmarks/pipeline/stages.py COMMAND SPEC_JSON

SPEC_JSON holds the generated inputs.  An *operation* ``op`` is one
benchmark's pipeline: ``{"benchmark": NAME, "scale": N, "steps": N}``.

preflight  compile the given programs (set-up of the cold workloads)
fill       stream each op's trace and branch profile into a cache
           (set-up of analysis-sweep)
run        one untraced iteration of analysis-sweep or trace-long
traced     one traced iteration of any workload: the layers' public
           entry points are wrapped in timers, then the untraced code
           runs unchanged (``repro-experiments`` itself, in this process,
           for the CLI workloads); reports per-layer self seconds
expect     expected outputs computed in memory, either through the
           oracles (legacy VM, legacy analyzer; ``"oracle": true``) or
           through FastVM and the fused analyzer
speedups   FastVM vs the legacy VM and the fused vs the legacy analyzer
           on the same inputs, checked equal before they are compared

Every command prints one JSON object as its last stdout line; per-op
outputs come as a list in the order of the given ops.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from types import SimpleNamespace

import repro.experiments.runner as suite_runner
from repro import prediction, telemetry
from repro.bench import SUITE, BenchmarkSpec
from repro.core import LimitAnalyzer, MachineModel
from repro.experiments import cli
from repro.jobs import ArtifactCache
from repro.prediction import ProfilePredictor
from repro.vm import VM, FastVM

#: The experiments the CLI workloads run, in output order.
TABLES = ("table2", "table3")

#: The four analyze() option sets the experiments need, in digest order.
OPTION_SETS = (
    {},  # the default seven models (Table 3)
    {"perfect_unrolling": False},  # Table 4
    {"collect_misprediction_stats": True},  # Figures 6 and 7
    {  # the inlining ablation
        "models": (MachineModel.BASE, MachineModel.SP, MachineModel.ORACLE),
        "perfect_inlining": False,
    },
)


def cache_key(op: dict) -> str:
    """Where an operation's trace and profile live in its cache."""
    return f"{op['benchmark']}-{op['scale']}-{op['steps']}"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_digest(results) -> str:
    """Digest of the four analyses; engine provenance is not output."""
    payload = []
    for result in results:
        fields = result.to_json()
        del fields["engine"]
        payload.append(fields)
    return _digest(payload)


def trace_digest(run, stats) -> str:
    """Digest of a trace run's architectural outcome and its Table 2 row."""
    return _digest(
        {
            "steps": run.steps,
            "halted": run.halted,
            "exit_value": run.exit_value,
            "dynamic_instructions": stats.dynamic_instructions,
            "conditional_branches": stats.conditional_branches,
            "mispredictions": stats.mispredictions,
        }
    )


def check_exit_value(op: dict, run) -> None:
    """A halted program must return the checksum its spec records."""
    expected = SUITE[op["benchmark"]].expected.get(op["scale"])
    if run.halted and expected is not None and run.exit_value != expected:
        raise ValueError(
            f"{cache_key(op)} exited with {run.exit_value}, expected {expected}"
        )


# -- timing ------------------------------------------------------------------


class Tracer:
    """Per-layer self seconds over nested spans, plus work counters.

    A span's self time is its duration minus the time its child spans
    cover, so layer totals never double count and their sum stays below
    the process's wall time.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.traces: set[str] = set()
        self._open: list[float] = []  # child seconds of each open span

    @contextmanager
    def span(self, layer: str):
        self._open.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            children = self._open.pop()
            self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed - children
            if self._open:
                self._open[-1] += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def report(self) -> dict:
        counts = dict(self.counts, traces_read=len(self.traces))
        return {"seconds": self.seconds, "counts": counts}


class _TimedSink:
    """Delegating trace sink: splits TraceWriter encoding from VM time."""

    def __init__(self, writer, tracer: Tracer):
        self._writer = writer
        self._tracer = tracer

    def write(self, pcs, addrs, takens) -> None:
        with self._tracer.span("trace_io.encode"):
            self._writer.write(pcs, addrs, takens)


def _timed_reader(reader, tracer: Tracer):
    """Wrap the reader instance's chunks() so decoding is its own span."""
    chunks = reader.chunks

    def traced_chunks():
        tracer.count("decode_passes")
        frames = chunks()
        while True:
            with tracer.span("trace_io.decode"):
                frame = next(frames, None)
            if frame is None:
                return
            tracer.count("decode_records", len(frame.pcs))
            yield frame

    reader.chunks = traced_chunks
    tracer.traces.add(reader.path)
    return reader


def probe(tracer: Tracer) -> None:
    """Time and count each layer's public entry points in this process.

    Patches classes and modules for the rest of the process, which is
    why only the traced child, which runs nothing else, calls it.  The
    code that then runs is the untraced code itself.
    """

    def timed(function, layer):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                return function(*args, **kwargs)

        return wrapper

    def counted(method):
        @functools.wraps(method)
        def wrapper(self, key):
            found = method(self, key)
            tracer.count("cache_lookups")
            tracer.count("cache_hits", int(found))
            return found

        return wrapper

    BenchmarkSpec.compile = timed(BenchmarkSpec.compile, "lang.compile")

    vm_run = FastVM.run

    @functools.wraps(vm_run)
    def run_vm(self, *args, sink=None, **kwargs):
        if sink is not None:
            sink = _TimedSink(sink, tracer)
        with tracer.span("vm.exec"):
            result = vm_run(self, *args, sink=sink, **kwargs)
        tracer.count("vm_records", result.steps)
        return result

    FastVM.run = run_vm

    store_trace = ArtifactCache.store_trace_stream

    @contextmanager
    def store_trace_stream(self, key, *args, **kwargs):
        # Publishing (close, sha256, rename) is what the VM and encode
        # spans nested in the caller's with-block leave of this span.
        with tracer.span("cache.publish"), store_trace(self, key, *args, **kwargs) as writer:
            yield writer
        tracer.count("trace_bytes", self.trace_path(key).stat().st_size)

    ArtifactCache.store_trace_stream = store_trace_stream

    open_trace = ArtifactCache.open_trace_reader

    @functools.wraps(open_trace)
    def open_trace_reader(self, key, program):
        with tracer.span("cache.verify"):
            reader = open_trace(self, key, program)
        return _timed_reader(reader, tracer)

    ArtifactCache.open_trace_reader = open_trace_reader
    for name in ("has_asm", "has_trace", "has_profile", "has_result"):
        setattr(ArtifactCache, name, counted(getattr(ArtifactCache, name)))
    for name in ("load_asm", "load_profile", "load_result"):
        setattr(ArtifactCache, name, timed(getattr(ArtifactCache, name), "cache.verify"))
    for name in ("store_asm", "store_profile", "store_result"):
        setattr(ArtifactCache, name, timed(getattr(ArtifactCache, name), "cache.publish"))

    ProfilePredictor.from_source = classmethod(
        timed(ProfilePredictor.from_source.__func__, "prediction.profile")
    )
    # Callers that imported branch_stats by name hold their own reference.
    prediction.branch_stats = suite_runner.branch_stats = timed(
        prediction.branch_stats, "prediction.stats"
    )

    # The static tables LimitAnalyzer builds belong to the kernel too.
    LimitAnalyzer.__init__ = timed(LimitAnalyzer.__init__, "analyzer.kernel")
    analyze = LimitAnalyzer.analyze

    @functools.wraps(analyze)
    def analyze_trace(self, *args, **kwargs):
        with tracer.span("analyzer.kernel"):
            result = analyze(self, *args, **kwargs)
        tracer.count("analyzer_calls")
        tracer.count("analyzer_records", result.trace_length)
        return result

    LimitAnalyzer.analyze = analyze_trace

    for name, experiment in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[name] = dataclasses.replace(
            experiment, run=timed(experiment.run, "experiments.render")
        )


# -- pipeline stages ----------------------------------------------------------


def trace_stage(cache, key, program, steps):
    """FastVM streaming into the cache, as the farm's trace job does."""
    with cache.store_trace_stream(key, program) as writer:
        run = FastVM(program).run(max_steps=steps, sink=writer)
    return run


def analysis_op(cache, op) -> str:
    """One analysis-sweep operation: the four option sets on a cached trace."""
    program = SUITE[op["benchmark"]].compile(op["scale"])
    key = cache_key(op)
    predictor = cache.load_profile(key)
    analyzer = LimitAnalyzer(program)
    return analysis_digest(
        analyzer.analyze(cache.open_trace_reader(key, program), predictor=predictor, **options)
        for options in OPTION_SETS
    )


def trace_long_op(cache, op) -> str:
    """One trace-long operation: compile, stream, profile, Table 2 row."""
    program = SUITE[op["benchmark"]].compile(op["scale"])
    key = cache_key(op)
    run = trace_stage(cache, key, program, op["steps"])
    check_exit_value(op, run)
    reader = cache.open_trace_reader(key, program)
    predictor = ProfilePredictor.from_source(reader)
    return trace_digest(run, prediction.branch_stats(reader, predictor))


OPERATIONS = {"analysis-sweep": analysis_op, "trace-long": trace_long_op}


def _each_op(spec, operation) -> list[dict]:
    """Run *operation* on every op, in order; one failure must not hide the others."""
    cache = ArtifactCache(spec["cache"])
    outputs = []
    for op in spec["ops"]:
        try:
            outputs.append({"digest": operation(cache, op)})
        except Exception as exc:  # reported per op and counted as failed
            traceback.print_exc()
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
    return outputs


def experiments_cli(args: list[str]) -> str:
    """Run ``repro-experiments ARGS`` in this process; returns its stdout."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(args)
    if code:
        raise RuntimeError(f"repro-experiments exited {code}")
    return stdout.getvalue()


# -- in-memory expectations ---------------------------------------------------


class MemoryRunner:
    """The part of SuiteRunner that table2.run and table3.run use, in memory.

    ``vm`` and ``engine`` pick the trace producer and the analyzer engine:
    the legacy VM and the legacy engine make the oracle.
    """

    def __init__(self, max_steps: int, vm, engine: str):
        self.max_steps = max_steps
        self.vm = vm
        self.engine = engine
        self.runs: dict[str, SimpleNamespace] = {}

    def run(self, name: str) -> SimpleNamespace:
        if name not in self.runs:
            program = SUITE[name].compile()
            trace = self.vm(program).run(max_steps=self.max_steps).trace
            predictor = ProfilePredictor.from_trace(trace)
            self.runs[name] = SimpleNamespace(
                program=program,
                trace=trace,
                predictor=predictor,
                stats=prediction.branch_stats(trace, predictor),
            )
        return self.runs[name]

    def analyze(self, name: str):
        run = self.run(name)
        return LimitAnalyzer(run.program).analyze(
            run.trace, predictor=run.predictor, engine=self.engine
        )


def expect_op(workload: str, op: dict, vm, engine: str) -> dict:
    program = SUITE[op["benchmark"]].compile(op["scale"])
    run = vm(program).run(max_steps=op["steps"])
    predictor = ProfilePredictor.from_trace(run.trace)
    if workload == "analysis-sweep":
        analyzer = LimitAnalyzer(program)
        digest = analysis_digest(
            analyzer.analyze(run.trace, predictor=predictor, engine=engine, **options)
            for options in OPTION_SETS
        )
    else:
        check_exit_value(op, run)
        digest = trace_digest(run, prediction.branch_stats(run.trace, predictor))
    return {"digest": digest, "records": len(run.trace)}


# -- commands -----------------------------------------------------------------


def preflight(spec: dict) -> dict:
    """Compile the ops' programs, or the whole suite when there are none."""
    programs = [(op["benchmark"], op["scale"]) for op in spec["ops"]]
    for name, scale in programs or [(name, None) for name in SUITE]:
        SUITE[name].compile(scale)
    return {"compiled": len(programs or SUITE)}


def fill(spec: dict) -> dict:
    cache = ArtifactCache(spec["cache"])
    for op in spec["ops"]:
        program = SUITE[op["benchmark"]].compile(op["scale"])
        key = cache_key(op)
        trace_stage(cache, key, program, op["steps"])
        predictor = ProfilePredictor.from_source(cache.open_trace_reader(key, program))
        cache.store_profile(key, predictor)
    return {"filled": len(spec["ops"])}


def run(spec: dict) -> dict:
    if spec.get("telemetry"):
        telemetry.configure(spec["telemetry"])
    try:
        return {"ops": _each_op(spec, OPERATIONS[spec["workload"]])}
    finally:
        telemetry.shutdown()


def traced(spec: dict) -> dict:
    tracer = Tracer()
    probe(tracer)
    if spec["workload"] in OPERATIONS:
        out = {"ops": _each_op(spec, OPERATIONS[spec["workload"]])}
    else:
        out = {"stdout": experiments_cli(spec["cli"])}
    return dict(out, **tracer.report())


def expect(spec: dict) -> dict:
    vm, engine = (VM, "legacy") if spec["oracle"] else (FastVM, "fused")
    if spec["workload"] in OPERATIONS:
        return {"ops": [expect_op(spec["workload"], op, vm, engine) for op in spec["ops"]]}
    runner = MemoryRunner(spec["max_steps"], vm, engine)
    # What repro-experiments prints: each table, then an empty line.
    stdout = "".join(f"{cli.EXPERIMENTS[name].run(runner)}\n\n" for name in TABLES)
    records = sum(len(run.trace) for run in runner.runs.values())
    return {"stdout": stdout, "records": records}


def speedups(spec: dict) -> dict:
    """CPU seconds of each oracle over its fast counterpart, summed over ops."""
    seconds = {"fast_vm": 0.0, "legacy_vm": 0.0, "fused": 0.0, "legacy": 0.0}
    outputs = []

    def timed(label, call):
        started = time.process_time()
        value = call()
        seconds[label] += time.process_time() - started
        return value

    for op in spec["ops"]:
        program = SUITE[op["benchmark"]].compile(op["scale"])
        steps = op["steps"]
        fast = timed("fast_vm", lambda: FastVM(program).run(max_steps=steps))
        legacy = timed("legacy_vm", lambda: VM(program).run(max_steps=steps))
        predictor = ProfilePredictor.from_trace(fast.trace)
        analyzer = LimitAnalyzer(program)
        fused = timed("fused", lambda: analyzer.analyze(fast.trace, predictor=predictor))
        oracle = timed(
            "legacy",
            lambda: analyzer.analyze(fast.trace, predictor=predictor, engine="legacy"),
        )
        same = (fast.trace, fast.exit_value, fused) == (legacy.trace, legacy.exit_value, oracle)
        outputs.append({} if same else {"error": "differs from the oracle"})
    return {
        "ops": outputs,
        "vm": seconds["legacy_vm"] / seconds["fast_vm"],
        "analyzer": seconds["legacy"] / seconds["fused"],
    }


COMMANDS = {
    "preflight": preflight,
    "fill": fill,
    "run": run,
    "traced": traced,
    "expect": expect,
    "speedups": speedups,
}


if __name__ == "__main__":
    command, spec_json = sys.argv[1:]
    print(json.dumps(COMMANDS[command](json.loads(spec_json)), sort_keys=True))
