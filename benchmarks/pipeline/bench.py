"""The pipeline benchmark: MiniC -> trace -> analyze -> tables, measured
end to end and layer by layer.

Usage::

    python3 benchmarks/pipeline/bench.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--json PATH] [--history PATH]
    python3 benchmarks/pipeline/bench.py --bless [--workload NAME]

Without ``--workload`` every workload runs.  ``--trace`` (or ``--trace
1``) runs the separate traced run that reports the per-layer metrics
instead of the end-to-end ones.  ``--bless`` recomputes ``golden.json``
through the oracles.  ``src/`` is found relative to this file, so no
``PYTHONPATH`` is needed.

The benchmark process only draws inputs, starts children and checks
their outputs.  Every measured step runs in a fresh interpreter, one
child at a time (``stages.py`` or ``repro-experiments`` itself), so
start-up, compilation and kernel generation are paid on every iteration
as on every user invocation, and each child's peak RSS comes from
``os.wait4``.  The farm runs with its serial backend.

Every output is checked: against ``golden.json`` (computed by the legacy
VM and the legacy analyzer) or, for an input not blessed there, against
the in-memory FastVM and fused-analyzer path.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any output was wrong.  See
README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
STAGES = HERE / "stages.py"
GOLDEN_PATH = HERE / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("paper-cold", "warm-rerun", "analysis-sweep", "trace-long")
TABLES = ("paper-cold", "warm-rerun")

# The input space.  A seed draws each trace budget from a narrow range,
# so the traces differ while the work moves by at most 1.3% and medians
# over different seeds stay comparable within the metric bounds.  Which
# benchmarks run is fixed per workload: their costs per record differ
# by up to 40%.  A benchmark's scale only repeats its work, leaving the
# start of its trace unchanged, so it is no seed dimension either.
# --bless covers the whole space.
BUDGETS = {
    "tables": tuple(range(296_000, 304_001, 1_000)),
    "analysis-sweep": tuple(range(496_000, 504_001, 1_000)),
    "trace-long": tuple(range(3_960_000, 4_040_001, 10_000)),
}
#: (benchmark, scale): two non-numeric benchmarks and one numeric at
#: their default scales; espresso and gcc at 8x theirs, where neither
#: halts before 4M steps.
PROGRAMS = {
    "analysis-sweep": (("awk", 5), ("irsim", 2), ("tomcatv", 5)),
    "trace-long": (("espresso", 16), ("gcc", 32)),
}

MIN_ITERATIONS = 3
#: Set-up repetitions.  The cold workloads' set-up is a compile
#: preflight of about 0.3 s, so its median needs the most samples; a
#: warm-rerun set-up is a whole cold run.
SETUP_REPEATS = {"paper-cold": 5, "warm-rerun": 2, "analysis-sweep": 3, "trace-long": 5}
CHILD_TIMEOUT = 150

#: Layers in pipeline order; each reports ``<layer>_s`` and ``<layer>.share``.
LAYERS = (
    "lang.compile",
    "vm.exec",
    "trace_io.encode",
    "cache.publish",
    "cache.verify",
    "trace_io.decode",
    "prediction.profile",
    "prediction.stats",
    "analyzer.kernel",
    "experiments.render",
)


class BenchError(Exception):
    """A run that cannot produce a result (broken checkout, failed set-up)."""


# -- inputs -------------------------------------------------------------------


def _op(benchmark: str, scale: int, steps: int) -> dict:
    return {"benchmark": benchmark, "scale": scale, "steps": steps}


def op_key(op: dict) -> str:
    return f"{op['benchmark']}-{op['scale']}-{op['steps']}"


def golden_group(workload: str) -> str:
    # Same seed, same command: warm-rerun re-renders paper-cold's run.
    return "tables" if workload in TABLES else workload


def draw_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of *workload* for *seed* (deterministic)."""
    group = golden_group(workload)
    rng = random.Random(f"{group}/{seed}")
    if group == "tables":
        return {"max_steps": rng.choice(BUDGETS[group])}
    return {
        "ops": [_op(name, scale, rng.choice(BUDGETS[group])) for name, scale in PROGRAMS[group]]
    }


def input_space(group: str) -> list[dict]:
    """Every input --bless must cover, one per expectation child."""
    if group == "tables":
        return [{"max_steps": budget} for budget in BUDGETS[group]]
    return [
        {"ops": [_op(name, scale, budget)]}
        for name, scale in PROGRAMS[group]
        for budget in BUDGETS[group]
    ]


# -- children -----------------------------------------------------------------


@dataclass
class Child:
    wall: float
    rss_mib: float
    returncode: int
    stdout: str

    def result(self) -> dict:
        """The JSON object a stages.py child prints last."""
        return json.loads(self.stdout.strip().splitlines()[-1])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # A fault-injection spec inherited from the shell would corrupt runs.
    env.pop("REPRO_INJECT_FAULTS", None)
    return env


def _expire(signum, frame):
    raise TimeoutError(f"child exceeded {CHILD_TIMEOUT}s")


def spawn(argv: list[str], log_dir: Path) -> Child:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.alarm(CHILD_TIMEOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.stderr.write(f"[bench] {' '.join(argv[:3])} exited {proc.returncode}:\n")
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return Child(
        wall=wall,
        rss_mib=usage.ru_maxrss / 1024,  # KiB on Linux
        returncode=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
    )


def stages_argv(command: str, spec: dict) -> list[str]:
    return [sys.executable, str(STAGES), command, json.dumps(spec)]


def cli_args(max_steps: int, cache: Path, telemetry: Path | None = None) -> list[str]:
    """The arguments of the CLI workloads' ``repro-experiments`` command."""
    args = [
        "table2", "table3", "--quiet", "--jobs", "1",
        "--max-steps", str(max_steps), "--cache-dir", str(cache),
    ]
    return args + ["--telemetry-dir", str(telemetry)] if telemetry else args


def cli_argv(max_steps: int, cache: Path, telemetry: Path | None = None) -> list[str]:
    return [sys.executable, "-m", "repro.experiments.cli", *cli_args(max_steps, cache, telemetry)]


# -- output checks ------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_rows(stdout: str) -> dict[str, str]:
    """Each benchmark's lines of the rendered tables, keyed by name.

    The names are Table 2's first column, so a row of a benchmark that is
    missing from the output comes back empty.
    """
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("---")), len(lines))
    names = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        names.append(line.split()[0])
    return {
        name: "\n".join(line for line in lines if line.split()[:1] == [name])
        for name in names
    }


def tables_entry(stdout: str, records: int) -> dict:
    rows = {name: _sha(text) for name, text in table_rows(stdout).items()}
    return {"stdout": _sha(stdout), "rows": rows, "records": records}


def tables_failures(stdout: str | None, expected: dict) -> int:
    """Failed operations (benchmark rows) in one rendered output."""
    if stdout is not None and _sha(stdout) == expected["stdout"]:
        return 0
    rows = table_rows(stdout or "")
    bad = sum(
        _sha(rows.get(name, "")) != digest for name, digest in expected["rows"].items()
    )
    return max(bad, 1)


def ops_failures(outputs: list[dict] | None, expected: list[dict]) -> int:
    """Failed operations; *outputs* and *expected* follow the ops' order."""
    outputs = outputs or [{}] * len(expected)
    return sum(out.get("digest") != entry["digest"] for out, entry in zip(outputs, expected))


# -- one workload run ---------------------------------------------------------


@dataclass
class Sample:
    wall: float
    rss_mib: float
    attempted: int
    failed: int
    report: dict | None = None


class WorkloadRun:
    """One run of one workload: inputs, scratch directory, children."""

    def __init__(self, workload: str, seed: int, work: Path, golden: dict):
        self.workload = workload
        self.seed = seed
        self.inputs = draw_inputs(workload, seed)
        self.work = work
        self.cache = work / "cache"
        self._children = 0
        self.expected = None
        self._golden = golden

    # -- plumbing --

    def child(self, argv: list[str]) -> Child:
        self._children += 1
        log_dir = self.work / f"child-{self._children}"
        log_dir.mkdir()
        return spawn(argv, log_dir)

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def required(self, argv: list[str]) -> Child:
        child = self.child(argv)
        if child.returncode:
            raise BenchError(f"{self.workload}: a set-up step failed")
        return child

    @property
    def ops(self) -> list[dict]:
        return self.inputs.get("ops", [])

    # -- phases --

    def setup(self) -> float:
        """One set-up; returns its wall seconds."""
        started = time.perf_counter()
        if self.workload == "warm-rerun":
            self.required(cli_argv(self.inputs["max_steps"], self.fresh("cache")))
        elif self.workload == "analysis-sweep":
            spec = {"cache": str(self.fresh("cache")), "ops": self.ops}
            self.required(stages_argv("fill", spec))
        else:
            self.required(stages_argv("preflight", {"ops": self.ops}))
        return time.perf_counter() - started

    def expect(self) -> None:
        """Expected outputs: golden entries, else the in-memory fused path."""
        entries = self._golden.get(golden_group(self.workload), {})
        spec = dict(self.inputs, workload=self.workload, oracle=False)
        if self.workload in TABLES:
            entry = entries.get(str(self.inputs["max_steps"]))
            if entry is None:
                out = self.required(stages_argv("expect", spec)).result()
                entry = tables_entry(out["stdout"], out["records"])
            self.expected = entry
            return
        missing = [op for op in self.ops if op_key(op) not in entries]
        if missing:
            spec["ops"] = missing
            computed = self.required(stages_argv("expect", spec)).result()["ops"]
            entries = dict(entries, **{op_key(op): out for op, out in zip(missing, computed)})
        self.expected = [entries[op_key(op)] for op in self.ops]

    @property
    def records(self) -> int:
        if self.workload in TABLES:
            return self.expected["records"]
        return sum(entry["records"] for entry in self.expected)

    def _cache_for_iteration(self) -> Path:
        # Warm workloads reuse what set-up filled; cold ones start empty.
        if self.workload in ("warm-rerun", "analysis-sweep"):
            return self.cache
        return self.fresh("iteration-cache")

    def _sample(self, child: Child, outputs, report=None) -> Sample:
        if self.workload in TABLES:
            attempted = len(self.expected["rows"])
            failed = tables_failures(outputs if not child.returncode else None, self.expected)
        else:
            attempted = len(self.expected)
            failed = ops_failures(outputs if not child.returncode else None, self.expected)
        return Sample(child.wall, child.rss_mib, attempted, failed, report)

    def iterate(self, telemetry: bool = False) -> Sample:
        """One untraced iteration (with the program's own telemetry if asked)."""
        cache = self._cache_for_iteration()
        telemetry_dir = self.fresh("telemetry") if telemetry else None
        if self.workload in TABLES:
            child = self.child(cli_argv(self.inputs["max_steps"], cache, telemetry_dir))
            return self._sample(child, child.stdout)
        spec = {
            "workload": self.workload,
            "cache": str(cache),
            "ops": self.ops,
            "telemetry": str(telemetry_dir) if telemetry_dir else None,
        }
        child = self.child(stages_argv("run", spec))
        return self._sample(child, None if child.returncode else child.result()["ops"])

    def traced_iteration(self) -> Sample:
        """One traced iteration: the same code with its layers timed."""
        cache = self._cache_for_iteration()
        if self.workload in TABLES:
            spec = {"workload": self.workload, "cli": cli_args(self.inputs["max_steps"], cache)}
        else:
            spec = {"workload": self.workload, "cache": str(cache), "ops": self.ops}
        child = self.child(stages_argv("traced", spec))
        report = None if child.returncode else child.result()
        outputs = None
        if report is not None:
            outputs = report["stdout"] if self.workload in TABLES else report["ops"]
        return self._sample(child, outputs, report)

    def speedups(self) -> tuple[dict, Sample]:
        """Oracle-comparison columns on this seed's analysis-sweep inputs."""
        ops = draw_inputs("analysis-sweep", self.seed)["ops"]
        child = self.child(stages_argv("speedups", {"ops": ops}))
        if child.returncode:
            return {"vm": 0.0, "analyzer": 0.0}, Sample(child.wall, child.rss_mib, len(ops), len(ops))
        out = child.result()
        failed = sum("error" in entry for entry in out["ops"])
        return out, Sample(child.wall, child.rss_mib, len(ops), failed)


def _median_sample(samples: list[Sample]) -> Sample:
    return sorted(samples, key=lambda sample: sample.wall)[(len(samples) - 1) // 2]


def end_to_end(run: WorkloadRun, setup_times: list[float], samples: list[Sample]) -> dict:
    wall = statistics.median(sample.wall for sample in samples)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "records_per_s": run.records / wall,
        "peak_rss_mib": max(sample.rss_mib for sample in samples),
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(untraced, traced_samples, telemetry, speedups) -> dict:
    """Per-layer metrics from the median traced iteration."""
    reported = [sample for sample in traced_samples if sample.report is not None]
    if not reported:
        raise BenchError("every traced iteration failed")
    median = _median_sample(reported)
    seconds = {layer: median.report["seconds"].get(layer, 0.0) for layer in LAYERS}
    counts = median.report["counts"]
    # What no layer span covers: interpreter start-up, planning, the
    # engine's bookkeeping.  Never negative, so the shares add up to one.
    seconds["jobs.orchestration"] = median.wall - sum(seconds.values())
    metrics = {}
    for layer, value in seconds.items():
        metrics[f"{layer}_s"] = value
        metrics[f"{layer}.share"] = value / median.wall
    untraced_wall = statistics.median(sample.wall for sample in untraced)
    metrics.update(
        {
            "vm.records_per_s": _rate(counts.get("vm_records", 0), seconds["vm.exec"]),
            "trace_io.bytes_per_record": _rate(
                counts.get("trace_bytes", 0), counts.get("vm_records", 0)
            ),
            "cache.hit_ratio": _rate(counts.get("cache_hits", 0), counts.get("cache_lookups", 0)),
            "trace_io.decode_records_per_s": _rate(
                counts.get("decode_records", 0), seconds["trace_io.decode"]
            ),
            "trace_io.decode_passes_per_trace": _rate(
                counts.get("decode_passes", 0), counts["traces_read"]
            ),
            "analyzer.kernel_records_per_s": _rate(
                counts.get("analyzer_records", 0), seconds["analyzer.kernel"]
            ),
            "analyzer.calls": counts.get("analyzer_calls", 0),
            "trace_overhead_pct": 100.0
            * (statistics.median(s.wall for s in traced_samples) / untraced_wall - 1.0),
            "telemetry_overhead_pct": 100.0
            * (statistics.median(s.wall for s in telemetry) / untraced_wall - 1.0),
            "vm.speedup_vs_legacy": speedups["vm"],
            "analyzer.speedup_vs_legacy": speedups["analyzer"],
        }
    )
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool, golden: dict) -> dict:
    """Set up, measure and check one workload; returns the result document."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        run = WorkloadRun(workload, seed, work, golden)
        run.expect()
        samples: list[Sample] = []
        if not traced:
            # The set-ups are spread through the timed phase instead of
            # coming first, so that a workload with short iterations
            # samples the whole run: a shared host's speed drifts over
            # tens of seconds, and a median of samples taken close
            # together follows the drift.
            setup_times = []
            repeats = SETUP_REPEATS[workload]
            for done in range(1, repeats + 1):
                setup_times.append(run.setup())
                while sum(sample.wall for sample in samples) < seconds * done / repeats:
                    samples.append(run.iterate())
            while len(samples) < MIN_ITERATIONS:
                samples.append(run.iterate())
            values = end_to_end(run, setup_times, samples)
        else:
            run.setup()
            untraced, traced_samples, telemetry = [], [], []
            started = time.perf_counter()
            while not traced_samples or time.perf_counter() - started < seconds:
                untraced.append(run.iterate())
                traced_samples.append(run.traced_iteration())
                telemetry.append(run.iterate(telemetry=True))
            speedups, checked = run.speedups()
            values = per_layer(untraced, traced_samples, telemetry, speedups)
            samples = untraced + traced_samples + telemetry + [checked]
        attempted = sum(sample.attempted for sample in samples)
        failed = sum(sample.failed for sample in samples)
        return {
            "workload": workload,
            "seed": seed,
            "inputs": run.inputs,
            "children": len(samples),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "values": values,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- reporting ----------------------------------------------------------------


def result_line(result: dict, declared: list[dict]) -> dict:
    """The JSON object a run prints last: exactly the declared metrics."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": result["values"][metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def print_result(result: dict, declared: list[dict]) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): {json.dumps(result['inputs'])}")
    for metric in declared:
        value = result["values"][metric["name"]]
        print(f"  {metric['name']:<34} {value:>16.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(
        f"  {'error_rate':<34} {rate:>16.6g} ratio "
        f"({result['failed']} of {result['attempted']} operations failed)"
    )
    print(json.dumps(result_line(result, declared), sort_keys=True))


def history_kind(workload: str, traced: bool) -> str:
    """One record kind per workload and mode, so every record of a kind
    holds the same metrics and repro-bench-diff compares like with like."""
    return f"pipeline.{workload}" + (".traced" if traced else "")


def append_history(path: str, results: list[dict], declared: list[dict], traced: bool) -> None:
    sys.path.insert(0, str(SRC))
    from repro.bench import history

    for result in results:
        entries = {
            metric["name"]: history.entry(
                result["values"][metric["name"]], metric["unit"], metric["better"]
            )
            for metric in declared
        }
        history.append(path, history_kind(result["workload"], traced), entries)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def bless(workloads: list[str]) -> None:
    """Recompute the golden entries of *workloads* through the oracles."""
    golden = load_golden()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bless-", dir=WORK_ROOT))
    try:
        for group in dict.fromkeys(golden_group(w) for w in workloads):
            entries = golden[group] = {}
            space = input_space(group)
            for index, inputs in enumerate(space):
                log_dir = work / f"{group}-{index}"
                log_dir.mkdir()
                spec = dict(inputs, workload=group, oracle=True)
                child = spawn(stages_argv("expect", spec), log_dir)
                if child.returncode:
                    raise BenchError(f"blessing {group} failed")
                out = child.result()
                if group == "tables":
                    entries[str(inputs["max_steps"])] = tables_entry(out["stdout"], out["records"])
                else:
                    entries.update(zip(map(op_key, inputs["ops"]), out["ops"]))
                print(f"[bless] {group} {index + 1}/{len(space)}", file=sys.stderr)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.py", description="Pipeline benchmark: end-to-end and per-layer metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=10, help="timed phase per workload (default 10)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run, reporting per-layer metrics",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the results to PATH")
    parser.add_argument("--history", metavar="PATH", help="append the run to a bench history")
    parser.add_argument(
        "--bless", action="store_true", help="recompute golden.json through the oracles"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.bless:
            bless(workloads)
            return 0
        golden = load_golden()
        declared = json.loads(SPEC_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), golden)
            results.append(result)
            print_result(result, declared)
    except BenchError as exc:
        print(f"bench.py: {exc}", file=sys.stderr)
        return 1
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if args.history:
        append_history(args.history, results, declared, bool(args.trace))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
