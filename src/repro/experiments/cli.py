"""Command-line driver: regenerate the paper's tables and figures.

Usage::

    repro-experiments                     # everything, default budget
    repro-experiments table3 fig6        # selected experiments
    repro-experiments --max-steps 500000 # bigger traces (closer to paper)
    repro-experiments --jobs 8           # farm the work across 8 processes
    repro-experiments --cache-dir /tmp/c # persistent artifact cache location
    repro-experiments --no-cache         # a throwaway cache, removed at exit
    repro-experiments --legacy-engine    # per-model analyzer sweep (oracle)
    repro-experiments --telemetry-dir T --metrics --profile  # observability
    repro-experiments --retries 3 --job-timeout 120  # farm fault tolerance
    repro-experiments --inject-faults "stage=trace,mode=raise,times=1,seed=7"
    repro-experiments --list

Tables and figures go to stdout; timing lines and the farm's report go
to stderr, so stdout is byte-identical across worker counts and cache
states.  ``[farm: Xs]`` times the farm's prefetch of every artifact the
selected experiments need; each ``[EXPERIMENT: Xs]`` line then times
that experiment's render from the farm's artifacts.
``--quiet`` suppresses the stderr chatter entirely, and the farm's
per-job breakdown is only shown when stderr is a terminal (the stage
and total summary lines always appear).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro import telemetry
from repro.asm import AsmError
from repro.diagnostics import DiagnosticError
from repro.jobs import ArtifactCache, FaultPlan, FaultSpecError
from repro.lang.errors import CompileError
from repro.experiments import (
    ablations,
    fig4,
    fig5,
    fig6,
    fig7,
    mix,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.runner import DeadJobError, RunConfig, SuiteRunner

#: Default location of the persistent artifact cache.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class Experiment:
    """One runnable experiment: its renderer plus its farm requirements."""

    run: Callable[[SuiteRunner], str]
    requirements: Callable[[RunConfig], list]


EXPERIMENTS = {
    "table1": Experiment(
        lambda runner: table1.run(runner).render(), table1.requirements
    ),
    "table2": Experiment(
        lambda runner: table2.run(runner).render(), table2.requirements
    ),
    "table3": Experiment(
        lambda runner: table3.run(runner).render(), table3.requirements
    ),
    "table4": Experiment(
        lambda runner: table4.run(runner).render(), table4.requirements
    ),
    "fig4": Experiment(lambda runner: fig4.run(runner).render(), fig4.requirements),
    "fig5": Experiment(lambda runner: fig5.run(runner).render(), fig5.requirements),
    "fig6": Experiment(lambda runner: fig6.run(runner).render(), fig6.requirements),
    "fig7": Experiment(lambda runner: fig7.run(runner).render(), fig7.requirements),
    "mix": Experiment(lambda runner: mix.run(runner).render(), mix.requirements),
    "ablation-predictors": Experiment(
        lambda runner: ablations.predictor_ablation(runner).render(),
        ablations.predictor_requirements,
    ),
    "ablation-window": Experiment(
        lambda runner: ablations.window_ablation(runner).render(),
        ablations.window_requirements,
    ),
    "ablation-latency": Experiment(
        lambda runner: ablations.latency_ablation(runner).render(),
        ablations.latency_requirements,
    ),
    "ablation-inlining": Experiment(
        lambda runner: ablations.inlining_ablation(runner).render(),
        ablations.inlining_requirements,
    ),
    "ablation-guarded": Experiment(
        lambda runner: ablations.guarded_ablation(runner).render(),
        ablations.guarded_requirements,
    ),
    "ablation-convergence": Experiment(
        lambda runner: ablations.convergence_ablation(runner).render(),
        ablations.convergence_requirements,
    ),
    "ablation-flows": Experiment(
        lambda runner: ablations.flows_ablation(runner).render(),
        ablations.flows_requirements,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Lam & Wilson (ISCA 1992).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="which experiments to run (default: all)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=150_000,
        help="dynamic trace budget per benchmark (default 150000)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="override every benchmark's workload scale",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run the object-code verifier and trace sanitizer over every "
        "benchmark before analyzing it (fails on any error diagnostic)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment farm (default 1: serial "
        "in-process execution)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"persistent content-addressed artifact cache "
        f"(default {DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="use a throwaway artifact cache, removed at exit, instead of "
        "--cache-dir",
    )
    parser.add_argument(
        "--legacy-engine",
        action="store_true",
        help="analyze with the original per-model sweep instead of the "
        "fused single-pass engine (differential-testing oracle; slower; "
        "its results are cached apart from the fused engine's)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="write observability output (spans.jsonl, metrics, profiles) "
        "under DIR; inspect it with repro-trace",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="export metrics.json into the telemetry directory "
        "(requires --telemetry-dir)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="capture cProfile data per experiment and per farm job into "
        "the telemetry directory (requires --telemetry-dir)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="requeue a failed farm job up to N times (with exponential "
        "backoff and deterministic jitter) before quarantining it as dead "
        "(default 2)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per farm job attempt; a job exceeding it "
        "is failed (and its hung worker killed) then retried "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="arm the deterministic fault injector (chaos testing), e.g. "
        "'stage=trace,mode=raise,rate=0.5,times=1,seed=7' "
        "(see docs/robustness.md)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress stderr chatter (timing lines and the farm report)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print extra detail to stderr (per-model flow-ledger peaks)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also append every experiment's output to FILE (a full report)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(use --list to see the choices)"
        )
    if args.jobs < 1:
        parser.error("--jobs must be a positive worker count")
    if args.metrics and args.telemetry_dir is None:
        parser.error("--metrics requires --telemetry-dir")
    if args.profile and args.telemetry_dir is None:
        parser.error("--profile requires --telemetry-dir")
    if args.retries < 0:
        parser.error("--retries must be non-negative")
    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error("--job-timeout must be positive")
    if args.inject_faults is not None:
        try:
            FaultPlan.from_spec(args.inject_faults)
        except FaultSpecError as exc:
            parser.error(f"--inject-faults: {exc}")

    if args.no_cache:
        cache_dir = None  # the runner makes a throwaway cache
    else:
        cache_dir = args.cache_dir
        # Reclaim temp files left by writers killed in earlier runs.
        ArtifactCache(cache_dir).sweep_orphans()

    report = open(args.output, "a") if args.output else None
    if report:
        report.write(
            f"# repro-experiments report (max_steps={args.max_steps}, "
            f"scale={args.scale or 'defaults'})\n\n"
        )
    runner = SuiteRunner(
        RunConfig(
            max_steps=args.max_steps,
            scale=args.scale,
            verify=args.verify,
            jobs=args.jobs,
            cache_dir=cache_dir,
            engine="legacy" if args.legacy_engine else "fused",
            telemetry_dir=args.telemetry_dir,
            profile=args.profile,
            retries=args.retries,
            job_timeout=args.job_timeout,
            inject_faults=args.inject_faults,
        )
    )
    try:
        requests = [
            request
            for name in names
            for request in EXPERIMENTS[name].requirements(runner.config)
        ]
        started = time.time()
        try:
            runner.prefetch(requests)
        except (AsmError, CompileError, DiagnosticError) as exc:
            print(f"prefetch: {exc}", file=sys.stderr)
            return 1
        # The farm does the experiments' heavy work up front, so their
        # own timing lines below cover rendering only.
        timing = f"[farm: {time.time() - started:.1f}s]"
        if not args.quiet:
            print(timing, file=sys.stderr)
        if report:
            report.write(timing + "\n")
        failed = False
        for name in names:
            started = time.time()
            try:
                with telemetry.span("experiment", experiment=name), telemetry.profiled(
                    f"experiment-{name}"
                ):
                    output = EXPERIMENTS[name].run(runner)
            except (AsmError, CompileError, DiagnosticError, DeadJobError) as exc:
                # Diagnostic-bearing failures are reported, not raised: the
                # rendered diagnostics carry everything a traceback would,
                # and the farm report carries each dead job's provenance.
                # The experiments after it still render what survived.
                print(f"{name}: {exc}", file=sys.stderr)
                failed = True
                continue
            elapsed = time.time() - started
            print(output)
            print()
            if not args.quiet:
                print(f"[{name}: {elapsed:.1f}s]", file=sys.stderr)
            if report:
                report.write(output + f"\n[{name}: {elapsed:.1f}s]\n\n")
                report.flush()
        if args.verbose:
            _print_flow_peaks(runner)
        _print_farm_report(runner, args.quiet)
        if args.metrics:
            telemetry.write_metrics(args.telemetry_dir)
    finally:
        telemetry.shutdown()
        if report:
            report.close()
    return 1 if failed else 0


def _print_farm_report(runner: SuiteRunner, quiet: bool) -> None:
    """The farm's report on stderr (per-job lines only on a terminal)."""
    if runner.farm_report.total and not quiet:
        print(
            runner.farm_report.render(per_job=sys.stderr.isatty()),
            file=sys.stderr,
        )


def _print_flow_peaks(runner: SuiteRunner) -> None:
    """Print the per-model flow-ledger peaks on stderr.

    They come from the flow-limited results the runner loaded (the
    ablation-flows experiment's), so a warm run prints what a cold one
    does.
    """
    lines = [
        f"[flow-peaks] {result.program_name} {model.label} "
        f"flows={request.flow_limit}: peak {peak}"
        for request, result in runner.results.items()
        for model, peak in result.flow_peaks.items()
    ]
    for line in lines or [
        "[flow-peaks] no flow-limited analyses ran (ablation-flows produces them)"
    ]:
        print(line, file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
