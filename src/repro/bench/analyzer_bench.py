"""Microbenchmark: fused single-pass analyzer vs. the legacy per-model sweep.

Runs a Table 3-shaped analyze (all seven machine models, profile
predictor, default options) over each benchmark's trace with both
engines and reports the speedup.  Every pair of runs is first checked
for equal results — a timing report for a divergent engine would be
meaningless — so this doubles as a coarse differential test.

Usage::

    repro-analyzer-bench                       # all benchmarks, full budget
    repro-analyzer-bench --max-steps 20000     # CI smoke budget
    repro-analyzer-bench --min-speedup 3.0     # fail below 3x (full budget)
    repro-analyzer-bench eqntott gcc --repeats 5

Timing uses ``time.process_time`` (CPU time) with the engines
interleaved and the best of ``--repeats`` kept per engine, which is far
more stable than wall clock on shared machines.  Speedups shrink at tiny
``--max-steps`` because the kernel-compilation and table-build overheads
stop amortizing; enforce ``--min-speedup`` only at a realistic budget.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import history as bench_history
from repro.bench.suite import SUITE
from repro.core.analyzer import LimitAnalyzer
from repro.prediction.profile import ProfilePredictor
from repro.vm.machine import run_program


def bench_one(
    name: str, max_steps: int, repeats: int
) -> tuple[float, float]:
    """Best-of-*repeats* CPU seconds for (fused, legacy) on one benchmark.

    Raises :class:`AssertionError` if the engines disagree on any model's
    times or on the counted-instruction totals.
    """
    program = SUITE[name].compile()
    trace = run_program(program, max_steps=max_steps).trace
    predictor = ProfilePredictor.from_trace(trace)
    analyzer = LimitAnalyzer(program)
    # Warm-up runs: compile the fused block handlers, build the static tables,
    # and check the engines agree before timing anything.
    fused = analyzer.analyze(trace, predictor=predictor, engine="fused")
    legacy = analyzer.analyze(trace, predictor=predictor, engine="legacy")
    assert fused == legacy, f"{name}: fused and legacy engines diverge"
    best_fused = best_legacy = float("inf")
    for _ in range(repeats):
        started = time.process_time()
        analyzer.analyze(trace, predictor=predictor, engine="fused")
        best_fused = min(best_fused, time.process_time() - started)
        started = time.process_time()
        analyzer.analyze(trace, predictor=predictor, engine="legacy")
        best_legacy = min(best_legacy, time.process_time() - started)
    return best_fused, best_legacy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyzer-bench",
        description="Benchmark the fused analyzer against the legacy sweep.",
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmarks to run (default: the whole suite)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=150_000,
        help="dynamic trace budget per benchmark (default 150000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per engine; the best is kept (default 3)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit nonzero unless every benchmark's speedup is >= X",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="append this run to a JSONL benchmark history "
        "(see repro-bench-diff)",
    )
    args = parser.parse_args(argv)
    names = args.benchmarks or sorted(SUITE)
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        parser.error(f"unknown benchmark(s): {', '.join(unknown)}")
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    print(f"{'benchmark':<12} {'fused':>9} {'legacy':>9} {'speedup':>8}")
    ratios: list[float] = []
    entries: dict[str, dict] = {}
    for name in names:
        fused_s, legacy_s = bench_one(name, args.max_steps, args.repeats)
        ratio = legacy_s / fused_s if fused_s else float("inf")
        ratios.append(ratio)
        entries[f"{name}.fused_s"] = bench_history.entry(
            fused_s, "s", bench_history.LOWER
        )
        entries[f"{name}.speedup"] = bench_history.entry(
            ratio, "x", bench_history.HIGHER
        )
        print(f"{name:<12} {fused_s:>8.3f}s {legacy_s:>8.3f}s {ratio:>7.2f}x")
    if args.history:
        bench_history.append(args.history, "analyzer-bench", entries)
    mean = sum(ratios) / len(ratios)
    worst = min(ratios)
    print(f"{'':12} {'':>9} {'':>9}  min {worst:.2f}x / mean {mean:.2f}x")
    if args.min_speedup is not None and worst < args.min_speedup:
        print(
            f"FAIL: minimum speedup {worst:.2f}x below the "
            f"{args.min_speedup:.2f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
