"""Sweep the gzip level of ``.rtrc.gz`` traces: bytes against seconds.

Usage::

    python -m repro.bench.gzip_sweep                 # levels 1-9, best of 3
    python -m repro.bench.gzip_sweep --max-steps 400000 --repeats 1

The inputs are the pipeline benchmark's ``trace-long`` pair: espresso at
scale 16 and gcc at scale 32, 4M steps each.  Each program runs once
under ``FastVM`` with its sink batches kept; every level then replays
those batches into a :class:`~repro.vm.trace_io.TraceWriter`, so
*encode* is the writer's own cost (column checks, framing, deflate) as
the VM's sink sees it.  *Decode* is one full
:meth:`~repro.vm.trace_io.TraceReader.chunks` pass.  Each cell is the
best of ``--repeats`` wall-clock runs, which filters the host's slow
spells rather than averaging them in; each round visits every level.

The chosen level is the one with the lowest encode-plus-decode seconds
summed over both inputs whose bytes per record stay within
:data:`MAX_BYTES_RATIO` of level 9's on every input; level 9 is what
``gzip`` defaults to and what traces used before the level was chosen.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from array import array
from contextlib import contextmanager

from repro.bench.suite import SUITE
from repro.vm import trace_io
from repro.vm.fastvm import FastVM

#: (benchmark, scale) pairs of the pipeline benchmark's trace-long workload.
INPUTS = (("espresso", 16), ("gcc", 32))

#: A level may cost at most this many times level 9's bytes per record.
MAX_BYTES_RATIO = 1.5

LEVELS = range(1, 10)


class _Recorder:
    """Trace sink that keeps the VM's batches as compact arrays."""

    def __init__(self):
        self.batches: list[tuple[array, array, array]] = []

    def write(self, pcs, addrs, takens) -> None:
        self.batches.append((array("I", pcs), array("q", addrs), array("b", takens)))


@contextmanager
def _level(level: int):
    saved = trace_io.GZIP_LEVEL
    trace_io.GZIP_LEVEL = level
    try:
        yield
    finally:
        trace_io.GZIP_LEVEL = saved


def _encode_seconds(program, batches, path: str) -> float:
    """Seconds spent inside the writer, fed lists as the VM feeds them."""
    spent = 0.0
    writer = trace_io.TraceWriter(path, program)
    for pcs, addrs, takens in batches:
        columns = (pcs.tolist(), addrs.tolist(), takens.tolist())
        started = time.perf_counter()
        writer.write(*columns)
        spent += time.perf_counter() - started
    started = time.perf_counter()
    writer.close()
    return spent + time.perf_counter() - started


def _decode_seconds(program, path: str) -> float:
    started = time.perf_counter()
    for _ in trace_io.TraceReader(path, program).chunks():
        pass
    return time.perf_counter() - started


def sweep(max_steps: int, repeats: int) -> dict:
    """``{benchmark: {"records": n, level: (bytes, encode_s, decode_s)}}``."""
    results: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.rtrc.gz")
        for name, scale in INPUTS:
            program = SUITE[name].compile(scale)
            recorder = _Recorder()
            run = FastVM(program).run(max_steps=max_steps, sink=recorder)
            rows = results[name] = {"records": run.steps}
            best = {level: (float("inf"), float("inf")) for level in LEVELS}
            # Rounds visit every level in turn, so a slow spell of the
            # host costs each level one sample rather than one level all.
            for _ in range(repeats):
                for level in LEVELS:
                    with _level(level):
                        encode = _encode_seconds(program, recorder.batches, path)
                    decode = _decode_seconds(program, path)
                    size = os.path.getsize(path)
                    best[level] = (
                        min(best[level][0], encode),
                        min(best[level][1], decode),
                    )
                    rows[level] = (size, *best[level])
    return results


def choose(results: dict) -> int:
    """The level the module docstring's rule picks."""

    def within_bound(level: int) -> bool:
        return all(
            rows[level][0] <= MAX_BYTES_RATIO * rows[9][0] for rows in results.values()
        )

    def seconds(level: int) -> float:
        return sum(rows[level][1] + rows[level][2] for rows in results.values())

    return min(filter(within_bound, LEVELS), key=seconds)


def render(results: dict, max_steps: int, repeats: int) -> str:
    lines = [
        f"gzip level sweep: {max_steps} steps, best of {repeats}",
        "",
        "| level | benchmark | B/record | x level 9 | encode s | decode s |",
        "|---|---|---|---|---|---|",
    ]
    for level in LEVELS:
        for name, rows in results.items():
            size, encode, decode = rows[level]
            lines.append(
                f"| {level} | {name} | {size / rows['records']:.3f} "
                f"| {size / rows[9][0]:.2f} | {encode:.2f} | {decode:.2f} |"
            )
    lines += ["", f"chosen level: {choose(results)}"]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gzip_sweep",
        description="Measure trace bytes and encode/decode seconds per gzip level.",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=4_000_000,
        help="trace budget per input (default 4000000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per cell; the best is kept (default 3)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    print(render(sweep(args.max_steps, args.repeats), args.max_steps, args.repeats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
