"""Dynamic instruction-mix characterization of the benchmark suite.

Not a table in the paper, but the standard workload-characterization
companion: per benchmark, the percentage of dynamic instructions in each
class.  Useful for sanity-checking that the analogues have benchmark-like
instruction profiles (non-numeric C code: ~20-30% memory, ~15-20% branch;
numeric FORTRAN: heavy FP + memory, sparse branches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench import SUITE
from repro.experiments.runner import SuiteRunner, TextTable
from repro.isa import OpKind
from repro.vm import iter_trace_chunks

#: Reported classes, in column order.
CLASSES = ("alu", "fpu", "load", "store", "branch", "jump", "call/ret", "other")


def _classify(kind: OpKind, is_return: bool) -> str:
    if kind is OpKind.ALU:
        return "alu"
    if kind is OpKind.FPU:
        return "fpu"
    if kind is OpKind.LOAD:
        return "load"
    if kind is OpKind.STORE:
        return "store"
    if kind is OpKind.BRANCH:
        return "branch"
    if kind is OpKind.JUMP:
        return "jump"
    if kind in (OpKind.CALL, OpKind.JALR) or is_return:
        return "call/ret"
    if kind is OpKind.JR:  # computed jump
        return "jump"
    return "other"


@dataclass
class InstructionMix:
    rows: dict[str, dict[str, float]]  # program -> class -> percent

    def render(self) -> str:
        table = TextTable(
            headers=["Program"] + [f"{c}%" for c in CLASSES],
            title="Dynamic instruction mix",
        )
        for name, mix in self.rows.items():
            table.add(name, *[mix[c] for c in CLASSES])
        return table.render()


def requirements(config) -> list:
    """Farm requests: a trace for every benchmark."""
    from repro.jobs import TraceRequest

    return [TraceRequest(name) for name in SUITE]


def run(runner: SuiteRunner) -> InstructionMix:
    rows: dict[str, dict[str, float]] = {}
    for name in SUITE:
        bench_run = runner.run(name)
        program = bench_run.program
        class_of_pc = [
            _classify(instr.kind, instr.is_return)
            for instr in program.instructions
        ]
        counts = {c: 0 for c in CLASSES}
        total = 0
        # Chunk-wise so cached traces stream from disk instead of
        # materializing (the mix is a pure per-record histogram).
        for pcs, _addrs, _takens in iter_trace_chunks(bench_run.trace_source()):
            total += len(pcs)
            for pc in pcs:
                counts[class_of_pc[pc]] += 1
        total = max(1, total)
        rows[name] = {c: 100.0 * counts[c] / total for c in CLASSES}
    return InstructionMix(rows)
