"""The static engine's whole-program report (``repro-lint --report``).

For each program the report lists, per function: block/instruction
counts, the deepest intra-block counted dependence chain (the static
critical path), the resulting balance (counted work per critical-path
cycle), and the branch- and memory-class histograms.  The program
summary states the guaranteed-region critical path and the static
parallelism bound the differential gate enforces (``STA412``).

The text is a pure function of the program: byte-identical across
repeated runs (tested).
"""

from __future__ import annotations

from repro.analysis.static import StaticAnalysis
from repro.analysis.static.branches import BranchClass
from repro.analysis.static.memdep import MemClass

_BRANCH_GROUPS = {
    BranchClass.CONST_TAKEN: "const",
    BranchClass.CONST_NOT_TAKEN: "const",
    BranchClass.UNREACHABLE: "const",
    BranchClass.LOOP_BACK: "loop",
    BranchClass.LOOP_EXIT: "loop",
    BranchClass.DATA: "data",
}


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]

    def fmt(cells: list[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(cells)
        ).rstrip()

    return [fmt(header), fmt(["-" * w for w in widths]), *map(fmt, rows)]


def render_report(facts: StaticAnalysis) -> str:
    """The full static report for one program, as deterministic text."""
    program = facts.program
    graph = facts.graph

    branch_hist: dict[str, dict[str, int]] = {}
    for info in facts.branches:
        hist = branch_hist.setdefault(info.function, {})
        group = _BRANCH_GROUPS[info.branch_class]
        hist[group] = hist.get(group, 0) + 1
    mem_hist: dict[str, dict[MemClass, int]] = {}
    for ref in facts.memory:
        hist = mem_hist.setdefault(ref.function, {})
        hist[ref.mem_class] = hist.get(ref.mem_class, 0) + 1

    rows = []
    for idx, func_ilp in enumerate(facts.ilp.functions):
        name = func_ilp.name
        branches = branch_hist.get(name, {})
        memory = mem_hist.get(name, {})
        rows.append(
            [
                name if idx in graph.reachable else f"{name} (unreachable)",
                str(func_ilp.n_blocks),
                str(func_ilp.n_counted),
                str(func_ilp.critical_path),
                f"{func_ilp.balance:.2f}",
                str(branches.get("const", 0)),
                str(branches.get("loop", 0)),
                str(branches.get("data", 0)),
                str(memory.get(MemClass.STACK, 0)),
                str(memory.get(MemClass.GLOBAL, 0)),
                str(memory.get(MemClass.UNKNOWN, 0)),
            ]
        )
    header = [
        "function", "blocks", "counted", "critpath", "balance",
        "br:const", "br:loop", "br:data",
        "mem:stack", "mem:global", "mem:unknown",
    ]

    const_branches = sum(
        1
        for info in facts.branches
        if info.branch_class
        in (BranchClass.CONST_TAKEN, BranchClass.CONST_NOT_TAKEN)
    )
    lines = [
        f"static analysis: {program.name} "
        f"({len(program.instructions)} instructions, "
        f"{len(graph.cfgs)} functions)",
        "",
        *_table(rows, header),
        "",
        f"reachable functions:      {len(graph.reachable)}"
        f"/{len(graph.cfgs)}"
        + (" (indirect calls: conservative)" if graph.conservative else ""),
        f"recursive functions:      {len(graph.recursive)}",
        f"const-decided branches:   {const_branches}",
        f"provably dead stores:     {len(facts.dead_stores)}",
        f"counted static instrs:    {facts.ilp.total_counted}",
        f"guaranteed critical path: {facts.ilp.guaranteed_cp}",
        "static bound:             parallelism <= counted_dynamic / "
        f"{facts.ilp.guaranteed_cp}",
    ]
    return "\n".join(lines)
