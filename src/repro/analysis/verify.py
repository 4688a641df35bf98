"""Object-code verifier (``OBJ2xx`` diagnostics) over assembled programs.

The checks mirror the invariants the limit analyzer silently relies on:

* every direct control transfer lands on a basic-block leader of its own
  function (``OBJ201``) and stays inside that function (``OBJ202``) — the
  CFG builder makes every in-function target a leader, so ``OBJ201`` in
  practice catches transfers into another function's interior;
* control cannot fall off the end of a function (``OBJ203``): the last
  instruction must be a return, jump, or halt;
* every block is reachable from the function entry (``OBJ204``, warning);
* declared jump-table targets lie inside the function that dispatches
  through them (``OBJ205``);
* no register is live into a declared function's entry beyond the ABI set
  — arguments, saved registers, and the fixed ``$zero/$at/$gp/$sp/$fp/$ra``
  (``OBJ206``, warning, via :func:`~repro.analysis.dataflow.live_registers`);
* every ``jal`` target is a function entry point (``OBJ207``).

Synthetic ``__anon*`` functions (hand-written code outside ``.func``
regions) are exempt from the register live-in check: they follow no
calling convention.
"""

from __future__ import annotations

from repro.analysis.cfg import (
    EXIT_BLOCK,
    FunctionCFG,
    _computed_jump_targets,
    build_cfgs,
)
from repro.analysis.dataflow import live_registers
from repro.diagnostics import Diagnostic, Severity
from repro.isa import OpKind, Program, registers

#: Registers a function may legitimately read without writing first:
#: fixed-role registers plus everything the o32 convention passes in.
ABI_LIVE_IN: frozenset[int] = frozenset(
    {
        registers.ZERO,
        registers.AT,
        registers.GP,
        registers.SP,
        registers.FP,
        registers.RA,
    }
    | set(registers.INT_ARG_REGS)
    | set(registers.FP_ARG_REGS)
    | set(registers.INT_SAVED_REGS)
    | set(registers.FP_SAVED_REGS)
)

#: Opcode kinds that legitimately terminate a function's last block.
#: A conditional branch does not qualify: its fall-through path would
#: leave the function.
_TERMINAL_KINDS = frozenset({OpKind.JR, OpKind.JUMP, OpKind.HALT})


def _reachable_blocks(cfg: FunctionCFG) -> set[int]:
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.blocks[stack.pop()].succs:
            if succ != EXIT_BLOCK and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def verify_program(program: Program, name: str | None = None) -> list[Diagnostic]:
    """Run every object-code check over *program*; returns diagnostics."""
    source = name if name is not None else program.name
    cfgs = build_cfgs(program)
    leaders: set[int] = {b.start for cfg in cfgs for b in cfg.blocks}
    entries: set[int] = {cfg.function.start for cfg in cfgs}
    diagnostics: list[Diagnostic] = []

    def report(code: str, severity: Severity, message: str, pc: int | None,
               function: str | None) -> None:
        diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                source=source,
                pc=pc,
                function=function,
            )
        )

    for cfg in cfgs:
        func = cfg.function
        _check_transfers(program, cfg, leaders, entries, report)
        _check_function_end(program, cfg, report)
        _check_jump_tables(program, cfg, report)

        unreachable = sorted(
            set(range(len(cfg.blocks))) - _reachable_blocks(cfg)
        )
        for block_id in unreachable:
            block = cfg.blocks[block_id]
            report(
                "OBJ204",
                Severity.WARNING,
                f"basic block at pc {block.start} is unreachable from the "
                f"entry of {func.name}",
                block.start,
                func.name,
            )

        if not func.name.startswith("__anon"):
            _check_live_in(program, cfg, report)

    return diagnostics


def _check_transfers(program, cfg, leaders, entries, report) -> None:
    func = cfg.function
    for block in cfg.blocks:
        for pc in range(block.start, block.end):
            instr = program.instructions[pc]
            target = instr.target
            if target is None:
                continue
            if instr.is_call:
                if instr.kind is OpKind.CALL and target not in entries:
                    report(
                        "OBJ207",
                        Severity.ERROR,
                        f"jal target pc {target} is not a function entry",
                        pc,
                        func.name,
                    )
                continue
            if instr.kind not in (OpKind.BRANCH, OpKind.JUMP):
                continue
            if not (func.start <= target < func.end):
                report(
                    "OBJ202",
                    Severity.ERROR,
                    f"{instr.render()} at pc {pc} transfers control outside "
                    f"function {func.name}",
                    pc,
                    func.name,
                )
                if target not in leaders:
                    report(
                        "OBJ201",
                        Severity.ERROR,
                        f"transfer target pc {target} is not a basic-block "
                        "leader",
                        pc,
                        func.name,
                    )
            # In-function targets are leaders by CFG construction.


def _check_function_end(program, cfg, report) -> None:
    func = cfg.function
    last = program.instructions[func.end - 1]
    if last.kind not in _TERMINAL_KINDS:
        report(
            "OBJ203",
            Severity.ERROR,
            f"control can fall through the end of {func.name} "
            f"(last instruction: {last.render()})",
            func.end - 1,
            func.name,
        )


def _check_jump_tables(program, cfg, report) -> None:
    func = cfg.function
    for block in cfg.blocks:
        pc = block.terminator_pc
        instr = program.instructions[pc]
        if not instr.is_computed_jump:
            continue
        for target in _computed_jump_targets(program, pc):
            if not (func.start <= target < func.end):
                report(
                    "OBJ205",
                    Severity.ERROR,
                    f"jump-table target pc {target} lies outside the "
                    f"dispatching function {func.name}",
                    pc,
                    func.name,
                )


def _check_live_in(program, cfg, report) -> None:
    """Registers live into a declared function's entry beyond the ABI set
    are reads that no caller is obliged to have initialized."""
    func = cfg.function
    solved = live_registers(
        program,
        cfg,
        call_defines=frozenset({registers.V0, registers.V1, registers.F0}),
        ignore_save_reads=True,
    )
    suspicious = sorted(set(solved.block_in[cfg.entry]) - ABI_LIVE_IN)
    for reg in suspicious:
        report(
            "OBJ206",
            Severity.WARNING,
            f"register {registers.reg_name(reg)} may be read in "
            f"{func.name} before it is written",
            func.start,
            func.name,
        )
