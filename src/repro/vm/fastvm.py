"""The specialized (generated-dispatch) tracing VM.

:class:`FastVM` executes the same programs as :class:`~repro.vm.machine.VM`
— the repo's pixie equivalent — but replaces the interpreter's giant
``if/elif`` opcode dispatch with *per-program generated code*, the same
technique the fused analyzer uses for its per-block handlers
(:func:`repro.core.analyzer._emit_handler`).  Handlers are generated and
compiled per pc on the first dispatch of that pc, and cached per program:

* a **block handler** at each basic-block leader, covering the whole
  straight-line run up to and including its terminating control transfer.
  Every operand — register indices, immediates, branch targets, the pcs
  recorded in the trace — is folded into the source as a literal, so the
  hot path does no ``instr.rs`` attribute walks, no opcode comparisons,
  and pays the dispatch cost (one list index + call) once per *block*
  rather than once per instruction.  It records its block with one
  ``extend`` per trace column;
* a **single-instruction handler** at a non-leader pc, made only when a
  computed jump (or a manually set ``pc``) lands there mid-block; it steps
  until the next leader realigns with block dispatch.

Code a run never reaches is never compiled.

Each handler returns the next pc.  The run loop indexes the handler
table while the budget allows and the pc stays in code; everything else
— the return-to-sentinel halt, out-of-range computed jumps, and the
budget tail shorter than the longest block — is delegated to the legacy
interpreter (sharing registers, memory, and output in place), which
keeps the two VMs *exactly* equivalent at every edge: the differential
suite asserts byte-identical traces, branch profiles, outputs, exit
values, steps, and ``halted`` flags on every benchmark.

Streaming: pass ``sink=`` (a :class:`~repro.vm.trace_io.TraceWriter` or
anything with a ``write(pcs, addrs, takens)`` method) and the trace is
flushed chunk-by-chunk instead of accumulating in memory — the producer
side of the bounded-memory RTRC v2 pipeline.  See ``docs/vm.md``.
"""

from __future__ import annotations

import time
import weakref
from functools import partial
from typing import Sequence

from repro import telemetry
from repro.isa import registers
from repro.isa.opcodes import Opcode
from repro.isa.program import GLOBALS_BASE, STACK_TOP, Program
from repro.vm.machine import RETURN_SENTINEL, VM, RunResult, VMError
from repro.vm.trace import Trace
from repro.vm.trace_io import DEFAULT_CHUNK_RECORDS


class _Halt(Exception):
    """Internal control-flow signal raised by generated HALT handlers."""


_HALT_SIGNAL = _Halt()

#: Opcodes that terminate a basic block (control leaves the fall-through).
_TERMINALS = frozenset(
    (
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLEZ,
        Opcode.BGTZ,
        Opcode.BLTZ,
        Opcode.BGEZ,
        Opcode.J,
        Opcode.JAL,
        Opcode.JR,
        Opcode.JALR,
        Opcode.HALT,
    )
)

_BIN_OPS = {
    Opcode.ADD: "({rs} + {rt})",
    Opcode.SUB: "({rs} - {rt})",
    Opcode.MUL: "({rs} * {rt})",
    Opcode.AND: "({rs} & {rt})",
    Opcode.OR: "({rs} | {rt})",
    Opcode.XOR: "({rs} ^ {rt})",
    Opcode.NOR: "~({rs} | {rt})",
    Opcode.SLL: "({rs} << ({rt} & 31))",
    Opcode.SRL: "(({rs} & 4294967295) >> ({rt} & 31))",
    Opcode.SRA: "({rs} >> ({rt} & 31))",
}

_CMP_OPS = {
    Opcode.SLT: "<",
    Opcode.SLE: "<=",
    Opcode.SEQ: "==",
    Opcode.SNE: "!=",
    Opcode.SGT: ">",
    Opcode.SGE: ">=",
    Opcode.SLTI: "<",
    Opcode.SLEI: "<=",
    Opcode.SEQI: "==",
    Opcode.SNEI: "!=",
    Opcode.SGTI: ">",
    Opcode.SGEI: ">=",
}

_BRANCH_CONDS = {
    Opcode.BEQ: "regs[{rs}] == regs[{rt}]",
    Opcode.BNE: "regs[{rs}] != regs[{rt}]",
    Opcode.BLEZ: "regs[{rs}] <= 0",
    Opcode.BGTZ: "regs[{rs}] > 0",
    Opcode.BLTZ: "regs[{rs}] < 0",
    Opcode.BGEZ: "regs[{rs}] >= 0",
}


def _wrap(expr: str) -> str:
    """Branchless signed-32-bit wrap of *expr* (matches ``_wrap32``)."""
    return f"(({expr}) & 4294967295 ^ 2147483648) - 2147483648"


def _instr_lines(
    program: Program, pc: int, addr: str, record: list[str]
) -> list[str]:
    """Source lines executing the instruction at *pc* (operands folded).

    A memory access leaves its address in the local *addr*.  Terminal
    instructions end with ``return``/``raise``, preceded by the block's
    *record* lines (its trace columns); everything else falls through to
    the next emitted instruction.  Semantics mirror the legacy interpreter
    case for case — including the ``$zero`` write suppression, the
    operand-read-before-RA-write order of ``jalr``, the trap-free div/rem,
    and the U+FFFD substitution for surrogate PUTC code points.
    """
    instr = program.instructions[pc]
    op = instr.opcode
    n_next = pc + 1
    lines: list[str] = []
    emit = lines.append
    rs = instr.rs
    rt = instr.rt
    rd = instr.rd
    imm = instr.imm

    if op in _BIN_OPS:
        if rd:
            expr = _BIN_OPS[op].format(rs=f"regs[{rs}]", rt=f"regs[{rt}]")
            emit(f"regs[{rd}] = {_wrap(expr)}")
    elif op is Opcode.ADDI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] + {imm!r}')}")
    elif op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI):
        if rd:
            sym = {Opcode.ANDI: "&", Opcode.ORI: "|", Opcode.XORI: "^"}[op]
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] {sym} {imm!r}')}")
    elif op is Opcode.SLLI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] << {imm & 31}')}")
    elif op is Opcode.SRLI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'(regs[{rs}] & 4294967295) >> {imm & 31}')}")
    elif op is Opcode.SRAI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] >> {imm & 31}')}")
    elif op in _CMP_OPS and op.value.endswith("i"):
        if rd:
            emit(f"regs[{rd}] = 1 if regs[{rs}] {_CMP_OPS[op]} {imm!r} else 0")
    elif op in _CMP_OPS:
        if rd:
            emit(f"regs[{rd}] = 1 if regs[{rs}] {_CMP_OPS[op]} regs[{rt}] else 0")
    elif op is Opcode.DIV:
        if rd:
            emit(f"d = regs[{rt}]")
            emit("if d == 0:")
            emit(f"    regs[{rd}] = 0")
            emit("else:")
            emit(f"    q = abs(regs[{rs}]) // abs(d)")
            emit(f"    if (regs[{rs}] < 0) != (d < 0):")
            emit("        q = -q")
            emit(f"    regs[{rd}] = {_wrap('q')}")
    elif op is Opcode.REM:
        if rd:
            emit(f"d = regs[{rt}]")
            emit("if d == 0:")
            emit(f"    regs[{rd}] = regs[{rs}]")
            emit("else:")
            emit(f"    r = abs(regs[{rs}]) % abs(d)")
            emit(f"    regs[{rd}] = {_wrap(f'-r if regs[{rs}] < 0 else r')}")
    elif op is Opcode.LI:
        if rd:
            emit(f"regs[{rd}] = {imm!r}")
    elif op is Opcode.MOV:
        if rd:
            emit(f"regs[{rd}] = regs[{rs}]")
    elif op in (Opcode.MOVZ, Opcode.FMOVZ):
        if rd:
            emit(f"if regs[{rt}] == 0:")
            emit(f"    regs[{rd}] = regs[{rs}]")
    elif op in (Opcode.MOVN, Opcode.FMOVN):
        if rd:
            emit(f"if regs[{rt}] != 0:")
            emit(f"    regs[{rd}] = regs[{rs}]")
    elif op is Opcode.LW:
        emit(f"{addr} = regs[{rs}] + {imm!r}")
        emit(f"if {addr} < 0:")
        emit(f'    raise VMError(f"negative memory address {{{addr}}} at pc {pc}")')
        if rd:
            emit(f"regs[{rd}] = mg({addr}, 0)")
    elif op is Opcode.SW:
        emit(f"{addr} = regs[{rs}] + {imm!r}")
        emit(f"if {addr} < 0:")
        emit(f'    raise VMError(f"negative memory address {{{addr}}} at pc {pc}")')
        emit(f"memory[{addr}] = regs[{rt}]")
    elif op is Opcode.FLW:
        emit(f"{addr} = regs[{rs}] + {imm!r}")
        emit(f"if {addr} < 0:")
        emit(f'    raise VMError(f"negative memory address {{{addr}}} at pc {pc}")')
        emit(f"regs[{rd}] = float(mg({addr}, 0.0))")
    elif op is Opcode.FSW:
        emit(f"{addr} = regs[{rs}] + {imm!r}")
        emit(f"if {addr} < 0:")
        emit(f'    raise VMError(f"negative memory address {{{addr}}} at pc {pc}")')
        emit(f"memory[{addr}] = float(regs[{rt}])")
    elif op in _BRANCH_CONDS:
        cond = _BRANCH_CONDS[op].format(rs=rs, rt=rt)
        emit(f"t = 1 if {cond} else 0")
        emit(f"c = pg({pc})")
        emit("if c is None:")
        emit(f"    c = profile[{pc}] = [0, 0]")
        emit("c[t] += 1")
        lines += record
        emit(f"return {instr.target} if t else {n_next}")
    elif op is Opcode.J:
        lines += record
        emit(f"return {instr.target}")
    elif op is Opcode.JAL:
        emit(f"regs[{registers.RA}] = {n_next}")
        lines += record
        emit(f"return {instr.target}")
    elif op is Opcode.JR:
        lines += record
        emit(f"return regs[{rs}]")
    elif op is Opcode.JALR:
        emit(f"t = regs[{rs}]")
        emit(f"regs[{registers.RA}] = {n_next}")
        lines += record
        emit("return t")
    elif op is Opcode.FADD:
        emit(f"regs[{rd}] = regs[{rs}] + regs[{rt}]")
    elif op is Opcode.FSUB:
        emit(f"regs[{rd}] = regs[{rs}] - regs[{rt}]")
    elif op is Opcode.FMUL:
        emit(f"regs[{rd}] = regs[{rs}] * regs[{rt}]")
    elif op is Opcode.FDIV:
        emit(f"d = regs[{rt}]")
        emit(f"regs[{rd}] = regs[{rs}] / d if d != 0.0 else 0.0")
    elif op is Opcode.FNEG:
        emit(f"regs[{rd}] = -regs[{rs}]")
    elif op is Opcode.FABS:
        emit(f"regs[{rd}] = abs(regs[{rs}])")
    elif op is Opcode.FSQRT:
        emit(f"v = regs[{rs}]")
        emit(f"regs[{rd}] = v**0.5 if v >= 0.0 else 0.0")
    elif op is Opcode.FMOV:
        emit(f"regs[{rd}] = regs[{rs}]")
    elif op is Opcode.FLI:
        emit(f"regs[{rd}] = {float(imm)!r}")
    elif op is Opcode.CVTIF:
        emit(f"regs[{rd}] = float(regs[{rs}])")
    elif op is Opcode.CVTFI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'int(regs[{rs}])')}")
    elif op in (Opcode.FEQ, Opcode.FLT, Opcode.FLE):
        if rd:
            sym = {Opcode.FEQ: "==", Opcode.FLT: "<", Opcode.FLE: "<="}[op]
            emit(f"regs[{rd}] = 1 if regs[{rs}] {sym} regs[{rt}] else 0")
    elif op is Opcode.NOP:
        pass
    elif op is Opcode.HALT:
        lines += record
        emit(f"cell[0] = {pc}")
        emit("raise _HALT")
    elif op is Opcode.PRINT:
        emit(f"oa(regs[{rs}])")
    elif op is Opcode.FPRINT:
        emit(f"oa(float(regs[{rs}]))")
    elif op is Opcode.PUTC:
        # Same surrogate clamp as the legacy interpreter: lone surrogates
        # become U+FFFD so output_text always UTF-8-encodes.
        emit(f"v = regs[{rs}] & 1114111")
        emit('oa("\\ufffd" if 55296 <= v <= 57343 else chr(v))')
    else:  # pragma: no cover - every opcode is handled above
        raise VMError(f"unimplemented opcode {op}")
    return lines


def _leaders(program: Program) -> set[int]:
    n = len(program.instructions)
    leaders = {0, program.entry}
    for pc, instr in enumerate(program.instructions):
        if instr.target is not None:
            leaders.add(instr.target)
        if instr.opcode in _TERMINALS and pc + 1 < n:
            leaders.add(pc + 1)
    for targets in program.jump_tables.values():
        leaders.update(targets)
    return {pc for pc in leaders if 0 <= pc < n}


def basic_blocks(program: Program) -> dict[int, range]:
    """Each block leader's pcs: the straight-line run from the leader up
    to and including its terminating control transfer, or up to the next
    leader.  Shared with the fused analyzer, which generates one handler
    per block of the same partition."""
    n = len(program.instructions)
    leaders = _leaders(program)
    blocks: dict[int, range] = {}
    for leader in sorted(leaders):
        end = leader
        while (
            program.instructions[end].opcode not in _TERMINALS
            and end + 1 < n
            and end + 1 not in leaders
        ):
            end += 1
        blocks[leader] = range(leader, end + 1)
    return blocks


#: Opcodes whose trace record carries a memory address.
_MEMORY = frozenset((Opcode.LW, Opcode.SW, Opcode.FLW, Opcode.FSW))

#: The run state every handler factory binds, in its parameter order.
_STATE = (
    "regs", "memory", "profile", "sc", "cell", "mg", "pg", "oa", "ep", "ea", "et"
)

#: Globals of the generated handlers.
_HANDLER_GLOBALS = {"VMError": VMError, "_HALT": _HALT_SIGNAL}


def _tup(items: list[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _emit_handler(program: Program, span: Sequence[int], traced: bool) -> str:
    """Generate the factory source of the handler for the pcs in *span*.

    ``_bind(<the _STATE names>)`` binds one run's mutable state into the
    handler ``h<pc>`` and returns it.  The handler executes the whole
    span, a basic block or one instruction, and returns the next pc.  A
    traced handler records the span with one ``extend`` per trace column:
    its pcs are a constant, its addresses and taken flags a tuple of the
    span's locals and ``-1``s.
    """
    pcs = list(span)
    record: list[str] = []
    if traced:
        instructions = program.instructions
        addrs = [
            f"a{k}" if instructions[pc].opcode in _MEMORY else "-1"
            for k, pc in enumerate(pcs)
        ]
        takens = ["-1"] * len(pcs)
        if instructions[pcs[-1]].opcode in _BRANCH_CONDS:
            takens[-1] = "t"
        record = [
            f"ep({_tup([str(pc) for pc in pcs])})",
            f"ea({_tup(addrs)})",
            f"et({_tup(takens)})",
        ]
    out = [f"def _bind({', '.join(_STATE)}):", f"    def h{pcs[0]}():"]
    out.append(f"        sc[0] += {len(pcs)}")
    for k, pc in enumerate(pcs):
        lines = _instr_lines(program, pc, f"a{k}", record)
        out.extend(f"        {line}" for line in lines)
    if program.instructions[pcs[-1]].opcode not in _TERMINALS:
        out.extend(f"        {line}" for line in record)
        out.append(f"        return {pcs[-1] + 1}")
    out.append(f"    return h{pcs[0]}")
    out.append("")
    return "\n".join(out)


class _Decoded:
    """Per-program compiled handlers, shared across FastVM instances.

    A pc's handler factory is generated and compiled the first time a run
    dispatches that pc: a block handler at a leader, a one-instruction
    handler where a computed jump lands mid-block.  Code that never runs
    is never compiled.
    """

    __slots__ = ("program_ref", "blocks", "max_block", "_factories")

    def __init__(self, program: Program):
        self.program_ref = weakref.ref(program)
        self.blocks = basic_blocks(program)
        self.max_block = max(map(len, self.blocks.values()), default=1)
        self._factories: dict[bool, dict[int, object]] = {True: {}, False: {}}

    def span(self, pc: int) -> Sequence[int]:
        return self.blocks.get(pc, (pc,))

    def factory(self, traced: bool, pc: int):
        """The compiled handler factory for the span starting at *pc*."""
        factories = self._factories[traced]
        cached = factories.get(pc)
        if cached is None:
            program = self.program_ref()
            source = _emit_handler(program, self.span(pc), traced)
            variant = "traced" if traced else "untraced"
            namespace: dict[str, object] = {}
            exec(
                compile(source, f"<fastvm {program.name} {variant} {pc}>", "exec"),
                _HANDLER_GLOBALS,
                namespace,
            )
            cached = factories[pc] = namespace["_bind"]
            if telemetry.enabled():
                telemetry.METRICS.counter(
                    "repro_vm_blocks_compiled_total"
                ).inc(program=program.name)
        return cached

    def source(self, traced: bool) -> str:
        """Every pc's handler factory, in pc order."""
        program = self.program_ref()
        return "\n".join(
            _emit_handler(program, self.span(pc), traced)
            for pc in range(len(program.instructions))
        )


_DECODE_CACHE: dict[int, tuple[weakref.ref, _Decoded]] = {}


def _decode(program: Program) -> _Decoded:
    entry = _DECODE_CACHE.get(id(program))
    if entry is not None and entry[0]() is program:
        return entry[1]
    # Reap entries whose program has been collected (ids can be reused).
    dead = [key for key, (ref, _) in _DECODE_CACHE.items() if ref() is None]
    for key in dead:
        del _DECODE_CACHE[key]
    decoded = _Decoded(program)
    _DECODE_CACHE[id(program)] = (weakref.ref(program), decoded)
    return decoded


def fastvm_source(program: Program, traced: bool = True) -> str:
    """The generated handler-factory source for *program* (debug/teaching)."""
    return _decode(program).source(traced)


class FastVM:
    """A resettable specialized VM for one program (see module docstring).

    Drop-in equivalent of :class:`~repro.vm.machine.VM`: same ``reset``
    contract, same :class:`RunResult`, same exceptions.  ``run`` adds a
    ``sink=`` mode that streams trace chunks to a writer instead of
    building an in-memory :class:`Trace`.
    """

    def __init__(self, program: Program):
        self.program = program
        self._decoded = _decode(program)
        self.reset()

    def reset(self) -> None:
        self.regs: list[int | float] = [0] * registers.NUM_REGS
        for fp_reg in range(registers.FP_BASE, registers.NUM_REGS):
            self.regs[fp_reg] = 0.0
        self.regs[registers.SP] = STACK_TOP
        self.regs[registers.GP] = GLOBALS_BASE
        self.regs[registers.RA] = RETURN_SENTINEL
        self.memory: dict[int, int | float] = dict(self.program.data)
        self.pc = self.program.entry
        self.output: list[int | float | str] = []

    def run(
        self,
        max_steps: int = 1_000_000,
        trace: bool = True,
        sink=None,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> RunResult:
        """Execute until ``halt``/final return or until *max_steps* retire.

        With ``sink`` set (streaming mode), trace chunks are flushed to
        ``sink.write(pcs, addrs, takens)`` whenever ``chunk_records``
        records accumulate, and the returned :class:`RunResult` carries an
        *empty* trace — the records live wherever the sink put them.  With
        ``trace=False`` only the branch profile and architectural state
        are produced (used for profiling runs that need no trace).
        """
        if sink is not None and not trace:
            raise ValueError("streaming (sink=) requires trace=True")
        program = self.program
        n_code = len(program.instructions)
        cpcs: list[int] = []
        caddrs: list[int] = []
        ctakens: list[int] = []
        profile: dict[int, list[int]] = {}
        sc = [0]
        cell = [0]
        decoded = self._decoded
        state = (
            self.regs,
            self.memory,
            profile,
            sc,
            cell,
            self.memory.get,
            profile.get,
            self.output.append,
            cpcs.extend,
            caddrs.extend,
            ctakens.extend,
        )

        # handlers[pc] starts as a stub that binds the pc's handler to this
        # run's state on its first dispatch.
        def miss(pc: int) -> int:
            handler = handlers[pc] = decoded.factory(trace, pc)(*state)
            return handler()

        handlers = [partial(miss, pc) for pc in range(n_code)]
        pc = self.pc
        halted = False
        tele_on = telemetry.enabled()
        run_started = time.perf_counter() if tele_on else 0.0

        safe = max_steps - decoded.max_block
        try:
            if sink is None:
                while sc[0] < safe and 0 <= pc < n_code:
                    pc = handlers[pc]()
            else:
                while sc[0] < safe and 0 <= pc < n_code:
                    pc = handlers[pc]()
                    if len(cpcs) >= chunk_records:
                        sink.write(cpcs, caddrs, ctakens)
                        del cpcs[:]
                        del caddrs[:]
                        del ctakens[:]
        except _Halt:
            halted = True
            pc = cell[0]
        else:
            remaining = max_steps - sc[0]
            if remaining > 0:
                # Budget tail, sentinel return, or an out-of-range computed
                # jump: the legacy interpreter finishes the run over the
                # same architectural state, reproducing its exact edge
                # semantics (halt flags, VMError messages) step for step.
                if tele_on:
                    telemetry.METRICS.counter(
                        "repro_vm_legacy_tail_total"
                    ).inc(program=program.name)
                tail_steps, halted, pc = self._run_tail(
                    pc, remaining, trace, profile, cpcs, caddrs, ctakens
                )
                sc[0] += tail_steps
        finally:
            handlers.clear()  # the stubs close over the list
        self.pc = pc
        steps = sc[0]

        if sink is not None:
            if cpcs:
                sink.write(cpcs, caddrs, ctakens)
            trace_obj = Trace(program)
        elif trace:
            trace_obj = Trace(program, cpcs, caddrs, ctakens)
        else:
            trace_obj = Trace(program)

        if tele_on:
            elapsed = time.perf_counter() - run_started
            if elapsed > 0:
                telemetry.METRICS.gauge(
                    "repro_vm_instructions_per_second"
                ).set(steps / elapsed, program=program.name)
            telemetry.record_span(
                "vm.run",
                elapsed,
                program=program.name,
                steps=steps,
                halted=halted,
                engine="fast",
            )
        return RunResult(
            trace=trace_obj,
            steps=steps,
            halted=halted,
            exit_value=self.regs[registers.V0],
            output=self.output,
            branch_profile=profile,
        )

    def _run_tail(
        self,
        pc: int,
        remaining: int,
        traced: bool,
        profile: dict[int, list[int]],
        cpcs: list[int],
        caddrs: list[int],
        ctakens: list[int],
    ) -> tuple[int, bool, int]:
        """Finish a run with the legacy interpreter over shared state."""
        vm = VM.__new__(VM)
        vm.program = self.program
        vm.regs = self.regs
        vm.memory = self.memory
        vm.output = self.output
        vm.pc = pc
        result = vm.run(max_steps=remaining, trace=traced)
        for branch_pc, counts in result.branch_profile.items():
            own = profile.get(branch_pc)
            if own is None:
                profile[branch_pc] = counts
            else:
                own[0] += counts[0]
                own[1] += counts[1]
        if traced:
            tail = result.trace
            cpcs.extend(tail.pcs)
            caddrs.extend(tail.addrs)
            ctakens.extend(tail.takens)
        return result.steps, result.halted, vm.pc


def run_program_fast(program: Program, max_steps: int = 1_000_000) -> RunResult:
    """Convenience wrapper: fresh FastVM, one traced run."""
    return FastVM(program).run(max_steps=max_steps)
