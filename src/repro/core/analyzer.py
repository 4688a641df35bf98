"""The trace-driven parallelism limit analyzer (paper §4.4).

For every instruction in a dynamic trace, the analyzer computes the earliest
cycle in which it could complete given

* **true data dependences** — a read waits for the immediately preceding
  write to the same register or memory word (anti- and output dependences
  are ignored; memory disambiguation is perfect because actual addresses
  come from the trace);
* the **control-flow constraint** of the machine model being simulated
  (see :mod:`repro.core.models`).

All instructions have unit latency (configurable for ablations), resources
are unbounded, and the scheduling window is the whole trace (also
configurable).  The resulting parallelism is the sequential execution time
over the completion time of the last instruction.

Program transformations (§4.2) are applied as trace filters:

* **perfect inlining** removes calls, returns, and stack-pointer
  manipulations;
* **perfect unrolling** removes loop-index increments, index comparisons,
  and the branches they feed (found by :mod:`repro.analysis.induction`).

Removed instructions contribute to neither the sequential nor the parallel
time and never constrain anything — with one refinement: a *removed branch*
still records a control-dependence instance whose time is the branch's own
inherited control constraint (not its execution time).  This keeps an
enclosing data-dependent branch constraining a counted loop's body even
after the loop's own overhead branch is unrolled away, while still exposing
full cross-iteration parallelism for top-level counted loops.

Interprocedural control dependence follows §4.4.1 exactly: basic-block
instances are numbered sequentially; each static branch remembers the
sequence number, constraint time, and owning procedure invocation of its
most recent instance; a stack of active procedures carries the control
dependence inherited from each call site; and recursion falls back to "no
constraint" (an upper bound), detected when a reverse-dominance-frontier
branch last executed in a *later* procedure invocation than the current one.

Execution engines
-----------------

Every table and figure evaluates the same trace under up to seven machine
models, so :meth:`LimitAnalyzer.analyze` ships two engines:

* the **fused engine** (the default) makes *one* sweep over the trace and
  updates the dynamic state of every requested model simultaneously.  It
  cuts the trace into the basic blocks FastVM executes and runs one
  generated handler per block (:func:`_emit_handler`), compiled per
  request shape on the block's first execution: the block's operands,
  removed instructions, latencies, control-dependence ancestors and — for
  a profile predictor — its branch's predicted direction are literals,
  in-block register values stay in per-model locals, and the §4.4.1
  ancestor scan runs once per block.  The scan's winner depends only on
  sequence and invocation numbers, never on a model's clock, so it is
  selected once and each control-dependence model reads its own recorded
  time for it.  A block the trace cuts short (at its end, or entered
  mid-block by a computed jump) runs through handlers for just the pcs it
  executed, from the same generator; ``fused_kernel_source()`` shows the
  generated handlers;
* the **legacy engine** (``engine="legacy"``) is the original
  one-sweep-per-model path, kept verbatim as a differential-testing oracle.
  The two engines must produce byte-identical results; the differential
  suite and ``bench/analyzer_bench.py`` verify this on every benchmark.
"""

from __future__ import annotations

import builtins
import gc
import re
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from types import CellType, CodeType, FunctionType
from typing import NamedTuple, Sequence

from repro import telemetry
from repro.analysis.summary import ProgramAnalysis, analyze_program, ignored_pcs
from repro.core.models import ALL_MODELS, MachineModel
from repro.core.results import ENGINES, AnalysisResult, ModelResult
from repro.core.stats import MispredictionStats
from repro.isa import OpKind, Program, registers
from repro.prediction.base import (
    BranchPredictor,
    chunk_misprediction_flags,
    misprediction_flags,
)
from repro.prediction.profile import ProfilePredictor
from repro.vm.fastvm import basic_blocks
from repro.vm.trace import Trace
from repro.vm.trace_io import TraceReader, iter_trace_chunks, trace_source_program


@dataclass(frozen=True)
class _StaticTables:
    """Per-pc static facts for one (inlining, unrolling, latencies) shape.

    ``ops`` is what the fused engine's handler generator folds into its
    block handlers, with reads of registers no counted instruction writes
    left out; the tuple views are what the legacy oracle reads.
    """

    ops: tuple[_Op, ...]
    # tuple views (legacy engine, preserved as the differential oracle)
    reads: tuple[tuple[int, ...], ...]
    writes: tuple[tuple[int, ...], ...]
    is_load: tuple[bool, ...]
    is_store: tuple[bool, ...]
    is_branchlike: tuple[bool, ...]  # conditional branch or computed jump
    is_call: tuple[bool, ...]
    is_return: tuple[bool, ...]
    is_leader: tuple[bool, ...]
    cd_pcs: tuple[tuple[int, ...], ...]
    ignored: tuple[bool, ...]
    latency: tuple[int, ...]


def _build_tables(
    analysis: ProgramAnalysis,
    perfect_inlining: bool,
    perfect_unrolling: bool,
    latencies: dict[OpKind, int] | None,
) -> _StaticTables:
    program = analysis.program
    removed = ignored_pcs(analysis, perfect_inlining, perfect_unrolling)
    # A register no counted instruction writes holds cycle 0 for the whole
    # sweep (removed ones write nothing), below every other source, so
    # the handlers need not read it: under perfect inlining that is the
    # stack pointer every stack access reads.
    written = {
        reg
        for pc, instr in enumerate(program.instructions)
        if pc not in removed
        for reg in instr.writes
    }
    reads: list[tuple[int, ...]] = []
    writes: list[tuple[int, ...]] = []
    is_load: list[bool] = []
    is_store: list[bool] = []
    is_branchlike: list[bool] = []
    is_call: list[bool] = []
    is_return: list[bool] = []
    is_leader: list[bool] = []
    ignored: list[bool] = []
    latency: list[int] = []
    ops: list[_Op] = []
    for pc, instr in enumerate(program.instructions):
        reads.append(tuple(r for r in instr.reads if r != registers.ZERO))
        writes.append(tuple(r for r in instr.writes if r != registers.ZERO))
        is_load.append(instr.is_load)
        is_store.append(instr.is_store)
        is_branchlike.append(instr.is_cond_branch or instr.is_computed_jump)
        is_call.append(instr.is_call)
        is_return.append(instr.is_return)
        is_leader.append(analysis.is_block_leader(pc))
        ignored.append(pc in removed)
        latency.append(latencies.get(instr.kind, 1) if latencies else 1)
        counted_reads = reads[pc]
        if not written.issuperset(counted_reads):
            counted_reads = tuple(r for r in counted_reads if r in written)
        if instr.is_cond_branch:
            kind = _BRANCH
        elif instr.is_computed_jump:
            kind = _CJUMP
        elif instr.is_call:
            kind = _CALL
        elif instr.is_return:
            kind = _RETURN
        else:
            kind = _PLAIN
        ops.append(
            _Op(
                pc=pc,
                leader=is_leader[pc],
                ignored=ignored[pc],
                kind=kind,
                reads=counted_reads,
                writes=writes[pc],
                load=instr.is_load,
                store=instr.is_store,
                lat=latency[pc],
                cd=analysis.cd_of_pc[pc],
            )
        )

    return _StaticTables(
        ops=tuple(ops),
        reads=tuple(reads),
        writes=tuple(writes),
        is_load=tuple(is_load),
        is_store=tuple(is_store),
        is_branchlike=tuple(is_branchlike),
        is_call=tuple(is_call),
        is_return=tuple(is_return),
        is_leader=tuple(is_leader),
        cd_pcs=analysis.cd_of_pc,
        ignored=tuple(ignored),
        latency=tuple(latency),
    )


class LimitAnalyzer:
    """Reusable analyzer for one program: run many traces/models/options.

    The static analysis (CFG, control dependence, loop overhead) is computed
    once per program; each :meth:`analyze` call replays a trace under the
    requested machine models.
    """

    def __init__(
        self,
        program: Program,
        analysis: ProgramAnalysis | None = None,
    ):
        self.program = program
        self.analysis = analysis if analysis is not None else analyze_program(program)
        self._table_cache: dict[tuple, _StaticTables] = {}
        self._blocks: dict[int, range] | None = None
        self._handler_codes: dict[tuple, CodeType] = {}

    # ------------------------------------------------------------------

    def analyze(
        self,
        trace: Trace | TraceReader,
        models: Sequence[MachineModel] = ALL_MODELS,
        predictor: BranchPredictor | None = None,
        perfect_inlining: bool = True,
        perfect_unrolling: bool = True,
        collect_misprediction_stats: bool = False,
        window: int | None = None,
        latencies: dict[OpKind, int] | None = None,
        flow_limit: int | None = None,
        engine: str = "fused",
    ) -> AnalysisResult:
        """Compute the parallelism of *trace* for each requested model.

        ``predictor`` defaults to the paper's setup: a profile-based static
        predictor trained on this very trace.  ``window`` optionally limits
        the scheduling window to the last N counted instructions (ablation;
        the paper uses an unlimited window).  ``latencies`` optionally maps
        opcode kinds to latencies (ablation; the paper uses unit latency;
        latencies must be >= 1).

        ``flow_limit`` models a machine with *k* flows of control (the
        paper's §6 "small-scale multiprocessor"): at most k branches — for
        SP machines, k *mispredicted* branches — may execute per cycle.
        It interpolates between the single-flow machines (whose in-order
        constraint is slightly stricter than k=1) and the -MF machines
        (k=∞, the default).  Branches are placed greedily in trace order.
        The result's ``flow_peaks`` then holds, per model, the peak number
        of live entries in the per-cycle branch-retirement ledger — the
        quantity the flow-limit pruning (see :func:`_run_model`) keeps
        bounded.

        ``models`` must name at least one machine; repeated models are
        evaluated once (the result keeps the first occurrence's position).

        ``engine`` selects the fused single-pass engine (default) or the
        legacy one-sweep-per-model path kept as a differential-testing
        oracle; both produce byte-identical results.

        ``trace`` may be an in-memory :class:`Trace` or a streaming
        :class:`~repro.vm.trace_io.TraceReader`.  The fused engine
        consumes a reader chunk by chunk — a dynamic predictor's flags included —
        so memory stays bounded at any trace budget; the legacy oracle is
        a one-sweep-*per-model* path and materializes the reader first.
        """
        source = trace
        if trace_source_program(source) is not self.program:
            raise ValueError("trace was produced by a different program")
        if window is not None and window < 1:
            raise ValueError("window must be a positive instruction count")
        if flow_limit is not None and flow_limit < 1:
            raise ValueError("flow_limit must be a positive flow count")
        if latencies is not None and any(lat < 1 for lat in latencies.values()):
            raise ValueError("latencies must be positive cycle counts")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        models = _dedupe_models(models)

        streaming = isinstance(source, TraceReader)
        if streaming and engine == "legacy":
            source = source.to_trace()
            streaming = False

        key = (perfect_inlining, perfect_unrolling, _freeze_latencies(latencies))
        tables = self._table_cache.get(key)
        if tables is None:
            tables = _build_tables(
                self.analysis, perfect_inlining, perfect_unrolling, latencies
            )
            self._table_cache[key] = tables

        needs_prediction = any(model.uses_speculation for model in models)
        if needs_prediction and predictor is None:
            predictor = ProfilePredictor.from_source(source)
        mp_flags: list[bool] | None = None
        if needs_prediction and engine == "legacy":
            mp_flags = misprediction_flags(source, predictor)

        stats = (
            MispredictionStats()
            if collect_misprediction_stats and MachineModel.SP in models
            else None
        )
        known_records = source.total if streaming else len(source)
        result = AnalysisResult(
            program_name=self.program.name,
            trace_length=known_records or 0,
            engine=engine,
        )
        flow_peaks: dict[MachineModel, int] = {}

        tele_on = telemetry.enabled()
        sweep_started = time.perf_counter() if tele_on else 0.0
        with telemetry.span(
            "analyzer.analyze",
            program=self.program.name,
            engine=engine,
            models=[model.label for model in models],
            trace_records=known_records,
        ) as sp:
            if engine == "legacy":
                counted = 0
                seq_time = 0
                total = len(source)
                for model in models:
                    model_stats = stats if model is MachineModel.SP else None
                    with telemetry.span(
                        "analyzer.model",
                        program=self.program.name,
                        model=model.label,
                    ) as msp:
                        seq_time, parallel_time, counted, flow_peak = _run_model(
                            model, source, tables, mp_flags, window, model_stats,
                            flow_limit=flow_limit,
                        )
                        msp.set(cycles=parallel_time)
                    result.models[model] = ModelResult(
                        model=model,
                        sequential_time=seq_time,
                        parallel_time=parallel_time,
                    )
                    flow_peaks[model] = flow_peak
            else:
                # A profile predictor's test is folded into the branch
                # handlers; any other predictor supplies a flag column.
                static = needs_prediction and isinstance(predictor, ProfilePredictor)
                dynamic = predictor if needs_prediction and not static else None
                if self._blocks is None:
                    self._blocks = basic_blocks(self.program)
                counted, seq_time, total, makespans, peaks = _run_fused(
                    models,
                    _chunk_feed(source, dynamic, self.program),
                    tables,
                    self._blocks,
                    self._handler_codes,
                    window,
                    stats,
                    flow_limit,
                    predictor.lookup if static else None,
                )
                for model, makespan, peak in zip(models, makespans, peaks):
                    result.models[model] = ModelResult(
                        model=model, sequential_time=seq_time, parallel_time=makespan
                    )
                    flow_peaks[model] = peak

            result.trace_length = total
            result.counted_instructions = counted
            result.removed_instructions = total - counted
            if stats is not None:
                result.misprediction_stats = stats
            if flow_limit is not None:
                result.flow_peaks = flow_peaks
            if tele_on:
                elapsed = time.perf_counter() - sweep_started
                if elapsed > 0:
                    telemetry.METRICS.gauge(
                        "repro_analyzer_instructions_per_second"
                    ).set(
                        total / elapsed,
                        program=self.program.name,
                        engine=engine,
                    )
                sp.set(
                    counted=counted,
                    trace_records=total,
                    cycles={
                        model.label: model_result.parallel_time
                        for model, model_result in result.models.items()
                    },
                )
        return result

    def schedule(
        self,
        trace: Trace,
        model: MachineModel,
        predictor: BranchPredictor | None = None,
        perfect_inlining: bool = True,
        perfect_unrolling: bool = True,
    ) -> list[int | None]:
        """Per-trace-index completion cycles under *model* (debug/teaching).

        Removed instructions (perfect inlining/unrolling) get ``None``.
        Intended for small traces — e.g. printing a Figure 3-style schedule
        of the paper's worked example.  Uses the legacy single-model path;
        the completion cycles it reports are exactly the ones the fused
        engine aggregates (``max`` of the non-``None`` entries equals
        ``analyze(...)[model].parallel_time``; the schedule-consistency
        tests assert this).
        """
        key = (perfect_inlining, perfect_unrolling, None)
        tables = self._table_cache.get(key)
        if tables is None:
            tables = _build_tables(
                self.analysis, perfect_inlining, perfect_unrolling, None
            )
            self._table_cache[key] = tables
        mp_flags = None
        if model.uses_speculation:
            if predictor is None:
                predictor = ProfilePredictor.from_trace(trace)
            mp_flags = misprediction_flags(trace, predictor)
        out: list[int | None] = []
        _run_model(model, trace, tables, mp_flags, None, None, schedule=out)
        return out


def _dedupe_models(models: Sequence[MachineModel]) -> tuple[MachineModel, ...]:
    """Validate and deduplicate the requested model list, keeping order."""
    ordered: list[MachineModel] = []
    for model in models:
        if not isinstance(model, MachineModel):
            raise ValueError(f"not a machine model: {model!r}")
        if model not in ordered:
            ordered.append(model)
    if not ordered:
        raise ValueError("analyze() requires at least one machine model")
    return tuple(ordered)


def _freeze_latencies(latencies: dict[OpKind, int] | None):
    if latencies is None:
        return None
    return tuple(sorted((kind.value, lat) for kind, lat in latencies.items()))


def _as_list(column) -> list:
    """Hoist a trace column into a plain list for the legacy loop.

    ``array('q')`` is the storage format; CPython indexes lists faster
    (array indexing boxes a fresh int per access), so the column is
    converted once per sweep — one C-speed pass, amortized over the
    O(trace) Python-level loop.
    """
    if isinstance(column, list):
        return column
    return column.tolist() if hasattr(column, "tolist") else list(column)


# ======================================================================
# Fused engine: one sweep, all models, one generated handler per block
# ======================================================================
#
# The trace is cut into the basic blocks FastVM executes
# (:func:`repro.vm.fastvm.basic_blocks`): straight-line runs whose only
# control transfer is the last instruction.  For each request shape
# (model tuple plus the window, flow-limit, misprediction-stats and
# static-predictor switches) and each block, :func:`_emit_handler`
# generates one closure that applies the whole block to every model at
# once.  Everything static is folded in as a literal: the read and write
# registers, the memory and branch kinds, removed instructions, the
# latencies, the control-dependence ancestors and, for a profile
# predictor, the predicted direction of the block's branch.
#
# Model-independent work is done once per block, not once per record:
#
# * the §4.4.1 ancestor scan: the winner (most recent ancestor instance,
#   the caller's inherited constraint, or the recursion fallback) depends
#   on sequence and invocation numbers only, which change only at the
#   block's closing branch, call or return.  It runs once per block, and
#   again only where the control-dependence group changes inside it;
# * register values produced in the block stay in per-model locals, and
#   each register's last value is written back to ``rta`` once;
# * a value produced in the block already exceeds the control floor
#   (it was scheduled after it), and exceeds every value it was computed
#   from, so the generator drops every source another source dominates,
#   and updates the makespans only with values nothing later in the
#   block consumed.
#
# The driver dispatches ``i = handlers[pcs[i]](i)`` once per block.
# Blocks the trace cuts short take no second definition: a block cut by a
# chunk edge is completed from the next chunk's records and run whole; a
# budget that ends mid-block leaves a prefix, run by a handler generated
# for exactly those pcs; a computed jump into a block's interior runs
# one-pc handlers up to the next leader.  Handlers are compiled one
# block at a time, on the block's first execution (partial ones only
# when they occur), and their code objects are shared by every sweep of
# the analyzer whose block reads the same (see _handler_code).  Sweep
# state lives in cells the handlers close over; each sweep binds the
# code objects to its own cells.

_CD_MODELS = frozenset(
    (
        MachineModel.CD,
        MachineModel.CD_MF,
        MachineModel.SP_CD,
        MachineModel.SP_CD_MF,
    )
)

#: Models whose branch-ordering clock lb{m} takes every counted branch's
#: completion.  The clock only grows, so its final value is the latest
#: branch completion of all: the handlers leave branch completions out of
#: the makespan and the sweep folds the final clock in once.
_BRANCH_CLOCKED = frozenset((MachineModel.BASE, MachineModel.CD))

# Kinds of _Op: control transfers the models treat differently.
_PLAIN, _BRANCH, _CJUMP, _CALL, _RETURN = range(5)


class _Op(NamedTuple):
    """What the handler generator folds in for one pc."""

    pc: int
    leader: bool  # starts a CFG block: bumps the block sequence number
    ignored: bool  # removed by perfect inlining/unrolling
    kind: int  # _PLAIN, _BRANCH, _CJUMP (computed jump), _CALL or _RETURN
    reads: tuple[int, ...]
    writes: tuple[int, ...]
    load: bool
    store: bool
    lat: int
    cd: tuple[int, ...]  # control-dependence ancestors (branch pcs)


#: Scalars of the sweep state the handlers reassign (``nonlocal``).
_REBOUND = re.compile(r"seq|ri|seg_len|(?:mk|lb|lmp|pk)\d+")

_HANDLER_GLOBALS = {"__builtins__": builtins}


def _chunk_feed(source, predictor: BranchPredictor | None, program: Program):
    """Yield ``(pcs, addrs, takens, mp)`` column chunks for the fused sweep.

    ``mp`` holds a dynamic *predictor*'s misprediction flags, computed
    incrementally: the predictor is reset once, then trained across chunk
    boundaries in trace order, so the flags (and therefore every model's
    schedule) are identical to a whole-trace pass however the trace is
    framed.  Without a dynamic predictor ``mp`` is None: a profile
    predictor's test is folded into the branch handlers, which read
    ``takens`` directly.
    """
    if predictor is None:
        for pcs, addrs, takens in iter_trace_chunks(source):
            yield pcs, addrs, takens, None
        return
    predictor.reset()
    is_computed_jump = [instr.is_computed_jump for instr in program.instructions]
    for pcs, addrs, takens in iter_trace_chunks(source):
        flags = chunk_misprediction_flags(
            pcs, addrs, takens, predictor, is_computed_jump
        )
        yield pcs, addrs, takens, flags


def _initial_state(
    spec: tuple,
    window: int | None,
    flow_limit: int | None,
    stats: MispredictionStats | None,
) -> dict[str, object]:
    """The sweep's shared state, by the names the handlers use."""
    models, has_window, has_flow, has_stats, _ = spec
    zeros = (0,) * len(models)
    n_cd = sum(model in _CD_MODELS for model in models)
    mem: dict[int, tuple] = {}
    state: dict[str, object] = {
        "rta": [zeros] * registers.NUM_REGS,
        "mem": mem,
        "gm": mem.get,
        "addrs": None,
        "takens": None,
        "mp": None,
    }
    if n_cd:
        # bt: branch pc -> (block sequence, owning invocation, one
        # recorded time per CD model); stack entries: (block sequence at
        # the call, callee's start sequence, inherited time per CD model).
        bt: dict[int, tuple] = {}
        state.update(bt=bt, bt_get=bt.get, seq=0, stack=[(0, 0) + (0,) * n_cd])
    if has_window:
        state.update(rg=[zeros] * window, ri=0, window=window)
    if has_flow:
        state["flow_limit"] = flow_limit
    for m, model in enumerate(models):
        state[f"mk{m}"] = 0
        if model in (MachineModel.BASE, MachineModel.CD):
            state[f"lb{m}"] = 0
        if model in (MachineModel.SP, MachineModel.SP_CD):
            state[f"lmp{m}"] = 0
        if has_flow and _flow_limited(model):
            # cb: branch retirements per cycle; nf: each full cycle -> a
            # later cycle to probe next (a union-find "next free cycle").
            ledger: dict[int, int] = {}
            state.update(
                {f"cb{m}": ledger, f"cg{m}": ledger.get, f"nf{m}": {}, f"pk{m}": 0}
            )
    if has_stats:
        seg_cycles: set[int] = set()
        state.update(
            seg_len=0,
            seg_cycles=seg_cycles,
            scadd=seg_cycles.add,
            spadd=stats.add if stats is not None else None,
        )
    return state


@lru_cache(maxsize=64)
def _state_names(spec: tuple) -> tuple[str, ...]:
    """The names of the sweep state under *spec*, as the handlers use them."""
    return tuple(_initial_state(spec, 1, 1, None))


def _run_fused(
    models: tuple[MachineModel, ...],
    chunks,
    tables: _StaticTables,
    blocks: dict[int, range],
    codes: dict[tuple, CodeType],
    window: int | None,
    stats: MispredictionStats | None,
    flow_limit: int | None,
    predict=None,
) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """One fused sweep over *chunks* for every model in *models*.

    *chunks* is an iterable of ``(pcs, addrs, takens, mp)`` column chunks
    (see :func:`_chunk_feed`); the handlers keep every model's state in
    cells across chunk boundaries, so the sweep is identical to a
    whole-trace pass while holding one chunk in memory at a time.
    *predict* is a profile predictor's ``lookup``: its directions become
    literals in the branch handlers, and ``mp`` is not read.  *codes*
    caches the compiled handlers (see :func:`_handler_code`).

    Returns ``(counted, sequential_time, total_records, makespans,
    flow_peaks)`` with the per-model tuples in request order.
    """
    # The request shape; with a block's ops and predicted direction it
    # fixes the handler source.
    spec = (
        models,
        window is not None,
        flow_limit is not None,
        stats is not None,
        predict is not None,
    )
    cells = {
        name: CellType(value)
        for name, value in _initial_state(spec, window, flow_limit, stats).items()
    }
    ops = tables.ops
    n_pcs = len(ops)

    def bind(span) -> FunctionType:
        block = tuple(ops[pc] for pc in span)
        last = block[-1]
        pred = (
            int(predict(last.pc))
            if predict is not None and last.kind == _BRANCH
            else None
        )
        code = _handler_code(codes, spec, block, pred)
        closure = tuple(cells[name] for name in code.co_freevars)
        return FunctionType(code, _HANDLER_GLOBALS, code.co_name, None, closure)

    # handlers[pc] runs the whole block at a leader and one instruction
    # elsewhere (where a computed jump lands).  Each starts as a stub that
    # binds the handler on its first call.
    def miss(pc: int, i: int) -> int:
        handler = handlers[pc] = bind(blocks.get(pc, (pc,)))
        return handler(i)

    handlers = [partial(miss, pc) for pc in range(n_pcs)]
    blen = [len(blocks[pc]) if pc in blocks else 1 for pc in range(n_pcs)]
    longest = max(blen, default=1)

    # Counted-instruction and sequential-time totals are per-pc sums over
    # the trace: fold them at C speed per chunk.
    ignx = [1 if ignored else 0 for ignored in tables.ignored]
    latx = (
        None
        if all(lat == 1 for lat in tables.latency)
        else [0 if op.ignored else op.lat for op in ops]
    )
    columns = (cells["addrs"], cells["takens"], cells["mp"])
    counted = total = seq_time = 0
    held = None  # a block cut by the chunk edge: it runs with the next chunk
    # The sweep allocates a tuple per written register, memory word and
    # branch record, none of them cyclic: collections during it would only
    # re-scan live state, so the cyclic collector pauses until it ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for chunk in chunks:
            pcs = chunk[0]
            total += len(pcs)
            counted += len(pcs) - sum(map(ignx.__getitem__, pcs))
            if latx is not None:
                seq_time += sum(map(latx.__getitem__, pcs))
            i = 0
            if held is not None:
                # Finish the block cut at the last chunk edge on a copy of
                # its records, then go on in this chunk past its end.
                i = blen[held[0][0]] - len(held[0])
                held = [
                    None if head is None else head + column[:i]
                    for head, column in zip(held, chunk)
                ]
                if len(held[0]) < blen[held[0][0]]:
                    continue  # this chunk ends inside the block too
                for cell, column in zip(columns, held[1:]):
                    cell.cell_contents = column
                handlers[held[0][0]](0)
                held = None
            for cell, column in zip(columns, chunk[1:]):
                cell.cell_contents = column
            # A block handler trusts the trace to run its block's pcs in
            # order, as every trace of the program does (the trace
            # sanitizer checks each edge); only a chunk or trace end may
            # cut it short.
            n = len(pcs)
            whole = n - longest  # every block starting at or before this fits
            while i <= whole:
                i = handlers[pcs[i]](i)
            while i < n:
                pc = pcs[i]
                if i + blen[pc] > n:
                    held = [None if col is None else col[i:] for col in chunk]
                    break
                i = handlers[pc](i)
        if held is not None:
            # The trace ended inside a block: its records are a prefix of the
            # block, run by a handler of their own.
            for cell, column in zip(columns, held[1:]):
                cell.cell_contents = column
            bind(held[0])(0)
    finally:
        if collecting:
            gc.enable()
        handlers.clear()  # the stubs close over the list
    if latx is None:
        seq_time = counted

    if stats is not None:
        # flush the segment trailing the last misprediction
        seg_len = cells["seg_len"].cell_contents
        if seg_len:
            stats.add(seg_len, max(len(cells["seg_cycles"].cell_contents), 1))
    makespans = tuple(
        max(cells[f"mk{m}"].cell_contents, cells[f"lb{m}"].cell_contents)
        if model in _BRANCH_CLOCKED
        else cells[f"mk{m}"].cell_contents
        for m, model in enumerate(models)
    )
    peaks = tuple(
        cells[f"pk{m}"].cell_contents if f"pk{m}" in cells else 0
        for m in range(len(models))
    )
    return counted, seq_time, total, makespans, peaks


def _handler_code(
    codes: dict[tuple, CodeType],
    spec: tuple,
    block: tuple[_Op, ...],
    pred: int | None,
) -> CodeType:
    """The compiled handler for *block* under *spec*, cached in *codes*.

    The key names everything the source depends on, so every sweep of an
    analyzer whose block reads the same — the same program under another
    option set that leaves the block unchanged — reuses the code.
    """
    key = (spec, block, pred)
    code = codes.get(key)
    if code is None:
        source = _emit_handler(spec, block, pred)
        module = compile(source, f"<fused-handler {block[0].pc}>", "exec")
        bind = next(c for c in module.co_consts if isinstance(c, CodeType))
        code = codes[key] = next(
            c for c in bind.co_consts if isinstance(c, CodeType)
        )
    return code


def fused_kernel_source(
    program: Program,
    models: Sequence[MachineModel] = ALL_MODELS,
    predictor: BranchPredictor | None = None,
    window: bool = False,
    flow_limit: bool = False,
    misprediction_stats: bool = False,
) -> str:
    """The generated block handlers for *program* under one request shape
    (debug/teaching): one ``_bind`` factory per basic block, in pc order,
    with the paper's perfect inlining and unrolling.

    With a :class:`ProfilePredictor` the branch handlers test ``takens``
    against its directions; any other predictor's flags come from the
    ``mp`` column.
    """
    models = _dedupe_models(models)
    tables = _build_tables(analyze_program(program), True, True, None)
    static = isinstance(predictor, ProfilePredictor)
    # As in analyze(), stats are only kept when SP is asked for.
    with_stats = misprediction_stats and MachineModel.SP in models
    spec = (models, window, flow_limit, with_stats, static)
    sources = []
    for span in basic_blocks(program).values():
        block = tuple(tables.ops[pc] for pc in span)
        last = block[-1]
        pred = None
        if static and last.kind == _BRANCH:
            pred = int(predictor.lookup(last.pc))
        sources.append(_emit_handler(spec, block, pred))
    return "\n".join(sources)


def _tup(names: Sequence[str]) -> str:
    return "(" + ", ".join(names) + ("," if len(names) == 1 else "") + ")"


def _emit_handler(spec: tuple, block: Sequence[_Op], pred: int | None) -> str:
    """Generate the handler source for one block under one spec.

    The handler takes the trace index of the block's first record and
    returns the index after its last.  Per-model scalars carry the
    model's index: ``c3_1`` is model 1's completion cycle for the block's
    fourth instruction, ``x5_1`` its time for register 5 at block entry,
    ``ct1`` its control time, ``mk1`` its makespan, ``lb1``/``lmp1`` its
    last-branch and last-misprediction clocks.  Registers, memory words
    and window slots hold one tuple of all models' cycles.
    """
    models, has_window, has_flow, has_stats, static = spec
    n = len(models)
    cd = [m for m in range(n) if models[m] in _CD_MODELS]
    cts = [f"ct{m}" for m in cd]
    zeros = _tup(["0"] * n)
    any_sp = any(model.uses_speculation for model in models)
    sp_m = models.index(MachineModel.SP) if has_stats else None
    body: list[str] = []
    emit = body.append

    def floor(m: int) -> str | None:
        model = models[m]
        if model in _CD_MODELS:
            return f"ct{m}"
        if model is MachineModel.BASE:
            return f"lb{m}"
        if model is MachineModel.SP:
            return f"lmp{m}"
        return None  # ORACLE: cycle 0, below every other source

    floors = [floor(m) for m in range(n)]

    def name(sym: tuple, m: int) -> str | None:
        kind, ref = sym
        return floors[m] if kind == "f" else f"{kind}{ref}_{m}"

    def unpack(kind: str, ref: int) -> str:
        names = ", ".join(f"{kind}{ref}_{m}" for m in range(n))
        return names + ("," if n == 1 else "")

    def emit_scan(ancestors: tuple[int, ...]) -> None:
        # The §4.4.1 winner, resolved into every CD model's ct{m}.
        names = ", ".join(cts)
        if not ancestors:
            emit(f"_, proc, {names} = stack[-1]")
            return
        emit(f"best, proc, {names} = stack[-1]")
        if len(ancestors) == 1:
            emit(f"e = bt_get({ancestors[0]})")
            emit("if e is not None:")
            emit("    if e[1] > proc:")
            emit("        " + " = ".join(cts) + " = 0")
            emit("    elif e[0] > best:")
            emit(f"        _, _, {names} = e")
            return
        emit(f"for b in {ancestors!r}:")
        emit("    e = bt_get(b)")
        emit("    if e is not None:")
        emit("        if e[1] > proc:")  # recursion: no constraint
        emit("            " + " = ".join(cts) + " = 0")
        emit("            break")
        emit("        if e[0] > best:")
        emit("            best = e[0]")
        emit(f"            _, _, {names} = e")

    def emit_record(pc: int, times: Sequence[str], indent: str = "") -> None:
        emit(f"{indent}bt[{pc}] = (seq, proc, {', '.join(times)})")

    def flow_lines(m: int, c: str) -> list[str]:
        # Greedy k-flow placement: bump the completion past full cycles,
        # the legacy linear probe's answer.  nf{m} maps every full cycle
        # to a later one; the walk ends at the first free cycle, and the
        # second loop points each cycle it passed straight at that one
        # (path compression: targets assign left to right, so the old
        # {c}'s entry is rewritten before {c} steps on).
        return [
            f"r_ = {c}",
            f"while r_ in nf{m}:",
            f"    r_ = nf{m}[r_]",
            f"while {c} != r_:",
            f"    nf{m}[{c}], {c} = r_, nf{m}[{c}]",
            f"f_ = cb{m}[{c}] = cg{m}({c}, 0) + 1",
            "if f_ >= flow_limit:",
            f"    nf{m}[{c}] = {c} + 1",
            f"if len(cb{m}) > pk{m}:",
            f"    pk{m} = len(cb{m})",
        ]

    def prune_lines(m: int, clock: str) -> list[str]:
        # Drop retirement-table entries at or below the ordering floor:
        # every later branch is clamped strictly above it.  A full cycle
        # above the floor only ever points further up, so no surviving
        # nf{m} entry skips a pruned (now free) cycle.
        return [
            f"if cb{m}:",
            f"    for k_ in [k_ for k_ in cb{m} if k_ <= {clock}]:",
            f"        del cb{m}[k_]",
            f"        nf{m}.pop(k_, None)",
        ]

    def emit_branch(k: int, mpi: str | bool | None) -> None:
        # Ordering clamps, flow placement and CD records of a counted
        # branch.  *mpi* is True (always mispredicted), None (no model
        # speculates) or the local holding the misprediction test.
        on_miss: list[str] = []
        for m, model in enumerate(models):
            c = f"c{k}_{m}"
            clock = f"lmp{m}" if model.uses_speculation else f"lb{m}"
            flow, prune = [], []
            if has_flow and _flow_limited(model):
                flow = flow_lines(m, c)
                prune = prune_lines(m, clock)
            if model is MachineModel.BASE:
                body.extend(flow + [f"lb{m} = {c}"] + prune)
            elif model is MachineModel.CD:
                clamp = [f"if {c} <= lb{m}:", f"    {c} = lb{m} + 1"]
                body.extend(clamp + flow + [f"lb{m} = {c}"] + prune)
            elif model is MachineModel.CD_MF:
                body.extend(flow)
            elif model in (MachineModel.SP, MachineModel.SP_CD):
                clamp = [f"if {c} <= lmp{m}:", f"    {c} = lmp{m} + 1"]
                on_miss.extend(clamp + flow + [f"lmp{m} = {c}"] + prune)
            elif model is MachineModel.SP_CD_MF:
                on_miss.extend(flow)
            # ORACLE: branches constrain nothing.
        # A correctly predicted branch records its *inherited* constraint,
        # not its completion: speculation hides it.
        miss = [f"c{k}_{m}" for m in cd]
        hit = [
            f"ct{m}" if models[m].uses_speculation else f"c{k}_{m}" for m in cd
        ]
        pc = block[k].pc
        if mpi is None or mpi is True:
            body.extend(on_miss)
            if cd:
                emit_record(pc, miss)
            return
        if on_miss or hit != miss:
            emit(f"if {mpi}:")
            body.extend("    " + line for line in on_miss)
            if hit != miss:
                emit_record(pc, miss, "    ")
                emit("else:")
                emit_record(pc, hit, "    ")
                return
        if cd:
            emit_record(pc, miss)

    leaders = sum(op.leader for op in block)
    if cd and leaders:
        emit(f"seq += {leaders}")
    regs: dict[int, tuple] = {}  # register -> in-block value holding it
    above: dict[tuple, frozenset] = {}  # value -> sources it exceeds
    loaded: set[int] = set()  # registers unpacked from rta
    values: list[tuple] = []  # counted values, in block order
    scanned = None  # ancestors of the last scan
    floor_sym = ("f", 0)
    mpi: str | bool | None = None
    for k, op in enumerate(block):
        assert op.kind == _PLAIN or k == len(block) - 1, "control inside a block"
        needs_ct = not op.ignored or op.kind in (_BRANCH, _CJUMP, _CALL)
        if cd and needs_ct and op.cd != scanned:
            emit_scan(op.cd)
            scanned = op.cd
            floor_sym = ("f", floor_sym[1] + 1)
        if op.ignored:
            # Removed: zero time, control-dependence bookkeeping only.
            if cd and op.kind in (_BRANCH, _CJUMP):
                emit_record(op.pc, cts)
            elif cd and op.kind == _CALL:
                emit(f"stack.append((seq, seq + 1, {', '.join(cts)}))")
            elif cd and op.kind == _RETURN:
                emit("if len(stack) > 1:")
                emit("    stack.pop()")
            continue

        # -- data dependences: drop every source another one exceeds -----
        # Sources: the control floor, registers (in-block values or "x"
        # block-entry values), the loaded word ("v") and the window slot
        # ("w") the instruction waits for.
        sources = [floor_sym]
        for reg in op.reads:
            sym = regs.get(reg, ("x", reg))
            if sym not in sources:
                sources.append(sym)
        if op.load or op.store:
            emit(f"a = addrs[i + {k}]" if k else "a = addrs[i]")
        if op.load:
            emit(f"{unpack('v', k)} = gm(a, {zeros})")
            sources.append(("v", k))
        if has_window:
            emit(f"{unpack('w', k)} = rg[ri]")
            sources.append(("w", k))
        live = [
            s for s in sources if not any(s in above.get(t, ()) for t in sources)
        ]
        for kind, reg in live:
            if kind == "x" and reg not in loaded:
                loaded.add(reg)
                emit(f"{unpack('x', reg)} = rta[{reg}]")
        for m in range(n):
            exprs = [e for e in (name(s, m) for s in live) if e is not None]
            if not exprs:
                emit(f"c{k}_{m} = {op.lat}")
                continue
            ready = exprs[0]
            for j, expr in enumerate(exprs[1:]):
                if j:  # a running maximum of three or more sources
                    emit(f"y{m} = {ready}")
                    ready = f"y{m}"
                ready = f"({ready} if {ready} > {expr} else {expr})"
            emit(f"c{k}_{m} = {ready} + {op.lat}")

        # -- control transfers ------------------------------------------
        completion = _tup([f"c{k}_{m}" for m in range(n)])
        if op.kind in (_BRANCH, _CJUMP):
            if not any_sp:
                mpi = None
            elif op.kind == _CJUMP and static:
                mpi = True  # computed jumps are never predicted
            else:
                emit(
                    f"mpi = takens[i + {k}] != {pred}"
                    if static
                    else f"mpi = mp[i + {k}]"
                )
                mpi = "mpi"
            emit_branch(k, mpi)
        elif cd and op.kind == _CALL:
            emit(f"stack.append((seq, seq + 1, {', '.join(cts)}))")
        elif cd and op.kind == _RETURN:
            emit("if len(stack) > 1:")
            emit("    stack.pop()")

        # -- results --------------------------------------------------------
        if op.store:
            emit(f"mem[a] = {completion}")
        if has_window:
            emit(f"rg[ri] = {completion}")
            emit("ri += 1")
            emit("if ri == window:")
            emit("    ri = 0")
        sym = ("c", k)
        exceeded = {floor_sym}
        for source in sources:
            exceeded.add(source)
            exceeded.update(above.get(source, ()))
        above[sym] = frozenset(exceeded)
        for reg in op.writes:
            regs[reg] = sym
        values.append(sym)

    for reg, (_, k) in regs.items():
        emit(f"rta[{reg}] = {_tup([f'c{k}_{m}' for m in range(n)])}")
    last = block[-1]
    branch_value = (
        ("c", len(block) - 1)
        if not last.ignored and last.kind in (_BRANCH, _CJUMP)
        else None
    )
    for sym in values:
        if any(sym in above[other] for other in values):
            continue  # a later value in the block exceeds it
        for m in range(n):
            if sym == branch_value and models[m] in _BRANCH_CLOCKED:
                continue  # lb{m} holds it (see _BRANCH_CLOCKED)
            emit(f"if c{sym[1]}_{m} > mk{m}:")
            emit(f"    mk{m} = c{sym[1]}_{m}")
    if sp_m is not None and values:
        emit(f"seg_len += {len(values)}")
        if len(values) == 1:
            emit(f"scadd(c{values[0][1]}_{sp_m})")
        else:
            emit(f"seg_cycles.update({_tup([f'c{k}_{sp_m}' for _, k in values])})")
        if branch_value is not None and mpi is not None:
            indent = ""
            if mpi is not True:
                emit(f"if {mpi}:")
                indent = "    "
            emit(f"{indent}spadd(seg_len, max(len(seg_cycles), 1))")
            emit(f"{indent}seg_len = 0")
            emit(f"{indent}seg_cycles.clear()")
    emit(f"return i + {len(block)}")

    text = "\n".join(body)
    # A substring test may admit a name the handler does not use (``mp``
    # inside ``mpi``); that only adds an idle cell to its closure.
    used = [state for state in _state_names(spec) if state in text]
    rebound = [state for state in used if _REBOUND.fullmatch(state)]
    lines = ["def _bind():"]
    if used:
        lines.append("    " + " = ".join(used) + " = None")
    lines.append(f"    def h{block[0].pc}(i):")
    if rebound:
        lines.append("        nonlocal " + ", ".join(rebound))
    lines.extend("        " + line for line in body)
    lines.append(f"    return h{block[0].pc}")
    return "\n".join(lines) + "\n"


def _flow_limited(model: MachineModel) -> bool:
    """Can *model* ever consume a flow of control (``flow_limit``)?

    ORACLE is exempt: with perfect prediction branches never switch the
    flow of control.  Speculative machines consume a flow only on a
    misprediction; the single-flow non-speculative machines on every
    branch.
    """
    return model is not MachineModel.ORACLE


# ======================================================================
# Legacy engine: one sweep per model (differential-testing oracle)
# ======================================================================


def _run_model(
    model: MachineModel,
    trace: Trace,
    tables: _StaticTables,
    mp_flags: list[bool] | None,
    window: int | None,
    stats: MispredictionStats | None,
    schedule: list[int | None] | None = None,
    flow_limit: int | None = None,
) -> tuple[int, int, int, int]:
    """One pass over the trace for one machine model.

    Returns ``(sequential_time, parallel_time, counted_instructions,
    flow_peak)`` where ``flow_peak`` is the peak live size of the per-cycle
    branch-retirement table (0 without ``flow_limit``).
    """
    # -- model behaviour flags, hoisted out of the loop --------------------
    is_oracle = model is MachineModel.ORACLE
    is_base = model is MachineModel.BASE
    uses_cd = model.uses_control_dependence
    uses_sp = model.uses_speculation
    order_branches = model.orders_branches
    order_mp = model.orders_mispredictions
    if uses_sp and mp_flags is None:
        raise ValueError(f"model {model} needs misprediction flags")

    # -- static tables, as locals -------------------------------------------
    reads = tables.reads
    writes = tables.writes
    is_load = tables.is_load
    is_store = tables.is_store
    is_branchlike = tables.is_branchlike
    is_call = tables.is_call
    is_return = tables.is_return
    is_leader = tables.is_leader
    cd_pcs = tables.cd_pcs
    ignored = tables.ignored
    latency = tables.latency

    pcs = _as_list(trace.pcs)
    addrs = _as_list(trace.addrs)

    # -- dynamic state --------------------------------------------------------
    reg_time = [0] * registers.NUM_REGS
    mem_time: dict[int, int] = {}
    seq = 0  # basic-block instance sequence number
    # Per static branch: most recent instance's sequence number, recorded
    # constraint time, and owning procedure invocation (its start sequence).
    branch_seq: dict[int, int] = {}
    branch_time: dict[int, int] = {}
    branch_proc: dict[int, int] = {}
    # Stack of active procedures: (inherited CD constraint time,
    # block sequence at the call, callee's start sequence).
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    last_branch_time = 0  # BASE constraint / CD branch-ordering state
    last_mp_time = 0  # SP constraint / misprediction-ordering state

    seq_time = 0
    makespan = 0
    counted = 0

    # Finite scheduling window (ablation): completion times of the last
    # `window` counted instructions, as a ring buffer.
    ring: list[int] | None = None
    ring_idx = 0
    if window is not None:
        ring = [0] * window

    # Misprediction segment statistics (SP pass only).
    seg_len = 0
    seg_cycles: set[int] = set()

    # k-flow machines: branch retirements per cycle (flow_limit only).
    # For the branch-ordering machines every later branch is clamped
    # strictly above the ordering clock, so entries at or below it can
    # never be probed again and are pruned (the clock is a sound floor on
    # any future branch's retirement cycle); the -MF machines have no such
    # floor and keep the full table, whose size is bounded by the schedule
    # height rather than the branch count.
    cycle_branches: dict[int, int] = {}
    flow_peak = 0

    for i in range(len(pcs)):
        pc = pcs[i]
        if is_leader[pc]:
            seq += 1

        # -- control-flow constraint of this machine model ------------------
        if is_oracle:
            control = 0
        elif is_base:
            control = last_branch_time
        elif uses_cd:
            top = stack[-1]
            best_seq = top[1]
            control = top[0]
            cur_proc = top[2]
            recursion = False
            for branch_pc in cd_pcs[pc]:
                s = branch_seq.get(branch_pc, -1)
                if s >= 0 and branch_proc[branch_pc] > cur_proc:
                    # Paper §4.4.1: a reverse-dominance-frontier branch last
                    # executed in a deeper invocation -> recursion; ignore
                    # the control dependence for this instance (upper bound).
                    recursion = True
                    break
                if s > best_seq:
                    best_seq = s
                    control = branch_time[branch_pc]
            if recursion:
                control = 0
        else:  # SP
            control = last_mp_time

        if ignored[pc]:
            # Removed by perfect inlining/unrolling: zero time, no effects.
            # A removed branch still records a control-dependence instance
            # carrying its own inherited constraint.
            if schedule is not None:
                schedule.append(None)
            if uses_cd:
                if is_branchlike[pc]:
                    branch_seq[pc] = seq
                    branch_time[pc] = control
                    branch_proc[pc] = stack[-1][2]
                if is_call[pc]:
                    stack.append((control, seq, seq + 1))
                elif is_return[pc] and len(stack) > 1:
                    stack.pop()
            continue

        # -- data dependences -----------------------------------------------
        ready = control
        for reg in reads[pc]:
            t = reg_time[reg]
            if t > ready:
                ready = t
        if is_load[pc]:
            t = mem_time.get(addrs[i], 0)
            if t > ready:
                ready = t
        if ring is not None:
            t = ring[ring_idx]
            if t > ready:
                ready = t
        completion = ready + latency[pc]

        # -- ordering constraints ----------------------------------------------
        branchlike = is_branchlike[pc]
        mispredicted = branchlike and uses_sp and mp_flags[i]  # type: ignore[index]
        if branchlike:
            if order_branches and completion <= last_branch_time:
                completion = last_branch_time + 1
            if mispredicted and order_mp and completion <= last_mp_time:
                completion = last_mp_time + 1
            if flow_limit is not None and (
                mispredicted or (not uses_sp and not is_oracle)
            ):
                # k flows of control: at most k branch retirements (for SP
                # machines, k misprediction recoveries) per cycle.  ORACLE
                # is exempt: with perfect prediction branches never switch
                # the flow of control.
                while cycle_branches.get(completion, 0) >= flow_limit:
                    completion += 1
                cycle_branches[completion] = (
                    cycle_branches.get(completion, 0) + 1
                )
                if len(cycle_branches) > flow_peak:
                    flow_peak = len(cycle_branches)

        # -- record results ---------------------------------------------------
        for reg in writes[pc]:
            reg_time[reg] = completion
        if is_store[pc]:
            mem_time[addrs[i]] = completion
        if ring is not None:
            ring[ring_idx] = completion
            ring_idx += 1
            if ring_idx == len(ring):
                ring_idx = 0

        if branchlike:
            if is_base or order_branches:
                last_branch_time = completion
                if flow_limit is not None and cycle_branches:
                    # Ordering floor: later branches retire strictly above.
                    for cyc in [
                        cyc for cyc in cycle_branches if cyc <= last_branch_time
                    ]:
                        del cycle_branches[cyc]
            if uses_cd:
                branch_seq[pc] = seq
                branch_time[pc] = (
                    (completion if mispredicted else control) if uses_sp else completion
                )
                branch_proc[pc] = stack[-1][2]
            if mispredicted:
                last_mp_time = completion
                if order_mp and flow_limit is not None and cycle_branches:
                    for cyc in [
                        cyc for cyc in cycle_branches if cyc <= last_mp_time
                    ]:
                        del cycle_branches[cyc]
        if uses_cd:
            if is_call[pc]:
                stack.append((control, seq, seq + 1))
            elif is_return[pc] and len(stack) > 1:
                stack.pop()

        counted += 1
        seq_time += latency[pc]
        if schedule is not None:
            schedule.append(completion)
        if completion > makespan:
            makespan = completion

        if stats is not None:
            seg_len += 1
            seg_cycles.add(completion)
            if mispredicted:
                stats.add(seg_len, max(len(seg_cycles), 1))
                seg_len = 0
                seg_cycles.clear()

    if stats is not None and seg_len:
        # Flush the segment trailing the last misprediction: those
        # instructions execute under the SP machine like any other segment
        # and were previously dropped from the statistics.
        stats.add(seg_len, max(len(seg_cycles), 1))

    return seq_time, makespan, counted, flow_peak
