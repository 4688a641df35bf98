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
  updates the dynamic state of every requested model simultaneously.  The
  per-instruction decode (pc, leader/ignored flags, read/write registers,
  latency, control-dependence ancestors) is shared across models, and so is
  the §4.4.1 ancestor scan: which ancestor instance is the *most recent*
  (or whether recursion voids the constraint) depends only on sequence and
  invocation numbers, never on any model's clock, so the winner is selected
  once and each control-dependence model merely reads its own recorded time
  for that winner.  The sweep itself is a specialized kernel generated and
  compiled once per (model set, option shape) — model behaviour flags are
  folded away at generation time instead of being re-tested on every
  instruction (see :func:`_emit_kernel`);
* the **legacy engine** (``engine="legacy"``) is the original
  one-sweep-per-model path, kept verbatim as a differential-testing oracle.
  The two engines must produce byte-identical results; the differential
  suite and ``bench/analyzer_bench.py`` verify this on every benchmark.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Sequence

from repro import telemetry
from repro.analysis.summary import ProgramAnalysis, analyze_program, ignored_pcs
from repro.core.models import ALL_MODELS, MachineModel
from repro.core.results import AnalysisResult, ModelResult
from repro.core.stats import MispredictionStats
from repro.isa import OpKind, Program, registers
from repro.prediction.base import (
    BranchPredictor,
    chunk_misprediction_flags,
    misprediction_flags,
)
from repro.prediction.profile import ProfilePredictor
from repro.vm.trace import Trace
from repro.vm.trace_io import TraceReader, iter_trace_chunks, trace_source_program

#: The analyzer's execution engines (see module docstring).
ENGINES = ("fused", "legacy")

# -- per-pc flag bits packed into _StaticTables.flags --------------------------
F_LEADER = 1  # first instruction of a basic block
F_IGNORED = 2  # removed by perfect inlining/unrolling
F_BRANCH = 4  # conditional branch or computed jump
F_LOAD = 8
F_STORE = 16
F_CALL = 32
F_RETURN = 64


@dataclass(frozen=True)
class _StaticTables:
    """Per-pc decode tables sized for the hot loop.

    The canonical representation is *flat packed arrays*: one ``array('q')``
    of flag bitmasks and latencies indexed by pc, and CSR-style
    (offsets, values) pairs for the variable-length read/write register
    lists and control-dependence ancestor lists.  The engines hoist these
    into plain lists once per ``analyze`` call (an O(program) copy amortized
    over the O(trace) sweep), so the inner loop does only index arithmetic —
    no per-instruction tuple construction or attribute lookups.

    The original tuple-of-tuples views are kept alongside for the legacy
    differential-oracle path, which is preserved verbatim.
    """

    # flat packed arrays (fused engine)
    flags: array  # per-pc bitmask of F_* bits
    lat: array  # per-pc latency
    reads_off: array  # CSR offsets into reads_flat, len n_pcs + 1
    reads_flat: array
    writes_off: array
    writes_flat: array
    cd_off: array
    cd_flat: array
    cd_gid: array  # per-pc id of its distinct ancestor list (0 = empty)
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

    # Pack the flat-array representation.
    flags = array("q")
    for pc in range(len(latency)):
        bits = 0
        if is_leader[pc]:
            bits |= F_LEADER
        if ignored[pc]:
            bits |= F_IGNORED
        if is_branchlike[pc]:
            bits |= F_BRANCH
        if is_load[pc]:
            bits |= F_LOAD
        if is_store[pc]:
            bits |= F_STORE
        if is_call[pc]:
            bits |= F_CALL
        if is_return[pc]:
            bits |= F_RETURN
        flags.append(bits)

    def _csr(rows: Sequence[Sequence[int]]) -> tuple[array, array]:
        offsets = array("q", [0])
        flat = array("q")
        for row in rows:
            flat.extend(row)
            offsets.append(len(flat))
        return offsets, flat

    reads_off, reads_flat = _csr(reads)
    writes_off, writes_flat = _csr(writes)
    cd_off, cd_flat = _csr(analysis.cd_of_pc)

    # Number the distinct ancestor lists: instructions sharing a list (the
    # common case — a whole basic block) share a group id, letting the
    # fused engine reuse one resolved control time across the group until
    # the dynamic control-dependence state changes.
    gids: dict[tuple[int, ...], int] = {(): 0}
    cd_gid = array(
        "q", (gids.setdefault(row, len(gids)) for row in analysis.cd_of_pc)
    )

    return _StaticTables(
        flags=flags,
        lat=array("q", latency),
        reads_off=reads_off,
        reads_flat=reads_flat,
        writes_off=writes_off,
        writes_flat=writes_flat,
        cd_off=cd_off,
        cd_flat=cd_flat,
        cd_gid=cd_gid,
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

    After an ``analyze`` call with ``flow_limit`` set,
    :attr:`last_flow_peaks` holds, per model, the peak number of live
    entries in the per-cycle branch-retirement table — the quantity the
    flow-limit pruning fix (see :func:`_run_model`) keeps bounded for the
    branch-ordering machines.
    """

    def __init__(
        self,
        program: Program,
        analysis: ProgramAnalysis | None = None,
    ):
        self.program = program
        self.analysis = analysis if analysis is not None else analyze_program(program)
        self._table_cache: dict[tuple, _StaticTables] = {}
        self.last_flow_peaks: dict[MachineModel, int] = {}

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

        ``models`` must name at least one machine; repeated models are
        evaluated once (the result keeps the first occurrence's position).

        ``engine`` selects the fused single-pass engine (default) or the
        legacy one-sweep-per-model path kept as a differential-testing
        oracle; both produce byte-identical results.

        ``trace`` may be an in-memory :class:`Trace` or a streaming
        :class:`~repro.vm.trace_io.TraceReader`.  The fused engine
        consumes a reader chunk by chunk — misprediction flags included —
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
                chunks = _chunk_feed(
                    source, predictor, needs_prediction, self.program
                )
                counted, seq_time, total, makespans, peaks = _run_fused(
                    models, chunks, tables, window, stats, flow_limit, latencies
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
            self.last_flow_peaks = flow_peaks if flow_limit is not None else {}

            if flow_limit is not None:
                # Flow-ledger peaks go to the gauge unconditionally: the
                # flow-limited path is rare (ablation-flows only) and the
                # gauge is what `repro-experiments --verbose` surfaces.
                peak_gauge = telemetry.METRICS.gauge(
                    "repro_analyzer_flow_ledger_peak"
                )
                for model, peak in flow_peaks.items():
                    peak_gauge.set_max(
                        peak,
                        program=self.program.name,
                        model=model.label,
                        flows=flow_limit,
                    )
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
    """Hoist a trace/table column into a plain list for the hot loop.

    ``array('q')`` is the storage format; CPython indexes lists faster
    (array indexing boxes a fresh int per access), so both engines convert
    each column once per sweep — one C-speed pass, amortized over the
    O(trace) Python-level loop.
    """
    if isinstance(column, list):
        return column
    return column.tolist() if hasattr(column, "tolist") else list(column)


# ======================================================================
# Fused engine: one sweep, all models
# ======================================================================
#
# The kernel is generated and compiled once per *spec* — the ordered tuple
# of requested models plus which optional features (window, flow limit,
# misprediction stats) are active — and cached for the life of the process.
# Generation folds every model-behaviour flag of the legacy loop
# (is_oracle/uses_cd/orders_branches/...) into straight-line code, so each
# model's per-instruction block touches only the state that model needs.
#
# Model-independent work is emitted exactly once per instruction:
#
# * the decode: pc, flag bits, latency, read/write register ids (CSR index
#   arithmetic into the flat tables), effective address, misprediction flag;
# * basic-block sequence numbering and the procedure stack *structure*
#   (§4.4.1): which block instance is current, which invocation owns it;
# * the control-dependence ancestor scan: the most-recent-instance winner
#   (or the recursion fallback) is selected purely by sequence/invocation
#   numbers, which are identical across models — only the *time* recorded
#   for the winner is per-model state.

_KERNEL_CACHE: dict[tuple, tuple] = {}

_CD_MODELS = frozenset(
    (
        MachineModel.CD,
        MachineModel.CD_MF,
        MachineModel.SP_CD,
        MachineModel.SP_CD_MF,
    )
)


def _kernel_spec(
    models: tuple[MachineModel, ...],
    window: int | None,
    flow_limit: int | None,
    stats: MispredictionStats | None,
    latencies: dict[OpKind, int] | None,
) -> tuple:
    return (
        tuple(model.value for model in models),
        window is not None,
        flow_limit is not None,
        stats is not None,
        latencies is None,  # unit latency: fold the +1 into the kernel
    )


def _chunk_feed(
    source,
    predictor: BranchPredictor | None,
    needs_prediction: bool,
    program: Program,
):
    """Yield ``(pcs, addrs, mp)`` triples for the fused kernel.

    The streaming front end of the fused engine: each trace chunk is
    paired with its misprediction flags, computed incrementally — the
    predictor is reset once, then trained across chunk boundaries in
    trace order, so the flags (and therefore every model's schedule) are
    identical to a whole-trace pass no matter how the trace is framed.
    An in-memory :class:`Trace` flows through the same path as a
    :class:`~repro.vm.trace_io.TraceReader`; only the chunk origin
    differs.
    """
    is_computed_jump: list[bool] | None = None
    if needs_prediction:
        assert predictor is not None
        predictor.reset()
        is_computed_jump = [
            instr.is_computed_jump for instr in program.instructions
        ]
    for pcs, addrs, takens in iter_trace_chunks(source):
        mp = (
            chunk_misprediction_flags(pcs, addrs, takens, predictor, is_computed_jump)
            if needs_prediction
            else None
        )
        yield pcs, addrs, mp


def _run_fused(
    models: tuple[MachineModel, ...],
    chunks,
    tables: _StaticTables,
    window: int | None,
    stats: MispredictionStats | None,
    flow_limit: int | None,
    latencies: dict[OpKind, int] | None,
) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """One fused sweep over *chunks* for every model in *models*.

    *chunks* is an iterable of ``(pcs, addrs, mp)`` column triples (see
    :func:`_chunk_feed`); the kernel carries every model's state across
    chunk boundaries, so the sweep is identical to a whole-trace pass
    while holding only one chunk in memory at a time.

    Returns ``(counted, sequential_time, total_records, makespans,
    flow_peaks)`` with the per-model tuples in request order.  The kernel
    carries no telemetry code: the analyzer's span and throughput gauge
    are recorded around the call.
    """
    kernel = _kernel_for(_kernel_spec(models, window, flow_limit, stats, latencies))
    return kernel(chunks, tables, window, flow_limit, stats)


def _kernel_for(spec: tuple):
    cached = _KERNEL_CACHE.get(spec)
    if cached is None:
        source = _emit_kernel(spec)
        namespace: dict = {}
        exec(compile(source, f"<fused-kernel {spec[0]}>", "exec"), namespace)
        cached = (namespace["_kernel"], source)
        _KERNEL_CACHE[spec] = cached
    return cached[0]


def fused_kernel_source(
    models: Sequence[MachineModel] = ALL_MODELS,
    window: bool = False,
    flow_limit: bool = False,
    misprediction_stats: bool = False,
    unit_latency: bool = True,
) -> str:
    """The generated fused-kernel source for a model set (debug/teaching)."""
    spec = (
        tuple(model.value for model in _dedupe_models(models)),
        window,
        flow_limit,
        misprediction_stats,
        unit_latency,
    )
    _kernel_for(spec)
    return _KERNEL_CACHE[spec][1]


def _emit_kernel(spec: tuple) -> str:
    """Generate the fused-kernel source for one (models, options) spec.

    The emission strategy is *struct of blocks*: every shared condition —
    operand counts, the memory/branch flag bits, the control-dependence
    winner case split — is tested exactly once per instruction, and each
    block contains the corresponding statements for **all** requested
    models.  (The alternative, one self-contained block per model, would
    re-test every condition per model; with seven models that roughly
    doubles the interpreted instruction count.)  Value-producing state
    (registers, memory, the scheduling window) holds one n-tuple of
    completion cycles per location, shared by all models; scalar per-model
    state lives in flat local names suffixed with the model's index —
    ``c3`` is model 3's completion cycle for the current instruction,
    ``mk3`` its makespan, ``bt3`` its branch table, and so on.
    """
    model_values, has_window, has_flow, has_stats, unit_lat = spec
    models = tuple(MachineModel(value) for value in model_values)
    n = len(models)
    cd = [m for m in range(n) if models[m] in _CD_MODELS]
    any_cd = bool(cd)
    any_sp = any(model.uses_speculation for model in models)
    n_regs = registers.NUM_REGS
    sp_m = (
        models.index(MachineModel.SP)
        if has_stats and MachineModel.SP in models
        else None
    )

    out: list[str] = []
    emit = out.append

    def emit_all(template: str, indices=None) -> None:
        for m in range(n) if indices is None else indices:
            emit(template.format(m=m))

    def emit_ct(indent: str) -> None:
        # Resolve the shared winner into each CD model's control time.
        emit(f"{indent}if win == -2:")
        emit(f"{indent}    " + " = ".join(f"ct{m}" for m in cd) + " = 0")
        emit(f"{indent}elif win == -1:")
        emit_all(f"{indent}    ct{{m}} = sv{{m}}[-1]", cd)
        emit(f"{indent}else:")
        emit_all(f"{indent}    ct{{m}} = bt{{m}}[win]", cd)

    # Completion/timestamp tuples: all models' clocks for one register,
    # memory word, or window slot travel as one n-tuple, so a write is a
    # single store of the shared completion tuple `cc` instead of n stores,
    # and a read is one fetch plus an unpack.
    tvars = ", ".join(f"t{m}" for m in range(n)) + ("," if n == 1 else "")
    cc_tuple = "(" + ", ".join(f"c{m}" for m in range(n)) + ("," if n == 1 else "") + ")"
    zeros = "(" + ", ".join("0" for _ in range(n)) + ("," if n == 1 else "") + ")"

    def emit_max(fetch: str, indent: str) -> None:
        # Fold one dependence source into every model's ready time.
        emit(f"{indent}{tvars} = {fetch}")
        for m in range(n):
            emit(f"{indent}if t{m} > y{m}:")
            emit(f"{indent}    y{m} = t{m}")

    def emit_flow(m: int, indent: str) -> None:
        # Greedy k-flow placement: bump the completion past full cycles.
        emit(f"{indent}while cg{m}(c{m}, 0) >= flow_limit:")
        emit(f"{indent}    c{m} += 1")
        emit(f"{indent}cb{m}[c{m}] = cg{m}(c{m}, 0) + 1")
        emit(f"{indent}if len(cb{m}) > pk{m}:")
        emit(f"{indent}    pk{m} = len(cb{m})")

    def emit_prune(m: int, floor: str, indent: str) -> None:
        # Drop retirement-table entries at or below the ordering floor:
        # every later branch is clamped strictly above it.
        emit(f"{indent}if cb{m}:")
        emit(f"{indent}    for k_ in [k_ for k_ in cb{m} if k_ <= {floor}]:")
        emit(f"{indent}        del cb{m}[k_]")

    # -- prologue: hoist tables, initialize per-model state ----------------
    emit("def _kernel(chunks, tables, window, flow_limit, sp_stats):")
    emit("    flags = tables.flags.tolist()")
    emit("    lat = tables.lat.tolist()")
    emit("    roff = tables.reads_off.tolist()")
    emit("    rflat = tables.reads_flat.tolist()")
    emit("    woff = tables.writes_off.tolist()")
    emit("    wflat = tables.writes_flat.tolist()")
    if any_cd:
        emit("    coff = tables.cd_off.tolist()")
        emit("    cflat = tables.cd_flat.tolist()")
        emit("    cgid = tables.cd_gid.tolist()")
    # Counted-instruction and sequential-time totals are plain per-pc sums
    # over the trace; fold them at C speed per chunk instead of per
    # iteration in the Python loop.
    emit("    ignx = [1 if f & 2 else 0 for f in flags]")
    emit("    counted = 0")
    emit("    total = 0")
    if not unit_lat:
        emit("    latx = [0 if f & 2 else l for f, l in zip(flags, lat)]")
        emit("    seq_time = 0")
    if any_cd:
        emit("    seq = 0")
        emit("    bseq = {}")
        emit("    bseq_get = bseq.get")
        emit("    bproc = {}")
        emit("    stack = [(0, 0)]")
        emit("    ep = 0")
        emit("    k_gid = -1")
        emit("    k_ep = -1")
        emit("    proc = 0")
    if has_window:
        emit("    ring_idx = 0")
    emit("    addr = mpi = 0")
    emit(f"    rta = [{zeros}] * {n_regs}")
    emit("    mem = {}")
    emit("    gm = mem.get")
    if has_window:
        emit(f"    rg = [{zeros}] * window")
    for m, model in enumerate(models):
        emit(f"    # state: {model.value}")
        emit(f"    mk{m} = 0")
        if model in (MachineModel.BASE, MachineModel.CD):
            emit(f"    lb{m} = 0")
        if model in (MachineModel.SP, MachineModel.SP_CD):
            emit(f"    lmp{m} = 0")
        if model in _CD_MODELS:
            emit(f"    bt{m} = {{}}")
            emit(f"    sv{m} = [0]")
        if has_flow and _flow_limited(model):
            emit(f"    cb{m} = {{}}")
            emit(f"    cg{m} = cb{m}.get")
        emit(f"    pk{m} = 0")
        if has_stats and model is MachineModel.SP:
            emit("    seg_len = 0")
            emit("    seg_cycles = set()")
            emit("    scadd = seg_cycles.add")
            emit("    spadd = sp_stats.add")

    # -- chunk loop: every model's state lives outside it, so sweeping N
    # chunks is *identical* to sweeping their concatenation — only peak
    # memory changes.  The per-instruction loop below is emitted exactly
    # as for a whole-trace pass and re-indented one level at the end.
    emit("    for pcs, addrs, mp in chunks:")
    emit("        total += len(pcs)")
    emit("        counted += len(pcs) - sum(map(ignx.__getitem__, pcs))")
    if not unit_lat:
        emit("        seq_time += sum(map(latx.__getitem__, pcs))")
    loop_start = len(out)
    emit("    for i in range(len(pcs)):")
    emit("        pc = pcs[i]")
    emit("        fl = flags[pc]")
    if any_cd:
        emit(f"        if fl & {F_LEADER}:")
        emit("            seq += 1")
        # Shared §4.4.1 ancestor scan: the winner (most recent ancestor
        # instance, stack inheritance, or the recursion fallback) is
        # selected by sequence/invocation numbers only — identical for
        # every CD model, so it is computed once and resolved straight
        # into each CD model's control time ct{m}.  The result depends
        # only on the instruction's ancestor list (its cd group) and the
        # dynamic CD state, which mutates only at branch records and
        # call/return stack operations (epoch `ep`) — so consecutive
        # instructions of a basic block hit the one-entry cache and skip
        # the scan entirely.  Most instructions have a single ancestor;
        # that case is unrolled ahead of the loop.
        emit("        gid = cgid[pc]")
        emit("        if gid != k_gid or ep != k_ep:")
        emit("            k_gid = gid")
        emit("            k_ep = ep")
        emit("            top = stack[-1]")
        emit("            best = top[0]")
        emit("            proc = top[1]")
        emit("            win = -1")
        emit("            ca = coff[pc]")
        emit("            ce = coff[pc + 1]")
        emit("            if ce > ca:")
        emit("                b = cflat[ca]")
        emit("                s = bseq_get(b, -1)")
        emit("                if s >= 0:")
        emit("                    if bproc[b] > proc:")
        emit("                        win = -2")
        emit("                    elif s > best:")
        emit("                        best = s")
        emit("                        win = b")
        emit("                if ce > ca + 1 and win != -2:")
        emit("                    for j in range(ca + 1, ce):")
        emit("                        b = cflat[j]")
        emit("                        s = bseq_get(b, -1)")
        emit("                        if s >= 0:")
        emit("                            if bproc[b] > proc:")
        emit("                                win = -2")
        emit("                                break")
        emit("                            if s > best:")
        emit("                                best = s")
        emit("                                win = b")
        emit_ct("            ")

    # -- removed instructions: zero time, CD bookkeeping only --------------
    emit(f"        if fl & {F_IGNORED}:")
    if any_cd:
        emit(f"            if fl & {F_BRANCH}:")
        emit("                bseq[pc] = seq")
        emit("                bproc[pc] = proc")
        emit_all("                bt{m}[pc] = ct{m}", cd)
        emit("                ep += 1")
        emit(f"            elif fl & {F_CALL}:")
        emit("                stack.append((seq, seq + 1))")
        emit_all("                sv{m}.append(ct{m})", cd)
        emit("                ep += 1")
        emit(f"            elif (fl & {F_RETURN}) and len(stack) > 1:")
        emit("                stack.pop()")
        emit_all("                sv{m}.pop()", cd)
        emit("                ep += 1")
    emit("            continue")

    # -- counted: control constraint -> per-model ready time y{m} ---------
    if not unit_lat:
        emit("        lt = lat[pc]")
    for m, model in enumerate(models):
        if model in _CD_MODELS:
            emit(f"        y{m} = ct{m}")
        elif model is MachineModel.BASE:
            emit(f"        y{m} = lb{m}")
        elif model is MachineModel.SP:
            emit(f"        y{m} = lmp{m}")
        else:  # ORACLE
            emit(f"        y{m} = 0")

    # -- data dependences ---------------------------------------------------
    emit("        r0_ = roff[pc]")
    emit("        nr = roff[pc + 1] - r0_")
    emit("        if nr:")
    emit_max("rta[rflat[r0_]]", "            ")
    emit("            if nr > 1:")
    emit_max("rta[rflat[r0_ + 1]]", "                ")
    emit("                if nr > 2:")
    emit("                    for j in range(r0_ + 2, r0_ + nr):")
    emit_max("rta[rflat[j]]", "                        ")
    emit(f"        if fl & {F_LOAD | F_STORE}:")
    emit("            addr = addrs[i]")
    emit(f"            if fl & {F_LOAD}:")
    emit("                v = gm(addr)")
    emit("                if v is not None:")
    emit_max("v", "                    ")
    if has_window:
        emit_max("rg[ring_idx]", "        ")
    emit_all("        c{m} = y{m} + 1" if unit_lat else "        c{m} = y{m} + lt")

    # -- branch-likes: ordering clamps, flow placement, branch records -----
    b1 = "            "
    b2 = "                "
    if any(model is not MachineModel.ORACLE for model in models):
        emit(f"        if fl & {F_BRANCH}:")
        if any_sp:
            emit(b1 + "mpi = mp[i]")
        for m, model in enumerate(models):
            flow_here = has_flow and _flow_limited(model)
            if model is MachineModel.BASE:
                if flow_here:
                    emit_flow(m, b1)
                emit(b1 + f"lb{m} = c{m}")
                if flow_here:
                    emit_prune(m, f"lb{m}", b1)
            elif model is MachineModel.CD:
                emit(b1 + f"if c{m} <= lb{m}:")
                emit(b1 + f"    c{m} = lb{m} + 1")
                if flow_here:
                    emit_flow(m, b1)
                emit(b1 + f"lb{m} = c{m}")
                emit(b1 + f"bt{m}[pc] = c{m}")
                if flow_here:
                    emit_prune(m, f"lb{m}", b1)
            elif model is MachineModel.CD_MF:
                if flow_here:
                    emit_flow(m, b1)
                emit(b1 + f"bt{m}[pc] = c{m}")
            elif model is MachineModel.SP:
                emit(b1 + "if mpi:")
                emit(b2 + f"if c{m} <= lmp{m}:")
                emit(b2 + f"    c{m} = lmp{m} + 1")
                if flow_here:
                    emit_flow(m, b2)
                emit(b2 + f"lmp{m} = c{m}")
                if flow_here:
                    emit_prune(m, f"lmp{m}", b2)
            elif model is MachineModel.SP_CD:
                emit(b1 + "if mpi:")
                emit(b2 + f"if c{m} <= lmp{m}:")
                emit(b2 + f"    c{m} = lmp{m} + 1")
                if flow_here:
                    emit_flow(m, b2)
                emit(b2 + f"bt{m}[pc] = c{m}")
                emit(b2 + f"lmp{m} = c{m}")
                if flow_here:
                    emit_prune(m, f"lmp{m}", b2)
                emit(b1 + "else:")
                emit(b2 + f"bt{m}[pc] = ct{m}")
            elif model is MachineModel.SP_CD_MF:
                # A correctly predicted branch records its *inherited*
                # constraint, not its completion: speculation hides it.
                emit(b1 + "if mpi:")
                if flow_here:
                    emit_flow(m, b2)
                emit(b2 + f"bt{m}[pc] = c{m}")
                emit(b1 + "else:")
                emit(b2 + f"bt{m}[pc] = ct{m}")
            # ORACLE: branches constrain nothing.
        if any_cd:
            emit(b1 + "bseq[pc] = seq")
            emit(b1 + "bproc[pc] = proc")
            emit(b1 + "ep += 1")
            # Counted calls/returns exist only with inlining disabled.
            emit(f"        elif fl & {F_CALL}:")
            emit("            stack.append((seq, seq + 1))")
            emit_all("            sv{m}.append(ct{m})", cd)
            emit("            ep += 1")
            emit(f"        elif (fl & {F_RETURN}) and len(stack) > 1:")
            emit("            stack.pop()")
            emit_all("            sv{m}.pop()", cd)
            emit("            ep += 1")

    # -- record results -----------------------------------------------------
    emit(f"        cc = {cc_tuple}")
    emit("        w0_ = woff[pc]")
    emit("        nw = woff[pc + 1] - w0_")
    emit("        if nw:")
    emit("            rta[wflat[w0_]] = cc")
    emit("            if nw > 1:")
    emit("                for j in range(w0_ + 1, w0_ + nw):")
    emit("                    rta[wflat[j]] = cc")
    emit(f"        if fl & {F_STORE}:")
    emit("            mem[addr] = cc")
    if has_window:
        emit("        rg[ring_idx] = cc")
        emit("        ring_idx += 1")
        emit("        if ring_idx == window:")
        emit("            ring_idx = 0")
    for m in range(n):
        emit(f"        if c{m} > mk{m}:")
        emit(f"            mk{m} = c{m}")
    if sp_m is not None:
        emit("        seg_len += 1")
        emit(f"        scadd(c{sp_m})")
        emit(f"        if fl & {F_BRANCH} and mpi:")
        emit("            spadd(seg_len, max(len(seg_cycles), 1))")
        emit("            seg_len = 0")
        emit("            seg_cycles.clear()")

    # Nest the per-instruction loop inside the chunk loop.
    for idx in range(loop_start, len(out)):
        out[idx] = "    " + out[idx]

    if unit_lat:
        emit("    seq_time = counted")
    if sp_m is not None:
        emit("    # flush the segment trailing the last misprediction")
        emit("    if seg_len:")
        emit("        spadd(seg_len, max(len(seg_cycles), 1))")
    makespans = ", ".join(f"mk{m}" for m in range(n))
    peaks = ", ".join(f"pk{m}" for m in range(n))
    comma = "," if n == 1 else ""
    emit(
        f"    return counted, seq_time, total, "
        f"({makespans}{comma}), ({peaks}{comma})"
    )
    emit("")
    return "\n".join(out)


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
