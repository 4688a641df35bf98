"""The fused engine's block handlers against the legacy oracle.

The fused engine runs one generated handler per basic block and falls
back to handlers for part of a block where the trace cuts one short:
where the budget ended, or after a computed jump into a block's
interior.  These tests pin those paths under every kernel option, both
ways a misprediction test is made (folded into the branch handler for a
profile predictor, read from a flag column for any other predictor), and
the static fact the generator is built on.  Chunk edges and the options
on every suite benchmark are in test_fused_differential.py.
"""

import pytest

from repro.analysis.summary import analyze_program
from repro.asm import assemble
from repro.bench import SUITE
from repro.core import ALL_MODELS, LimitAnalyzer, MachineModel
from repro.core.analyzer import (
    _CALL,
    _PLAIN,
    _Op,
    _build_tables,
    _emit_handler,
    fused_kernel_source,
)
from repro.isa import OpKind
from repro.prediction import GShare, ProfilePredictor, TwoBit
from repro.vm import VM, TraceReader, save_trace
from repro.vm.fastvm import basic_blocks

M = MachineModel

MAX_STEPS = 6_000


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name):
        if name not in cache:
            program = SUITE[name].compile()
            trace = VM(program).run(max_steps=MAX_STEPS).trace
            cache[name] = (program, trace, ProfilePredictor.from_trace(trace))
        return cache[name]

    return get


#: Every kernel option, alone and combined, on top of the seven models.
OPTIONS = [
    dict(window=5),
    dict(flow_limit=2),
    dict(collect_misprediction_stats=True),
    dict(latencies={OpKind.LOAD: 3, OpKind.ALU: 2, OpKind.BRANCH: 2}),
    dict(perfect_inlining=False),
    dict(perfect_unrolling=False),
    dict(
        window=7,
        flow_limit=3,
        collect_misprediction_stats=True,
        latencies={OpKind.LOAD: 2},
        perfect_inlining=False,
    ),
]


# A computed jump lands on pc 8, inside the block that starts at pc 6
# (the straight-line successor of the jr).  The loop runs it four times,
# with loads, stores, a conditional branch and a call around it.
COMPUTED_JUMP = """
    li $s0, 4
loop:
    lw $t1, 0x2000($s0)
    addi $t1, $t1, 3
    sw $t1, 0x2100($s0)
    li $t0, 8
    jr $t0
    add $t2, $t1, $s0
    sw $t2, 0x2200($s0)
    addi $t3, $t1, 1
    add $t4, $t3, $t3
    jal bump
    addi $s0, $s0, -1
    bgtz $s0, loop
    halt
bump:
    addi $v0, $v0, 1
    jr $ra
"""


class TestPartialBlocks:
    def test_jump_lands_inside_a_block(self):
        program = assemble(COMPUTED_JUMP)
        blocks = basic_blocks(program)
        assert 8 not in blocks and 8 in blocks[6]
        trace = VM(program).run().trace
        assert 8 in trace.pcs and 6 not in trace.pcs
        predictor = ProfilePredictor.from_trace(trace)
        analyzer = LimitAnalyzer(program)
        for options in [{}] + OPTIONS:
            fused = analyzer.analyze(trace, predictor=predictor, **options)
            legacy = analyzer.analyze(
                trace, predictor=predictor, engine="legacy", **options
            )
            assert fused == legacy, options

    def test_every_budget_matches_legacy(self):
        # Budgets ending at every record, so most of them stop mid-block.
        program = assemble(COMPUTED_JUMP)
        ends = {span[-1] for span in basic_blocks(program).values()}
        full = VM(program).run().trace
        analyzer = LimitAnalyzer(program)
        mid_block = 0
        for budget in range(1, len(full) + 1):
            trace = VM(program).run(max_steps=budget).trace
            mid_block += trace.pcs[-1] not in ends
            predictor = ProfilePredictor.from_trace(trace)
            for options in ({}, dict(collect_misprediction_stats=True)):
                fused = analyzer.analyze(trace, predictor=predictor, **options)
                legacy = analyzer.analyze(
                    trace, predictor=predictor, engine="legacy", **options
                )
                assert fused == legacy, (budget, options)
        assert mid_block > len(full) // 2

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5])
    def test_chunked_computed_jump(self, chunk_size, tmp_path):
        program = assemble(COMPUTED_JUMP)
        trace = VM(program).run().trace
        path = tmp_path / "t.rtrc"
        save_trace(trace, path, chunk_size=chunk_size)
        predictor = ProfilePredictor.from_trace(trace)
        analyzer = LimitAnalyzer(program)
        fused = analyzer.analyze(TraceReader(path, program), predictor=predictor)
        assert fused == analyzer.analyze(
            trace, predictor=predictor, engine="legacy"
        )


# f's stack accesses read $sp, which only the removed stack adjustments
# write under perfect inlining; its lw has no other register source.
STACK_ACCESS = """
    li $s0, 3
loop:
    jal f
    addi $s0, $s0, -1
    bgtz $s0, loop
    halt
f:
    addi $sp, $sp, -4
    lw $t0, 0($sp)
    addi $t0, $t0, 1
    sw $t0, 0($sp)
    addi $sp, $sp, 4
    jr $ra
"""


class _SameDirections(TwoBit):
    """A profile predictor's directions behind a dynamic predictor's
    interface, so the engine must read its flag column."""

    def __init__(self, profile: ProfilePredictor):
        super().__init__()
        self.profile = profile

    def lookup(self, pc: int) -> bool:
        return self.profile.lookup(pc)

    def update(self, pc: int, taken: bool) -> None:
        pass


class TestPredictors:
    @pytest.mark.parametrize("name", ["awk", "gcc", "spice2g6"])
    def test_folded_test_equals_flag_column(self, runs, name):
        program, trace, predictor = runs(name)
        analyzer = LimitAnalyzer(program)
        for options in ({}, dict(collect_misprediction_stats=True, flow_limit=2)):
            folded = analyzer.analyze(trace, predictor=predictor, **options)
            column = analyzer.analyze(
                trace, predictor=_SameDirections(predictor), **options
            )
            assert folded == column, options

    @pytest.mark.parametrize("name", ["awk", "gcc", "spice2g6"])
    @pytest.mark.parametrize("make", [TwoBit, GShare], ids=["two-bit", "gshare"])
    def test_dynamic_predictors_match_legacy(self, runs, name, make):
        program, trace, _ = runs(name)
        analyzer = LimitAnalyzer(program)
        kwargs = dict(collect_misprediction_stats=True)
        fused = analyzer.analyze(trace, predictor=make(), **kwargs)
        legacy = analyzer.analyze(trace, predictor=make(), engine="legacy", **kwargs)
        assert fused == legacy

    def test_profile_and_dynamic_differ_on_the_same_trace(self, runs):
        # Both paths must really be exercised: the two predictors make
        # different mistakes, so the speculative machines disagree.
        program, trace, predictor = runs("gcc")
        analyzer = LimitAnalyzer(program)
        profile = analyzer.analyze(trace, predictor=predictor)
        dynamic = analyzer.analyze(trace, predictor=TwoBit())
        assert profile[M.SP] != dynamic[M.SP]
        assert profile[M.ORACLE] == dynamic[M.ORACLE]


class TestGeneratedSource:
    def test_profile_directions_are_literals(self, runs):
        program, _, predictor = runs("awk")
        folded = fused_kernel_source(program, predictor=predictor)
        assert "takens[i + " in folded and "mp[i + " not in folded
        column = fused_kernel_source(program, predictor=TwoBit())
        assert "mp[i + " in column and "takens[i + " not in column

    def test_one_handler_per_block(self, runs):
        program, _, _ = runs("tomcatv")
        source = fused_kernel_source(program, models=[M.ORACLE])
        assert source.count("def _bind():") == len(basic_blocks(program))

    def test_group_change_inside_a_block_rescans(self):
        # The generator does not assume a block shares one ancestor list:
        # where the list changes it scans again.
        spec = (tuple(ALL_MODELS), False, False, False, True)

        def op(pc, cd, kind=_PLAIN):
            return _Op(pc, pc == 0, False, kind, (), (8,), False, False, 1, cd)

        one_group = _emit_handler(spec, (op(0, (5,)), op(1, (5,), _CALL)), None)
        two_groups = _emit_handler(spec, (op(0, (5,)), op(1, (6,), _CALL)), None)
        assert one_group.count("stack[-1]") == 1
        assert two_groups.count("stack[-1]") == 2

    @pytest.mark.parametrize("inlining", [True, False])
    def test_never_written_registers_are_not_read(self, inlining):
        # Under perfect inlining no counted instruction writes $sp, so
        # its time stays cycle 0 and the handler leaves the read out;
        # with inlining off the adjustments count and the read stays.
        program = assemble(STACK_ACCESS)
        f = program.code_labels["f"]
        tables = _build_tables(analyze_program(program), inlining, True, None)
        block = tuple(tables.ops[pc] for pc in basic_blocks(program)[f])
        spec = (tuple(ALL_MODELS), False, False, False, True)
        source = _emit_handler(spec, block, None)
        assert ("rta[29]" in source) is not inlining
        assert tables.reads[f + 1] == (29,)  # the oracle still reads it
        trace = VM(program).run().trace
        predictor = ProfilePredictor.from_trace(trace)
        analyzer = LimitAnalyzer(program)
        for options in ({}, dict(window=3, collect_misprediction_stats=True)):
            fused = analyzer.analyze(
                trace, predictor=predictor, perfect_inlining=inlining, **options
            )
            legacy = analyzer.analyze(
                trace,
                predictor=predictor,
                perfect_inlining=inlining,
                engine="legacy",
                **options,
            )
            assert fused == legacy, options


@pytest.mark.parametrize("name", sorted(SUITE))
def test_blocks_share_their_leaders_cd_group(name):
    # Every pc of a FastVM block has its leader's control-dependence
    # ancestors, and no CFG leader falls inside one: on the suite, each
    # handler scans once and bumps the block sequence number once.
    program = SUITE[name].compile()
    analysis = analyze_program(program)
    for leader, span in basic_blocks(program).items():
        for pc in span:
            assert analysis.cd_of_pc[pc] == analysis.cd_of_pc[leader], (leader, pc)
        for pc in span[1:]:
            assert not analysis.is_block_leader(pc), (leader, pc)
