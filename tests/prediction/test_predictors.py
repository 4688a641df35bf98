"""Unit tests for branch predictors and branch statistics."""

import pytest

from repro.asm import assemble
from repro.prediction import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTaken,
    BranchStats,
    GShare,
    OneBit,
    PerfectPredictor,
    ProfilePredictor,
    TwoBit,
    branch_stats,
    misprediction_flags,
)
from repro.vm import VM


def loop_trace(iterations=10):
    program = assemble(
        f"""
        li $t0, {iterations}
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
        """
    )
    return VM(program).run().trace


class TestProfilePredictor:
    def test_majority_taken(self):
        predictor = ProfilePredictor.from_counts({5: [2, 8]}, records=20)
        assert predictor.lookup(5) is True

    def test_majority_not_taken(self):
        predictor = ProfilePredictor.from_counts({5: [9, 1]}, records=20)
        assert predictor.lookup(5) is False

    def test_tie_predicts_taken(self):
        predictor = ProfilePredictor.from_counts({5: [3, 3]}, records=20)
        assert predictor.lookup(5) is True

    def test_unseen_branch_uses_default(self):
        predictor = ProfilePredictor.from_counts({}, records=0, default_taken=False)
        assert predictor.lookup(99) is False

    def test_from_trace_matches_from_run(self):
        program = assemble(
            "li $t0, 5\nloop: addi $t0, $t0, -1\nbgtz $t0, loop\nhalt"
        )
        run = VM(program).run()
        from_run = ProfilePredictor.from_run(run)
        from_trace = ProfilePredictor.from_trace(run.trace)
        assert from_run.direction_map() == from_trace.direction_map()

    def test_loop_branch_predicted_taken(self):
        trace = loop_trace(10)
        predictor = ProfilePredictor.from_trace(trace)
        stats = branch_stats(trace, predictor)
        # 10 branches: 9 taken (predicted), 1 exit misprediction.
        assert stats.conditional_branches == 10
        assert stats.mispredictions == 1
        assert stats.prediction_rate == pytest.approx(90.0)


class TestStaticPredictors:
    def test_always_taken(self):
        assert AlwaysTaken().lookup(0) is True

    def test_always_not_taken(self):
        assert AlwaysNotTaken().lookup(0) is False

    def test_btfnt_backward_taken(self):
        program = assemble(
            "loop: addi $t0, $t0, -1\nbgtz $t0, loop\nbeq $t0, $zero, fwd\nnop\nfwd: halt"
        )
        predictor = BackwardTaken(program)
        assert predictor.lookup(1) is True  # backward branch
        assert predictor.lookup(2) is False  # forward branch

    def test_perfect_predictor_never_mispredicts(self):
        trace = loop_trace(12)
        outcomes = [t == 1 for t in trace.takens if t != -1]
        perfect = PerfectPredictor()
        perfect.prime(outcomes)
        stats = branch_stats(trace, perfect)
        assert stats.mispredictions == 0
        assert stats.prediction_rate == 100.0


class TestDynamicPredictors:
    def test_one_bit_learns(self):
        predictor = OneBit(default_taken=False)
        assert predictor.lookup(4) is False
        predictor.update(4, True)
        assert predictor.lookup(4) is True

    def test_two_bit_hysteresis(self):
        predictor = TwoBit(initial=2)  # weakly taken
        predictor.update(7, False)  # 2 -> 1: now predicts not taken
        assert predictor.lookup(7) is False
        predictor.update(7, True)  # 1 -> 2
        assert predictor.lookup(7) is True

    def test_two_bit_saturates(self):
        predictor = TwoBit(initial=3)
        for _ in range(5):
            predictor.update(7, True)
        predictor.update(7, False)  # 3 -> 2: still predicts taken
        assert predictor.lookup(7) is True

    def test_two_bit_validates_initial(self):
        with pytest.raises(ValueError):
            TwoBit(initial=7)

    def test_gshare_learns_alternation(self):
        predictor = GShare(history_bits=4)
        # Train a strict T/N alternation at one pc; gshare keys off the
        # history register so it can learn it perfectly.
        outcome = True
        for _ in range(64):
            predictor.update(3, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(32):
            if predictor.lookup(3) == outcome:
                hits += 1
            predictor.update(3, outcome)
            outcome = not outcome
        assert hits == 32

    def test_gshare_validates_bits(self):
        with pytest.raises(ValueError):
            GShare(history_bits=0)

    def test_reset_clears_state(self):
        predictor = OneBit(default_taken=True)
        predictor.update(1, False)
        predictor.reset()
        assert predictor.lookup(1) is True


class TestMispredictionFlags:
    def test_flags_align_with_trace(self):
        trace = loop_trace(6)
        predictor = ProfilePredictor.from_trace(trace)
        flags = misprediction_flags(trace, predictor)
        assert len(flags) == len(trace)
        # The only misprediction is the final loop exit.
        mispredicted_indices = [i for i, f in enumerate(flags) if f]
        assert len(mispredicted_indices) == 1
        assert trace.takens[mispredicted_indices[0]] == 0  # fall-through

    def test_computed_jump_always_mispredicted(self):
        program = assemble(
            """
            la $t9, target
            jr $t9
            nop
        target:
            halt
            """
        )
        trace = VM(program).run().trace
        flags = misprediction_flags(trace, AlwaysTaken())
        jr_index = [i for i, pc in enumerate(trace.pcs) if pc == 1]
        assert flags[jr_index[0]] is True


class TestBranchStats:
    def test_no_branches(self):
        stats = BranchStats(dynamic_instructions=100, conditional_branches=0, mispredictions=0)
        assert stats.prediction_rate == 100.0
        assert stats.instructions_between_branches == 100.0

    def test_rates(self):
        stats = BranchStats(dynamic_instructions=60, conditional_branches=10, mispredictions=3)
        assert stats.prediction_rate == pytest.approx(70.0)
        assert stats.instructions_between_branches == pytest.approx(6.0)
