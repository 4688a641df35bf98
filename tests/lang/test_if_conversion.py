"""Tests for guarded-move if-conversion (paper §6)."""

import pytest

from repro.lang import compile_source, compile_to_assembly
from repro.vm import run_program

CLAMP = """
int data[128];
int main() {
    for (int i = 0; i < 128; i++) data[i] = (i * 2654435761) % 300 - 150;
    int total = 0; int peak = 0;
    for (int i = 0; i < 128; i++) {
        int v = data[i];
        if (v < 0) v = -v;
        if (v > 100) v = 100;
        if (v > peak) peak = v;
        total += v;
    }
    return total * 1000 + peak;
}
"""


def both_ways(source):
    plain = run_program(compile_source(source), max_steps=500_000)
    guarded = run_program(compile_source(source, if_convert=True), max_steps=500_000)
    assert plain.halted and guarded.halted
    return plain, guarded


class TestSemanticsPreserved:
    def test_clamp_kernel(self):
        plain, guarded = both_ways(CLAMP)
        assert plain.exit_value == guarded.exit_value

    def test_if_else_conversion(self):
        source = """
        int main() {
            int total = 0;
            for (int i = 0; i < 50; i++) {
                int x;
                if (i % 3 == 0) x = i * 2;
                else x = i + 100;
                total += x;
            }
            return total;
        }
        """
        plain, guarded = both_ways(source)
        assert plain.exit_value == guarded.exit_value
        asm = compile_to_assembly(source, if_convert=True)
        assert "movn" in asm and "movz" in asm

    def test_float_guarded_move(self):
        source = """
        int main() {
            float best = 0.0;
            float v = 1.0;
            for (int i = 0; i < 40; i++) {
                v = v * 1.1 - 0.4;
                if (v > best) best = v;
            }
            return (int)(best * 100.0);
        }
        """
        plain, guarded = both_ways(source)
        assert plain.exit_value == guarded.exit_value
        assert "fmovn" in compile_to_assembly(source, if_convert=True)

    def test_compound_assignment_convertible(self):
        source = """
        int main() {
            int acc = 0;
            for (int i = 0; i < 64; i++)
                if (i & 1) acc += i;
            return acc;
        }
        """
        plain, guarded = both_ways(source)
        assert plain.exit_value == guarded.exit_value


class TestConversionScope:
    def test_reduces_dynamic_branches(self):
        plain, guarded = both_ways(CLAMP)
        plain_branches = sum(1 for _ in plain.trace.branch_outcomes())
        guarded_branches = sum(1 for _ in guarded.trace.branch_outcomes())
        assert guarded_branches < plain_branches

    def test_calls_not_converted(self):
        source = """
        int calls;
        int bump() { calls++; return 1; }
        int main() {
            int x = 0;
            for (int i = 0; i < 10; i++)
                if (i > 4) x = bump();
            return calls * 100 + x;
        }
        """
        plain, guarded = both_ways(source)
        # bump() must run exactly 5 times in both variants.
        assert plain.exit_value == guarded.exit_value == 501

    def test_stores_not_converted(self):
        source = """
        int slots[4];
        int main() {
            for (int i = 0; i < 8; i++)
                if (i < 4) slots[i] = i;      // guarded store: must keep branch
            return slots[0] + slots[1] * 10 + slots[2] * 100 + slots[3] * 1000;
        }
        """
        plain, guarded = both_ways(source)
        assert plain.exit_value == guarded.exit_value == 3210

    def test_side_effect_values_not_converted(self):
        source = """
        int main() {
            int x = 0; int y = 0;
            for (int i = 0; i < 10; i++)
                if (i % 2) x = y++;
            return x * 100 + y;
        }
        """
        plain, guarded = both_ways(source)
        assert plain.exit_value == guarded.exit_value

    def test_off_by_default(self):
        asm = compile_to_assembly(CLAMP)
        assert "movn" not in asm and "movz" not in asm


class TestLimitEffects:
    def test_guarded_code_increases_misprediction_distance(self):
        """§6's actual claim: guarded instructions 'help increase the
        distance between mispredicted branches'.  (Whether SP parallelism
        rises too depends on how badly the removed branches predicted —
        the ablation study covers that.)"""
        from repro.core import LimitAnalyzer, MachineModel

        def mean_distance(program):
            run = run_program(program, max_steps=200_000)
            result = LimitAnalyzer(program).analyze(
                run.trace,
                models=[MachineModel.SP],
                collect_misprediction_stats=True,
            )
            distances = result.misprediction_stats.distances
            if not distances:
                return float("inf")  # no mispredictions at all
            return sum(distances) / len(distances)

        plain = mean_distance(compile_source(CLAMP))
        guarded = mean_distance(compile_source(CLAMP, if_convert=True))
        assert guarded > plain

    def test_guarded_ablation_shows_sp_gain(self):
        from repro.experiments import RunConfig, SuiteRunner
        from repro.experiments.ablations import guarded_ablation

        # The budget lets both demo variants run to completion.
        result = guarded_ablation(SuiteRunner(RunConfig(max_steps=150_000)))
        (_, b_branches, b_dist, b_sp, _), (_, g_branches, g_dist, g_sp, _) = result.rows
        assert g_branches < b_branches
        assert g_dist > 2 * b_dist
        assert g_sp > b_sp
