"""Exact-cycle tests for the flow-limit (k flows of control) extension."""

import pytest

from repro.asm import assemble
import repro.core.analyzer as analyzer_module
from repro.core import LimitAnalyzer, MachineModel
from repro.vm import VM

M = MachineModel

# Four independent if-guarded assignments: with unlimited flows all four
# branches execute in cycle 2; with k flows they retire ceil(4/k) cycles.
SOURCE = """
    li $t0, 1       # 0 -> cycle 1
    li $t1, 1       # 1 -> cycle 1
    li $t2, 1       # 2 -> cycle 1
    li $t3, 1       # 3 -> cycle 1
    bltz $t0, a     # 4
    li $t4, 1       # dep on 4
a:  bltz $t1, b     # 6
    li $t5, 1       # dep on 6
b:  bltz $t2, c     # 8
    li $t6, 1
c:  bltz $t3, d     # 10
    li $t7, 1
d:  halt
"""


@pytest.fixture(scope="module")
def setup():
    program = assemble(SOURCE)
    run = VM(program).run()
    return program, run.trace, LimitAnalyzer(program)


class TestExactCycles:
    def test_unlimited_flows(self, setup):
        _, trace, analyzer = setup
        result = analyzer.analyze(trace, models=[M.CD_MF])
        # Branches at cycle 2, dependents at 3.
        assert result[M.CD_MF].parallel_time == 3

    def test_two_flows(self, setup):
        _, trace, analyzer = setup
        result = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=2)
        # 4 branches / 2 per cycle -> cycles 2,3; last dependents at 4.
        assert result[M.CD_MF].parallel_time == 4

    def test_one_flow(self, setup):
        _, trace, analyzer = setup
        result = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=1)
        # Branches at 2,3,4,5; last dependent at 6.
        assert result[M.CD_MF].parallel_time == 6

    def test_four_flows_matches_unlimited(self, setup):
        _, trace, analyzer = setup
        limited = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=4)
        unlimited = analyzer.analyze(trace, models=[M.CD_MF])
        assert limited[M.CD_MF].parallel_time == unlimited[M.CD_MF].parallel_time

    def test_oracle_unaffected(self, setup):
        # With perfect prediction, branches never switch the flow of
        # control, so the flow limit does not apply to ORACLE.
        _, trace, analyzer = setup
        limited = analyzer.analyze(trace, models=[M.ORACLE], flow_limit=1)
        unlimited = analyzer.analyze(trace, models=[M.ORACLE])
        assert (
            limited[M.ORACLE].parallel_time
            == unlimited[M.ORACLE].parallel_time
        )

    def test_validation(self, setup):
        _, trace, analyzer = setup
        with pytest.raises(ValueError, match="flow_limit"):
            analyzer.analyze(trace, models=[M.CD_MF], flow_limit=0)


class TestSpeculativeFlowLimit:
    def test_only_mispredictions_count(self):
        # Correctly-predicted branches are not flow switches on SP machines:
        # with flow_limit=1 and zero mispredictions, SP-CD-MF is unchanged.
        source = """
            li $t0, 1
        loop:
            addi $t1, $t1, 1
            bgtz $t0, next     # always taken: predicted perfectly
        next:
            addi $t0, $t0, 0
            bgtz $t1, out      # taken once at the end... also consistent
        out:
            halt
        """
        program = assemble(source)
        run = VM(program).run()
        analyzer = LimitAnalyzer(program)
        limited = analyzer.analyze(run.trace, models=[M.SP_CD_MF], flow_limit=1)
        unlimited = analyzer.analyze(run.trace, models=[M.SP_CD_MF])
        assert (
            limited[M.SP_CD_MF].parallel_time
            == unlimited[M.SP_CD_MF].parallel_time
        )


class _CountingDict(dict):
    """A retirement-ledger dict that counts its lookups, within a budget."""

    steps = 0
    budget = 0

    def _step(self):
        type(self).steps += 1
        if type(self).steps > type(self).budget:
            raise AssertionError("flow placement exceeded its probe budget")

    def get(self, key, default=None):
        self._step()
        return super().get(key, default)

    def __getitem__(self, key):
        self._step()
        return super().__getitem__(key)

    def __contains__(self, key):
        self._step()
        return super().__contains__(key)


class TestPlacementCost:
    BRANCHES = 10_000

    # One loop whose body branches on a loop-invariant register: under
    # perfect unrolling the loop overhead is not counted, so every body
    # branch is independent and wants cycle 2.  At k = 1 they retire at
    # cycles 2..10001; a linear probe walks every full cycle below each.
    SOURCE = f"""
        li $t0, 1
        li $t1, 0
        li $t2, {BRANCHES}
    top:
        bltz $t0, skip
        li $t3, 1
    skip:
        addi $t1, $t1, 1
        bne $t1, $t2, top
        halt
    """

    def test_probe_steps_linear_in_records(self, monkeypatch):
        program = assemble(self.SOURCE)
        trace = VM(program).run().trace
        initial_state = analyzer_module._initial_state

        def counted_state(*args):
            state = initial_state(*args)
            for name in [n for n in state if n[:2] in ("cb", "nf")]:
                state[name] = _CountingDict()
                if name.startswith("cb"):
                    state["cg" + name[2:]] = state[name].get
            return state

        monkeypatch.setattr(analyzer_module, "_initial_state", counted_state)
        monkeypatch.setattr(_CountingDict, "steps", 0)
        monkeypatch.setattr(_CountingDict, "budget", 20 * len(trace.pcs))
        result = LimitAnalyzer(program).analyze(
            trace, models=[M.CD_MF], flow_limit=1, perfect_unrolling=True
        )
        assert result[M.CD_MF].parallel_time == self.BRANCHES + 2
        # About 8 steps a branch; a linear probe takes BRANCHES**2 / 2 = 5e7.
        assert _CountingDict.steps <= 10 * self.BRANCHES
