"""Differential tests: the VM's branch counts against the trace oracles.

The trace stage stores ``ProfilePredictor.from_run(result)`` and Table 2
is read off its counts, so both must agree with the oracles that walk
the trace: ``ProfilePredictor.from_trace`` for the directions and
``branch_stats`` for the statistics.  Every suite benchmark is checked
twice: truncated by a step budget, and run until it halts.
"""

import pytest

from repro.bench import SUITE
from repro.prediction import ProfilePredictor, branch_stats
from repro.vm import FastVM, TraceReader, TraceWriter
from repro.vm.trace_io import DEFAULT_CHUNK_RECORDS

#: Step budget of the truncated runs (every benchmark runs longer).
BUDGET = 20_000

#: Budget of the halting runs at scale 1 (the longest takes 1.4M steps).
UNBOUNDED = 5_000_000


def _assert_counts_match_trace(result):
    trace = result.trace
    oracle = ProfilePredictor.from_trace(trace)
    counted = ProfilePredictor.from_run(result)
    assert counted.direction_map() == oracle.direction_map()
    assert counted.counts() == oracle.counts()
    assert counted.records == oracle.records == len(trace)
    assert counted.stats() == branch_stats(trace, oracle)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_truncated_run_counts_match_trace(name):
    result = FastVM(SUITE[name].compile()).run(max_steps=BUDGET)
    assert not result.halted
    assert result.steps == BUDGET
    _assert_counts_match_trace(result)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_halted_run_counts_match_trace(name):
    result = FastVM(SUITE[name].compile(1)).run(max_steps=UNBOUNDED)
    assert result.halted
    _assert_counts_match_trace(result)


class TestStatsFromCounts:
    def test_tie_is_predicted_taken(self):
        # A tie predicts taken, so the not-taken half mispredicts.
        stats = ProfilePredictor.from_counts({5: [3, 3]}, records=20).stats()
        assert stats.conditional_branches == 6
        assert stats.mispredictions == 3
        assert stats.dynamic_instructions == 20

    def test_minority_counts_are_the_mispredictions(self):
        counts = {4: [2, 8], 9: [7, 1], 12: [0, 5]}
        stats = ProfilePredictor.from_counts(counts, records=100).stats()
        assert stats.conditional_branches == 23
        assert stats.mispredictions == 2 + 1 + 0
        assert stats.instructions_between_branches == pytest.approx(100 / 23)

    def test_no_branches(self):
        stats = ProfilePredictor.from_counts({}, records=7).stats()
        assert stats.conditional_branches == 0
        assert stats.mispredictions == 0
        assert stats.prediction_rate == 100.0


@pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_RECORDS])
def test_from_source_counts_records_per_chunk(chunk_size, tmp_path):
    program = SUITE["awk"].compile()
    path = tmp_path / "awk.rtrc"
    with TraceWriter(path, program, chunk_size=chunk_size) as writer:
        result = FastVM(program).run(max_steps=3_000, sink=writer)
    reader = TraceReader(path, program)
    profiled = ProfilePredictor.from_source(reader)
    assert profiled.records == result.steps == 3_000
    assert profiled.counts() == ProfilePredictor.from_run(result).counts()
