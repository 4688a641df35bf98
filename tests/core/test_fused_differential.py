"""Differential oracle suite: the fused engine must be byte-identical to
the legacy per-model sweep on every benchmark in the suite.

This is the guard the tentpole rewrite stands on — the paper's tables
and figures are derived from these results, so any divergence between
the engines is a correctness bug by definition.  CI runs this suite
alongside the microbenchmark smoke job.
"""

import pytest

from repro.bench import SUITE
from repro.core import LimitAnalyzer
from repro.isa import OpKind
from repro.prediction import ProfilePredictor
from repro.vm import VM, TraceReader, save_trace
from repro.vm.trace_io import DEFAULT_CHUNK_RECORDS

#: Small budget: enough dynamic behavior to exercise every model's state
#: machinery on real control flow while keeping the suite fast.
MAX_STEPS = 12_000


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name):
        if name not in cache:
            program = SUITE[name].compile()
            trace = VM(program).run(max_steps=MAX_STEPS).trace
            cache[name] = (
                LimitAnalyzer(program),
                trace,
                ProfilePredictor.from_trace(trace),
            )
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(SUITE))
def test_default_table3_shape_identical(runs, name):
    analyzer, trace, predictor = runs(name)
    fused = analyzer.analyze(trace, predictor=predictor, engine="fused")
    legacy = analyzer.analyze(trace, predictor=predictor, engine="legacy")
    assert fused == legacy


@pytest.mark.parametrize("name", sorted(SUITE))
def test_optioned_shapes_identical(runs, name):
    analyzer, trace, predictor = runs(name)
    for kwargs in (
        dict(collect_misprediction_stats=True),
        dict(window=32),
        dict(flow_limit=1),
        dict(flow_limit=2),
        dict(latencies={OpKind.LOAD: 3, OpKind.ALU: 2, OpKind.BRANCH: 2}),
        dict(perfect_inlining=False),
        dict(perfect_unrolling=False),
        dict(perfect_inlining=False, perfect_unrolling=False),
        dict(
            window=7,
            flow_limit=3,
            collect_misprediction_stats=True,
            latencies={OpKind.LOAD: 2},
            perfect_inlining=False,
        ),
    ):
        fused = analyzer.analyze(
            trace, predictor=predictor, engine="fused", **kwargs
        )
        legacy = analyzer.analyze(
            trace, predictor=predictor, engine="legacy", **kwargs
        )
        assert fused == legacy, kwargs
        assert fused.flow_peaks == legacy.flow_peaks, kwargs


@pytest.mark.parametrize("name", sorted(SUITE))
def test_chunk_sizes_identical(runs, name, tmp_path):
    # One record per chunk cuts every basic block; seven cuts most of them
    # at varying offsets; the default holds the whole trace in one chunk.
    analyzer, trace, predictor = runs(name)
    legacy = analyzer.analyze(trace, predictor=predictor, engine="legacy")
    for chunk_size in (1, 7, DEFAULT_CHUNK_RECORDS):
        path = tmp_path / f"c{chunk_size}.rtrc"
        save_trace(trace, path, chunk_size=chunk_size)
        reader = TraceReader(path, analyzer.program)
        assert analyzer.analyze(reader, predictor=predictor) == legacy, chunk_size
