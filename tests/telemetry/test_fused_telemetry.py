"""Telemetry must not perturb analysis results or the fused kernel.

The fused analyzer runs one kernel whether telemetry is on or off, and
records its span and throughput gauge around the call.  These tests pin
(a) result identity across legacy/fused/telemetry-on, (b) that the
kernel source carries no telemetry code at all, and (c) that a
telemetry-on sweep populates the analyzer gauges.
"""

import pytest

from repro import telemetry
from repro.bench import SUITE
from repro.core import LimitAnalyzer
from repro.core.analyzer import fused_kernel_source
from repro.prediction import ProfilePredictor
from repro.vm import VM

MAX_STEPS = 6_000


@pytest.fixture(scope="module")
def run():
    program = SUITE["awk"].compile()
    trace = VM(program).run(max_steps=MAX_STEPS).trace
    return LimitAnalyzer(program), trace, ProfilePredictor.from_trace(trace)


class TestResultIdentity:
    def test_fused_identical_with_telemetry_enabled(self, run, tmp_path):
        analyzer, trace, predictor = run
        baseline = analyzer.analyze(trace, predictor=predictor, engine="fused")
        telemetry.configure(tmp_path)
        with_tele = analyzer.analyze(trace, predictor=predictor, engine="fused")
        assert with_tele == baseline

    def test_legacy_identical_with_telemetry_enabled(self, run, tmp_path):
        analyzer, trace, predictor = run
        baseline = analyzer.analyze(trace, predictor=predictor, engine="legacy")
        telemetry.configure(tmp_path)
        with_tele = analyzer.analyze(trace, predictor=predictor, engine="legacy")
        assert with_tele == baseline


class TestKernelSource:
    def test_disabled_kernel_has_no_telemetry_code(self):
        source = fused_kernel_source()
        assert "tele" not in source
        assert "cdsc" not in source


class TestGauges:
    def test_analyzer_gauges_populated(self, run, tmp_path):
        analyzer, trace, predictor = run
        telemetry.configure(tmp_path)
        analyzer.analyze(trace, predictor=predictor, engine="fused")

        ips = telemetry.METRICS.get("repro_analyzer_instructions_per_second").value(
            program="awk", engine="fused"
        )
        assert ips > 0

    def test_flow_peak_gauge_set_without_telemetry(self, run):
        analyzer, trace, predictor = run
        assert not telemetry.enabled()
        analyzer.analyze(
            trace, predictor=predictor, engine="fused", flow_limit=2
        )
        gauge = telemetry.METRICS.get("repro_analyzer_flow_ledger_peak")
        samples = gauge.to_json()["samples"]
        assert samples, "flow-limited analyze must record peak gauges"
        assert all(s["labels"]["flows"] == "2" for s in samples)

    def test_spans_emitted_per_analyze(self, run, tmp_path):
        analyzer, trace, predictor = run
        telemetry.configure(tmp_path)
        analyzer.analyze(trace, predictor=predictor, engine="fused")
        telemetry.flush()
        names = [r["name"] for r in telemetry.load_spans(tmp_path)]
        assert "analyzer.analyze" in names
