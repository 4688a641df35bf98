"""Tests for the shared experiment runner and table renderer."""

import pytest

from repro.core import LimitAnalyzer, MachineModel
from repro.experiments import RunConfig, SuiteRunner, TextTable
from repro.jobs import AnalysisRequest, ArtifactCache, FarmReport, Planner
from repro.prediction import AlwaysTaken, branch_stats

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

    def test_named_predictor_is_a_cached_farm_request(self, runner):
        result = runner.analyze("awk", models=[M.SP], predictor="always-taken")
        run = runner.run("awk")
        direct = LimitAnalyzer(run.program).analyze(
            run.trace, models=[M.SP], predictor=AlwaysTaken()
        )
        assert result == direct
        assert result.branch_stats == branch_stats(run.trace, AlwaysTaken())
        assert runner.analyze("awk", models=[M.SP], predictor="always-taken") is result
        planner = Planner(ArtifactCache(runner.cache_dir), FarmReport())

        def key(**options):
            request = AnalysisRequest("awk", (M.SP,), **options)
            return planner.request_keys(request, None, 20_000).result

        assert key(predictor="always-taken") != key()

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

    def test_verify_prefetch_covers_the_oracle_check(self, tmp_path):
        # --verify's STA412 check reads each benchmark's full-model
        # result: prefetch farms those too, so the render executes none.
        from repro.experiments import table2

        runner = SuiteRunner(
            RunConfig(max_steps=5_000, verify=True, jobs=2, cache_dir=tmp_path)
        )
        runner.prefetch(table2.requirements(runner.config))
        prefetched = runner.farm_report.executed
        table2.run(runner)
        assert runner.farm_report.executed == prefetched

    def test_scale_override(self):
        runner = SuiteRunner(RunConfig(max_steps=5_000, scale=1))
        run = runner.run("matrix300")
        assert run.spec.name == "matrix300"
        assert len(run.trace) == 5_000
