"""Engine selection plumbing: ``RunConfig.engine`` must reach every
analysis, produce identical experiment outputs, and keep the legacy
oracle path honest by keying its results apart from the fused ones."""

import re

from repro.core import MachineModel
from repro.experiments import RunConfig, SuiteRunner, table3
from repro.experiments.cli import main
from repro.jobs import HIT, RUN

M = MachineModel


class TestRunConfigEngine:
    def test_default_is_fused(self):
        assert RunConfig().engine == "fused"

    def test_engine_reaches_results(self):
        fused = SuiteRunner(RunConfig(max_steps=8_000)).analyze(
            "awk", models=[M.BASE]
        )
        legacy = SuiteRunner(
            RunConfig(max_steps=8_000, engine="legacy")
        ).analyze("awk", models=[M.BASE])
        assert fused.engine == "fused"
        assert legacy.engine == "legacy"
        assert fused == legacy

    def test_table3_identical_across_engines(self):
        fused = table3.run(SuiteRunner(RunConfig(max_steps=8_000))).render()
        legacy = table3.run(
            SuiteRunner(RunConfig(max_steps=8_000, engine="legacy"))
        ).render()
        assert fused == legacy

    def test_legacy_is_never_served_the_fused_result(self, tmp_path):
        cache_dir = tmp_path / "cache"
        # A fused runner populates the persistent result cache...
        warm = SuiteRunner(RunConfig(max_steps=8_000, cache_dir=cache_dir))
        warm.analyze("awk", models=[M.BASE])
        # ...a fused re-run is served from it...
        fused = SuiteRunner(RunConfig(max_steps=8_000, cache_dir=cache_dir))
        fused.analyze("awk", models=[M.BASE])
        (fused_record,) = analyze_records(fused)
        assert fused_record.status == HIT
        # ...but a legacy runner executes the oracle in an analyze job of
        # its own, under a key apart from the fused artifact's.
        legacy = SuiteRunner(
            RunConfig(max_steps=8_000, cache_dir=cache_dir, engine="legacy")
        )
        result = legacy.analyze("awk", models=[M.BASE])
        assert result.engine == "legacy"
        (legacy_record,) = analyze_records(legacy)
        assert legacy_record.status == RUN
        assert legacy_record.key != fused_record.key


def analyze_records(runner):
    return [
        record
        for record in runner.farm_report.records.values()
        if record.stage == "analyze"
    ]


ABLATIONS = [
    "ablation-predictors",
    "ablation-window",
    "ablation-latency",
    "ablation-flows",
    "ablation-guarded",
]


class TestCliFlag:
    def test_legacy_engine_flag_output_identical(self, capsys, tmp_path):
        args = ["table1", "--max-steps", "8000", "--no-cache"]
        assert main(args) == 0
        fused_out = capsys.readouterr().out
        assert main(args + ["--legacy-engine"]) == 0
        legacy_out = capsys.readouterr().out
        assert legacy_out == fused_out

    def test_legacy_engine_reaches_every_ablation(self, capsys, tmp_path):
        args = ABLATIONS + ["--max-steps", "20000", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        fused = capsys.readouterr().out
        fused_results = set((tmp_path / "results").glob("*.json"))
        assert main(args + ["--legacy-engine"]) == 0
        legacy = capsys.readouterr()
        assert legacy.out == fused
        # Every ablation analysis ran again, as legacy jobs under new keys.
        legacy_results = set((tmp_path / "results").glob("*.json")) - fused_results
        jobs = re.search(r"\[farm\] analyze: (\d+) jobs, (\d+) executed", legacy.err)
        assert jobs[1] == jobs[2] == str(len(legacy_results)) == str(len(fused_results))
