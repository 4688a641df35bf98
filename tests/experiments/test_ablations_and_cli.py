"""Tests for the ablation studies and the CLI driver."""

import os
import re
import time

import pytest

from repro.experiments import RunConfig, SuiteRunner
from repro.experiments import ablations
from repro.experiments.cli import EXPERIMENTS, main
from repro.jobs.cache import ORPHAN_MIN_AGE_S


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(RunConfig(max_steps=40_000))


class TestPredictorAblation:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return ablations.predictor_ablation(runner, benchmark="espresso")

    def test_all_predictors_present(self, result):
        names = [name for name, *_ in result.rows]
        assert names == [
            "always-taken", "always-not-taken", "btfnt", "one-bit",
            "two-bit", "gshare", "profile", "perfect",
        ]

    def test_perfect_predictor_wins(self, result):
        parallelisms = {name: p for name, _, p in result.rows}
        assert parallelisms["perfect"] >= max(parallelisms.values()) - 1e-9

    def test_perfect_prediction_rate_is_100(self, result):
        rates = {name: rate for name, rate, _ in result.rows}
        assert rates["perfect"] == 100.0

    def test_profile_beats_worst_constant(self, result):
        parallelisms = {name: p for name, _, p in result.rows}
        worst = min(parallelisms["always-taken"], parallelisms["always-not-taken"])
        assert parallelisms["profile"] >= worst - 1e-9

    def test_better_prediction_tends_to_help(self, result):
        rows = sorted(result.rows, key=lambda r: r[1])
        assert rows[-1][2] >= rows[0][2] - 1e-9

    def test_render(self, result):
        assert "espresso" in result.render()


class TestWindowAblation:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return ablations.window_ablation(runner, benchmark="gcc", windows=(8, 64, 512))

    def test_monotone_in_window(self, result):
        values = [p for _, p in result.rows]
        assert values == sorted(values)

    def test_unlimited_is_last(self, result):
        assert result.rows[-1][0] == "unlimited"


class TestLatencyAblation:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return ablations.latency_ablation(runner, benchmark="spice2g6")

    def test_unit_config_first(self, result):
        assert result.rows[0][0] == "unit (paper)"

    def test_all_positive(self, result):
        for _, oracle, sp in result.rows:
            assert oracle > 0 and sp > 0


class TestFlowsAblation:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return ablations.flows_ablation(runner, benchmark="gcc", flow_counts=(1, 2, 8))

    def test_monotone_in_flows(self, result):
        cd_mf = [cd for _, cd, _ in result.rows]
        sp_cd_mf = [sp for _, _, sp in result.rows]
        assert cd_mf == sorted(cd_mf)
        assert sp_cd_mf == sorted(sp_cd_mf)

    def test_one_flow_at_least_in_order(self, result):
        # k=1 allows out-of-order single-branch-per-cycle: >= strict
        # in-order CD / SP-CD.
        cd_ref, sp_cd_ref = result.single_flow
        _, cd_mf_1, sp_cd_mf_1 = result.rows[0]
        assert cd_mf_1 >= cd_ref - 1e-9
        assert sp_cd_mf_1 >= sp_cd_ref - 1e-9

    def test_unlimited_matches_mf_machines(self, result, runner):
        from repro.core import MachineModel as M

        unlimited = runner.analyze("gcc", models=[M.CD_MF, M.SP_CD_MF])
        _, cd_mf, sp_cd_mf = result.rows[-1]
        assert cd_mf == pytest.approx(unlimited[M.CD_MF].parallelism)
        assert sp_cd_mf == pytest.approx(unlimited[M.SP_CD_MF].parallelism)

    def test_speculative_machine_saturates_early(self, result):
        # Mispredictions are rare: a few flows capture nearly everything.
        _, _, sp_at_8 = result.rows[2]
        _, _, sp_unlimited = result.rows[-1]
        assert sp_at_8 > 0.9 * sp_unlimited

    def test_render(self, result):
        assert "flows of control" in result.render()


class TestGuardedAblation:
    #: Both demo variants halt within this budget (at 128,092 and 145,744).
    BUDGET = 150_000

    @pytest.fixture(scope="class")
    def result(self):
        runner = SuiteRunner(RunConfig(max_steps=self.BUDGET))
        return ablations.guarded_ablation(runner)

    def test_guarded_variant_reduces_branches(self, result):
        (_, plain_branches, *_), (_, guarded_branches, *_) = result.rows
        assert guarded_branches < plain_branches

    def test_render(self, runner):
        text = ablations.guarded_ablation(runner).render()
        assert "guarded" in text

    def test_farm_rows_equal_an_in_process_reference(self, result):
        """The farm's rows equal the demo analyzed the way the ablation
        once did in-process: the legacy VM's trace, a profile trained on
        it, and a LimitAnalyzer over the freshly compiled variant."""
        from repro.bench import DEMOS
        from repro.core import LimitAnalyzer
        from repro.core import MachineModel as M
        from repro.lang import compile_source
        from repro.prediction import ProfilePredictor
        from repro.vm import VM

        source = DEMOS["demo-branches"].source(1)
        reference = []
        for label, if_convert in (("branches", False), ("guarded", True)):
            program = compile_source(source, name=f"demo-{label}", if_convert=if_convert)
            trace = VM(program).run(max_steps=self.BUDGET).trace
            analysis = LimitAnalyzer(program).analyze(
                trace,
                models=[M.SP, M.SP_CD_MF],
                predictor=ProfilePredictor.from_trace(trace),
                collect_misprediction_stats=True,
            )
            distances = analysis.misprediction_stats.distances
            reference.append(
                (
                    label,
                    sum(1 for _ in trace.branch_outcomes()),
                    sum(distances) / len(distances),
                    analysis[M.SP].parallelism,
                    analysis[M.SP_CD_MF].parallelism,
                )
            )
        assert result.rows == reference


class TestConvergenceAblation:
    def test_base_stable_oracle_grows(self):
        from repro.core import MachineModel as M

        result = ablations.convergence_ablation(budgets=(30_000, 120_000))
        (small_budget, small), (big_budget, big) = result.rows
        assert small_budget < big_budget
        # BASE is locally limited: nearly budget-independent.
        assert abs(big[M.BASE] - small[M.BASE]) / small[M.BASE] < 0.25
        # ORACLE keeps finding distant parallelism.
        assert big[M.ORACLE] > small[M.ORACLE]

    def test_render(self):
        result = ablations.convergence_ablation(budgets=(20_000, 40_000))
        assert "trace length" in result.render()

    def test_budget_runners_keep_the_callers_engine(self, monkeypatch):
        from repro.core import LimitAnalyzer

        engines = []
        analyze = LimitAnalyzer.analyze

        def spy(self, *args, engine="fused", **kwargs):
            engines.append(engine)
            return analyze(self, *args, engine=engine, **kwargs)

        monkeypatch.setattr(LimitAnalyzer, "analyze", spy)
        legacy = SuiteRunner(RunConfig(max_steps=4_000, engine="legacy"))
        ablations.convergence_ablation(legacy, budgets=(2_000, 3_000))
        assert engines and set(engines) == {"legacy"}


class TestInliningAblation:
    def test_inlining_helps(self, runner):
        result = ablations.inlining_ablation(runner, benchmarks=("ccom",))
        ((name, base_ratio, sp_ratio, oracle_ratio),) = result.rows
        assert name == "ccom"
        # ccom is call-heavy: removing sp serialization must help ORACLE.
        assert oracle_ratio > 1.0

    def test_render(self, runner):
        text = ablations.inlining_ablation(runner, benchmarks=("ccom",)).render()
        assert "inlining" in text


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig7" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_runs_selected_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark Programs" in out

    def test_verbose_flow_peaks_same_cold_and_warm(self, capsys, tmp_path):
        args = ["ablation-flows", "--max-steps", "20000", "--verbose"]
        args += ["--cache-dir", str(tmp_path)]
        runs = []
        for _ in ("cold", "warm"):
            assert main(args) == 0
            err = capsys.readouterr().err
            runs.append([line for line in err.splitlines() if "[flow-peaks]" in line])
        cold, warm = runs
        assert warm == cold
        assert len(cold) == 2 * len(ablations.FLOW_COUNTS)
        assert cold[0].startswith("[flow-peaks] gcc CD-MF flows=1: peak ")

    def test_output_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        assert main(["table1", "--output", str(report)]) == 0
        text = report.read_text()
        assert "repro-experiments report" in text
        assert "Benchmark Programs" in text

    def test_startup_sweep_reclaims_aged_orphans(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        orphan = cache / "traces" / ".dead.rtrc.gz.12345.gz"
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"abandoned by a killed writer")
        old = time.time() - ORPHAN_MIN_AGE_S - 60
        os.utime(orphan, (old, old))
        assert main(["table1", "--cache-dir", str(cache)]) == 0
        assert not orphan.exists()

    def test_experiment_registry_complete(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig4", "fig5", "fig6", "fig7", "mix",
            "ablation-predictors", "ablation-window",
            "ablation-latency", "ablation-inlining", "ablation-guarded",
            "ablation-convergence", "ablation-flows",
        }
        assert set(EXPERIMENTS) == expected


class TestRobustnessFlags:
    """Dead jobs from real failures: a *file* stands where one of the
    cache's artifact directories belongs, so storing into it fails."""

    @staticmethod
    def blocked_cache(tmp_path, artifacts):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / artifacts).write_text("")
        return cache

    def test_dead_job_fails_its_experiment_by_name(self, capsys, tmp_path):
        cache = self.blocked_cache(tmp_path, "traces")
        args = ["table2", "--max-steps", "4000", "--cache-dir", str(cache)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "table2: trace job for awk is dead: [Errno 17] File exists" in err

    def test_dead_jobs_show_their_provenance(self, capsys, tmp_path):
        cache = self.blocked_cache(tmp_path, "results")
        args = ["table2", "table3", "--max-steps", "4000", "--cache-dir", str(cache)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "table3: analyze job for" in err
        dead = re.findall(
            r"\[farm\] failure  analyze  (\S+) +error: "
            r"\[Errno 17\] File exists: .* \(dead\)",
            err,
        )
        # One failure line per analyze job: each failed once, for good.
        assert sorted(dead) == sorted(set(dead)) and len(dead) == 10, err
        assert re.search(r"\[farm\] analyze: 10 jobs, .*, 10 dead", err), err
        assert "[farm] total " in err
        # --quiet keeps stderr down to the failing experiment's line.
        assert main(args + ["--quiet"]) == 1
        assert "[farm]" not in capsys.readouterr().err

    def test_survivors_render_after_a_dead_experiment(self, capsys, tmp_path):
        # table3 loses its analyze jobs; table2 needs none and still
        # renders after it, then the farm report prints once and the exit
        # is 1.  Once the fault is gone, a plain rerun executes exactly
        # the dead jobs and prints what a clean run prints.
        args = ["table3", "table2", "--max-steps", "4000"]
        assert main(args + ["--cache-dir", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr().out
        cache = self.blocked_cache(tmp_path, "results")
        args += ["--cache-dir", str(cache)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "Table 2: Branch Statistics" in captured.out
        assert "Table 3" not in captured.out
        assert "table3: analyze job for" in captured.err
        assert captured.err.count("[farm] total ") == 1

        (cache / "results").unlink()
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "[farm] trace: 10 jobs, 0 executed" in captured.err
        assert "[farm] analyze: 10 jobs, 10 executed" in captured.err

    def test_warm_rerun_reports_zero_executed(self, capsys, tmp_path):
        args = [
            "table2", "--max-steps", "4000",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args + ["--quiet"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert re.search(r"\[farm\] total \d+ jobs: 0 executed", err), err
