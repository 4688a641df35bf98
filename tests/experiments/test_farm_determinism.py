"""Parallel determinism and warm-cache guarantees for the experiment farm.

The acceptance bar from the farm design: ``repro-experiments table3``
must produce byte-identical stdout with ``--jobs 1`` and ``--jobs 4``,
and a warm-cache second run must produce identical output while
executing zero trace jobs.  With a cache and without one (a throwaway
cache, removed afterwards), ``table2 table3`` prints exactly the tables
the differential oracles render.
"""

import gc
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import SUITE
from repro.core import LimitAnalyzer
from repro.experiments import table2, table3
from repro.experiments.cli import main
from repro.prediction import ProfilePredictor, branch_stats
from repro.vm import VM

MAX_STEPS = "4000"


def run_cli(capsys, args):
    """Invoke the CLI and return (stdout, stderr)."""
    assert main(args) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


ORACLE_STEPS = 20_000


class _OracleRunner:
    """What table2.run and table3.run read from a SuiteRunner, built from
    the differential oracles: the legacy VM, Table 2 from ``branch_stats``
    over the trace, and the legacy analyzer."""

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.runs: dict[str, SimpleNamespace] = {}

    def run(self, name: str) -> SimpleNamespace:
        if name not in self.runs:
            program = SUITE[name].compile()
            trace = VM(program).run(max_steps=self.max_steps).trace
            predictor = ProfilePredictor.from_trace(trace)
            self.runs[name] = SimpleNamespace(
                program=program,
                trace=trace,
                predictor=predictor,
                stats=branch_stats(trace, predictor),
            )
        return self.runs[name]

    def analyze(self, name: str):
        run = self.run(name)
        return LimitAnalyzer(run.program).analyze(
            run.trace, predictor=run.predictor, engine="legacy"
        )


@pytest.fixture(scope="module")
def oracle_tables() -> str:
    """``table2 table3`` stdout as rendered from the oracle runner."""
    runner = _OracleRunner(ORACLE_STEPS)
    return "".join(
        f"{module.run(runner).render()}\n\n" for module in (table2, table3)
    )


class TestParallelByteIdentity:
    def test_table3_jobs1_vs_jobs4(self, capsys, tmp_path):
        serial, _ = run_cli(
            capsys,
            [
                "table3",
                "--max-steps", MAX_STEPS,
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "serial"),
            ],
        )
        parallel, _ = run_cli(
            capsys,
            [
                "table3",
                "--max-steps", MAX_STEPS,
                "--jobs", "4",
                "--cache-dir", str(tmp_path / "parallel"),
            ],
        )
        assert parallel == serial

    def test_cached_matches_uncached(self, capsys, tmp_path, oracle_tables):
        args = ["table2", "table3", "--max-steps", str(ORACLE_STEPS), "--quiet"]
        cached, _ = run_cli(capsys, args + ["--cache-dir", str(tmp_path / "c")])
        uncached, _ = run_cli(capsys, args + ["--no-cache"])
        assert cached == oracle_tables
        assert uncached == oracle_tables

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_cache_leaves_no_directory(self, capsys, tmp_path, monkeypatch, jobs):
        made = []
        mkdtemp = tempfile.mkdtemp

        def recorded(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(tempfile, "mkdtemp", recorded)
        run_cli(
            capsys,
            ["table2", "--max-steps", MAX_STEPS, "--no-cache", "--jobs", jobs],
        )
        gc.collect()
        assert any(Path(path).name.startswith("repro-cache-") for path in made)
        assert all(path.startswith(str(tmp_path)) for path in made)
        assert list(tmp_path.glob("repro-cache-*")) == []


class TestWarmCache:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return str(tmp_path / "warm")

    def test_second_run_identical_with_zero_jobs_executed(
        self, capsys, cache_dir
    ):
        cold_out, cold_err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        assert "hit rate" in cold_err
        warm_out, warm_err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        assert warm_out == cold_out
        assert "jobs: 0 executed" in warm_err
        assert "hit rate 100.0%" in warm_err
        # No trace stage line reports any execution on the warm run.
        for line in warm_err.splitlines():
            if line.startswith("[farm] trace:"):
                assert ", 0 executed" in line

    def test_warm_run_reuses_cache_across_experiments(
        self, capsys, cache_dir
    ):
        # table2 only needs traces; a following table3 run should reuse
        # them and only execute the analysis stage.
        run_cli(
            capsys,
            ["table2", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        _, err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        for line in err.splitlines():
            if line.startswith(("[farm] compile:", "[farm] trace:")):
                assert ", 0 executed" in line


class TestOneDecodePass:
    """The trace job stores the profile and Table 2 is read off its counts,
    so the analysis is the only pass over a stored trace."""

    ARGS = ["table2", "table3", "--max-steps", "20000", "--quiet"]

    @pytest.fixture()
    def passes(self, monkeypatch):
        """Count TraceReader.chunks passes per trace file."""
        from collections import Counter

        from repro.vm import TraceReader

        counts = Counter()
        chunks = TraceReader.chunks

        def counted(self):
            counts[self.path] += 1
            return chunks(self)

        monkeypatch.setattr(TraceReader, "chunks", counted)
        return counts

    def test_cold_cache_decodes_each_trace_once_and_warm_never(
        self, capsys, tmp_path, passes
    ):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "c")]
        cold, _ = run_cli(capsys, args)
        traces = list((tmp_path / "c" / "traces").glob("*.rtrc.gz"))
        assert len(traces) == 10
        assert sorted(passes.values()) == [1] * len(traces)
        assert set(passes) == {str(path) for path in traces}
        passes.clear()
        warm, _ = run_cli(capsys, args)
        assert warm == cold
        assert sum(passes.values()) == 0

    def test_garbled_profile_heals_with_identical_output(self, capsys, tmp_path):
        import shutil

        cache = tmp_path / "c"
        args = self.ARGS + ["--cache-dir", str(cache)]
        clean, _ = run_cli(capsys, args)
        profile = sorted((cache / "profiles").glob("*.json"))[0]
        profile.write_bytes(b"\x00garbled\xff")
        shutil.rmtree(cache / "results")
        healed, _ = run_cli(capsys, args)
        assert healed == clean
        assert (cache / "corrupt" / profile.name).is_file()
        assert profile.is_file()  # re-produced by its trace job

    def test_garbled_profile_heals_when_the_runner_loads_it(
        self, capsys, tmp_path
    ):
        cache = tmp_path / "c"
        args = ["table2", "--max-steps", "20000", "--cache-dir", str(cache)]
        clean, _ = run_cli(capsys, args)
        profile = sorted((cache / "profiles").glob("*.json"))[0]
        profile.write_bytes(b"\x00garbled\xff")
        healed, err = run_cli(capsys, args)
        assert healed == clean
        assert (cache / "corrupt" / profile.name).is_file()
        assert "corrupt" in err
        assert "1 executed" in err  # only the damaged profile's trace job
