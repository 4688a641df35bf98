"""A warm rerun renders from cached artifacts alone.

Every artifact key resolves from the stored asm listing, Table 2 reads
the cached profile and Table 3 the cached results, so re-rendering them
from a filled cache compiles no program and builds no static analysis.
Consumers that need the program still build it on first use.
"""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import repro
import repro.bench.spec
import repro.lang.compiler
from repro.core import LimitAnalyzer
from repro.experiments.cli import main

TABLES = ["table2", "table3", "--max-steps", "4000"]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cache filled by one cold ``table2 table3`` run, and its stdout."""
    cache = tmp_path_factory.mktemp("warm") / "cache"
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(TABLES + ["--cache-dir", str(cache)]) == 0
    return cache, out.getvalue()


def test_warm_rerun_compiles_nothing(cold, capsys, monkeypatch):
    cache, cold_out = cold
    compiles = []
    analyzers = []

    def refuse(source, **kwargs):
        compiles.append(kwargs.get("name"))
        raise AssertionError(f"a warm rerun compiled {kwargs.get('name')}")

    init = LimitAnalyzer.__init__

    def counted(self, *args, **kwargs):
        analyzers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(repro.bench.spec, "_CACHE", {})
    monkeypatch.setattr(repro.lang.compiler, "compile_source", refuse)
    monkeypatch.setattr(LimitAnalyzer, "__init__", counted)
    assert main(TABLES + ["--cache-dir", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold_out
    assert compiles == [] and analyzers == []
    assert re.search(r"\[farm\] total \d+ jobs: 0 executed", captured.err)


def test_program_consumers_still_render_warm(cold, capsys):
    cache, cold_out = cold
    assert main(["mix", "--max-steps", "4000", "--cache-dir", str(cache)]) == 0
    assert "Dynamic instruction mix" in capsys.readouterr().out
    args = ["table2", "--verify", "--max-steps", "4000", "--cache-dir", str(cache)]
    assert main(args) == 0
    table2 = capsys.readouterr().out
    assert table2.startswith("Table 2: Branch Statistics")
    assert cold_out.startswith(table2)


def test_farm_timing_line(cold, capsys, tmp_path):
    cache, _ = cold
    report = tmp_path / "report.txt"
    args = TABLES + ["--cache-dir", str(cache), "--output", str(report)]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert re.search(r"^\[farm: [0-9.]+s\]$", err, re.MULTILINE), err
    assert re.search(r"^\[farm: [0-9.]+s\]$", report.read_text(), re.MULTILINE)
    assert main(args + ["--quiet"]) == 0
    assert "[farm:" not in capsys.readouterr().err


# Run in a fresh interpreter, so modules the test session already imported
# do not mask what a warm render loads.
WARM_IMPORTS = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from repro.experiments.cli import main

HEAVY = ("repro.lang.compiler", "repro.analysis.cfg", "repro.core.analyzer")

def render(args):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(args + ["--cache-dir", sys.argv[1]])
    return code, out.getvalue()

report = {"warm": render(%r)}
report["warm_loaded"] = [m for m in HEAVY if m in sys.modules]
report["mix"] = render(["mix", "--max-steps", "4000"])
report["verify"] = render(["table2", "--verify", "--max-steps", "4000"])
report["demand_loaded"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(report))
""" % (TABLES,)


def test_warm_render_imports_no_compiler_or_analyzer(cold):
    cache, cold_out = cold
    src = Path(repro.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", WARM_IMPORTS, str(cache)],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["warm"] == [0, cold_out]
    assert report["warm_loaded"] == []
    # Consumers of the program and its static analysis load them on demand.
    assert report["mix"][0] == 0
    assert "Dynamic instruction mix" in report["mix"][1]
    assert report["verify"][0] == 0
    assert cold_out.startswith(report["verify"][1])
    assert report["demand_loaded"] == [
        "repro.lang.compiler",
        "repro.analysis.cfg",
        "repro.core.analyzer",
    ]
