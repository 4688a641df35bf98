"""The installed console scripts must work end-to-end via subprocess."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def project_scripts(text):
    """``name -> "module:function"`` from the ``[project.scripts]`` table.

    A line parser rather than ``tomllib``, which Python 3.10 lacks.
    """
    scripts = {}
    in_table = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip("\"'")
    return scripts


class TestEntryPoints:
    def test_every_script_target_is_callable(self):
        scripts = project_scripts(PYPROJECT.read_text())
        assert len(scripts) == 7, sorted(scripts)
        for name, target in scripts.items():
            module, function = target.split(":")
            entry = getattr(importlib.import_module(module), function)
            assert callable(entry), name


def run_module(module, *args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestConsoleScripts:
    def test_experiments_list(self):
        result = run_module("repro.experiments.cli", "--list")
        assert result.returncode == 0
        assert "table3" in result.stdout

    def test_experiments_single_table(self):
        result = run_module(
            "repro.experiments.cli", "--max-steps", "20000", "table2"
        )
        assert result.returncode == 0
        assert "Branch Statistics" in result.stdout

    def test_repro_cc_roundtrip(self, tmp_path):
        source = tmp_path / "p.c"
        source.write_text("int main() { print_int(6 * 7); return 0; }")
        result = run_module("repro.tools", "run", str(source))
        assert result.returncode == 0
        assert "42" in result.stdout

    def test_repro_cc_bad_command(self):
        result = run_module("repro.tools", "frobnicate")
        assert result.returncode != 0


class TestEmptyTraceAnalysis:
    def test_analyzer_handles_empty_trace(self):
        from repro.asm import assemble
        from repro.core import ALL_MODELS, LimitAnalyzer
        from repro.vm import VM

        program = assemble("halt")
        trace = VM(program).run(max_steps=0).trace
        result = LimitAnalyzer(program).analyze(trace)
        for model in ALL_MODELS:
            assert result[model].parallelism == 1.0
            assert result[model].sequential_time == 0
