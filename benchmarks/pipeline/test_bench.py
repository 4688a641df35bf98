"""Harness tests for the pipeline benchmark, at tiny budgets.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import history

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads(bench.SPEC_PATH.read_text())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Shrink the input space and the repetitions so every run takes seconds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(bench.BUDGETS, "tables", (2_000, 3_000))
        patch.setitem(bench.BUDGETS, "analysis-sweep", (3_000, 4_000))
        patch.setitem(bench.BUDGETS, "trace-long", (5_000, 6_000))
        patch.setattr(bench, "MIN_ITERATIONS", 1)
        patch.setattr(bench, "SETUP_REPEATS", dict.fromkeys(bench.WORKLOADS, 1))
        patch.setattr(bench, "WORK_ROOT", tmp_path_factory.mktemp("work"))
        patch.setattr(bench, "GOLDEN_PATH", tmp_path_factory.mktemp("golden") / "golden.json")
        yield


@pytest.fixture(scope="module")
def results(tiny):
    """One untraced and one traced run of every workload.

    No golden entries exist for the tiny inputs, so every output is
    cross-checked against the in-memory fused path.
    """
    return {
        (workload, traced): bench.run_workload(workload, 0, 0, traced, golden={})
        for workload in bench.WORKLOADS
        for traced in (False, True)
    }


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_same_seed_draws_identical_inputs():
    for workload in bench.WORKLOADS:
        assert bench.draw_inputs(workload, 7) == bench.draw_inputs(workload, 7)


def test_different_seeds_draw_different_inputs():
    for workload in bench.WORKLOADS:
        assert bench.draw_inputs(workload, 0) != bench.draw_inputs(workload, 1)


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_run_emits_exactly_the_declared_metrics(results, workload, traced):
    result = results[workload, traced]
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result["values"]) == {metric["name"] for metric in declared}
    line = bench.result_line(result, declared)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    if not traced:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_layer_seconds_are_shares_of_the_wall(results, workload):
    values = results[workload, True]["values"]
    seconds = [values[f"{layer}_s"] for layer in bench.LAYERS + ("jobs.orchestration",)]
    shares = [values[f"{layer}.share"] for layer in bench.LAYERS + ("jobs.orchestration",)]
    assert min(seconds) >= 0 and min(shares) >= 0
    assert sum(shares) <= 1 + 1e-9


def test_history_compares_each_workload_and_mode_with_itself(results, tmp_path):
    """Runs appended one workload at a time, traced and untraced
    interleaved, still each find a baseline of their own."""
    path = tmp_path / "history.jsonl"
    for _ in range(2):
        for (workload, traced), result in results.items():
            declared = SPEC["per_layer" if traced else "end_to_end"]
            bench.append_history(str(path), [result], declared, traced)
    comparisons = history.evaluate(history.load_history(path))
    assert len(comparisons) == len(results)
    assert all(row["status"] == "ok" for c in comparisons for row in c["metrics"])


def test_golden_digests_gate_the_exit_code(tiny, capsys):
    args = ["--workload", "paper-cold", "--seed", "0", "--seconds", "0"]
    assert bench.main(["--bless", "--workload", "paper-cold"]) == 0
    assert bench.main(args) == 0
    assert last_json_line(capsys)["failed"] == 0

    golden = json.loads(bench.GOLDEN_PATH.read_text())
    entry = golden["tables"][str(bench.draw_inputs("paper-cold", 0)["max_steps"])]
    entry["stdout"] = entry["rows"]["awk"] = "0" * 64
    bench.GOLDEN_PATH.write_text(json.dumps(golden))
    assert bench.main(args) == 1
    line = last_json_line(capsys)
    assert not line["correct"] and line["failed"] / line["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark is refused."""
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "pipeline"
    shutil.copytree(bench.HERE, target, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "paper-cold", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(target / "bench.py"), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
