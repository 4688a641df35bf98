"""Tests for the benchmark history store (repro.bench.history)."""

import json

from repro.bench.history import (
    HIGHER,
    LOWER,
    append,
    append_record,
    compare_latest,
    entry,
    evaluate,
    load_history,
    main,
    make_record,
)


def timings(fast=0.5, speedup=5.0):
    return {
        "gcc.fast_s": entry(fast, "s", LOWER),
        "gcc.speedup": entry(speedup, "x", HIGHER),
    }


class TestStore:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        record = append(path, "vm-bench", timings())
        [loaded] = load_history(path)
        assert loaded == json.loads(json.dumps(record))
        assert loaded["schema"] == 1
        assert loaded["kind"] == "vm-bench"
        assert loaded["host"]["cpus"] >= 1

    def test_load_skips_torn_and_future_schema_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings())
        with open(path, "a") as stream:
            stream.write('{"schema": 99, "kind": "vm-bench", "entries": {}}\n')
            stream.write('{"torn": \n')  # killed mid-append
        assert len(load_history(path)) == 1

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []


class TestCompare:
    def test_injected_2x_slowdown_is_flagged(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings(fast=0.5))
        append(path, "vm-bench", timings(fast=1.0))  # 2x slower
        [result] = evaluate(load_history(path))
        row = next(
            r for r in result["metrics"] if r["metric"] == "gcc.fast_s"
        )
        assert row["status"] == "regressed"
        assert row["change"] == 1.0  # +100%

    def test_unchanged_rerun_passes(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings())
        append(path, "vm-bench", timings())
        [result] = evaluate(load_history(path))
        assert all(r["status"] == "ok" for r in result["metrics"])

    def test_higher_is_better_direction(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings(speedup=5.0))
        append(path, "vm-bench", timings(speedup=2.0))  # speedup collapsed
        [result] = evaluate(load_history(path))
        row = next(
            r for r in result["metrics"] if r["metric"] == "gcc.speedup"
        )
        assert row["status"] == "regressed"

    def test_noisy_metric_widens_allowance(self):
        records = [
            make_record("vm-bench", {"m": entry(v, "s")})
            for v in (0.5, 1.0, 0.5, 1.0, 0.5)
        ]
        # Latest (1.3) is ~73% above the 0.5 median, but the window
        # spreads 0.5..1.0 (100% of the median): 3x noise allows it.
        records.append(make_record("vm-bench", {"m": entry(1.3, "s")}))
        comparison = compare_latest(records)
        [row] = comparison["metrics"]
        assert row["allowed"] > 1.0
        assert row["status"] == "ok"

    def test_single_record_reports_not_enough_history(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings())
        [result] = evaluate(load_history(path))
        assert result["metrics"] == []
        assert "not enough history" in result["note"]

    def test_new_metric_is_not_a_regression(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings())
        append(
            path, "vm-bench",
            dict(timings(), **{"fresh": entry(9.0, "s")}),
        )
        [result] = evaluate(load_history(path))
        row = next(r for r in result["metrics"] if r["metric"] == "fresh")
        assert row["status"] == "new"

    def test_kinds_compared_independently(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings(fast=0.5))
        append(path, "analyzer-bench", {"x": entry(1.0, "s")})
        append(path, "vm-bench", timings(fast=0.5))
        results = evaluate(load_history(path))
        by_kind = {r["kind"]: r for r in results}
        assert "not enough history" in by_kind["analyzer-bench"]["note"]
        assert all(
            r["status"] == "ok" for r in by_kind["vm-bench"]["metrics"]
        )


class TestCli:
    def test_fail_on_any_flags_single_regression(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings(fast=0.5))
        append(path, "vm-bench", timings(fast=1.0))
        assert main([str(path), "--fail-on", "any"]) == 1
        err = capsys.readouterr().err
        assert "gcc.fast_s" in err

    def test_warn_then_fail_soft_gate(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings(fast=0.5))
        append(path, "vm-bench", timings(fast=0.5))
        # First regressed run: default --fail-on repeated only warns.
        append(path, "vm-bench", timings(fast=2.0))
        assert main([str(path)]) == 0
        assert "regressed vs baseline" in capsys.readouterr().err
        # Second regressed run in a row: now it fails.
        append(path, "vm-bench", timings(fast=2.0))
        assert main([str(path)]) == 1
        assert "repeated regression" in capsys.readouterr().err

    def test_unchanged_rerun_exits_zero(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            append(path, "vm-bench", timings())
        assert main([str(path)]) == 0

    def test_empty_history_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        assert "holds no records" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings())
        append(path, "vm-bench", timings())
        assert main([str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        [result] = doc["results"]
        assert result["kind"] == "vm-bench"

    def test_kind_filter_without_matches_exits_2(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append(path, "vm-bench", timings())
        assert main([str(path), "--kind", "x"]) == 2
        assert "no 'x' records" in capsys.readouterr().err

    def test_kind_filter_accepts_any_recorded_kind(self, tmp_path, capsys):
        # The pipeline bench writes one kind per workload; --kind must
        # not restrict itself to a fixed list.
        path = tmp_path / "h.jsonl"
        append(path, "pipeline.trace-long", timings())
        append(path, "pipeline.trace-long", timings())
        assert main([str(path), "--kind", "pipeline.trace-long", "--json"]) == 0
        [result] = json.loads(capsys.readouterr().out)["results"]
        assert result["kind"] == "pipeline.trace-long"

    def test_record_without_entries_is_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(path, {"schema": 1, "kind": "vm-bench"})
        append(path, "vm-bench", timings())
        assert len(load_history(path)) == 1
