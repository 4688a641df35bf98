"""Tests for ``repro-trace --summary``: span, percentile, metric tables."""

import json

import pytest

from repro.telemetry.trace_cli import (
    PERCENTILES,
    aggregate_percentiles,
    aggregate_spans,
    main,
    percentile,
    render_percentile_table,
    render_span_table,
)


def summary(*argv):
    return main([*argv, "--summary"])


def span_record(name, dur, benchmark=None, program=None, trace=None):
    attrs = {}
    if benchmark:
        attrs["benchmark"] = benchmark
    if program:
        attrs["program"] = program
    return {"name": name, "dur": dur, "trace": trace, "attrs": attrs}


def write_fixture(directory):
    records = [
        span_record("trace.save", 0.5, program="awk"),
        span_record("trace.save", 1.5, program="awk"),
        span_record("analyzer.analyze", 0.25, program="grep"),
        span_record("experiment", 0.1),
    ]
    lines = "".join(json.dumps(r) + "\n" for r in records)
    (directory / "spans.jsonl").write_text(lines)
    return records


def write_metrics(directory):
    metrics = [
        {
            "name": "repro_jobs_cache_hits_total",
            "type": "counter",
            "help": "",
            "samples": [{"labels": {"stage": "trace"}, "value": 4}],
        },
        {
            "name": "repro_jobs_dead_total",
            "type": "counter",
            "help": "",
            "samples": [],
        },
    ]
    (directory / "metrics.json").write_text(json.dumps({"metrics": metrics}))


class TestAggregate:
    def test_groups_by_name_and_benchmark(self):
        rows = aggregate_spans(
            [
                span_record("s", 1.0, benchmark="awk"),
                span_record("s", 3.0, benchmark="awk"),
                span_record("s", 2.0, benchmark="grep"),
            ]
        )
        awk = next(r for r in rows if r["benchmark"] == "awk")
        assert awk["count"] == 2
        assert awk["total_s"] == 4.0
        assert awk["mean_s"] == 2.0
        assert awk["max_s"] == 3.0

    def test_sorted_by_total_descending(self):
        rows = aggregate_spans(
            [span_record("small", 0.1), span_record("big", 9.0)]
        )
        assert [r["span"] for r in rows] == ["big", "small"]

    def test_benchmark_falls_back_to_program_then_dash(self):
        rows = aggregate_spans(
            [span_record("a", 1.0, program="awk"), span_record("b", 1.0)]
        )
        assert {r["benchmark"] for r in rows} == {"awk", "-"}


class TestCli:
    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert summary(str(tmp_path / "absent")) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_missing_directory_allow_empty(self, tmp_path, capsys):
        assert summary(str(tmp_path / "absent"), "--allow-empty") == 0
        assert "no such directory" in capsys.readouterr().err

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert summary(str(tmp_path)) == 2
        assert "no spans and no metrics" in capsys.readouterr().err

    def test_empty_directory_allow_empty(self, tmp_path, capsys):
        assert summary(str(tmp_path), "--allow-empty") == 0
        assert "no spans and no metrics" in capsys.readouterr().err

    def test_renders_fixture_directory(self, tmp_path, capsys):
        write_fixture(tmp_path)
        assert summary(str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "(4 spans)" in out
        assert "trace.save" in out
        assert "awk" in out
        # trace.save has the largest total: first data row.
        data_rows = out.splitlines()[4:]
        assert data_rows[0].startswith("trace.save")
        # The percentile table always follows the span table.
        assert "p50 s" in out and "p95 s" in out and "p99 s" in out

    def test_json_output_parses(self, tmp_path, capsys):
        write_fixture(tmp_path)
        assert summary(str(tmp_path), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert {row["span"] for row in doc["spans"]} >= {
            "trace.save",
            "analyzer.analyze",
        }

    def test_metrics_table_rendered_when_present(self, tmp_path, capsys):
        write_fixture(tmp_path)
        write_metrics(tmp_path)
        assert summary(str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "repro_jobs_cache_hits_total" in out
        assert "stage=trace" in out
        # Only sampled metrics get table rows.
        assert "repro_jobs_dead_total" not in out

    def test_json_carries_every_metric(self, tmp_path, capsys):
        write_fixture(tmp_path)
        write_metrics(tmp_path)
        assert summary(str(tmp_path), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"spans", "percentiles", "metrics"}
        assert [m["name"] for m in doc["metrics"]] == [
            "repro_jobs_cache_hits_total",
            "repro_jobs_dead_total",
        ]

    def test_metrics_alone_are_not_empty(self, tmp_path, capsys):
        write_metrics(tmp_path)
        assert summary(str(tmp_path)) == 0
        assert "(0 spans)" in capsys.readouterr().out

    def test_trace_prefix_filters_the_summary(self, tmp_path, capsys):
        records = [
            span_record("kept", 1.0, trace="11" * 16),
            span_record("dropped", 2.0, trace="22" * 16),
        ]
        (tmp_path / "spans.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert summary(str(tmp_path), "--trace", "11") == 0
        out = capsys.readouterr().out
        assert "(1 spans)" in out
        assert "kept" in out
        assert "dropped" not in out
        assert summary(str(tmp_path), "--trace", "ff") == 1


class TestRendering:
    def test_span_table_has_headers_and_rule(self):
        text = render_span_table(aggregate_spans([span_record("x", 1.0)]))
        lines = text.splitlines()
        assert lines[0].startswith("span")
        assert set(lines[1]) == {"-"}
        assert lines[2].startswith("x")


class TestPercentiles:
    def test_nearest_rank_values(self):
        values = sorted(float(v) for v in range(1, 101))  # 1.0 .. 100.0
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_single_sample_is_every_percentile(self):
        for q in PERCENTILES:
            assert percentile([0.42], q) == 0.42

    def test_all_equal_samples(self):
        values = [2.5] * 17
        for q in (1, 50, 95, 99, 100):
            assert percentile(values, q) == 2.5

    def test_two_samples_split_at_p50(self):
        assert percentile([1.0, 9.0], 50) == 1.0
        assert percentile([1.0, 9.0], 51) == 9.0
        assert percentile([1.0, 9.0], 100) == 9.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_aggregate_groups_by_span_name_only(self):
        rows = aggregate_percentiles(
            [
                span_record("s", 1.0, benchmark="awk"),
                span_record("s", 3.0, benchmark="grep"),
                span_record("t", 2.0),
            ]
        )
        by_name = {row["span"]: row for row in rows}
        assert by_name["s"]["count"] == 2
        assert by_name["s"]["p50_s"] == 1.0  # nearest rank of 2 values
        assert by_name["s"]["p99_s"] == 3.0
        assert by_name["t"]["count"] == 1

    def test_percentile_table_rendering(self):
        rows = aggregate_percentiles(
            [span_record("experiment", d / 10) for d in range(1, 11)]
        )
        text = render_percentile_table(rows)
        assert text.splitlines()[0].startswith("span")
        assert "p50 s" in text and "p95 s" in text and "p99 s" in text
        assert "experiment" in text

    def test_json_includes_percentiles(self, tmp_path, capsys):
        write_fixture(tmp_path)
        assert summary(str(tmp_path), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        row = next(r for r in doc["percentiles"] if r["span"] == "trace.save")
        assert row["count"] == 2
        assert row["p50_s"] == 0.5
        assert row["p99_s"] == 1.5
