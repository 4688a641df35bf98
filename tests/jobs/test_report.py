"""Tests for farm report accounting and rendering (repro.jobs.report)."""

from repro import telemetry
from repro.jobs.report import HIT, RUN, FarmReport


def make_report():
    report = FarmReport()
    report.record("k1", "trace", "awk", RUN, 2.0)
    report.record("k2", "trace", "awk", HIT)
    report.record("k3", "compile", "grep", RUN, 0.5)
    report.record("k4", "analyze", "grep", HIT)
    return report


class TestAccounting:
    def test_first_sighting_wins(self):
        report = FarmReport()
        report.record("k", "trace", "awk", RUN, 1.0)
        report.record("k", "trace", "awk", HIT)
        assert report.executed == 1
        assert report.hits == 0

    def test_per_stage_split(self):
        report = make_report()
        assert report.executed_in("trace") == 1
        assert report.hits_in("trace") == 1
        assert report.executed_in("analyze") == 0
        assert report.hits_in("analyze") == 1
        assert report.seconds_in("trace") == 2.0
        assert report.seconds_in("analyze") == 0.0

    def test_wall_window_covers_run_records(self):
        report = FarmReport()
        report.record("a", "trace", "awk", RUN, 1.5)
        report.record("b", "trace", "grep", RUN, 0.5)
        # The window spans the earliest start to the latest finish, so it
        # is at least as long as the longest single job.
        assert report.wall_in("trace") >= 1.5
        assert report.wall_in("analyze") == 0.0


class TestRendering:
    def test_stage_lines_keep_pinned_format(self):
        report = FarmReport()
        report.record("k1", "trace", "awk", HIT)
        report.record("k2", "trace", "grep", HIT)
        text = report.render(per_job=False)
        trace_line = next(
            line for line in text.splitlines() if line.startswith("[farm] trace:")
        )
        assert ", 0 executed" in trace_line
        assert "2 hits (100.0%)" in trace_line
        assert "jobs: 0 executed" in text
        assert "hit rate 100.0%" in text

    def test_stage_lines_show_cpu_and_wall(self):
        text = make_report().render(per_job=False)
        trace_line = next(
            line for line in text.splitlines() if line.startswith("[farm] trace:")
        )
        assert "cpu 2.00s" in trace_line
        assert "wall" in trace_line
        assert "1 hits (50.0%)" in trace_line

    def test_per_job_lines_only_when_requested(self):
        report = make_report()
        with_jobs = report.render(per_job=True)
        without = report.render(per_job=False)
        assert "[farm] trace    awk" in with_jobs
        assert "[farm] trace    awk" not in without
        # Summary lines appear either way.
        assert "[farm] total 4 jobs" in with_jobs
        assert "[farm] total 4 jobs" in without


class TestTelemetryCounters:
    def test_record_bumps_counters_when_enabled(self, tmp_path):
        telemetry.METRICS.reset()
        telemetry.configure(tmp_path)
        try:
            make_report()
            hits = telemetry.METRICS.get("repro_jobs_cache_hits_total")
            misses = telemetry.METRICS.get("repro_jobs_cache_misses_total")
            seconds = telemetry.METRICS.get("repro_jobs_stage_seconds_total")
            assert hits.value(stage="trace") == 1
            assert hits.value(stage="analyze") == 1
            assert misses.value(stage="trace") == 1
            assert misses.value(stage="compile") == 1
            assert seconds.value(stage="trace") == 2.0
        finally:
            telemetry.shutdown()
            telemetry.METRICS.reset()

    def test_record_leaves_counters_alone_when_disabled(self):
        telemetry.METRICS.reset()
        make_report()
        hits = telemetry.METRICS.get("repro_jobs_cache_hits_total")
        assert hits.value(stage="trace") == 0
