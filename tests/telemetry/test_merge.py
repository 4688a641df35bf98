"""Cross-process sink merge determinism (repro.telemetry.sinks)."""

import json

from repro import telemetry
from repro.jobs import ArtifactCache, ExecutionEngine, FarmReport, Planner, TraceRequest
from repro.telemetry.sinks import SPANS_FILENAME, JsonlSink, merge_worker_sinks


def write_worker(directory, pid, names):
    sink = JsonlSink(directory / f"worker-{pid}.jsonl")
    for name in names:
        sink.emit({"name": name, "pid": pid})
    sink.close()


class TestMerge:
    def test_merge_appends_in_file_name_order(self, tmp_path):
        (tmp_path / SPANS_FILENAME).write_text(
            json.dumps({"name": "main"}) + "\n"
        )
        write_worker(tmp_path, 222, ["b1", "b2"])
        write_worker(tmp_path, 111, ["a1"])
        merged = merge_worker_sinks(tmp_path)
        assert merged == 3
        names = [
            json.loads(line)["name"]
            for line in (tmp_path / SPANS_FILENAME).read_text().splitlines()
        ]
        # Lexicographic file-name order: worker-111 before worker-222.
        assert names == ["main", "a1", "b1", "b2"]

    def test_worker_files_deleted_after_merge(self, tmp_path):
        write_worker(tmp_path, 7, ["x"])
        merge_worker_sinks(tmp_path)
        assert list(tmp_path.glob("worker-*.jsonl")) == []
        assert (tmp_path / SPANS_FILENAME).exists()

    def test_merge_of_empty_directory_is_harmless(self, tmp_path):
        assert merge_worker_sinks(tmp_path) == 0

    def test_merge_is_deterministic_across_orders(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for directory, pids in ((first, (3, 1, 2)), (second, (2, 3, 1))):
            directory.mkdir()
            for pid in pids:
                write_worker(directory, pid, [f"job-{pid}"])
            merge_worker_sinks(directory)
        read = lambda d: (d / SPANS_FILENAME).read_text()
        assert read(first) == read(second)

    def test_load_spans_includes_unmerged_worker_files(self, tmp_path):
        telemetry.configure(tmp_path)
        with telemetry.span("main-span"):
            pass
        telemetry.flush()
        write_worker(tmp_path, 9, ["orphan"])
        names = {r["name"] for r in telemetry.load_spans(tmp_path)}
        assert names == {"main-span", "orphan"}


class TestFarmIntegration:
    def test_parallel_workers_spans_merged_into_main_sink(self, tmp_path):
        """A jobs=2 farm run leaves one spans.jsonl holding worker spans."""
        telemetry.configure(tmp_path / "tele")
        cache = ArtifactCache(tmp_path / "store")
        report = FarmReport()
        planner = Planner(cache, report)
        graph = planner.plan(
            [TraceRequest("awk"), TraceRequest("eqntott")], None, 2_000
        )
        ExecutionEngine(cache, jobs=2).execute(graph, report)

        tele_dir = tmp_path / "tele"
        assert list(tele_dir.glob("worker-*.jsonl")) == []
        records = telemetry.load_spans(tele_dir)
        job_spans = [r for r in records if r["name"].startswith("job.")]
        assert {r["attrs"]["benchmark"] for r in job_spans} == {"awk", "eqntott"}
        # One trace job per benchmark, each from a worker process.
        assert len(job_spans) == 2
        main_pid = {
            r["pid"] for r in records if r["name"] == "farm.execute"
        }
        assert all(r["pid"] not in main_pid for r in job_spans)
