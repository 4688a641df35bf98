"""Tests for the ``repro-trace`` CLI (repro.telemetry.trace_cli)."""

import json

from repro.telemetry.trace_cli import (
    build_forest,
    collapse_stacks,
    critical_path,
    group_by_trace,
    main,
    render_waterfall,
    slowest_spans,
)

TRACE = "ab" * 16


def rec(name, span_id, parent=None, trace=TRACE, ts=0.0, dur=1.0, pid=100):
    return {
        "name": name,
        "id": span_id,
        "parent": parent,
        "trace": trace,
        "pid": pid,
        "ts": ts,
        "dur": dur,
        "attrs": {},
    }


def cross_process_trace():
    """request → schedule → job.analyze spanning two pids."""
    return [
        rec("experiment", "64-1", parent=None, ts=0.0, dur=4.0),
        rec("farm.execute", "64-2", parent="64-1", ts=0.5, dur=3.0),
        rec("job.analyze", "c8-1", parent="64-2", ts=1.0, dur=2.0, pid=200),
        rec("vm.run", "c8-2", parent="c8-1", ts=1.2, dur=1.0, pid=200),
    ]


def write_spans(directory, records, filename="spans.jsonl"):
    (directory / filename).write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )


class TestGrouping:
    def test_groups_by_trace_with_untraced_bucket(self):
        records = [rec("a", "1"), rec("b", "2", trace=None)]
        groups = group_by_trace(records)
        assert set(groups) == {TRACE, "untraced"}


class TestForest:
    def test_cross_process_parent_links(self):
        [root] = build_forest(cross_process_trace())
        assert root.name == "experiment"
        [schedule] = root.children
        assert schedule.name == "farm.execute"
        [job] = schedule.children
        assert job.name == "job.analyze"
        assert job.pid == 200
        [vm] = job.children
        assert vm.name == "vm.run"

    def test_orphaned_parent_becomes_marked_root(self):
        records = [
            rec("job.analyze", "c8-1", parent="missing-span", pid=200),
            rec("vm.run", "c8-2", parent="c8-1", pid=200),
        ]
        [root] = build_forest(records)
        assert root.name == "job.analyze"
        assert root.orphan
        assert [c.name for c in root.children] == ["vm.run"]
        assert not root.children[0].orphan

    def test_children_sorted_by_start_time(self):
        records = [
            rec("root", "r", ts=0.0, dur=9.0),
            rec("late", "b", parent="r", ts=5.0),
            rec("early", "a", parent="r", ts=1.0),
        ]
        [root] = build_forest(records)
        assert [c.name for c in root.children] == ["early", "late"]

    def test_self_parent_cycle_is_orphan_root(self):
        [root] = build_forest([rec("loop", "x", parent="x")])
        assert root.orphan


class TestRendering:
    def test_waterfall_lists_every_span_with_pids(self):
        forest = build_forest(cross_process_trace())
        text = render_waterfall(forest)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "experiment" in lines[0]
        assert "pid=100" in lines[0]
        assert "pid=200" in lines[2]
        assert "#" in lines[0]

    def test_collapsed_stacks_self_time(self):
        forest = build_forest(cross_process_trace())
        stacks = collapse_stacks(forest)
        key = "experiment;farm.execute;job.analyze;vm.run"
        assert stacks[key] == 1_000_000  # 1.0 s leaf, all self time
        # job.analyze: 2.0 s minus the 1.0 s vm.run child.
        assert stacks["experiment;farm.execute;job.analyze"] == 1_000_000

    def test_collapsed_stacks_clamp_negative_self_time(self):
        records = [
            rec("parent", "p", dur=1.0),
            rec("a", "c1", parent="p", dur=0.8),
            rec("b", "c2", parent="p", dur=0.7),  # children exceed parent
        ]
        stacks = collapse_stacks(build_forest(records))
        assert stacks["parent"] == 0

    def test_critical_path_exclusive_attribution(self):
        path = critical_path(build_forest(cross_process_trace()))
        assert [step["name"] for step in path] == [
            "experiment", "farm.execute", "job.analyze", "vm.run"
        ]
        assert path[0]["exclusive_s"] == 1.0  # 4.0 - 3.0
        assert path[-1]["exclusive_s"] == 1.0  # leaf keeps everything

    def test_slowest_orders_by_duration(self):
        records = cross_process_trace()
        top = slowest_spans(records, 2)
        assert [r["name"] for r in top] == ["experiment", "farm.execute"]


class TestCli:
    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent")]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_allow_empty(self, tmp_path):
        assert main([str(tmp_path), "--allow-empty"]) == 0

    def test_waterfall_output_merges_worker_files(self, tmp_path, capsys):
        records = cross_process_trace()
        write_spans(tmp_path, records[:2])
        write_spans(tmp_path, records[2:], filename="worker-200.jsonl")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"trace {TRACE}: 4 spans, 2 process(es)" in out
        assert "job.analyze" in out

    def test_trace_prefix_filter(self, tmp_path, capsys):
        write_spans(
            tmp_path,
            [rec("a", "1", trace="11" * 16), rec("b", "2", trace="22" * 16)],
        )
        assert main([str(tmp_path), "--trace", "11"]) == 0
        out = capsys.readouterr().out
        assert "a" in out
        assert "trace " + "22" * 16 not in out
        assert main([str(tmp_path), "--trace", "ff"]) == 1

    def test_flame_output_format(self, tmp_path, capsys):
        write_spans(tmp_path, cross_process_trace())
        assert main([str(tmp_path), "--flame"]) == 0
        out = capsys.readouterr().out
        assert "experiment;farm.execute;job.analyze;vm.run 1000000" in out

    def test_slowest_flag(self, tmp_path, capsys):
        write_spans(tmp_path, cross_process_trace())
        assert main([str(tmp_path), "--slowest", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "experiment" in out[0]

    def test_json_forest(self, tmp_path, capsys):
        write_spans(tmp_path, cross_process_trace())
        assert main([str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        [root] = doc[TRACE]
        assert root["name"] == "experiment"
        child = root["children"][0]["children"][0]
        assert child["name"] == "job.analyze"

    def test_critical_path_flag(self, tmp_path, capsys):
        write_spans(tmp_path, cross_process_trace())
        assert main([str(tmp_path), "--critical-path"]) == 0
        assert "critical path:" in capsys.readouterr().out
