"""Tests for trace linkage: the run's trace id and the job payload fields.

``telemetry.configure`` mints one trace id per run, which every root span
adopts; farm job payloads carry ``trace_id``/``parent_id`` so a worker's
``job.<stage>`` span links under the span that dispatched it.
"""

import json

import pytest

from repro import telemetry
from repro.jobs import ArtifactCache, ExecutionEngine
from repro.jobs.graph import Job
from repro.jobs.worker import execute_job
from repro.telemetry.state import STATE


def span_records(directory):
    telemetry.flush()
    return [
        json.loads(line)
        for line in (directory / "spans.jsonl").read_text().splitlines()
    ]


class TestRunTraceId:
    def test_configure_mints_32_hex_trace_id(self, tmp_path):
        telemetry.configure(tmp_path)
        assert len(STATE.trace_id) == 32
        int(STATE.trace_id, 16)  # raises unless hex


class TestAmbientContext:
    def test_default_is_the_ambient_context(self, tmp_path):
        assert STATE.trace_id is None  # disabled: no trace
        telemetry.configure(tmp_path)
        minted = STATE.trace_id
        # A same-sink re-configure (one per farm job) keeps the run's id.
        telemetry.configure(tmp_path)
        assert STATE.trace_id == minted
        # A worker's sink mints nothing: its job spans are linked.
        telemetry.configure(tmp_path, worker=True)
        assert STATE.trace_id == minted
        # A new run (a new sink) gets a new trace.
        telemetry.configure(tmp_path / "other")
        assert STATE.trace_id not in (None, minted)

    def test_shutdown_clears_context(self, tmp_path):
        telemetry.configure(tmp_path)
        telemetry.shutdown()
        assert STATE.trace_id is None


class TestSpanIntegration:
    def test_root_span_adopts_ambient_context(self, tmp_path):
        telemetry.configure(tmp_path)
        with telemetry.span("first") as first:
            with telemetry.span("inner") as inner:
                pass
        with telemetry.span("second") as second:
            pass
        assert first.trace_id == second.trace_id == STATE.trace_id
        assert first.parent_id is None and second.parent_id is None
        assert inner.trace_id == STATE.trace_id
        assert inner.parent_id == first.span_id

    def test_link_overrides_derived_parentage(self, tmp_path):
        telemetry.configure(tmp_path)
        with telemetry.span("enclosing"):
            with telemetry.span("child") as child:
                child.link("ab" * 16, "remote-9")
                with telemetry.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == "ab" * 16
        assert child.parent_id == "remote-9"
        assert grandchild.trace_id == "ab" * 16
        assert grandchild.parent_id == child.span_id

    def test_record_span_parents_to_the_open_span(self, tmp_path):
        telemetry.configure(tmp_path)
        telemetry.record_span("vm.run", 0.5)
        with telemetry.span("enclosing") as enclosing:
            telemetry.record_span("vm.run", 0.25)
        root, nested = [
            r for r in span_records(tmp_path) if r["name"] == "vm.run"
        ]
        assert (root["parent"], root["trace"]) == (None, STATE.trace_id)
        assert nested["parent"] == enclosing.span_id
        assert nested["trace"] == STATE.trace_id


class TestJobPayload:
    JOB = Job(
        key="k1", stage="bogus", benchmark="awk", payload={"stage": "bogus"}
    )

    def payload(self, tmp_path):
        engine = ExecutionEngine(ArtifactCache(tmp_path / "cache"))
        return engine._payload(self.JOB, attempt=1, in_process=False)

    def test_disabled_payload_has_no_trace_fields(self, tmp_path):
        assert self.payload(tmp_path) == {"stage": "bogus", "attempt": 1}

    def test_payload_fields_link_the_job_span(self, tmp_path):
        telemetry.configure(tmp_path)
        with telemetry.span("farm.execute") as farm:
            payload = self.payload(tmp_path)
        assert payload["trace_id"] == STATE.trace_id
        assert payload["parent_id"] == farm.span_id
        # The worker links its job span from the fields (the unknown
        # stage fails inside the span, after the link).
        payload.update(key="k1", benchmark="awk", trace_id="cd" * 16)
        with pytest.raises(ValueError, match="unknown job stage"):
            execute_job(payload)
        [job] = [r for r in span_records(tmp_path) if r["name"] == "job.bogus"]
        assert (job["trace"], job["parent"]) == ("cd" * 16, farm.span_id)
