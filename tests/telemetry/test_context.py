"""Tests for distributed trace context (repro.telemetry.context)."""

import json

from repro import telemetry
from repro.telemetry import context
from repro.telemetry.context import TraceContext, mint


class TestTraceContext:
    def test_mint_produces_32_hex_trace_id(self):
        ctx = mint()
        assert len(ctx.trace_id) == 32
        int(ctx.trace_id, 16)  # raises unless hex
        assert ctx.parent_id is None

    def test_child_reparents_same_trace(self):
        ctx = TraceContext("ab" * 16, "root-1")
        child = ctx.child("span-2")
        assert child.trace_id == ctx.trace_id
        assert child.parent_id == "span-2"

    def test_payload_round_trip(self):
        ctx = TraceContext("cd" * 16, "1a2b-3f")
        assert TraceContext.from_payload(ctx.to_payload()) == ctx

    def test_from_payload_tolerates_garbage(self):
        assert TraceContext.from_payload(None) is None
        assert TraceContext.from_payload({}) is None
        assert TraceContext.from_payload({"parent_id": "x"}) is None


class TestAmbientContext:
    def teardown_method(self):
        context.clear()

    def test_default_is_the_ambient_context(self):
        assert context.current() is None
        default = mint()
        context.set_default(default)
        assert context.current() is default

    def test_shutdown_clears_context(self):
        context.set_default(mint())
        telemetry.shutdown()
        assert context.current() is None


class TestSpanIntegration:
    """Root spans adopt the ambient context (the worker stitch point)."""

    def teardown_method(self):
        context.clear()

    def test_root_span_adopts_ambient_context(self, tmp_path):
        telemetry.configure(tmp_path)
        ctx = TraceContext("12" * 16, "77-1")
        context.set_default(ctx)
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                pass
        assert outer.trace_id == ctx.trace_id
        assert outer.parent_id == "77-1"
        assert inner.trace_id == ctx.trace_id
        assert inner.parent_id == outer.span_id

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
        context.set_default(TraceContext("cd" * 16, "remote-2"))
        telemetry.record_span("vm.run", 0.5)
        with telemetry.span("enclosing") as enclosing:
            telemetry.record_span("vm.run", 0.25)
        telemetry.flush()
        root, nested = [
            json.loads(line)
            for line in (tmp_path / "spans.jsonl").read_text().splitlines()
            if '"vm.run"' in line
        ]
        assert (root["parent"], root["trace"]) == ("remote-2", "cd" * 16)
        assert nested["parent"] == enclosing.span_id
        assert nested["trace"] == "cd" * 16
