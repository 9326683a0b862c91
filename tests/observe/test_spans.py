"""Tests for spans, trace contexts and exporters."""

import json
import time

from repro.observe import (
    InMemoryExporter,
    JsonLinesExporter,
    Observer,
    TraceContext,
    load_spans,
    new_span_id,
    new_trace_id,
)
from repro.observe import activate, current, restore


class TestTraceContext:
    def test_token_round_trip(self):
        context = TraceContext(new_trace_id(), new_span_id())
        parsed = TraceContext.parse(context.token())
        assert parsed == context

    def test_parse_rejects_malformed(self):
        for bad in (None, "", "nodash", "-", "xyz-123", "12-", "-34",
                    "DEAD-BEEF", 42):
            assert TraceContext.parse(bad) is None

    def test_ids_are_hex_of_expected_width(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_activate_restore(self):
        assert current() is None
        context = TraceContext(new_trace_id(), new_span_id())
        previous = activate(context)
        try:
            assert current() is context
        finally:
            restore(previous)
        assert current() is None


class TestSpan:
    def test_stages_sum_exactly_to_duration(self):
        observer = Observer()
        span = observer.start_span("client", "echo")
        span.stage("marshal")
        time.sleep(0.002)
        span.stage("send")
        span.finish()
        assert sum(span.stage_durations().values()) == span.duration_us

    def test_finish_is_idempotent(self):
        observer = Observer()
        span = observer.start_span("client", "echo")
        span.finish()
        first = span.duration_us
        span.finish()
        assert span.duration_us == first
        assert len(observer.exporter.snapshot()) == 1

    def test_parent_links_trace(self):
        observer = Observer()
        parent = observer.start_span("client", "echo")
        child = observer.start_span("server", "echo",
                                    parent=parent.context.token())
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_thread_local_parent(self):
        observer = Observer()
        outer = observer.start_span("server", "echo")
        previous = activate(outer.context)
        try:
            nested = observer.start_span("client", "relay")
        finally:
            restore(previous)
        assert nested.trace_id == outer.trace_id
        assert nested.parent_id == outer.span_id

    def test_fail_records_error_kind(self):
        from repro.model.errors import CommunicationError

        observer = Observer()
        span = observer.start_span("client", "echo")
        span.finish(error=CommunicationError("nope", kind="connect-refused"))
        record = observer.exporter.snapshot()[0]
        assert record["attrs"]["error.kind"] == "connect-refused"
        assert "nope" in record["error"]

    def test_to_dict_shape(self):
        observer = Observer()
        span = observer.start_span("client", "echo", protocol="text")
        span.stage("send")
        span.finish()
        record = span.to_dict()
        assert record["name"] == "client"
        assert record["operation"] == "echo"
        assert record["attrs"]["protocol"] == "text"
        assert record["stages"][0][0] == "send"
        json.dumps(record)  # must be JSON-serializable as-is


class TestExporters:
    def test_in_memory_snapshot_and_clear(self):
        exporter = InMemoryExporter()
        exporter.export({"a": 1})
        assert exporter.snapshot() == [{"a": 1}]
        exporter.clear()
        assert exporter.snapshot() == []

    def test_json_lines_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonLinesExporter(str(path))
        observer = Observer(exporter=exporter)
        observer.start_span("client", "echo").finish()
        observer.start_span("server", "echo").finish()
        observer.close()
        spans = load_spans(str(path))
        assert [span["name"] for span in spans] == ["client", "server"]

    def test_load_spans_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n\n{"name": "ok2"}\n')
        assert [span["name"] for span in load_spans(str(path))] == \
            ["ok", "ok2"]

    def test_observer_snapshot_combines_metrics_and_spans(self):
        observer = Observer()
        observer.metrics.counter("c").inc()
        observer.start_span("client", "echo").finish()
        snap = observer.snapshot()
        assert snap["metrics"]["c"][0]["value"] == 1
        assert len(snap["spans"]) == 1
