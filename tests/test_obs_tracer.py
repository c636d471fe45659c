"""Unit tests: span ids, tracer buffer, JSONL export, trace analysis."""

import json

from repro.obs.analysis import (
    attribution_stats,
    connected_components,
    critical_path,
    critical_path_lines,
    format_stats,
    load_any,
    load_jsonl,
    spans_of,
    summary_lines,
    top_slowest,
    trace_summaries,
    waterfall,
)
from repro.obs.context import derive_span_id
from repro.obs.tracer import (
    Tracer,
    export_records_jsonl,
    merge_records,
    record_sort_key,
)


class TestSpanIds:
    def test_deterministic(self):
        assert derive_span_id(0, "p", 3) == derive_span_id(0, "p", 3)

    def test_seed_peer_and_seq_all_bind(self):
        base = derive_span_id(0, "p", 3)
        assert derive_span_id(1, "p", 3) != base
        assert derive_span_id(0, "q", 3) != base
        assert derive_span_id(0, "p", 4) != base

    def test_readable_prefix(self):
        assert derive_span_id(0, "peer-7", 2).startswith("peer-7.2.")

    def test_tracer_sequences_per_peer(self):
        tracer = Tracer(seed=5)
        assert tracer.next_span_id("a") == derive_span_id(5, "a", 0)
        assert tracer.next_span_id("a") == derive_span_id(5, "a", 1)
        assert tracer.next_span_id("b") == derive_span_id(5, "b", 0)


class TestTracer:
    def test_span_lifecycle(self):
        tracer = Tracer()
        root = tracer.start_trace("t", "query", peer="a", start=0.0)
        with tracer.activate(tracer.context_of(root)):
            child = tracer.begin("hop", peer="a", kind="message",
                                 start=1.0)
        assert child["parent"] == root["span"]
        assert child["trace"] == "t"
        tracer.finish(child, 2.0)
        assert (child["end"], child["status"]) == (2.0, "ok")

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_trace("t", "op", peer="a", start=0.0)
        tracer.finish(span, 1.0, "timeout")
        tracer.finish(span, 9.0, "ok")
        assert (span["end"], span["status"]) == (1.0, "timeout")

    def test_attrs_recorded_only_when_present(self):
        tracer = Tracer()
        plain = tracer.start_trace("t", "op", peer="a", start=0.0)
        tagged = tracer.start_trace("u", "op", peer="a", start=0.0,
                                    queries=4)
        assert "attrs" not in plain
        assert tagged["attrs"] == {"queries": 4}
        tracer.finish(tagged, 1.0, rows=2)
        assert tagged["attrs"] == {"queries": 4, "rows": 2}

    def test_event_dropped_without_context(self):
        tracer = Tracer()
        tracer.event("orphan", peer="a", time=0.0)
        assert tracer.records == []
        root = tracer.start_trace("t", "op", peer="a", start=0.0)
        with tracer.activate(tracer.context_of(root)):
            tracer.event("fault:delay", peer="a", time=0.5, extra=1.0)
        record = tracer.records[-1]
        assert record["parent"] == root["span"]
        assert record["attrs"] == {"extra": 1.0}

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.start_trace(f"t{i}", "op", peer="a", start=float(i))
        assert len(tracer.records) == 2
        assert tracer.dropped == 3
        assert tracer.snapshot()["dropped"] == 3

    def test_snapshot_counts(self):
        tracer = Tracer()
        root = tracer.start_trace("t", "op", peer="a", start=0.0)
        with tracer.activate(tracer.context_of(root)):
            tracer.event("note", peer="a", time=0.1)
        assert tracer.snapshot() == {
            "records": 2, "spans": 1, "events": 1, "dropped": 0,
            "traces": 1}


def build_sample_records():
    """One two-hop trace with a drop event, plus a fast second trace."""
    tracer = Tracer()
    root = tracer.start_trace("q:0", "searchfor", peer="a", start=0.0)
    with tracer.activate(tracer.context_of(root)):
        hop = tracer.begin("msg:route", peer="a", kind="message",
                           start=0.0)
        tracer.finish(hop, 0.5, "sent")
        with tracer.activate(tracer.context_of(hop)):
            reply = tracer.begin("msg:reply", peer="b", kind="message",
                                 start=0.5)
            tracer.finish(reply, 1.0, "sent")
            tracer.event("drop:offline", peer="b", time=0.6)
    tracer.finish(root, 1.0)
    other = tracer.start_trace("q:1", "searchfor", peer="a", start=2.0)
    tracer.finish(other, 2.25)
    return tracer.records


class TestAnalysis:
    def test_trace_summaries(self):
        summaries = trace_summaries(build_sample_records())
        assert [s["trace"] for s in summaries] == ["q:0", "q:1"]
        first = summaries[0]
        assert first["spans"] == 3
        assert first["messages"] == 2
        assert first["drops"] == 1
        assert first["duration"] == 1.0
        assert first["peers"] == 2
        assert first["root"] == "searchfor"

    def test_top_slowest_orders_by_duration(self):
        top = top_slowest(build_sample_records(), k=1)
        assert [s["trace"] for s in top] == ["q:0"]

    def test_connected_components(self):
        records = build_sample_records()
        assert connected_components(spans_of(records, "q:0")) == 1
        orphan = {"type": "span", "trace": "q:0", "span": "x",
                  "parent": "missing", "name": "stray", "kind": "op",
                  "peer": "c", "start": 0.0, "end": 0.1,
                  "status": "ok"}
        assert connected_components(
            spans_of(records + [orphan], "q:0")) == 2

    def test_critical_path_walks_to_latest_span(self):
        path = critical_path(build_sample_records(), "q:0")
        assert [s["name"] for s in path] == [
            "searchfor", "msg:route", "msg:reply"]
        lines = critical_path_lines(path)
        assert len(lines) == 3 and "msg:reply" in lines[-1]

    def test_waterfall_renders_nested_bars(self):
        lines = waterfall(build_sample_records(), "q:0", width=20)
        assert lines[0].startswith("trace q:0")
        assert any("msg:route" in line for line in lines)
        annotated = [line for line in lines if "drop:offline" in line]
        assert len(annotated) == 1 and "msg:route" in annotated[0]

    def test_attribution_stats(self):
        table = attribution_stats(build_sample_records())
        assert table[0]["by_kind"] == {"reply": 1, "route": 1}
        assert table[0]["drops"] == {"offline": 1}
        lines = format_stats(table)
        assert "dropped: 1 offline" in lines[0]
        assert summary_lines(trace_summaries(build_sample_records()))


class TestExport:
    def test_jsonl_round_trip_is_sorted(self, tmp_path):
        records = build_sample_records()
        path = tmp_path / "trace.jsonl"
        count = export_records_jsonl(records, str(path))
        assert count == len(records)
        loaded = load_jsonl(str(path))
        assert loaded == sorted(records, key=record_sort_key)
        assert load_any(str(path)) == loaded
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)

    def test_tracer_export_matches_module_export(self, tmp_path):
        tracer = Tracer()
        tracer.records = build_sample_records()
        module = tmp_path / "b.jsonl"
        export_records_jsonl(tracer.records, str(module))
        assert module.read_text() == "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in merge_records([tracer.records]))

    def test_merge_records_is_order_insensitive(self):
        records = build_sample_records()
        first = merge_records([records[:2], records[2:]])
        second = merge_records([records[2:], records[:2]])
        assert first == second == sorted(records, key=record_sort_key)
