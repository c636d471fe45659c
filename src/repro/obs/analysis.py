"""Offline trace analysis: waterfalls, critical paths, slow queries.

Consumes the JSONL written by :func:`~repro.obs.tracer.
export_records_jsonl` (one loop's records or the merged sharded ones).
Everything here is
plain-data in, text out — the ``repro trace`` CLI subcommand is a thin
shell over these functions, and tests call them directly.
"""

from __future__ import annotations

import json
from typing import Iterable


def load_jsonl(path: str) -> list[dict]:
    """Read one record dict per non-empty line."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def spans_of(records: Iterable[dict],
             trace_id: str | None = None) -> list[dict]:
    """The span records (optionally of one trace), in file order."""
    return [r for r in records if r["type"] == "span"
            and (trace_id is None or r["trace"] == trace_id)]


def events_of(records: Iterable[dict],
              trace_id: str | None = None) -> list[dict]:
    """The event records (optionally of one trace), in file order."""
    return [r for r in records if r["type"] == "event"
            and (trace_id is None or r["trace"] == trace_id)]


def _span_end(span: dict) -> float:
    return span["start"] if span["end"] is None else span["end"]


def trace_ids(records: Iterable[dict]) -> list[str]:
    """Distinct trace ids in first-appearance order."""
    seen: dict[str, None] = {}
    for record in records:
        seen.setdefault(record["trace"])
    return list(seen)


def trace_summaries(records: list[dict]) -> list[dict]:
    """Per-trace rollup: span counts, duration, message volume."""
    summaries: list[dict] = []
    for trace in trace_ids(records):
        spans = spans_of(records, trace)
        events = events_of(records, trace)
        if not spans:
            continue
        start = min(s["start"] for s in spans)
        end = max(_span_end(s) for s in spans)
        summaries.append({
            "trace": trace,
            "root": next((s["name"] for s in spans
                          if s["parent"] is None), None),
            "spans": len(spans),
            "messages": sum(1 for s in spans
                            if s["kind"] == "message"),
            "drops": sum(1 for e in events
                         if e["name"].startswith("drop:")),
            "events": len(events),
            "start": start,
            "end": end,
            "duration": round(end - start, 9),
            "peers": len({s["peer"] for s in spans}),
        })
    return summaries


def top_slowest(records: list[dict], k: int = 5) -> list[dict]:
    """The ``k`` longest traces, slowest first (ties by trace id)."""
    summaries = trace_summaries(records)
    summaries.sort(key=lambda s: (-s["duration"], s["trace"]))
    return summaries[:k]


def connected_components(spans: list[dict]) -> int:
    """Number of parent-link components among one trace's spans.

    1 means the trace is fully connected: every span reaches the root
    through recorded parents.  Spans whose parent is outside the span
    set each start a new component.
    """
    ids = {s["span"] for s in spans}
    return sum(1 for s in spans
               if s["parent"] is None or s["parent"] not in ids)


def critical_path(records: list[dict], trace_id: str) -> list[dict]:
    """Root-to-latest-span chain: the spans that bound the trace's
    makespan.  Walks parent links back from the span with the latest
    end time; the reversed chain reads top-down like the waterfall."""
    spans = spans_of(records, trace_id)
    if not spans:
        return []
    by_id = {s["span"]: s for s in spans}
    last = max(spans, key=lambda s: (_span_end(s), s["span"]))
    path = [last]
    while last["parent"] in by_id:
        last = by_id[last["parent"]]
        path.append(last)
    path.reverse()
    return path


def waterfall(records: list[dict], trace_id: str,
              width: int = 48) -> list[str]:
    """Hop-by-hop timeline of one trace as fixed-width text lines.

    Children render depth-indented under their parents in start-time
    order; each line carries a proportional ``[====]`` bar plus the
    span's peer, status and any drop/fault annotations.
    """
    spans = spans_of(records, trace_id)
    if not spans:
        return [f"trace {trace_id!r}: no spans"]
    events = events_of(records, trace_id)
    children: dict[str | None, list[dict]] = {}
    ids = {s["span"] for s in spans}
    for span in spans:
        parent = span["parent"] if span["parent"] in ids else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s["start"], s["span"]))
    notes: dict[str, list[str]] = {}
    for event in events:
        notes.setdefault(event["parent"], []).append(event["name"])
    t0 = min(s["start"] for s in spans)
    t1 = max(_span_end(s) for s in spans)
    extent = (t1 - t0) or 1.0
    lines = [f"trace {trace_id}  ({len(spans)} spans, "
             f"{t1 - t0:.3f}s)"]

    def render(span: dict, depth: int) -> None:
        left = int(width * (span["start"] - t0) / extent)
        right = max(left + 1,
                    int(width * (_span_end(span) - t0) / extent))
        bar = " " * left + "=" * (right - left)
        bar = bar.ljust(width)
        label = "  " * depth + span["name"]
        suffix = "" if span["status"] in ("ok", "sent") else \
            f" [{span['status']}]"
        annotation = notes.get(span["span"])
        if annotation:
            suffix += " !" + ",".join(annotation)
        lines.append(f"|{bar}| {label} @{span['peer']}"
                     f" {span['start'] - t0:.3f}s"
                     f"+{_span_end(span) - span['start']:.3f}s{suffix}")
        for child in children.get(span["span"], ()):
            render(child, depth + 1)

    for root in children.get(None, ()):
        render(root, 0)
    return lines


def attribution_stats(records: list[dict]) -> list[dict]:
    """Per-trace (== per-op-tag) message attribution.

    Root traces use the operation's attribution tag as their trace id,
    so this table is the trace-plane mirror of
    :attr:`~repro.simnet.metrics.NetworkMetrics.operations` — with
    per-kind splits and drop causes the counter never had.
    """
    table: list[dict] = []
    for summary in trace_summaries(records):
        trace = summary["trace"]
        by_kind: dict[str, int] = {}
        for span in spans_of(records, trace):
            if span["kind"] != "message":
                continue
            kind = span["name"].removeprefix("msg:")
            by_kind[kind] = by_kind.get(kind, 0) + 1
        drops: dict[str, int] = {}
        for event in events_of(records, trace):
            if event["name"].startswith("drop:"):
                reason = event["name"].removeprefix("drop:")
                drops[reason] = drops.get(reason, 0) + 1
        table.append({
            "trace": trace,
            "messages": summary["messages"],
            "by_kind": dict(sorted(by_kind.items())),
            "drops": dict(sorted(drops.items())),
            "duration": summary["duration"],
        })
    return table


def format_stats(table: list[dict]) -> list[str]:
    """Readable lines for :func:`attribution_stats` output."""
    lines = []
    for row in table:
        kinds = ", ".join(f"{count} {kind}" for kind, count in
                          row["by_kind"].items()) or "none"
        line = (f"{row['trace']}: {row['messages']} message(s) "
                f"({kinds}) in {row['duration']:.3f}s")
        if row["drops"]:
            drops = ", ".join(f"{c} {r}" for r, c in
                              row["drops"].items())
            line += f"; dropped: {drops}"
        lines.append(line)
    return lines


def summary_lines(summaries: list[dict]) -> list[str]:
    """Readable lines for :func:`trace_summaries` output."""
    return [
        (f"{s['trace']}: {s['root'] or '?'} — {s['spans']} spans "
         f"({s['messages']} messages, {s['drops']} drops) across "
         f"{s['peers']} peer(s), {s['duration']:.3f}s")
        for s in summaries
    ]


def critical_path_lines(path: list[dict]) -> list[str]:
    """Readable lines for :func:`critical_path` output."""
    if not path:
        return ["no spans"]
    t0 = path[0]["start"]
    return [
        (f"{i}. {span['name']} @{span['peer']} "
         f"+{span['start'] - t0:.3f}s "
         f"({_span_end(span) - span['start']:.3f}s, "
         f"{span['status']})")
        for i, span in enumerate(path)
    ]


def load_any(path: str) -> list[dict]:
    """Alias for :func:`load_jsonl` (single supported format today)."""
    return load_jsonl(path)
