"""Sim-time span recorder with causal context propagation.

One :class:`Tracer` serves one network (per-shard in sharded runs —
records merge at collection, see ``simnet/shard.py``).  Its state is a
**bounded record buffer** of span and event dicts; records past
``capacity`` are counted in :attr:`dropped`, never silently lost.

The *active* ``(trace_id, span_id)`` context — the parent of every span
begun and every message sent until it is left — is the trace half of
the network's causal scope (see ``simnet/network.py``): an installed
tracer reads and pushes the network's one scope stack, so
:meth:`Tracer.activate` keeps the attribution tag in force, and the
gate's re-open of a delivered envelope's scope threads both through
asynchronous hops without any per-call bookkeeping.  A tracer that was never installed
activates on a private list of the same shape.

Record shapes (plain dicts, picklable, one JSON object per line on
export):

``span``
    ``{"type": "span", "trace", "span", "parent", "name", "kind",
    "peer", "start", "end", "status", "attrs"?}`` — ``end`` may be
    ``None`` for spans never finished (a run torn down mid-flight).

``event``
    ``{"type": "event", "trace", "parent", "name", "peer", "time",
    "attrs"?}`` — instantaneous annotations (message drops, failover
    steering, injected faults) attached to an enclosing span.

Message spans are recorded **at the sender**: the sender knows the
sampled latency, so the span's ``end`` is the delivery time and
cross-shard spans need no receiver-side amendment.  Recording a
message span re-points the envelope's context at the new span, so
work done in the delivery handler parents under the hop that caused
it — that is what makes a waterfall show hop-by-hop structure.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.context import derive_span_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.network import Message


class Tracer:
    """Bounded sim-time span recorder for one transport."""

    __slots__ = ("seed", "capacity", "records", "dropped", "_scopes",
                 "_seq")

    def __init__(self, seed: int = 0, capacity: int = 200_000) -> None:
        self.seed = seed
        self.capacity = capacity
        #: recorded span/event dicts, in creation order
        self.records: list[dict] = []
        #: records discarded because the buffer was full
        self.dropped = 0
        #: causal scope stack ``(op_tag, trace_ctx)`` — the network's
        #: own list once installed (``SimNetwork.install_tracer``)
        self._scopes: list[tuple] = []
        #: per-peer span sequence counters (see ``derive_span_id``)
        self._seq: dict[str, int] = {}

    # -- identity ------------------------------------------------------

    def next_span_id(self, peer: str) -> str:
        seq = self._seq.get(peer, 0)
        self._seq[peer] = seq + 1
        return derive_span_id(self.seed, peer, seq)

    def current(self) -> tuple[str, str] | None:
        """The innermost active ``(trace_id, span_id)`` context."""
        scopes = self._scopes
        return scopes[-1][1] if scopes else None

    # -- span lifecycle ------------------------------------------------

    def _record(self, record: dict) -> None:
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(record)

    def start_trace(self, trace_id: str, name: str, *, peer: str,
                    start: float, kind: str = "op",
                    **attrs: Any) -> dict:
        """Open a trace's root span (no parent)."""
        return self.begin(name, peer=peer, kind=kind, start=start,
                          context=(trace_id, None), **attrs)

    def begin(self, name: str, *, peer: str, kind: str, start: float,
              context: tuple[str, str] | None = None,
              **attrs: Any) -> dict:
        """Open a span under ``context`` (default: the active one).

        Callers must ensure a parent context exists — spans are never
        orphaned silently.
        """
        trace_id, parent_id = (context if context is not None
                               else self._scopes[-1][1])
        record: dict = {
            "type": "span", "trace": trace_id,
            "span": self.next_span_id(peer), "parent": parent_id,
            "name": name, "kind": kind, "peer": peer,
            "start": start, "end": None, "status": "open",
        }
        if attrs:
            record["attrs"] = attrs
        self._record(record)
        return record

    def finish(self, record: dict, end: float, status: str = "ok",
               **attrs: Any) -> None:
        """Close an open span (idempotent on already-closed spans)."""
        if record["end"] is None:
            record["end"] = end
            record["status"] = status
            if attrs:
                record.setdefault("attrs", {}).update(attrs)

    def context_of(self, record: dict) -> tuple[str, str]:
        """The ``(trace_id, span_id)`` context a span defines."""
        return (record["trace"], record["span"])

    @contextmanager
    def activate(self, context: tuple[str, str]) -> Iterator[None]:
        """Make ``context`` the parent of spans/messages inside (the
        active attribution tag stays in force)."""
        scopes = self._scopes
        scopes.append((scopes[-1][0] if scopes else None, context))
        try:
            yield
        finally:
            scopes.pop()

    def event(self, name: str, *, peer: str, time: float,
              context: tuple[str, str] | None = None,
              **attrs: Any) -> None:
        """Record an instantaneous annotation under ``context`` (or the
        active one); dropped when no context is active."""
        if context is None:
            context = self.current()
            if context is None:
                return
        record: dict = {
            "type": "event", "trace": context[0], "parent": context[1],
            "name": name, "peer": peer, "time": time,
        }
        if attrs:
            record["attrs"] = attrs
        self._record(record)

    # -- transport hooks (called from the gated send/deliver paths) ----

    def message_sent(self, message: "Message", now: float,
                     delay: float) -> None:
        """Record the hop span of a message that passed the send checks.

        The span ends at delivery time (sender-known latency).  The
        envelope's scope is re-pointed at this span so the delivery
        handler's work parents under the hop.
        """
        op_tag, (trace_id, parent_id) = message.scope
        span_id = self.next_span_id(message.src)
        self._record({
            "type": "span", "trace": trace_id, "span": span_id,
            "parent": parent_id, "name": f"msg:{message.kind}",
            "kind": "message", "peer": message.src,
            "start": now, "end": now + delay, "status": "sent",
            "attrs": {"src": message.src, "dst": message.dst},
        })
        message.scope = (op_tag, (trace_id, span_id))

    def message_dropped(self, message: "Message", now: float,
                        reason: str) -> None:
        """Record a drop annotation under the envelope's context.

        Send-time drops (offline destination, injected fault) parent
        under the sender's span; in-flight drops parent under the
        message's own hop span (recorded when it was sent).
        """
        self.event(f"drop:{reason}", peer=message.src, time=now,
                   context=message.trace, dst=message.dst,
                   kind=message.kind, reason=reason)

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """Buffer occupancy summary (for registry views / CLI)."""
        return summarize_records(self.records, self.dropped)


def summarize_records(records: list[dict], dropped: int) -> dict:
    """Occupancy summary of one recorder's buffer — or of several
    shards' buffers taken together (a trace spans shards, so distinct
    traces are counted over the union, not summed)."""
    spans = sum(1 for r in records if r["type"] == "span")
    return {
        "records": len(records),
        "spans": spans,
        "events": len(records) - spans,
        "dropped": dropped,
        "traces": len({r["trace"] for r in records}),
    }


def record_sort_key(record: dict) -> tuple:
    """Deterministic global order for merged multi-tracer records."""
    time = record["start"] if record["type"] == "span" else record["time"]
    return (time, record["peer"], record.get("span") or record["parent"]
            or "", record["type"], record["name"])


def merge_records(per_tracer: list[list[dict]]) -> list[dict]:
    """Merge per-shard record lists into one deterministic stream."""
    merged: list[dict] = []
    for records in per_tracer:
        merged.extend(records)
    merged.sort(key=record_sort_key)
    return merged


def export_records_jsonl(records: list[dict], path: str) -> int:
    """Write already-merged records as sorted JSONL."""
    ordered = sorted(records, key=record_sort_key)
    with open(path, "w", encoding="utf-8") as handle:
        for record in ordered:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(ordered)
