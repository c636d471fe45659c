"""Counters collected by the simulated network."""

from __future__ import annotations

from repro.obs.registry import CounterGroup


class NetworkMetrics(CounterGroup):
    """Aggregate statistics over all messages sent through a network.

    ``messages_by_kind`` groups counts by the message's ``kind`` tag so
    benchmarks can separate routing traffic from maintenance traffic.
    ``values_shipped`` counts the result values carried by reply
    messages — a proxy for data volume on the wire (bound vs parallel
    joins trade messages for shipped tuples; see bench E12).
    ``drops_by_reason`` keys drops by *cause*: ``"offline"``
    (destination was already offline at send time — the silent drops
    churn produces), ``"in_flight"`` (destination crashed while the
    message was on the wire), or a fault-injection reason such as
    ``"fault"`` / ``"partition"`` (see :mod:`repro.faultlab`).
    ``faults_by_kind`` keys injected faults ``"<action>:<kind>"``
    (actions: ``drop``, ``partition``, ``duplicate``, ``delay``,
    ``reorder``, ``crash``, ``restart`` — the latter two use kind
    ``"node"``).
    """

    _fields = ("messages_sent", "messages_dropped", "values_shipped",
               "total_latency")
    _keyed = ("messages_by_kind", "drops_by_reason", "faults_by_kind")
    _derived = ("mean_latency",)
    _unreported = ("total_latency",)  # reported as ``mean_latency``
    __slots__ = _fields + _keyed + ("operations",)

    def __init__(self) -> None:
        super().__init__()
        #: message counts for *tracked* operations only (see
        #: :meth:`begin_operation`) — exact per-operation attribution
        #: even with concurrent background traffic on the same
        #: network.  A live ledger, not a statistic: it is neither
        #: reported nor summed.
        self.operations: dict[str, int] = {}

    def begin_operation(self, op_tag: str) -> None:
        """Start counting messages attributed to ``op_tag``.

        Only operations registered here are counted (the set of live
        tags stays bounded: callers pop the counter with
        :meth:`end_operation` when the operation resolves).
        """
        self.operations[op_tag] = 0

    def end_operation(self, op_tag: str) -> int:
        """Stop tracking ``op_tag`` and return its message count."""
        return self.operations.pop(op_tag, 0)

    def record_send(self, kind: str, latency: float,
                    values_count: int = 0,
                    op_tag: str | None = None) -> None:
        """Account for one delivered message."""
        self.messages_sent += 1
        self.total_latency += latency
        self.values_shipped += values_count
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1
        if op_tag is not None and op_tag in self.operations:
            self.operations[op_tag] += 1

    def record_drop(self, kind: str, reason: str = "offline") -> None:
        """Account for one message dropped before delivery.

        ``reason`` separates the causes: churn's silent
        offline-destination drops (``"offline"`` at send time,
        ``"in_flight"`` for crashes mid-delivery) from injected faults
        (``"fault"``, ``"partition"``) — without the breakdown the
        offline drops were indistinguishable from everything else.
        """
        self.messages_dropped += 1
        key = f"dropped:{kind}"
        self.messages_by_kind[key] = self.messages_by_kind.get(key, 0) + 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def record_fault(self, action: str, kind: str) -> None:
        """Account for one injected fault on a ``kind`` message."""
        key = f"{action}:{kind}"
        self.faults_by_kind[key] = self.faults_by_kind.get(key, 0) + 1

    @property
    def faults_injected(self) -> int:
        """Total injected-fault count across all actions and kinds."""
        return sum(self.faults_by_kind.values())

    @property
    def mean_latency(self) -> float:
        """Mean per-message delivery latency in seconds (0.0 if none)."""
        if self.messages_sent == 0:
            return 0.0
        return self.total_latency / self.messages_sent

    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase).

        Tracked operation counters restart at zero but stay tracked —
        an operation spanning the reset keeps attributing its later
        messages.
        """
        super().reset()
        for op_tag in self.operations:
            self.operations[op_tag] = 0
