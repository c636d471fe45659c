"""Observability plane: causal tracing + the statistics plane.

Two independent facilities, both strictly pay-for-what-you-use:

:mod:`repro.obs.tracer` / :mod:`repro.obs.context`
    Sim-time span recording with deterministic ids.  The trace context
    is one half of the network's causal scope (``Message.scope``,
    ``simnet/network.py``), so it propagates with the attribution
    tag, by the one mechanism.  With no tracer installed no scope holds
    a context and every transport hot path reduces to one attribute
    load and a ``None`` check — the transport golden tests stay
    bit-identical.

:mod:`repro.obs.registry`
    :class:`~repro.obs.registry.CounterGroup`, the one way a stat bag
    is declared, snapshotted, summed and reset, and
    :class:`~repro.obs.registry.MetricsRegistry`, the named
    lazily-evaluated views through which bags reach a report.

:mod:`repro.obs.analysis`
    Offline trace analysis behind the ``repro trace`` subcommand.
"""

from repro.obs.context import derive_span_id
from repro.obs.registry import (
    CounterGroup,
    FailoverCounters,
    MaintenanceCounters,
    MetricsRegistry,
)
from repro.obs.tracer import Tracer, export_records_jsonl, merge_records

__all__ = [
    "derive_span_id",
    "CounterGroup",
    "FailoverCounters",
    "MaintenanceCounters",
    "MetricsRegistry",
    "Tracer",
    "export_records_jsonl",
    "merge_records",
]
