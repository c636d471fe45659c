"""Observability plane: causal tracing + the unified metrics registry.

Two independent facilities, both strictly pay-for-what-you-use:

:mod:`repro.obs.tracer` / :mod:`repro.obs.context`
    Sim-time span recording with deterministic ids.  The trace context
    is one half of the transport's causal scope (``Message.scope``,
    ``simnet/transport.py``), so it propagates with the attribution
    tag, by the one mechanism.  With no tracer installed no scope holds
    a context and every transport hot path reduces to one attribute
    load and a ``None`` check — the transport golden tests stay
    bit-identical.

:mod:`repro.obs.registry`
    :class:`~repro.obs.registry.MetricsRegistry` unifying the existing
    stat bags through lazily-evaluated views, plus
    :class:`~repro.obs.registry.CounterGroup` for typed counter sets.

:mod:`repro.obs.analysis`
    Offline trace analysis behind the ``repro trace`` subcommand.
"""

from repro.obs.context import derive_span_id
from repro.obs.registry import (
    CounterGroup,
    FailoverCounters,
    MetricsRegistry,
)
from repro.obs.tracer import Tracer, export_records_jsonl, merge_records

__all__ = [
    "derive_span_id",
    "CounterGroup",
    "FailoverCounters",
    "MetricsRegistry",
    "Tracer",
    "export_records_jsonl",
    "merge_records",
]
