"""Trace identity: deterministic span ids and the context tuple.

A *trace context* is the pair ``(trace_id, span_id)`` — the trace a
piece of work belongs to and the span that caused it.  A context is
the trace half of the transport's causal scope: it rides with the
attribution tag in the ``scope`` slot of
:class:`~repro.simnet.network.Message` envelopes (plain tuples,
picklable, so sharded transports ship them across process boundaries
unchanged) and on the transport's scope stack for synchronous work.

Span ids are **derived, never drawn**: :func:`derive_span_id` is a
pure function of ``(trace seed, peer, per-peer sequence number)``.
Because each peer's event order is deterministic under a fixed seed
(the property the transport golden tests pin), the ids — and therefore
whole traces — are bit-identical across runs and across
:class:`~repro.simnet.shard.ShardedTransport` shard counts: sharding
changes *which tracer* numbers a peer's spans, not the numbers
themselves.
"""

from __future__ import annotations

import hashlib


def derive_span_id(seed: int, peer: str, seq: int) -> str:
    """Deterministic span id from ``(trace seed, peer, sequence)``.

    The readable ``peer.seq`` prefix keeps waterfalls greppable; the
    blake2s suffix binds the id to the trace seed so spans from runs
    with different seeds can never be confused for one another.
    """
    digest = hashlib.blake2s(
        f"{seed}|{peer}|{seq}".encode(), digest_size=4
    ).hexdigest()
    return f"{peer}.{seq}.{digest}"
