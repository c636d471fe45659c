"""Simulated message-passing network connecting logical nodes.

:class:`SimNetwork` is the only channel through which peers may talk to
each other; sending a message samples a latency from the configured
model and schedules delivery on the event loop.  Offline destinations
silently drop messages (senders are expected to use timeouts or replica
retries, exactly as over a real WAN).

:class:`SimNetwork` is the single-event-loop implementation of the
:class:`~repro.simnet.transport.Transport` boundary, and its
:meth:`~SimNetwork.send` / ``_deliver`` pair is *the* send/deliver gate
of the whole system: a shard's transport
(:class:`~repro.simnet.shard.ShardTransport`) subclasses it and runs
every local send and every delivery through this code.  Peers receive
deliveries through the handler registry on :class:`Node`: each message
kind maps to one registered handler, which is what makes peers
addressable actors rather than objects calling into each other.
"""

from __future__ import annotations

import random
from heapq import heappush
from types import MethodType
from typing import Any, Callable

from repro.simnet.events import EventHandle, EventLoop, SimulationError
from repro.simnet.latency import ConstantLatency, LatencyModel
from repro.simnet.transport import Transport


class Message:
    """One network message (the envelope of the actor boundary).

    ``kind`` tags the protocol step (``"route"``, ``"reply"``, ...);
    ``hops`` counts forwarding steps for the hop-count benchmarks; the
    free-form ``payload`` dict carries protocol state.  Payloads must
    stay plain data (picklable) — a sharded transport ships them across
    process boundaries.

    A slot-only class rather than a dataclass: one Message is built per
    send, and at deployment scale the per-instance dict is measurable
    overhead (slot instances also pickle fine across shard workers).
    """

    __slots__ = ("kind", "src", "dst", "payload", "hops", "sent_at",
                 "scope")

    def __init__(self, kind: str, src: str, dst: str,
                 payload: dict[str, Any] | None = None, hops: int = 0,
                 sent_at: float = 0.0) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        self.hops = hops
        self.sent_at = sent_at
        #: causal scope ``(op_tag | None, trace_ctx | None)`` of the
        #: logical operation this message belongs to (see
        #: ``simnet/transport.py``) — a plain picklable pair so sharded
        #: transports ship it across process boundaries unchanged.
        #: The gate stamps the sender's active scope at send time and
        #: re-opens it around the delivery handler, so every message
        #: sent while handling the delivery (forwards, replies, replica
        #: fan-out) inherits it.  ``None`` outside any scope.
        self.scope: tuple | None = None

    @property
    def op_tag(self) -> str | None:
        """Attribution tag this message is counted under, if any."""
        scope = self.scope
        return None if scope is None else scope[0]

    @property
    def trace(self) -> tuple[str, str] | None:
        """Trace context ``(trace_id, span_id)`` this message carries."""
        scope = self.scope
        return None if scope is None else scope[1]

    def __repr__(self) -> str:
        return (f"Message(kind={self.kind!r}, src={self.src!r}, "
                f"dst={self.dst!r}, payload={self.payload!r}, "
                f"hops={self.hops}, sent_at={self.sent_at}, "
                f"op_tag={self.op_tag!r})")


class Node:
    """Base class for anything attached to a :class:`Transport`.

    A node is an *actor*: it reaches the rest of the system only
    through :meth:`send` envelopes, and receives deliveries through
    handlers registered per message kind with :meth:`register_handler`.
    Subclasses either register handlers (the normal protocol style) or
    override :meth:`on_message` wholesale.  The node gets a back-ref to
    the transport when attached, which keeps construction order
    flexible.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.network: Transport | None = None
        self.online = True
        #: message kind -> ``handler(node, message)`` (see
        #: :meth:`register_handler`)
        self._handlers: dict[str, Callable[["Node", Message], None]] = {}
        #: True when this node uses the stock :meth:`on_message`
        #: dispatch, letting the transport jump straight to the handler
        #: registry on delivery (one less frame per message)
        self._fast_dispatch = type(self).on_message is Node.on_message

    @property
    def loop(self) -> EventLoop:
        """The event loop of the attached transport."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        return self.network.loop

    def send(self, dst: str, kind: str, payload: dict | None = None,
             hops: int = 0) -> None:
        """Send a message through the attached transport."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        self.network.send(Message(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload=payload or {},
            hops=hops,
        ))

    # -- delivery ------------------------------------------------------

    def register_handler(self, kind: str,
                         handler: Callable[[Message], None]) -> None:
        """Route deliveries of ``kind`` to ``handler(message)`` (last
        wins).

        The registry is called as ``handler(node, message)``, so a
        method bound to this node is stored as its plain function and
        no bound-method object outlives registration (ten a peer, for
        the cyclic collector to re-traverse, at deployment scale).
        """
        if isinstance(handler, MethodType) and handler.__self__ is self:
            self._handlers[kind] = handler.__func__
        else:
            self._handlers[kind] = lambda _node, message: handler(message)

    def on_message(self, message: Message) -> None:
        """Dispatch a delivered message to its registered handler."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.unhandled_message(message)
        else:
            handler(self, message)

    def unhandled_message(self, message: Message) -> None:
        """Called for deliveries with no registered handler."""
        raise ValueError(f"unknown message kind {message.kind!r}")


class SimNetwork(Transport):
    """The simulated Internet layer (single shared event loop).

    Parameters
    ----------
    loop:
        Event loop carrying deliveries (a fresh one is created when
        omitted).
    latency:
        Per-message delay model; defaults to a 50 ms constant.
    rng:
        Randomness source for latency sampling (seeded for
        reproducibility).
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__()
        self.loop = loop if loop is not None else EventLoop()
        self.latency = latency if latency is not None else ConstantLatency()
        self.rng = rng if rng is not None else random.Random(0)
        #: bound once: every scheduled delivery (here, in a fault
        #: injector, at a shard barrier) shares this one method object
        #: instead of binding its own per message
        self._deliver = self._deliver

    # -- transport -----------------------------------------------------

    def send(self, message: Message) -> None:
        """Sample a latency and schedule delivery of ``message``.

        Messages to unknown or offline destinations are dropped; the
        drop is recorded so protocols under test can be audited for
        relying on silent success.
        """
        loop = self.loop
        message.sent_at = loop._now
        scope = message.scope
        if scope is None:
            scopes = self._scopes
            if scopes:
                # Stamped by reference: a hop allocates nothing here.
                scope = message.scope = scopes[-1]
        tracer = self.tracer
        if tracer is not None and (scope is None or scope[1] is None):
            # Untraced envelope: no hop span, no drop event.  With no
            # tracer installed this is one attribute load and a None
            # check — the pay-for-what-you-use contract the golden
            # tests pin.
            tracer = None
        dst_node = self._nodes.get(message.dst)
        if dst_node is None or not dst_node.online:
            self.metrics.record_drop(message.kind, reason="offline")
            if tracer is not None:
                tracer.message_dropped(message, loop._now, "offline")
            return
        injector = self.fault_injector
        if injector is not None:
            drop_reason = injector.on_send(message)
            if drop_reason is not None:
                self.metrics.record_drop(message.kind, reason=drop_reason)
                if tracer is not None:
                    tracer.message_dropped(message, loop._now,
                                           drop_reason)
                return
        latency = self.latency
        if type(latency) is ConstantLatency:
            # The default model needs no sampling call (and consumes no
            # randomness) — skip the frame on the per-message path.
            delay = latency.delay
        else:
            delay = latency.sample(message.src, message.dst, self.rng)
        # Inlined ``self.metrics.record_send(...)``: one method call per
        # message is measurable at deployment-build volume.
        kind = message.kind
        metrics = self.metrics
        metrics.messages_sent += 1
        metrics.total_latency += delay
        values = message.payload.get("values")
        if values is not None and isinstance(values, (list, set)):
            metrics.values_shipped += len(values)
        by_kind = metrics.messages_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if scope is not None:
            op_tag = scope[0]
            if op_tag is not None and op_tag in metrics.operations:
                metrics.operations[op_tag] += 1
            if tracer is not None:
                # Same gate, same scope as the counter above: a hop
                # span exists exactly for the messages the metrics
                # layer counts, so per-trace message coverage matches
                # the ``operations`` counter by construction.
                tracer.message_sent(message, loop._now, delay)
        if injector is not None:
            # The injector owns scheduling for faulted links: it may
            # add jitter, clone duplicates or hold the message back to
            # reorder it behind later traffic.  Unmatched messages are
            # scheduled exactly as below.
            injector.dispatch(message, delay, self._deliver)
        else:
            # Inlined ``loop.schedule(delay, self._deliver, message)``
            # — same heap entry and seq numbering, minus one frame on
            # the per-message path (delay is a sampled latency, never
            # negative, so the guard is also redundant here).
            time = loop._now + delay
            handle = EventHandle(time, next(loop._seq), loop,
                                 self._deliver, (message,))
            heappush(loop._queue, (time, handle.seq, handle))
            loop._live += 1

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None or not node.online:
            # Destination went offline while the message was in flight.
            self.metrics.record_drop(message.kind, reason="in_flight")
            tracer = self.tracer
            if tracer is not None and message.trace is not None:
                tracer.message_dropped(message, self.loop._now,
                                       "in_flight")
            return
        if node._fast_dispatch:
            # Stock dispatch: jump straight to the registered handler
            # (``on_message`` would do exactly this lookup, one frame
            # deeper — and this is the hottest call site in the system).
            handler = node._handlers.get(message.kind)
            if handler is None:
                handler = type(node).unhandled_message
        else:
            handler = type(node).on_message
        scope = message.scope
        if scope is not None:
            # Re-open the scope so messages sent by the handler inherit
            # the delivered message's attribution and parent under its
            # hop span (inlined ``self.resume(...)``: one scope
            # open/close per delivery makes the contextmanager
            # generator measurable).
            scopes = self._scopes
            scopes.append(scope)
            try:
                handler(node, message)
            finally:
                scopes.pop()
        else:
            handler(node, message)
