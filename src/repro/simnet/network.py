"""Simulated message-passing network connecting logical nodes.

:class:`SimNetwork` is the only channel through which peers may talk to
each other: peers are addressable actors that send ``(dst, kind,
payload)`` envelopes through it and receive deliveries via the handler
registry on :class:`Node` — each message kind maps to one registered
handler, so peers never touch other peer objects or the event loop of
another peer directly.  Sending a message samples a latency from the
configured model and schedules delivery on the event loop.  Offline
destinations silently drop messages (senders are expected to use
timeouts or replica retries, exactly as over a real WAN).

One gate, two clocks
    :meth:`SimNetwork.send` / ``SimNetwork._deliver`` is *the* only
    send/deliver gate of the whole system (stamping, send-time offline
    drop, injector veto, latency, metrics, tracer hop, handler
    dispatch).  What varies is the clock it schedules on: a plain
    :class:`SimNetwork` carries every delivery on one event loop, and
    a shard's network (:class:`~repro.simnet.shard.ShardTransport`,
    one per shard of the P-Grid key space, each with a private loop)
    subclasses it with state only.  The gate judges a destination
    attached here by its ``online`` flag and any other id by
    ``_remote_online`` (offline on a plain network; another shard's peer
    as of the last barrier on a shard's), and a message that passes
    for a destination with no local node goes to the shard's outbox
    instead of the loop.  :meth:`SimNetwork.is_online` is the same
    rule.  Above the gate,
    :class:`~repro.simnet.shard.SingleLoopEngine` and
    :class:`~repro.simnet.shard.ShardedTransport` expose one driver
    surface (``submit / run_until / run_until_quiescent / ...``), all
    a workload driver or query facade needs.

Fault injection is a network-layer concern: the gate asks an installed
:class:`~repro.faultlab.injector.FaultInjector` for a send-time drop
verdict (``on_send``, *after* the offline check on every path) and
hands it the scheduling of a local delivery (``dispatch``; a message
for another shard's peer goes to the outbox as drawn).  One
:class:`~repro.faultlab.plan.FaultPlan` installs as a single injector
on the single loop or as per-shard injectors on the sharded engine, and
rng-free clauses (partitions) account identically on both.

One causal scope
    How an operation's identity follows its causal chain is decided
    here and nowhere else.  A *scope* is a plain picklable pair
    ``(op_tag | None, trace_ctx | None)``: the tag the metrics count
    messages under (``op:<ref>``) and the ``(trace_id, span_id)`` an
    installed tracer parents spans under.  The network keeps one stack
    of them; the gate stamps the innermost one on every envelope
    (``Message.scope``) and re-opens it around the delivery handler, so
    both halves follow forwards, replies and replica pushes, across
    shards too.  Code that continues an operation *outside* a delivery
    (timeout retries, give-up/cancel resolution, fan-out completion)
    captures :meth:`SimNetwork.scope` at issue time and re-enters it
    with :meth:`SimNetwork.resume`.  Either engine therefore reports the
    same attributed count and the same trace for an operation, with
    exactly one ``msg:`` span per attributed message.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from heapq import heappush
from types import MethodType
from typing import Any, Callable, ContextManager

from repro.simnet.events import EventHandle, EventLoop, SimulationError
from repro.simnet.latency import ConstantLatency, LatencyModel
from repro.simnet.metrics import NetworkMetrics

#: what :meth:`SimNetwork.resume` hands back for "no scope" (reusable)
_NO_SCOPE = nullcontext()


class Message:
    """One network message (the envelope of the actor boundary).

    ``kind`` tags the protocol step (``"route"``, ``"reply"``, ...);
    ``hops`` counts forwarding steps for the hop-count benchmarks; the
    free-form ``payload`` dict carries protocol state.  Payloads must
    stay plain data (picklable) — a sharded transport ships them across
    process boundaries.  ``carried`` is what the sender declares the
    payload carries — the result values of a reply — and what the gate
    adds to ``values_shipped``; the gate never looks inside a payload.

    A slot-only class rather than a dataclass: one Message is built per
    send, and at deployment scale the per-instance dict is measurable
    overhead (slot instances also pickle fine across shard workers).
    """

    __slots__ = ("kind", "src", "dst", "payload", "hops", "sent_at",
                 "carried", "scope")

    def __init__(self, kind: str, src: str, dst: str,
                 payload: dict[str, Any] | None = None, hops: int = 0,
                 sent_at: float = 0.0, carried: int = 0) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        self.hops = hops
        self.sent_at = sent_at
        self.carried = carried
        #: causal scope ``(op_tag | None, trace_ctx | None)`` of the
        #: logical operation this message belongs to (see the module
        #: docstring) — a plain picklable pair so sharded
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


class _OwnTable(dict):
    """A node's private handler table: changed in place, never shared
    (a shared table is a plain ``dict``; see
    :meth:`Node.register_handler`)."""

    __slots__ = ()


#: the handler table every node starts on
_EMPTY_TABLE: dict[str, Callable[["Node", Message], None]] = {}

#: ``function -> (table, kind, successor)``: the shared table a node on
#: ``table`` moves to when it registers its method ``function`` for
#: ``kind`` (see :meth:`Node.register_handler`).  Entries are never
#: dropped: there is at most one per function, a class's methods.
_SUCCESSORS: dict[Callable, tuple[dict, str, dict]] = {}


class Node:
    """Base class for anything attached to a :class:`SimNetwork`.

    A node is an *actor*: it reaches the rest of the system only
    through :meth:`send` envelopes, and receives deliveries through
    handlers registered per message kind with :meth:`register_handler`.
    Subclasses either register handlers (the normal protocol style) or
    override :meth:`on_message` wholesale.  Nodes that register the
    same methods in the same order share one handler table (every
    peer of a class does), so the registry costs a node one reference.
    The node gets a back-ref to the network when attached, which keeps
    construction order flexible.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.network: SimNetwork | None = None
        self.online = True
        #: message kind -> ``handler(node, message)``: a table shared
        #: with every node that registered the same handlers in the
        #: same order, until a registration makes it private (see
        #: :meth:`register_handler`)
        self._handlers: dict[str, Callable[["Node", Message], None]] = \
            _EMPTY_TABLE
        #: True when this node uses the stock :meth:`on_message`
        #: dispatch, letting the gate jump straight to the handler
        #: registry on delivery (one less frame per message)
        self._fast_dispatch = type(self).on_message is Node.on_message

    @property
    def loop(self) -> EventLoop:
        """The event loop of the attached network."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        return self.network.loop

    def send(self, dst: str, kind: str, payload: dict | None = None) -> None:
        """Send a message through the attached network."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        self.network.send(Message(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload=payload or {},
        ))

    # -- delivery ------------------------------------------------------

    def register_handler(self, kind: str,
                         handler: Callable[[Message], None]) -> None:
        """Route deliveries of ``kind`` to ``handler(message)`` (last
        wins).

        The registry is called as ``handler(node, message)``, so a
        method bound to this node is stored as its plain function and
        no bound-method object outlives registration.  Tables are
        copy-on-write: a node starts on the one shared empty table,
        and registering a method of itself moves it to the shared
        successor that adds ``kind: function`` — so every peer of a
        deployment points at one table instead of owning ten entries.
        A function's successor is memoised once, with the table and
        kind it was first registered with, and following it is one
        lookup; registered from any other shared table or for another
        kind, the function makes the node's table private, which
        bounds the shared tables by the distinct functions.  Any other
        handler (a function, or a method of another object) is
        wrapped and makes the table private too; a private table is
        changed in place from then on and never shared.
        """
        table = self._handlers
        if isinstance(handler, MethodType) and handler.__self__ is self:
            function = handler.__func__
            step = _SUCCESSORS.get(function)
            if step is not None and step[0] is table and step[1] == kind:
                self._handlers = step[2]
                return
            if table.get(kind) is function:
                return
            if step is None and type(table) is dict:
                successor = {**table, kind: function}
                _SUCCESSORS[function] = (table, kind, successor)
                self._handlers = successor
                return
        else:
            def function(_node: Node, message: Message) -> None:
                handler(message)
        if type(table) is dict:
            table = self._handlers = _OwnTable(table)
        table[kind] = function

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


class _Entered:
    """``with`` block holding one scope on a network's stack (a class,
    not a generator: one is entered per issued operation)."""

    __slots__ = ("_scopes", "_scope")

    def __init__(self, scopes: list, scope: tuple) -> None:
        self._scopes = scopes
        self._scope = scope

    def __enter__(self) -> None:
        self._scopes.append(self._scope)

    def __exit__(self, *exc: Any) -> None:
        self._scopes.pop()


class SimNetwork:
    """The simulated Internet layer (single shared event loop, its
    own :attr:`loop`).

    Besides the gate it keeps the node registry (:meth:`attach` /
    :meth:`detach` / :meth:`node` / :meth:`is_online` /
    :meth:`set_online`), the causal scope stack (:meth:`scope` /
    :meth:`resume`), :attr:`metrics` accounting and the fault-injector
    and tracer hook points.

    Parameters
    ----------
    latency:
        Per-message delay model; defaults to a 50 ms constant.
    rng:
        Randomness source for latency sampling (seeded for
        reproducibility).
    """

    #: active fault injector, if any (see
    #: :class:`repro.faultlab.injector.FaultInjector`, which sets and
    #: clears it).  ``None`` keeps :meth:`send` on the exact historical
    #: code path — with no injector installed every simulation stays
    #: bit-identical.
    fault_injector: Any | None

    #: active span recorder, if any (see :class:`repro.obs.tracer.
    #: Tracer`).  Same contract as the fault injector: with ``None``
    #: no scope ever carries a trace context and no send or delivery
    #: calls into the tracer, so a tracing-disabled run is
    #: bit-identical to the pre-tracing simulator.
    tracer: Any | None

    def __init__(
        self,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.metrics = NetworkMetrics()
        self._nodes: dict[str, Node] = {}
        #: stack of active causal scopes ``(op_tag, trace_ctx)``, either
        #: half possibly ``None``; an installed tracer pushes its
        #: activations on this same list
        self._scopes: list[tuple] = []
        self.fault_injector = None
        self.tracer = None
        #: read on every message hop and every timer: a plain
        #: attribute, not a property
        self.loop = EventLoop()
        self.latency = latency if latency is not None else ConstantLatency()
        self.rng = rng if rng is not None else random.Random(0)
        #: bound once: every scheduled delivery (here, in a fault
        #: injector, at a shard barrier) shares this one method object
        #: instead of binding its own per message
        self._deliver = self._deliver

    @property
    def now(self) -> float:
        """Current virtual time of this network's clock."""
        return self.loop.now

    # -- the causal scope ----------------------------------------------

    def scope(self) -> tuple | None:
        """The innermost active scope — what a message sent now would
        be stamped with — or ``None`` outside any.  Keep it to
        :meth:`resume` an operation from a timer or a callback."""
        scopes = self._scopes
        return scopes[-1] if scopes else None

    def resume(self, scope: tuple | None) -> ContextManager[None]:
        """Enter ``scope`` — one captured with :meth:`scope`, or a
        fresh ``(op_tag, None)`` — so messages sent inside bill and
        parent under it.  ``None`` (nothing was active then) enters
        nothing."""
        if scope is None:
            return _NO_SCOPE
        return _Entered(self._scopes, scope)

    # -- membership ----------------------------------------------------

    def attach(self, node: Node) -> None:
        """Register a node under its ``node_id``."""
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self._nodes[node.node_id] = node

    def detach(self, node_id: str) -> None:
        """Remove a node permanently (e.g. simulated departure)."""
        node = self._nodes.pop(node_id, None)
        if node is not None:
            node.network = None

    def node(self, node_id: str) -> Node:
        """Look up an attached node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node_ids(self) -> list[str]:
        """Ids of all attached nodes (online or not)."""
        return list(self._nodes)

    def is_online(self, node_id: str) -> bool:
        """Whether a send to ``node_id`` now would pass the gate's
        offline check: an attached node by its own flag, any other id
        by :meth:`_remote_online`."""
        node = self._nodes.get(node_id)
        if node is not None:
            return node.online
        return self._remote_online(node_id)

    def _remote_online(self, node_id: str) -> bool:
        """Liveness of an id not attached here.  A plain network
        knows no other peers; a shard's transport answers for peers
        another shard owns."""
        return False

    def set_online(self, node_id: str, online: bool) -> None:
        """Toggle a node's availability (simulated crash / recovery)."""
        self.node(node_id).online = online

    # -- tracing hook point --------------------------------------------

    def install_tracer(self, tracer: Any) -> Any:
        """Route subsequent sends/deliveries through ``tracer``.

        The tracer keeps no stack of its own from here on: its
        activations push on this network's scope stack, which is how
        a trace context reaches the envelopes the gate stamps.  For
        every stamped envelope whose scope carries a context the gate
        records a hop span once it passes the drop checks
        (``message_sent``) or a drop event (``message_dropped``).
        Returns ``tracer`` for chaining.
        """
        if self.tracer is not None and self.tracer is not tracer:
            raise SimulationError("a tracer is already installed")
        self.tracer = tracer
        tracer._scopes = self._scopes
        return tracer

    # -- the gate ------------------------------------------------------

    def send(self, message: Message) -> None:
        """Sample a latency and schedule delivery of ``message`` (on
        this loop, or through a shard's outbox for another shard's peer).

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
            # An id not attached here may be another shard's live peer.
            if dst_node is not None or not self._remote_online(message.dst):
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
        # Counted in place, not through a metrics method: one call per
        # message is measurable at deployment-build volume.
        kind = message.kind
        metrics = self.metrics
        metrics.messages_sent += 1
        metrics.total_latency += delay
        metrics.values_shipped += message.carried
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
        if dst_node is None:
            # Another shard's peer (only a shard's transport gets here):
            # parked for the next barrier, which schedules its delivery.
            self._outbox.append((loop._now + delay, next(self._out_seq),
                                 message))
        elif injector is not None:
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
