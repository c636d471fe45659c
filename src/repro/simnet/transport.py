"""The transport boundary between peers (actors) and the network.

Peers are addressable actors: they send ``(dst, kind, payload)``
envelopes through a :class:`Transport` and receive deliveries via the
handler registry on :class:`~repro.simnet.network.Node` — they never
touch other peer objects or the event loop of another peer directly.

One gate, one driver, two clocks
    There is exactly one send/deliver gate — ``SimNetwork.send`` /
    ``SimNetwork._deliver`` in ``simnet/network.py`` (stamping,
    send-time offline drop, injector veto, latency, metrics, tracer
    hop, handler dispatch).  What varies is the clock it schedules on:

    :class:`~repro.simnet.network.SimNetwork`
        One event loop carries every delivery — bit-identical to the
        pre-transport simulator (``tests/test_transport_golden.py``).

    :class:`~repro.simnet.shard.ShardTransport`
        A ``SimNetwork`` with an outbox, one per shard of the P-Grid
        key space, each with a private loop.  Only the branch for a
        destination another shard owns is its own code.

    Above the gate, :class:`~repro.simnet.shard.SingleLoopEngine` and
    :class:`~repro.simnet.shard.ShardedTransport` expose one driver
    surface (``submit / run_until / run_until_quiescent / ...``), all a
    workload driver or query facade needs.

Fault injection is a transport-layer concern: the two hook points
:class:`~repro.faultlab.injector.FaultInjector` uses — a send-time drop
verdict (``on_send``, asked *after* the offline check on every path)
and ownership of delivery scheduling (``dispatch``) — are defined here.
One :class:`~repro.faultlab.plan.FaultPlan` installs as a single
injector on the single loop or as per-shard injectors on the sharded
engine, and rng-free clauses (partitions) account identically on both.

One causal scope
    How an operation's identity follows its causal chain is decided
    here and at the gate, nowhere else.  A *scope* is a plain picklable
    pair ``(op_tag | None, trace_ctx | None)``: the tag the metrics
    count messages under (``op:<ref>``) and the ``(trace_id, span_id)``
    an installed tracer parents spans under.  The transport keeps one
    stack of them; the gate stamps the innermost one on every envelope
    (``Message.scope``) and re-opens it around the delivery handler, so
    both halves follow forwards, replies and replica pushes, across
    shards too.  Code that continues an operation *outside* a delivery
    (timeout retries, give-up/cancel resolution, fan-out completion)
    captures :meth:`Transport.scope` at issue time and re-enters it
    with :meth:`Transport.resume`.  Either engine therefore reports the
    same attributed count and the same trace for an operation, with
    exactly one ``msg:`` span per attributed message.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, ContextManager, Iterator

from repro.simnet.events import SimulationError
from repro.simnet.metrics import NetworkMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.events import EventLoop
    from repro.simnet.network import Message, Node

#: what :meth:`Transport.resume` hands back for "no scope" (reusable)
_NO_SCOPE = nullcontext()


class _Entered:
    """``with`` block holding one scope on a transport's stack (a
    class, not a generator: one is entered per issued operation)."""

    __slots__ = ("_scopes", "_scope")

    def __init__(self, scopes: list, scope: tuple) -> None:
        self._scopes = scopes
        self._scope = scope

    def __enter__(self) -> None:
        self._scopes.append(self._scope)

    def __exit__(self, *exc: Any) -> None:
        self._scopes.pop()


class Transport:
    """Base class for message transports connecting :class:`Node` actors.

    Concrete transports implement :meth:`send` (latency sampling and
    delivery scheduling) and own an event :attr:`loop`; the base class
    provides the pieces every transport shares:

    - the node registry (:meth:`attach` / :meth:`detach` / :meth:`node`
      / :meth:`is_online` / :meth:`set_online`),
    - the causal scope stack (:meth:`operation` / :meth:`scope` /
      :meth:`resume`), whose entries ride on the messages themselves so
      attribution and trace parentage follow causal chains,
    - :attr:`metrics` accounting,
    - the fault-injection hook points
      (:meth:`install_fault_injector` / :meth:`uninstall_fault_injector`).
    """

    #: active fault injector, if any (see
    #: :class:`repro.faultlab.injector.FaultInjector`).  ``None`` keeps
    #: :meth:`send` on the exact historical code path — with no
    #: injector installed every simulation stays bit-identical.
    fault_injector: Any | None

    #: active span recorder, if any (see :class:`repro.obs.tracer.
    #: Tracer`).  Same contract as the fault injector: with ``None``
    #: no scope ever carries a trace context and no send or delivery
    #: calls into the tracer, so a tracing-disabled run is
    #: bit-identical to the pre-tracing simulator.
    tracer: Any | None

    def __init__(self) -> None:
        self.metrics = NetworkMetrics()
        self._nodes: dict[str, "Node"] = {}
        #: stack of active causal scopes ``(op_tag, trace_ctx)``, either
        #: half possibly ``None`` (see :meth:`operation`); an installed
        #: tracer pushes its activations on this same list
        self._scopes: list[tuple] = []
        self.fault_injector = None
        self.tracer = None

    # -- clock ---------------------------------------------------------

    #: The event loop carrying this transport's deliveries.  A *plain
    #: attribute* set by concrete transports in ``__init__`` — it is
    #: read on every message hop and every timer, so a property frame
    #: here would be pure per-message overhead.
    loop: "EventLoop"

    @property
    def now(self) -> float:
        """Current virtual time of this transport's clock."""
        return self.loop.now

    # -- the causal scope ----------------------------------------------

    def scope(self) -> tuple | None:
        """The innermost active scope — what a message sent now would
        be stamped with — or ``None`` outside any.  Keep it to
        :meth:`resume` an operation from a timer or a callback."""
        scopes = self._scopes
        return scopes[-1] if scopes else None

    @contextmanager
    def operation(self, op_tag: str) -> Iterator[None]:
        """Attribute messages sent inside this scope to ``op_tag``.

        The tag sticks to the messages themselves, so the attribution
        follows the *causal chain*: handling a tagged delivery re-opens
        the scope, and any forwards, replies or replica pushes sent
        from the handler inherit the tag.  Concurrent background
        traffic (maintenance ticks, churn) runs outside any scope and
        stays unattributed — this is what makes per-query message
        counts exact under churn (see
        :meth:`~repro.simnet.metrics.NetworkMetrics.begin_operation`).
        An active trace context carries over into the new scope.
        """
        scopes = self._scopes
        with self.resume((op_tag, scopes[-1][1] if scopes else None)):
            yield

    def resume(self, scope: tuple | None) -> ContextManager[None]:
        """Re-enter a scope captured with :meth:`scope`: messages sent
        inside bill and parent exactly as at the capture.  ``None``
        (nothing was active then) enters nothing."""
        if scope is None:
            return _NO_SCOPE
        return _Entered(self._scopes, scope)

    # -- membership ----------------------------------------------------

    def attach(self, node: "Node") -> None:
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

    def node(self, node_id: str) -> "Node":
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
        """Whether the node exists and is currently online.

        Transports may answer from *local knowledge*: a sharded
        transport answers exactly for peers it owns and from a
        barrier-refreshed liveness map for remote peers (stale by at
        most one synchronization window).
        """
        node = self._nodes.get(node_id)
        return node is not None and node.online

    def set_online(self, node_id: str, online: bool) -> None:
        """Toggle a node's availability (simulated crash / recovery)."""
        self.node(node_id).online = online

    # -- fault-injection hook points -----------------------------------

    def install_fault_injector(self, injector: Any) -> None:
        """Route subsequent sends through ``injector``.

        The injector contract has two hooks: ``on_send(message)``
        returns a drop-reason string to drop the message before latency
        sampling (or ``None`` to let it pass), and
        ``dispatch(message, delay, deliver)`` takes ownership of
        delivery scheduling (jitter, duplication, reordering).
        """
        if self.fault_injector is not None and self.fault_injector is not injector:
            raise SimulationError("a fault injector is already installed")
        self.fault_injector = injector

    def uninstall_fault_injector(self, injector: Any) -> None:
        """Detach ``injector`` (idempotent; unknown injectors ignored)."""
        if self.fault_injector is injector:
            self.fault_injector = None

    # -- tracing hook points -------------------------------------------

    def install_tracer(self, tracer: Any) -> Any:
        """Route subsequent sends/deliveries through ``tracer``.

        The tracer keeps no stack of its own from here on: its
        activations push on this transport's scope stack, which is how
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

    # -- sending -------------------------------------------------------

    def send(self, message: "Message") -> None:
        """Sample a latency and schedule delivery of ``message``."""
        raise NotImplementedError

