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

Per-operation attribution scopes (``operation`` / ``op:<ref>`` tags)
stick to messages and follow causal chains across shards, and span
recorders install per transport and export merged, deterministically
ordered records — so an operation submitted through either engine
reports the same attributed message count and the same trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.simnet.events import SimulationError
from repro.simnet.metrics import NetworkMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.events import EventLoop
    from repro.simnet.network import Message, Node


class Transport:
    """Base class for message transports connecting :class:`Node` actors.

    Concrete transports implement :meth:`send` (latency sampling and
    delivery scheduling) and own an event :attr:`loop`; the base class
    provides the pieces every transport shares:

    - the node registry (:meth:`attach` / :meth:`detach` / :meth:`node`
      / :meth:`is_online` / :meth:`set_online`),
    - per-operation attribution scopes (:meth:`operation`), which ride
      on the messages themselves so attribution follows causal chains,
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
    #: Tracer`).  Same contract as the fault injector: ``None`` keeps
    #: every send/deliver on the exact historical code path, so a
    #: tracing-disabled run is bit-identical to the pre-tracing
    #: simulator.
    tracer: Any | None

    def __init__(self) -> None:
        self.metrics = NetworkMetrics()
        self._nodes: dict[str, "Node"] = {}
        #: stack of active attribution scopes (see :meth:`operation`)
        self._op_stack: list[str] = []
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

    # -- per-operation attribution -------------------------------------

    def current_operation(self) -> str | None:
        """The attribution tag of the innermost active scope, if any."""
        return self._op_stack[-1] if self._op_stack else None

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
        """
        self._op_stack.append(op_tag)
        try:
            yield
        finally:
            self._op_stack.pop()

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

        The tracer contract mirrors the injector's: the transport
        stamps outgoing envelopes with the active trace context,
        records a hop span per message that passes the drop checks
        (``message_sent``), records drop events (``message_dropped``)
        and re-activates a delivered envelope's context around its
        handler — exactly the causal discipline of ``op_tag`` scopes.
        Returns ``tracer`` for chaining.
        """
        if self.tracer is not None and self.tracer is not tracer:
            raise SimulationError("a tracer is already installed")
        self.tracer = tracer
        return tracer

    # -- sending -------------------------------------------------------

    def send(self, message: "Message") -> None:
        """Sample a latency and schedule delivery of ``message``."""
        raise NotImplementedError

