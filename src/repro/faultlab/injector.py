"""Deterministic fault injection on a :class:`SimNetwork`.

:class:`FaultInjector` executes a :class:`~repro.faultlab.plan.
FaultPlan` against a live network by installing itself as the
network's ``fault_injector``, the two hook points its send/deliver gate
calls:

* :meth:`on_send` — consulted for every message *before* a latency is
  sampled; partitions and drop clauses answer with a drop reason and
  the message never touches the wire (the metrics record the drop
  under that reason, per kind);
* :meth:`dispatch` — owns delivery scheduling for messages that
  survived; delay clauses add jitter, duplicate clauses clone extra
  deliveries, reorder clauses hold a message until later traffic on
  the same link overtakes it.

Crash/restart clauses are scheduled on the event loop at install time.
The injector mirrors :class:`~repro.simnet.churn.ChurnProcess`'s
idempotent crash semantics: it only crashes nodes that are online and
only restarts nodes it crashed itself, so the two processes compose on
one network without fighting over bookkeeping.

Everything the injector decides comes from per-clause RNGs seeded by
``(plan.seed, clause identity)``; the network's own RNG is never
touched, so installing a plan whose clauses never fire leaves the
simulation bit-identical to a fault-free run.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.faultlab.plan import (
    CrashRestart,
    FOREVER,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    MessageReorder,
    Partition,
    clause_seed,
)
from repro.obs.registry import CounterGroup
from repro.simnet.events import SimulationError
from repro.simnet.network import Message, SimNetwork

#: virtual seconds a released held message trails the overtaking one
_REORDER_EPSILON = 1e-3


class FaultCounters(CounterGroup):
    """What one :class:`FaultInjector` fired: ``injected`` counts by
    action (drop, partition, duplicate, delay, reorder, crash,
    restart)."""

    _keyed = ("injected",)
    __slots__ = _keyed


class FaultInjector:
    """Applies one :class:`FaultPlan` to one :class:`SimNetwork`.

    Fault injection lives at the network layer: the gate calls
    :meth:`on_send` for a pre-latency drop verdict and hands delivery
    scheduling to :meth:`dispatch`, so the same fault plans apply to
    the single loop's network and to each shard's.

    Use as a context manager (``with FaultInjector(net, plan):``) or
    call :meth:`install` / :meth:`uninstall` explicitly.  Counters in
    :attr:`injected` (and the per-kind breakdown in
    ``transport.metrics.faults_by_kind``) record what actually fired.
    """

    def __init__(self, transport: SimNetwork, plan: FaultPlan) -> None:
        self.transport = transport
        self.plan = plan
        self.counters = FaultCounters()
        #: action -> times it fired (``counters.injected``)
        self.injected = self.counters.injected
        self._installed = False
        #: per-clause deterministic randomness (see plan.clause_seed);
        #: repeated identical clauses get independent streams via
        #: their occurrence ordinal
        occurrences: dict[Any, int] = {}
        self._rngs: dict[int, random.Random] = {}
        for index, clause in enumerate(plan.faults):
            ordinal = occurrences.get(clause, 0)
            occurrences[clause] = ordinal + 1
            self._rngs[index] = random.Random(
                clause_seed(plan.seed, clause, ordinal))
        self._partitions: list[Partition] = [
            c for c in plan.faults if isinstance(c, Partition)
        ]
        self._drops: list[tuple[int, MessageDrop]] = []
        self._duplicates: list[tuple[int, MessageDuplicate]] = []
        self._delays: list[tuple[int, MessageDelay]] = []
        self._reorders: list[tuple[int, MessageReorder]] = []
        for index, clause in enumerate(plan.faults):
            if isinstance(clause, MessageDrop):
                self._drops.append((index, clause))
            elif isinstance(clause, MessageDuplicate):
                self._duplicates.append((index, clause))
            elif isinstance(clause, MessageDelay):
                self._delays.append((index, clause))
            elif isinstance(clause, MessageReorder):
                self._reorders.append((index, clause))
        #: (src, dst) -> held (message, planned delay, flush handle)
        self._held: dict[tuple[str, str], list] = {}
        #: nodes this injector crashed and still owes a restart
        self._down: set[str] = set()
        #: virtual time of install; all clause windows are *relative*
        #: to it, so the same plan means the same thing no matter how
        #: much virtual time deployment building consumed
        self._epoch = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Attach to the network and schedule crash/restart events."""
        if self.transport.fault_injector is not None:
            raise SimulationError("another fault injector is installed")
        self.transport.fault_injector = self
        self._installed = True
        self._epoch = self.transport.loop.now
        for clause in self.plan.faults:
            if isinstance(clause, CrashRestart):
                self.transport.loop.schedule(
                    clause.at, self._crash, clause)
                if clause.restart_at != FOREVER:
                    self.transport.loop.schedule(
                        clause.restart_at, self._restart, clause.node)
        return self

    def uninstall(self) -> None:
        """Detach; flush held messages and restart crashed nodes.

        Uninstalling *heals everything* the plan broke: pending
        reordered messages are released (in held order) and every node
        the injector still holds down comes back online — a plan can
        therefore never leak faults past its own run.
        """
        if not self._installed:
            return
        self._installed = False
        self.transport.fault_injector = None
        for link in sorted(self._held):
            for message, delay, flush_handle in self._held[link]:
                flush_handle.cancel()
                self.transport.loop.schedule(delay, self.transport._deliver,
                                           message)
        self._held.clear()
        for node_id in sorted(self._down):
            self._restart(node_id)

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def _crash(self, clause: CrashRestart) -> None:
        if not self._installed:
            return
        node_id = clause.node
        if node_id not in self.transport:
            return
        if not self.transport.is_online(node_id):
            return  # someone else (e.g. churn) beat us to it
        self.transport.set_online(node_id, False)
        self._down.add(node_id)
        self._record("crash", "node")

    def _restart(self, node_id: str) -> None:
        if node_id not in self._down:
            return  # not ours, or already restarted
        self._down.discard(node_id)
        if node_id not in self.transport:
            return
        if self.transport.is_online(node_id):
            return  # externally recovered meanwhile
        self.transport.set_online(node_id, True)
        self._record("restart", "node")

    def currently_down(self) -> set[str]:
        """Nodes this injector holds offline right now."""
        return set(self._down)

    # ------------------------------------------------------------------
    # Gate hooks (called by SimNetwork.send)
    # ------------------------------------------------------------------

    def on_send(self, message: Message) -> str | None:
        """Drop verdict for one message: a reason string, or ``None``.

        Partitions are consulted first (they are absolute, no
        probability), then drop clauses in plan order.
        """
        now = self.transport.loop.now - self._epoch
        for cut in self._partitions:
            if cut.blocks(message, now):
                self._record("partition", message.kind)
                return "partition"
        for index, clause in self._drops:
            if clause.matches(message, now):
                if self._rngs[index].random() < clause.probability:
                    self._record("drop", message.kind)
                    return "fault"
        return None

    def dispatch(self, message: Message, delay: float,
                 deliver: Callable[[Message], None]) -> None:
        """Schedule delivery, applying delay/duplicate/reorder clauses.

        ``delay`` is the latency the network already sampled for the
        message; faults only ever *add* to it, never consume network
        randomness.
        """
        now = self.transport.loop.now - self._epoch
        loop = self.transport.loop
        for index, clause in self._delays:
            if clause.matches(message, now):
                rng = self._rngs[index]
                if rng.random() < clause.probability:
                    delay += rng.uniform(clause.jitter_min,
                                         clause.jitter_max)
                    self._record("delay", message.kind, message)
        # Duplicates fire before any reorder hold, so stacking the two
        # clause kinds behaves as advertised: the copies travel
        # normally even when the original is held back.
        for index, clause in self._duplicates:
            if clause.matches(message, now):
                rng = self._rngs[index]
                if rng.random() < clause.probability:
                    for _copy in range(clause.copies):
                        self._record("duplicate", message.kind, message)
                        loop.schedule(delay + rng.uniform(0.0, clause.spread),
                                      deliver, self._clone(message))
        link = (message.src, message.dst)
        for index, clause in self._reorders:
            if clause.matches(message, now):
                if self._rngs[index].random() < clause.probability:
                    self._record("reorder", message.kind, message)
                    self._hold(link, message, delay, clause.hold_max)
                    return
        loop.schedule(delay, deliver, message)
        self._release_held(link, after_delay=delay)

    # ------------------------------------------------------------------
    # Reordering internals
    # ------------------------------------------------------------------

    def _hold(self, link: tuple[str, str], message: Message,
              delay: float, hold_max: float) -> None:
        entry: list = [message, delay, None]
        entry[2] = self.transport.loop.schedule(
            hold_max, self._flush, link, id(message))
        self._held.setdefault(link, []).append(tuple(entry))

    def _release_held(self, link: tuple[str, str],
                      after_delay: float) -> None:
        """Deliver held messages just behind the overtaking one."""
        held = self._held.pop(link, None)
        if not held:
            return
        for offset, (message, _delay, flush_handle) in enumerate(held, 1):
            flush_handle.cancel()
            self.transport.loop.schedule(
                after_delay + offset * _REORDER_EPSILON,
                self.transport._deliver, message)

    def _flush(self, link: tuple[str, str], message_id: int) -> None:
        """Timeout release: the link stayed quiet past ``hold_max``."""
        held = self._held.get(link)
        if not held:
            return
        kept = []
        for entry in held:
            message, delay, _flush_handle = entry
            if id(message) == message_id:
                self.transport.loop.schedule(delay, self.transport._deliver,
                                           message)
            else:
                kept.append(entry)
        if kept:
            self._held[link] = kept
        else:
            self._held.pop(link, None)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record(self, action: str, kind: str,
                message: Message | None = None) -> None:
        self.injected[action] = self.injected.get(action, 0) + 1
        self.transport.metrics.record_fault(action, kind)
        if message is not None and message.trace is not None:
            tracer = self.transport.tracer
            if tracer is not None:
                # Annotate the trace with *why* a hop stalled or
                # vanished: the event parents under the message's
                # current context (the sender span for pre-send drops,
                # the hop span for post-send delay/duplicate/reorder).
                tracer.event(f"fault:{action}", peer=message.src,
                             time=self.transport.loop.now,
                             context=message.trace, kind=kind)

    def _clone(self, message: Message) -> Message:
        """A duplicate delivery: same content, independent payload dict
        (handlers that copy-and-mutate payloads must not alias)."""
        copy = Message(
            kind=message.kind,
            src=message.src,
            dst=message.dst,
            payload=dict(message.payload),
            hops=message.hops,
            sent_at=message.sent_at,
            carried=message.carried,
        )
        # The clone stays on the original's causal chain: its delivery
        # re-opens the same scope (tag and hop span), so duplicated
        # replies still attribute their downstream sends to the right
        # operation and trace.
        copy.scope = message.scope
        return copy


class InstalledPlan:
    """One :class:`FaultPlan` live on one deployment, however sharded.

    Aggregates the per-network :class:`FaultInjector` instances a
    plan installation produced (one for a single-loop network, one
    per shard for a :class:`~repro.simnet.shard.ShardedTransport`) so
    scenario harnesses can stay transport-agnostic: uninstall heals
    everything everywhere, and :attr:`injected` reports the
    deployment-wide totals.
    """

    def __init__(self, injectors: list[FaultInjector]) -> None:
        self.injectors = injectors

    @property
    def injected(self) -> dict[str, int]:
        """Fired-fault counts by action, summed over all injectors."""
        return FaultCounters.total(
            injector.counters for injector in self.injectors).injected

    def currently_down(self) -> set[str]:
        """Nodes any injector holds offline right now."""
        down: set[str] = set()
        for injector in self.injectors:
            down |= injector.currently_down()
        return down

    def uninstall(self) -> None:
        """Detach every injector (flushes holds, restarts crashes)."""
        for injector in self.injectors:
            injector.uninstall()

    def __enter__(self) -> "InstalledPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def install_plan(transport: Any, plan: FaultPlan) -> InstalledPlan:
    """Install ``plan`` on any transport and return the installation.

    A :class:`~repro.simnet.shard.ShardedTransport` installs one
    injector per shard (its ``install_fault_plan``); a single-loop
    :class:`SimNetwork` gets one injector directly.  Either way the
    caller holds an :class:`InstalledPlan` with uniform uninstall and
    accounting.
    """
    installer = getattr(transport, "install_fault_plan", None)
    if installer is not None:
        return installer(plan)
    return InstalledPlan([FaultInjector(transport, plan).install()])
