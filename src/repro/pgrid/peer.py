"""A single P-Grid peer: local store, routing table, and the protocol.

Protocol overview (all messages flow through ``repro.simnet``):

``route``
    Carries an operation (``retrieve`` / ``insert`` / ``remove``)
    toward the peer responsible for ``key``.  Each peer either answers
    locally (its path is a prefix of the key) or forwards the message
    to a reference at the trie level where its path and the key
    diverge — the defining step of prefix routing.

``reply``
    Sent directly from the answering peer back to the operation's
    origin (one hop, as in the paper's description of query
    resolution).

``replicate``
    Fans a successful mutation out to the responsible peer's replica
    group ``sigma(p)``; replicas apply it without replying.

Origins keep a pending-operation table with timeouts: if a reply does
not arrive in time (offline peer on the path, message drop), the
operation is retried with a fresh id up to ``max_retries`` times before
the future resolves as failed.  This mirrors P-Grid's "probabilistic
guarantees ... even in highly unreliable, dynamic environments".

Operations answered by *many* peers from one request — the range
shower here, recursive reformulation in :mod:`repro.mediation.peer` —
terminate through one origin-side ledger, :class:`FanoutTask`: each
sub-request is a route under the id ``<op>!<task>!<n>``, and its reply
is the delegate's report to the task that id names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.obs.registry import FailoverCounters, MaintenanceCounters
from repro.simnet.events import Future, SimulationError
from repro.simnet.network import Message, Node
from repro.stats.gossip import PIGGYBACK_BUDGET, PULL_BUDGET
from repro.stats.synopsis import PeerSynopsis, SynopsisRegistry
from repro.util.keys import Key, common_prefix_length

#: shared empty avoid-set for forwarded routes (never mutated); saves
#: one set allocation per forwarding hop on the hottest handler
_NO_AVOID: frozenset = frozenset()

#: store digests are sums of item hashes modulo 2**64
_DIGEST_MASK = (1 << 64) - 1


@dataclass(slots=True)
class OpResult:
    """Outcome of a Retrieve or Update operation.

    ``hops`` counts forwarding steps of the winning attempt (0 when the
    origin itself was responsible); ``latency`` is virtual seconds from
    issue to completion, including failed attempts; ``values`` is the
    retrieved list for retrieves and ``None`` for updates.
    """

    key: Key
    success: bool
    values: list[Any] | None = None
    hops: int = 0
    latency: float = 0.0
    attempts: int = 1


class _Pending:
    """Origin-side state of one in-flight operation.

    A slot class with a hand-written ``__init__`` — one instance per
    issued operation makes the dataclass machinery (default factories,
    keyword processing) measurable during deployment builds.
    """

    __slots__ = ("future", "key", "op", "value", "issued_at", "attempts",
                 "timeout_handle", "scope", "tried_hops",
                 "cancel", "span", "attempt_span")

    def __init__(self, future: Future, key: Key, op: str, value: Any,
                 issued_at: float, scope: tuple | None = None,
                 cancel: Any = None) -> None:
        self.future = future
        self.key = key
        self.op = op
        self.value = value
        self.issued_at = issued_at
        self.attempts = 1
        self.timeout_handle: Any = None
        #: causal scope captured at issue time (under the op span when
        #: traced), so timeout-driven retries and resolution callbacks,
        #: which run outside any delivery scope, keep billing and
        #: parenting their messages to the originating operation
        self.scope = scope
        #: first-hop references already tried; replica-aware failover
        #: steers retries away from these toward alternate replicas
        self.tried_hops: set[str] = set()
        #: cooperative-cancellation token of the issuing computation
        #: (see :class:`~repro.simnet.events.CancelToken`); a fired
        #: token stops timeout retries and resolves the operation
        #: immediately
        self.cancel = cancel
        #: open span records (see :class:`repro.obs.tracer.Tracer`),
        #: ``None`` when the op was issued with no trace active: the op
        #: umbrella and the current routing attempt under it
        self.span: Any = None
        self.attempt_span: Any = None


class PGridPeer(Node):
    """One peer of the P-Grid trie.

    Parameters
    ----------
    node_id:
        Network identity.
    path:
        The binary prefix ``pi(p)`` this peer is responsible for.
    rng:
        Randomness for reference selection (ties on equal-level refs):
        a ``random.Random``, or the seed of one — the stream is then
        created on the peer's first draw (same seed, same draws).
    timeout:
        Seconds an origin waits for a reply before retrying.
    max_retries:
        Additional attempts after the first one fails.
    failover:
        When True (default), two replica-aware mechanisms kick in.
        *Per hop*: a forwarder that would hand the message to a
        crashed reference (the transport refuses the connection — the
        one liveness signal a real network gives instantly) picks an
        alternate reference covering the same subtree instead of
        letting the message vanish.  *Per operation*: timeout retries
        at the origin avoid first-hop entry points already tried, and
        while untried alternates remain up to ``failover_retries``
        extra attempts beyond ``max_retries`` are granted.  When
        False, messages to dead references are silently lost and
        retries re-roll the same distribution (the pre-failover
        behaviour, kept for A/B benchmarks such as E14).
    """

    #: extra retry attempts granted while untried first-hop alternates
    #: remain (only with ``failover=True``)
    failover_retries = 2

    def __init__(
        self,
        node_id: str,
        path: Key,
        rng: "random.Random | int | float | str | None" = None,
        timeout: float = 15.0,
        max_retries: int = 2,
        failover: bool = True,
    ) -> None:
        super().__init__(node_id)
        self.path = path
        if isinstance(rng, random.Random):
            self.rng = rng
        else:
            self._rng_seed = rng if rng is not None else 0
        self.timeout = timeout
        self.max_retries = max_retries
        self.failover = failover
        #: level -> list of node ids covering the complementary subtree
        self.routing_table: list[list[str]] = [[] for _ in range(len(path))]
        #: replica group sigma(p): other peers with the same path
        self.replicas: list[str] = []
        #: local store: key bits -> list of values
        self.store: dict[str, list[Any]] = {}
        #: cached ``(digest, items)`` of :attr:`store` for replica sync
        #: (see :meth:`sync_snapshot`); every store writer resets it to
        #: ``None`` and the next sync rebuilds it
        self._sync_snapshot: tuple | None = None
        #: next operation / task / sub-request number minted here
        self._op_ids = 0
        self._pending: dict[str, _Pending] = {}
        #: failure-detector quarantine: refs recently observed dead are
        #: not re-adopted until their expiry time (node id -> time)
        self.ref_blacklist: dict[str, float] = {}
        #: whether to piggyback synopsis digests on maintenance
        #: messages (zero extra messages either way; the flag exists
        #: for A/B attribution checks)
        self.stats_gossip = True
        #: deterministic round-robin position for gossip batches
        self._gossip_cursor = 0
        self._register_protocol_handlers()

    def _register_protocol_handlers(self) -> None:
        """Wire the P-Grid protocol vocabulary into the actor registry.

        Each message kind maps to one handler; deliveries arrive
        through :meth:`~repro.simnet.network.Node.on_message`, which
        dispatches through this registry — peers never receive calls
        from other peer objects directly.
        """
        self.register_handler("route", self._handle_route)
        self.register_handler("reply", self._handle_reply)
        self.register_handler("replicate", self._handle_replicate)
        self.register_handler("probe", self._handle_probe)
        self.register_handler("probe_ack", self._handle_probe_ack)
        self.register_handler("stats_pull", self._handle_stats_pull)
        self.register_handler("stats_push", self._handle_stats_push)
        self.register_handler("refs_request", self._handle_refs_request)
        self.register_handler("refs_reply", self._handle_refs_reply)
        self.register_handler("sync_push", self._handle_sync_push)

    # State most peers of a large deployment never touch appears on
    # first use (``cached_property`` lands in the instance dict, so
    # later reads are plain attribute loads).

    @cached_property
    def rng(self) -> random.Random:
        """This peer's private randomness stream."""
        return random.Random(self._rng_seed)

    @cached_property
    def _failover(self) -> FailoverCounters:
        """Failover counters: ``failovers`` counts dead references
        skipped in favour of an alternate replica, ``retries`` the
        timeout-driven re-attempts, ``gave_up`` the operations that
        exhausted every attempt, ``cancelled`` the ones torn down by
        cooperative cancellation (limit pushdown) before completing.
        Read through :attr:`failover_stats`."""
        return FailoverCounters()

    @cached_property
    def synopses(self) -> SynopsisRegistry:
        """Synopsis digests known about other peers (merged from
        piggybacked maintenance traffic and anti-entropy pulls)."""
        return SynopsisRegistry()

    @cached_property
    def _tasks(self) -> "dict[str, FanoutTask]":
        """Origin-side ledgers of multi-peer operations, by task id."""
        return {}

    @cached_property
    def _probe_pending(self) -> dict[str, tuple[int, str]]:
        """Outstanding liveness probes (token -> (level, ref node id))."""
        return {}

    @cached_property
    def maintenance_stats(self) -> MaintenanceCounters:
        """Maintenance counters (filled by pgrid.maintenance)."""
        return MaintenanceCounters()

    @property
    def failover_stats(self) -> FailoverCounters:
        """This peer's failover counters (read as attributes:
        ``peer.failover_stats.retries``)."""
        return self._failover

    # ------------------------------------------------------------------
    # Statistics dissemination (see repro.stats.gossip)
    # ------------------------------------------------------------------

    def synopsis_digest(self) -> PeerSynopsis | None:
        """This peer's own current digest (``None`` at this layer —
        mediation peers with a triple database override this)."""
        return None

    def gossip_synopses(self, budget: int = PIGGYBACK_BUDGET
                        ) -> list[PeerSynopsis]:
        """The digest batch to piggyback on one outgoing message.

        Always leads with this peer's own fresh digest, then a
        round-robin slice of the registry so repeated exchanges cycle
        through everything this peer knows.
        """
        batch: list[PeerSynopsis] = []
        own = self.synopsis_digest()
        if own is not None:
            batch.append(own)
        registry = self.synopses
        order = registry.peer_order()
        if self.node_id in registry:
            # Only a digest registered by hand puts this peer in its
            # own registry (``receive_synopses`` filters it out).
            order = [p for p in order if p != self.node_id]
        known = len(order)
        if known and len(batch) < budget:
            take = min(budget - len(batch), known)
            start = self._gossip_cursor % known
            self._gossip_cursor += take
            # ``take`` entries by index, wrapping around: O(budget) per
            # message however many peers the registry knows.
            batch.extend(registry.get(order[(start + i) % known])
                         for i in range(take))
        return batch

    def receive_synopses(self, digests) -> int:
        """Merge piggybacked/pulled digests; returns accepted count."""
        if not digests:
            return 0
        return self.synopses.merge(
            d for d in digests if d.peer_id != self.node_id
        )

    # ------------------------------------------------------------------
    # Local storage
    # ------------------------------------------------------------------

    def is_responsible_for(self, key: Key) -> bool:
        """Whether ``key`` falls in this peer's key-space partition."""
        return self.path.is_prefix_of(key)

    def local_insert(self, key: Key, value: Any) -> None:
        """Append a value under ``key`` in the local store."""
        self.store.setdefault(key._bits, []).append(value)
        self._sync_snapshot = None

    def local_remove(self, key: Key, value: Any) -> int:
        """Remove all copies of ``value`` under ``key``; return count."""
        bucket = self.store.get(key.bits)
        if not bucket:
            return 0
        self._sync_snapshot = None
        before = len(bucket)
        bucket[:] = [v for v in bucket if v != value]
        if not bucket:
            del self.store[key.bits]
        return before - len(bucket)

    def local_retrieve(self, key: Key) -> list[Any]:
        """All values stored under exactly ``key``."""
        return list(self.store.get(key._bits, ()))

    def local_retrieve_prefix(self, prefix: Key) -> list[Any]:
        """All locally stored values whose key extends ``prefix``.

        When ``prefix`` is *shorter* than this peer's path, this
        returns the peer's share of the prefix's subtree (the rest
        lives on other peers — see :meth:`range_query`).
        """
        return [
            value
            for bits, values in self.store.items()
            if bits.startswith(prefix.bits)
            for value in values
        ]

    def local_merge(self, key: Key, value: Any) -> bool:
        """Insert ``value`` under ``key`` unless an equal copy exists.

        Used by replica anti-entropy, where the same item may be pushed
        repeatedly; plain :meth:`local_insert` would accumulate
        duplicates.
        """
        bucket = self.store.get(key.bits, ())
        if value in bucket:
            return False
        self.local_insert(key, value)
        return True

    def storage_load(self) -> int:
        """Number of values stored locally (load-balancing metric)."""
        return sum(len(v) for v in self.store.values())

    def sync_snapshot(self) -> tuple[tuple[int, int] | None, tuple]:
        """``(digest, items)`` of the local store, for replica sync.

        ``items`` is the store flattened to ``(key bits, value)`` pairs
        and ``digest`` an order-independent summary of that multiset:
        ``(sum of item hashes mod 2**64, item count)``.  Two stores
        holding equal items have equal digests, whatever the order, so
        a replica whose digest matches a pushed one has nothing to
        merge; the converse fails only on a 64-bit collision.  The
        digest is ``None`` when a stored value is unhashable, which
        every comparison treats as a mismatch.

        Built on demand and cached until the next store write — every
        writer of :attr:`store` resets ``_sync_snapshot`` — so pushes
        between writes reuse one tuple and inserts pay one attribute
        store.
        """
        snapshot = self._sync_snapshot
        if snapshot is None:
            items = tuple(
                (bits, value)
                for bits, values in self.store.items()
                for value in values
            )
            try:
                digest = (sum(map(hash, items)) & _DIGEST_MASK, len(items))
            except TypeError:
                digest = None
            snapshot = self._sync_snapshot = (digest, items)
        return snapshot

    def sync_payload(self) -> dict[str, Any]:
        """A fresh ``sync_push`` payload: the store snapshot and its
        digest (callers may add their own keys)."""
        digest, items = self.sync_snapshot()
        return {"items": items, "digest": digest}

    # ------------------------------------------------------------------
    # Public operations (origin side)
    # ------------------------------------------------------------------

    def retrieve(self, key: Key, cancel: Any = None) -> Future:
        """Start a ``Retrieve(key)``; resolves to an :class:`OpResult`.

        ``cancel`` is an optional
        :class:`~repro.simnet.events.CancelToken`: when it fires the
        operation stops retrying and resolves as failed immediately.
        """
        return self._start_op("retrieve", key, None, cancel=cancel)

    def update(self, key: Key, value: Any, action: str = "insert") -> Future:
        """Start an ``Update(key, value)``.

        ``action`` is ``"insert"`` or ``"remove"`` — the paper uses one
        generic Update primitive for insertion, update and deletion.
        """
        if action not in ("insert", "remove"):
            raise ValueError(f"unknown update action {action!r}")
        return self._start_op(action, key, value)

    def _start_op(self, op: str, key: Key, value: Any,
                  cancel: Any = None) -> Future:
        future: Future = Future()
        if cancel is not None and cancel.cancelled:
            # Cancelled before issue: spend zero messages.
            future.set_result(OpResult(key=key, success=False, attempts=0))
            return future
        op_id = f"{self.node_id}:{self._op_ids}"
        self._op_ids += 1
        # Direct transport access (vs the ``loop`` property): ops are
        # issued in bulk during deployment builds, where the extra
        # frames are measurable.
        network = self.network
        if network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        pending = _Pending(
            future=future,
            key=key,
            op=op,
            value=value,
            issued_at=network.loop._now,
            scope=network.scope(),
            cancel=cancel,
        )
        tracer = network.tracer
        if tracer is not None and tracer.current() is not None:
            # Pending-op span: the origin-side umbrella every routing
            # attempt parents under.  Opened only when a trace is
            # already active, so untraced issues pay one attribute load
            # and a check.
            span = tracer.begin(f"op:{op}", peer=self.node_id, kind="op",
                                start=network.loop._now)
            pending.span = span
            pending.scope = (pending.scope[0], tracer.context_of(span))
        self._pending[op_id] = pending
        if cancel is not None:
            cancel.on_cancel(lambda: self._cancel_op(op_id))
        self._attempt(op_id)
        return future

    def _cancel_op(self, op_id: str) -> None:
        """Tear down one pending op on cooperative cancellation.

        The in-flight message (if any) is already on the wire and may
        still arrive — :meth:`_complete` tolerates the missing pending
        entry — but no retry timer fires and the future resolves now,
        so callers stop waiting (and stop spending messages)
        immediately.
        """
        if op_id in self._pending:  # else completed (or timed out) normally
            self._failover.cancelled += 1
            self._fail_op(op_id, "cancelled")

    def abandon_pending(self) -> None:
        """Fail everything this peer still has in flight, now (it is
        leaving: every retry, resolution or fan-out completion needs
        the transport, so none may outlive the detach).  Follow-up
        operations the failure callbacks issue are failed in turn."""
        while self._pending or self._tasks:
            if self._pending:
                self._failover.gave_up += 1
                self._fail_op(next(iter(self._pending)), "gave_up")
            else:
                next(iter(self._tasks.values())).finish(False)

    def _finish_op_spans(self, pending: _Pending, status: str) -> None:
        """Close the op span (and any open attempt span) of ``pending``.

        The attempt inherits the op's terminal status; one the timeout
        handler already closed keeps its ``timeout``
        (``Tracer.finish`` is idempotent).
        """
        if pending.span is None:
            return
        network = self.network
        tracer = network.tracer
        now = network.loop._now
        if pending.attempt_span is not None:
            tracer.finish(pending.attempt_span, now, status=status)
        tracer.finish(pending.span, now, status=status,
                      attempts=pending.attempts)

    def _fail_op(self, op_id: str, status: str) -> None:
        """Resolve pending op ``op_id`` as failed, inside its scope.

        Giving up and cancellation happen outside any delivery scope,
        but the future's callbacks may still send attributable traffic
        (e.g. the next pattern of a bound join) — re-enter the op's
        scope so that traffic is billed and parented to the operation.
        """
        pending = self._pending.pop(op_id)
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        self._finish_op_spans(pending, status)
        network = self.network
        result = OpResult(
            key=pending.key,
            success=False,
            hops=0,
            latency=network.loop._now - pending.issued_at,
            attempts=pending.attempts,
        )
        with network.resume(pending.scope):
            pending.future.set_result(result)

    def _attempt(self, op_id: str) -> None:
        """(Re)issue the routing step for a pending operation."""
        pending = self._pending.get(op_id)
        if pending is None:
            return
        # Direct loop access (one ``loop``-property frame per issued
        # op adds up at deployment-build volume).
        network = self.network
        pending.timeout_handle = network.loop.schedule(
            self.timeout, self._on_timeout, op_id
        )
        payload = {
            "op": pending.op,
            "op_id": op_id,
            "key": pending.key._bits,
            "origin": self.node_id,
            "value": pending.value,
        }
        if self.failover and pending.tried_hops:
            payload["avoid"] = sorted(pending.tried_hops)
        message = Message(
            kind="route",
            src=self.node_id,
            dst=self.node_id,
            payload=payload,
            hops=0,
        )
        scope = pending.scope
        if pending.span is not None:
            # One span per routing attempt: a retry shows up as a
            # sibling of the failed attempt under the same op span, the
            # failed one keeping its ``timeout`` status next to the
            # retry that superseded it.
            tracer = network.tracer
            attempt = tracer.begin(
                f"attempt:{pending.attempts}", peer=self.node_id,
                kind="attempt", start=network.loop._now,
                context=scope[1])
            pending.attempt_span = attempt
            scope = (scope[0], tracer.context_of(attempt))
        # Timeout-driven retries fire outside any delivery scope;
        # re-enter the operation's scope (under the attempt span when
        # traced) so the retry's messages are attributed to it.
        with network.resume(scope):
            self._handle_route(message)

    def _untried_alternates(self, pending: _Pending) -> bool:
        """Whether the routing table still offers a first hop toward
        ``pending.key`` that this operation has not tried yet."""
        key = pending.key
        if not len(self.path) or self.is_responsible_for(key):
            return False
        level = common_prefix_length(self.path, key)
        if level >= len(self.path) or level >= len(key):
            return False  # answered locally; no first hop involved
        return any(ref not in pending.tried_hops
                   for ref in self.routing_table[level])

    def _on_timeout(self, op_id: str) -> None:
        pending = self._pending.get(op_id)
        if pending is None:
            return
        if pending.attempt_span is not None:
            # The attempt that just expired: closed here so a dropped-
            # then-retried route reads as ``attempt:1 timeout`` next to
            # its sibling ``attempt:2``.
            self.network.tracer.finish(
                pending.attempt_span, self.network.loop._now,
                status="timeout")
        budget = self.max_retries + 1
        if self.failover and self._untried_alternates(pending):
            budget += self.failover_retries
        if pending.attempts < budget:
            pending.attempts += 1
            self._failover.retries += 1
            self._attempt(op_id)
            return
        self._failover.gave_up += 1
        self._fail_op(op_id, "gave_up")

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _handle_probe(self, message: Message) -> None:
        self.receive_synopses(message.payload.get("synopses") or ())
        ack: dict[str, Any] = {"token": message.payload["token"]}
        if self.stats_gossip and "synopses" in message.payload:
            # Piggyback the return direction only when the prober
            # gossips too, keeping A/B runs symmetric.
            ack["synopses"] = self.gossip_synopses()
        self.send(message.src, "probe_ack", ack)

    def _handle_probe_ack(self, message: Message) -> None:
        self._probe_pending.pop(message.payload["token"], None)
        self.receive_synopses(message.payload.get("synopses") or ())

    def _handle_stats_pull(self, message: Message) -> None:
        self.send(message.src, "stats_push", {
            "synopses": self.gossip_synopses(
                message.payload.get("budget") or PULL_BUDGET),
        })

    def _handle_stats_push(self, message: Message) -> None:
        self.receive_synopses(message.payload.get("synopses") or ())

    def _handle_route(self, message: Message) -> None:
        # Hottest handler in the system: work on the payload's raw bit
        # string and only materialize a (shared, interned) Key object
        # when this peer actually answers.  Forwarding a message costs
        # no Key construction at all.
        key_bits: str = message.payload["key"]
        if message.hops > len(key_bits) + 8:
            # Safety net: greedy forwarding strictly extends the
            # common prefix, so a legitimate route never exceeds the
            # key width; anything longer indicates a poisoned table.
            return
        path_bits = self.path._bits
        if key_bits.startswith(path_bits):  # responsible (or root path)
            self._answer(message, Key.of(key_bits))
            return
        level = 0
        for x, y in zip(path_bits, key_bits):
            if x != y:
                break
            level += 1
        if level >= len(path_bits) or level >= len(key_bits):
            # Prefix-comparable in either direction: for full-width
            # keys this means we own the key; for short prefix keys
            # (range queries) our leaf lies inside the prefix's
            # subtree, making us a valid entry point for the shower.
            self._answer(message, Key.of(key_bits))
            return
        at_origin = (message.hops == 0
                     and message.payload.get("origin") == self.node_id)
        if at_origin:
            avoid: "set[str] | frozenset[str]" = set(
                message.payload.get("avoid") or ())
        else:
            avoid = _NO_AVOID
        next_hop = self._next_hop_with_failover(level, avoid)
        if next_hop is None:
            # Dead end: no live reference toward the key.  Drop; the
            # origin's timeout will retry (possibly through another
            # replica of the first hop).
            return
        payload = message.payload
        if at_origin:
            pending = self._pending.get(payload.get("op_id"))
            if pending is not None:
                pending.tried_hops.add(next_hop)
        if "avoid" in payload:
            # The avoid hint is an origin-local failover decision; it
            # has no meaning (and must not constrain routing) past the
            # first hop.  Only then is a copy needed — forwarded
            # payloads are immutable by protocol convention, so the
            # common case shares the dict across hops.
            payload = dict(payload)
            del payload["avoid"]
        self.network.send(Message("route", self.node_id, next_hop,
                                  payload, message.hops + 1))

    def _next_hop_with_failover(self, level: int,
                                avoid: set[str]) -> str | None:
        """Pick the forwarding reference, skipping crashed ones.

        With failover enabled this models the one liveness signal a
        real transport gives for free: connecting to a *crashed* host
        fails immediately, so instead of letting the message vanish
        the forwarder hands it to an alternate reference covering the
        same subtree (typically a replica of the dead one).  Routing
        then only loses a message when *every* known reference for the
        level is down.  Without failover the historical behaviour
        applies: the message is sent and silently dropped.
        """
        # First pick without materializing a scratch set: failovers are
        # rare, and the common case is pick-once-and-forward.
        next_hop = self._pick_reference(level, avoid=avoid)
        if next_hop is None:
            return None
        if (not self.failover or self.network.is_online(next_hop)
                or next_hop in avoid):
            # Live hop, failover disabled, or no alternative left
            # (the avoid fallback re-offered a known-dead ref).
            return next_hop
        tried = set(avoid)
        network = self.network
        tracer = network.tracer
        while True:
            tried.add(next_hop)
            self._failover.failovers += 1
            if tracer is not None:
                # No-op without an active trace context; otherwise
                # annotates the trace with which dead reference this
                # forwarding step skipped.
                tracer.event("failover", peer=self.node_id,
                             time=network.loop._now, level=level,
                             dead=next_hop)
            next_hop = self._pick_reference(level, avoid=tried)
            if next_hop is None:
                return None
            if (self.network.is_online(next_hop) or next_hop in tried):
                return next_hop

    def _pick_reference(self, level: int,
                        avoid: "frozenset | set" = frozenset()) -> str | None:
        """A uniformly random reference at ``level``.

        The peer has no oracle for remote liveness: it only knows what
        the maintenance process's probing has taught it (dead
        references get dropped from the table, recently-dead ones sit
        in ``ref_blacklist``).  Blacklisted refs are avoided when an
        alternative exists, as are the ``avoid`` hops an in-flight
        failover has already tried; losses surface as origin-side
        timeouts and retries.
        """
        refs = self.routing_table[level]
        if not refs:
            return None
        blacklist = self.ref_blacklist
        if blacklist:
            now = self.loop.now
            trusted = [r for r in refs if blacklist.get(r, 0.0) <= now]
            pool = trusted if trusted else refs
        else:
            # Empty blacklist (the overwhelmingly common case): every
            # ref is trusted, so skip the filtering pass entirely.
            # ``rng.choice`` sees the same pool either way.
            pool = refs
        if avoid:
            fresh = [r for r in pool if r not in avoid]
            if fresh:
                pool = fresh
        # Inlined ``rng.choice(pool)`` (pool is never empty here):
        # identical rng consumption, one frame less per routed hop.
        rng = self.rng
        return pool[rng._randbelow(len(pool))]

    def _execute_op(self, op: str, key: Key, value: Any) -> tuple[list[Any] | None, bool]:
        """Apply one operation against local state.

        Returns ``(values, mutated)`` — ``values`` goes into the reply,
        ``mutated`` triggers replica propagation.  Subclasses extend
        this to add mediation-layer operations.
        """
        if op == "retrieve":
            return self.local_retrieve(key), False
        if op == "range":
            return self._handle_range(key, value), False  # type: ignore[return-value]
        if op == "refs_lookup":
            # Routed reference discovery: whoever answers covers the
            # requested prefix, so it can vouch for itself and its
            # replica group.
            return [self.node_id] + list(self.replicas), False
        if op == "insert":
            self.local_insert(key, value)
            return None, True
        if op == "remove":
            self.local_remove(key, value)
            return None, True
        raise ValueError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------
    # Range queries (subtree multicast, a.k.a. the P-Grid "shower")
    # ------------------------------------------------------------------

    def range_query(self, prefix: Key, timeout: float | None = None,
                    cancel: Any = None) -> Future:
        """Retrieve every value whose key extends ``prefix``.

        A short prefix can span many leaves, so this is a *multicast*:
        greedy routing delivers the request to one peer inside the
        subtree, which answers for its own leaf and delegates each
        remaining sibling subtree under ``prefix`` to a level
        reference (the classic P-Grid shower — each subtree handled
        exactly once, no duplicate work).  A :class:`FanoutTask` whose
        reports carry the leaves' values decides when every subtree
        has answered; its timeout guards against losses under churn.
        Resolves to an :class:`OpResult` whose ``values`` is the
        aggregated list.
        """
        future: Future = Future()
        if cancel is not None and cancel.cancelled:
            # Cancelled before issue: spend zero messages.
            future.set_result(OpResult(key=prefix, success=False, values=[]))
            return future
        issued_at = self.loop.now

        def _resolve(complete: bool) -> None:
            future.set_result(OpResult(
                key=prefix,
                success=complete,
                values=[value for report in task.reports.values()
                        for value in report.get("range_values", ())],
                hops=len(task.reports),
                latency=self.loop.now - issued_at,
            ))

        task = FanoutTask(self, _resolve)
        task.start("range", prefix, {},
                   timeout if timeout is not None else self.timeout * 3)
        if cancel is not None:
            # Cooperative cancellation resolves the multicast with
            # whatever subtrees have answered so far.
            def _cancel_range() -> None:
                if task.task_id in self._tasks:  # else finished normally
                    self._failover.cancelled += 1
                    task.finish(False)

            cancel.on_cancel(_cancel_range)
        return future

    def _send_subrequest(self, op: str, task_id: str, key: Key,
                         value: dict) -> str:
        """Route one sub-request of fan-out ``task_id`` toward ``key``.

        Returns its id ``<op>!<task>!<n>``, which doubles as the route
        op id: the reply carries it back to the task's origin as that
        request's report (see :class:`FanoutTask`).
        """
        request_id = f"{op}!{task_id}!{self.node_id}:{self._op_ids}"
        self._op_ids += 1
        self._handle_route(Message("route", self.node_id, self.node_id, {
            "op": op,
            "op_id": request_id,
            "key": key.bits,
            "origin": task_origin(task_id),
            "value": {**value, "task_id": task_id, "request_id": request_id},
        }))
        return request_id

    def _handle_range(self, prefix: Key, value: dict) -> dict:
        """Answer for this leaf and delegate sibling subtrees.

        Routing delivered the request here because our path and the
        prefix are prefix-comparable.  If our path is *deeper* than the
        prefix, the levels between them index sibling subtrees still
        inside the prefix's subtree — exactly our level references for
        those levels, so each gets one sub-request.
        """
        spawned: list[str] = []
        for level in range(len(prefix), len(self.path)):
            next_hop = self._next_hop_with_failover(level, set())
            if next_hop is None:
                continue  # that subtree's share is lost; timeout covers it
            spawned.append(self._send_subrequest(
                "range", value["task_id"],
                self.path.sibling_prefix(level), {}))
        return {
            "range_values": self.local_retrieve_prefix(prefix),
            "spawned": spawned,
        }

    def _adopt_references(self, level: int, candidates) -> None:
        """Add the candidates this peer does not know yet to its
        references for ``level``."""
        refs = self.routing_table[level]
        now = self.loop.now
        for candidate in candidates:
            if candidate == self.node_id or candidate in refs:
                continue
            if self.ref_blacklist.get(candidate, 0.0) > now:
                continue  # observed dead recently; quarantine
            refs.append(candidate)
            self.maintenance_stats.refs_added += 1

    # ------------------------------------------------------------------
    # Maintenance handlers (driven by pgrid.maintenance)
    # ------------------------------------------------------------------

    def _handle_refs_request(self, message: Message) -> None:
        """Offer peers *verifiably* covering the requested prefix.

        Only this peer itself and its replicas are offered (their path
        is known to be ours); offering third-party references whose
        paths we cannot verify could poison the requester's table and
        break the forwarding invariant that every hop strictly extends
        the common prefix with the target key.
        """
        target = Key(message.payload["prefix"])
        candidates: list[str] = []
        if target.is_prefix_of(self.path) or self.path.is_prefix_of(target):
            candidates.append(self.node_id)
            candidates.extend(self.replicas)
        self.send(message.src, "refs_reply", {
            "prefix": target.bits,
            "level": message.payload["level"],
            "candidates": sorted(set(candidates)),
        })

    def _handle_refs_reply(self, message: Message) -> None:
        """Adopt offered references for the thin level."""
        level = message.payload["level"]
        if level >= len(self.routing_table):
            return
        expected = self.path.sibling_prefix(level)
        if Key(message.payload["prefix"]) != expected:
            return  # stale reply for a different complement
        self._adopt_references(level, message.payload["candidates"])

    def _handle_sync_push(self, message: Message) -> None:
        """Anti-entropy: merge a replica's store snapshot.

        A push whose digest equals this store's (see
        :meth:`sync_snapshot`) holds nothing new, so the merge loop is
        skipped; a mismatch, or a push without a digest, merges item by
        item.
        """
        payload = message.payload
        self.receive_synopses(payload.get("synopses") or ())
        digest = payload.get("digest")
        if digest is not None and digest == self.sync_snapshot()[0]:
            return
        for bits, value in payload["items"]:
            if self.local_merge(Key(bits), value):
                self.maintenance_stats.values_repaired += 1

    def _answer(self, message: Message, key: Key) -> None:
        """Apply the operation locally and reply to the origin."""
        payload = message.payload
        op = payload["op"]
        value = payload.get("value")
        values, mutated = self._execute_op(op, key, value)
        if mutated:
            self._propagate_to_replicas(op, key, value)
        origin = payload["origin"]
        reply_payload = {
            "op_id": payload["op_id"],
            "values": values,
            "hops": message.hops,
            "answered_by": self.node_id,
        }
        if origin == self.node_id:
            self._complete(reply_payload)
        else:
            self.network.send(Message("reply", self.node_id, origin,
                                      reply_payload, message.hops + 1))

    def _propagate_to_replicas(self, op: str, key: Key, value: Any) -> None:
        network = self.network
        node_id = self.node_id
        for replica in self.replicas:
            network.send(Message("replicate", node_id, replica, {
                "op": op,
                "key": key._bits,
                "value": value,
            }))

    def _handle_replicate(self, message: Message) -> None:
        key = Key.of(message.payload["key"])
        if message.payload["op"] == "insert":
            self.local_insert(key, message.payload["value"])
        else:
            self.local_remove(key, message.payload["value"])

    def _handle_reply(self, message: Message) -> None:
        self._complete(message.payload)

    def _complete(self, payload: dict) -> None:
        op_id = payload["op_id"]
        pending = self._pending.pop(op_id, None)
        if pending is None:
            # Not a pending operation: a late duplicate after a retry
            # already answered, or one of the two tagged id shapes —
            # ``<op>!<task>!<n>``, a fan-out delegate's report, and
            # ``refslkp!<level>!<n>``, a routed reference discovery
            # (see pgrid.maintenance) whose answering peer vouches for
            # itself and its replicas.
            tag, _, rest = op_id.partition("!")
            owner = rest.partition("!")[0]
            values = payload.get("values")
            if owner in self._tasks:
                self._tasks[owner].on_report(op_id, values or {})
            elif (tag == "refslkp" and owner.isdigit()
                    and int(owner) < len(self.routing_table)):
                self._adopt_references(int(owner), values or ())
            return
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        self._finish_op_spans(pending, "ok")
        pending.future.set_result(OpResult(
            key=pending.key,
            success=True,
            values=payload.get("values"),
            hops=payload["hops"],
            latency=self.network.loop._now - pending.issued_at,
            attempts=pending.attempts,
        ))


def task_origin(task_id: str) -> str:
    """The node id that issued fan-out ``task_id`` (``<node id>:<n>``)
    — where its reports and results are addressed."""
    return task_id.rpartition(":")[0]


class FanoutTask:
    """Origin-side ledger of one multi-peer operation.

    Each delegate may delegate further and a child's report may
    overtake its parent's, so the ledger tracks request *ids*, not
    counts.  Every request yields one report listing the ids it
    ``spawned`` and, if the report says it ``executes``, one separate
    results message (handed to ``on_results``); it has *settled* once
    both have arrived.  ``on_finish(complete)`` runs exactly once,
    inside the causal scope captured at issue time: complete when every
    id heard of has settled, incomplete when the virtual-time timeout
    (or the origin's leave) comes first.  A finished task is out of
    :attr:`PGridPeer._tasks`, so late messages find nobody.
    """

    def __init__(self, peer: PGridPeer, on_finish: Any,
                 on_results: Any = None) -> None:
        self.peer = peer
        self.task_id = f"{peer.node_id}:{peer._op_ids}"
        peer._op_ids += 1
        #: a timeout-driven finish runs outside any delivery scope,
        #: and ``on_finish`` may still send attributable traffic
        self.scope = peer.network.scope()
        self.on_finish = on_finish
        self.on_results = on_results
        #: request ids known to be part of this task
        self.expected: set[str] = set()
        #: request id -> its report, in first-arrival order
        self.reports: dict[str, dict] = {}
        #: request ids whose results message has arrived
        self.results: set[str] = set()

    def start(self, op: str, key: Key, value: dict, timeout: float) -> None:
        """Register, arm the timeout, then route the root sub-request
        (timer first: the loop breaks same-time ties by scheduling
        order; the root may be answered before this returns)."""
        peer = self.peer
        peer._tasks[self.task_id] = self
        self.timeout_handle = peer.loop.schedule(timeout, self.finish, False)
        self.expected.add(
            peer._send_subrequest(op, self.task_id, key, value))

    def on_report(self, request_id: str, report: dict) -> None:
        """A delegate reported which sub-requests it spawned."""
        self.reports[request_id] = report
        self.expected.add(request_id)
        self.expected.update(report.get("spawned", ()))
        self._check_done()

    def on_result(self, request_id: str, *result: Any) -> None:
        """A delegate's separate results message arrived."""
        self.results.add(request_id)
        self.on_results(*result)
        self._check_done()

    def _check_done(self) -> None:
        for request_id in self.expected:
            report = self.reports.get(request_id)
            if report is None:
                return
            if report.get("executes") and request_id not in self.results:
                return
        self.finish(True)

    def finish(self, complete: bool) -> None:
        """Close the task (idempotent) and hand over the outcome."""
        if self.peer._tasks.pop(self.task_id, None) is None:
            return
        self.timeout_handle.cancel()
        # Taken, not just called: whatever waits on this task may hold
        # it too (a cancel token's callback list does).
        on_finish, self.on_finish, self.on_results = self.on_finish, None, None
        with self.peer.network.resume(self.scope):
            on_finish(complete)
