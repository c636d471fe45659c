"""A single P-Grid peer: local store, routing table, and the protocol.

Protocol overview (all messages flow through ``repro.simnet``):

``route``
    Carries an operation toward the peer responsible for ``key``.  Each
    peer either answers locally (its path is a prefix of the key) or
    forwards the message to a reference at the trie level where its
    path and the key diverge — the defining step of prefix routing.

``reply``
    Sent directly from the answering peer back to the operation's
    origin (one hop, as in the paper's description of query
    resolution).

``replicate``
    Fans a write out to the responsible peer's replica group
    ``sigma(p)``; replicas apply it without replying.  One message
    carries every key the write applied at that peer.

Every write and every read is a *split op*, by one rule
(:meth:`PGridPeer._handle_split`): each peer a sub-request reaches
answers the keys under its own path and sends the rest on, one
sub-request per trie level where they leave its path, toward their
longest common prefix.  So an upload or a query batch routes one
sub-request per subtree its keys reach, and a one-key op — a
``Retrieve(key)``, a pattern search, a single write — routes like a
single op: the hops and one report.  The origin's ledger
(:class:`SplitTask`) counts answered keys, so a relay reports nothing,
and on timeout it re-issues the unanswered keys as one split op, by
one retry budget (:meth:`PGridPeer._may_retry`), avoiding first hops
already tried, before resolving them as failed — P-Grid's
"probabilistic guarantees ... even in highly unreliable, dynamic
environments".

The range shower and recursive reformulation (in
:mod:`repro.mediation.peer`), whose origin cannot list their answerers,
terminate by :class:`FanoutTask`'s id rule instead: each sub-request
is a route under the id ``<op>!<task>!<n>``, and its reply is the
delegate's report, listing the ids it spawned.
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
from repro.util.keys import Key, common_prefix_bits, common_prefix_length

#: shared empty avoid-set for forwarded routes (never mutated); saves
#: one set allocation per forwarding hop on the hottest handler
_NO_AVOID: frozenset = frozenset()

#: store digests are sums of item hashes modulo 2**64
_DIGEST_MASK = (1 << 64) - 1

#: 32-bit words of a peer's stream buffered at its first draw (a
#: drawing peer of a 10k-peer route run uses about 11 on average)
_WORDS = 32

#: the one generator that fills every peer's buffer, re-seeded per fill
_SCRATCH = random.Random()


@dataclass(slots=True)
class OpResult:
    """Outcome of a Retrieve or Update operation.

    ``hops`` counts the forwarding steps of the sub-request that
    reached the key's peer (0 when the origin itself was responsible;
    the whole route for a one-key op, see :class:`SplitTask`);
    ``latency`` is virtual seconds from issue to completion, including
    failed attempts; ``values`` is the read's answer (the retrieved
    list for retrieves) and ``None`` for updates and failed keys.
    """

    key: Key
    success: bool
    values: list[Any] | None = None
    hops: int = 0
    latency: float = 0.0
    attempts: int = 1


class PGridPeer(Node):
    """One peer of the P-Grid trie.

    Parameters
    ----------
    node_id:
        Network identity.
    path:
        The binary prefix ``pi(p)`` this peer is responsible for.
    rng:
        The seed of the peer's randomness stream for reference
        selection (ties on equal-level refs): an int, float, str or
        ``None`` (seed 0).  The draws are those of
        ``random.Random(rng)``; the stream is buffered on the peer's
        first draw (see :meth:`_pick_reference`, its only reader).
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
        rng: "int | float | str | None" = None,
        timeout: float = 15.0,
        max_retries: int = 2,
        failover: bool = True,
    ) -> None:
        super().__init__(node_id)
        self.path = path
        self._rng_seed = rng if rng is not None else 0
        #: the stream's unused buffered words, least significant first,
        #: and how many are left (-1: not filled yet; see
        #: :meth:`_pick_reference`)
        self._words = 0
        self._words_left = -1
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
        #: origin-side ledgers of the operations issued here, by task
        #: id (created here, not on first use: almost every peer of a
        #: deployment issues something, and a late attribute would
        #: unshare its instance dict)
        self._tasks: dict[str, SplitTask | FanoutTask] = {}
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
        """This peer's stream past its buffered words.

        Only a peer that draws all of its first :data:`_WORDS` words
        pays for a generator of its own (2.5 KiB of Mersenne-Twister
        state): ``random.Random(seed)`` advanced past them.
        """
        rng = random.Random(self._rng_seed)
        rng.getrandbits(32 * _WORDS)
        return rng

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
        own = self.synopsis_digest()
        if own is not None:
            budget -= 1
        # At most two slices of the registry's sorted order: O(budget)
        # per message however many peers the registry knows.
        window = self.synopses.window(self._gossip_cursor, budget,
                                      self.node_id)
        self._gossip_cursor += len(window)
        return window if own is None else [own, *window]

    def receive_synopses(self, digests) -> int:
        """Merge piggybacked/pulled digests; returns accepted count."""
        if not digests:
            return 0
        return self.synopses.merge(digests, self.node_id)

    # ------------------------------------------------------------------
    # Local storage
    # ------------------------------------------------------------------

    def is_responsible_for(self, key: Key) -> bool:
        """Whether ``key`` falls in this peer's key-space partition."""
        return self.path.is_prefix_of(key)

    def local_insert(self, key: Key, *values: Any) -> None:
        """Store ``values`` under ``key``, in order: the one-key case of
        :meth:`_write_local`."""
        self._write_local("insert", {key._bits: values})

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

    def clone_store(self, host: "PGridPeer") -> None:
        """Copy ``host``'s store verbatim, joining its replica group.

        One :meth:`_write_local`, so subclasses like the mediation
        peer update their registries; not :meth:`local_merge`, since
        duplicate values in a bucket are legitimate state and must
        survive the clone.
        """
        self._write_local("insert", host.store)

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

    def retrieve(self, key: Key) -> Future:
        """Start a ``Retrieve(key)``; resolves to an :class:`OpResult`.

        A one-key :meth:`read_many`: the route's hops and one report.
        """
        future: Future = Future()
        self.read_many("retrieve", {key: None}, future.set_result)
        return future

    def retrieve_many(self, keys: list, cancel: Any = None) -> Future:
        """Start one ``Retrieve`` of many keys: resolves to ``{key:
        values}``, keys in first-occurrence order.

        One :meth:`read_many` of ``"retrieve"``: it splits where the
        keys diverge, and its ledger re-issues the keys no report
        answered.  A key that still fails reads as empty (``[]``), and
        so does every key not answered when ``cancel`` fires — all of
        them, with zero messages sent, when it fired before the read.
        """
        future: Future = Future()
        answers: dict = dict.fromkeys(keys)
        waiting = len(answers)
        if not waiting:
            future.set_result(answers)
            return future

        def _on_result(result: OpResult) -> None:
            nonlocal waiting
            answers[result.key] = result.values or []
            waiting -= 1
            if not waiting:
                future.set_result(answers)

        self.read_many("retrieve", dict.fromkeys(answers), _on_result,
                       cancel)
        return future

    def update(self, key: Key, values: tuple, action: str = "insert") -> Future:
        """Start an ``Update(key, values)``: every value of the tuple,
        in order, under ``key`` (a single write is a 1-tuple); resolves
        to one :class:`OpResult`.

        ``action`` is ``"insert"`` or ``"remove"`` — the paper uses one
        generic Update primitive for insertion, update and deletion.
        A one-key :meth:`update_many`, routed toward the key itself: the
        hops, one ``replicate`` per replica and one report.
        """
        future: Future = Future()
        self.update_many({key: values}, action).add_done_callback(
            lambda written: future.set_result(written.result()[0]))
        return future

    def update_many(self, groups: dict, action: str = "insert") -> Future:
        """Start one ``Update`` of many keys: every ``values`` tuple of
        ``groups`` (``{key: values}``) under its key, resolving to one
        :class:`OpResult` per key, in ``groups`` order.

        One write that splits where its keys diverge (a
        :class:`SplitTask`, op ``"write"``; see :meth:`_handle_split`),
        so keys share every hop up to the subtree where they part.  Its
        ledger re-issues keys no report confirmed within
        :attr:`timeout`, so delivery is at least once: a key whose
        confirmation was lost is written again.
        """
        if action not in ("insert", "remove"):
            raise ValueError(f"unknown update action {action!r}")
        future: Future = Future()
        results: dict = dict.fromkeys(groups)
        waiting = len(results)
        if not waiting:
            future.set_result([])
            return future

        def _on_result(result: OpResult) -> None:
            nonlocal waiting
            results[result.key] = result
            waiting -= 1
            if not waiting:
                future.set_result(list(results.values()))

        SplitTask(self, "write", action, groups, _on_result).start()
        return future

    def read_many(self, op: str, groups: dict, on_result: Any,
                  cancel: Any = None) -> None:
        """Start one read of many keys: ``op`` with each key's argument
        of ``groups`` (a non-empty ``{key: arg}``) at a peer responsible
        for that key.  ``on_result`` gets one :class:`OpResult` per
        key, the moment its answer arrives; a key that failed or was
        cancelled gets one with ``success`` false and no values.

        One read that splits where its keys diverge (a
        :class:`SplitTask`, op ``"read"``; see :meth:`_handle_split`),
        so a one-key read costs the hops plus one report.  Its ledger
        re-issues keys no report answered within :attr:`timeout`.
        ``cancel`` finishes the read: every key not answered yet fails
        at once.

        Its ops are ``retrieve`` (:meth:`retrieve`,
        :meth:`retrieve_many`) and ``search`` (a pattern fetch,
        :meth:`~repro.mediation.peer.GridVinePeer._search_pattern`, and
        the batched pattern reads of
        :meth:`~repro.exec.stream.PipelineContext.read_scans`), each
        checked against a per-key oracle in
        ``tests/strategies/test_split_reads.py``: a new op needs its
        case there first.
        """
        if not groups:
            raise ValueError("a read needs at least one key")
        if cancel is not None and cancel.cancelled:
            # Cancelled before issue: spend zero messages.
            for key in groups:
                on_result(OpResult(key, False, attempts=0))
            return
        task = SplitTask(self, "read", op, groups, on_result)
        task.start()
        if cancel is not None:
            cancel.on_cancel(task.cancel)

    def abandon_pending(self) -> None:
        """Fail everything this peer still has in flight, now (it is
        leaving: every retry, resolution or fan-out completion needs
        the transport, so none may outlive the detach).  Every ledger
        finishes incomplete and counts no give-up; follow-up
        operations the failure callbacks issue are failed in turn."""
        tasks = self._tasks
        while tasks:
            next(iter(tasks.values())).finish(False)

    def _may_retry(self, attempts: int, keys: Any, tried: Any) -> bool:
        """Whether an op on ``keys`` (key bit strings) that has made
        ``attempts`` attempts gets another — the one retry budget of
        every op issued here: ``max_retries`` retries, plus
        ``failover_retries`` while (with failover on) a key has a first
        hop outside ``tried``, those its attempts took."""
        if attempts <= self.max_retries:
            return True
        if (not self.failover
                or attempts > self.max_retries + self.failover_retries):
            return False
        path = self.path._bits
        for bits in keys:
            level = common_prefix_length(path, bits)
            # A key under our path, or a prefix of it, has no first hop.
            if (level < len(path) and level < len(bits)
                    and any(ref not in tried
                            for ref in self.routing_table[level])):
                return True
        return False

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

    def _handle_route(self, message: Message,
                      tried: "dict[str, None] | None" = None) -> None:
        """Answer a route here or forward it one step.  An origin
        issuing its own op passes ``tried``, the first hops the op took
        so far (a dict used as an ordered set): this hop avoids them
        (with failover on) and joins them."""
        # Hottest handler in the system: work on the payload's raw bit
        # string and only materialize a (shared, interned) Key object
        # when this peer actually answers.  Forwarding a message costs
        # no Key construction at all.
        payload = message.payload
        key_bits: str = payload["key"]
        if message.hops > len(key_bits) + 8:
            # Safety net: greedy forwarding strictly extends the
            # common prefix, so a legitimate route never exceeds the
            # key width; anything longer indicates a poisoned table.
            return
        path_bits = self.path._bits
        level = common_prefix_length(path_bits, key_bits)
        if level == len(path_bits) or level == len(key_bits):
            # Our path prefixes the key (we are responsible), or the key
            # prefixes our path: for short prefix keys (range queries, a
            # split op's common prefix) our leaf lies inside the prefix's
            # subtree, making us a valid entry point.
            self._answer(message, Key.of(key_bits))
            return
        avoid = tried if tried is not None and self.failover else _NO_AVOID
        next_hop = self._next_hop_with_failover(level, avoid)
        if next_hop is None:
            # Dead end: no live reference toward the key.  Drop; the
            # origin's timeout will retry (possibly through another
            # replica of the first hop).
            return
        if tried is not None:
            tried[next_hop] = None
        self.network.send(Message("route", self.node_id, next_hop,
                                  payload, message.hops + 1))

    def _next_hop_with_failover(self, level: int,
                                avoid: Any) -> str | None:
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
                        avoid: Any = _NO_AVOID) -> str | None:
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
        # ``random.Random(seed).choice(pool)`` (pool is never empty
        # here), drawn word by word as ``Random._randbelow`` draws: the
        # top ``k`` bits of the next 32-bit word, rejected while out of
        # range, so a pool of one still consumes its words.  The first
        # :data:`_WORDS` words come from a buffer filled at the first
        # draw; only past them does the peer need a generator.
        n = len(pool)
        k = n.bit_length()
        while True:
            left = self._words_left
            if left > 0:
                words = self._words
                r = (words & 0xFFFFFFFF) >> (32 - k)
                self._words = words >> 32
                self._words_left = left - 1
            elif left:
                _SCRATCH.seed(self._rng_seed)
                self._words = _SCRATCH.getrandbits(32 * _WORDS)
                self._words_left = _WORDS
                continue
            else:
                r = self.rng.getrandbits(k)
            if r < n:
                return pool[r]

    def _execute_op(self, op: str, key: Key, value: Any) -> Any:
        """Answer one operation from local state.

        Returns what the reply carries.  A split op answers each of its
        keys through this (see :meth:`_handle_split`).  Subclasses
        extend this to add mediation-layer operations.
        """
        if op == "retrieve":
            return self.local_retrieve(key)
        if op == "range":
            return self._handle_range(key, value)
        if op == "refs_lookup":
            # Routed reference discovery: whoever answers covers the
            # requested prefix, so it can vouch for itself and its
            # replica group.
            return [self.node_id] + list(self.replicas)
        raise ValueError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------
    # Range queries (subtree multicast, a.k.a. the P-Grid "shower")
    # ------------------------------------------------------------------

    def range_query(self, prefix: Key, cancel: Any = None) -> Future:
        """Retrieve every value whose key extends ``prefix``.

        A short prefix can span many leaves, so this is a *multicast*:
        greedy routing delivers the request to one peer inside the
        subtree, which answers for its own leaf and delegates each
        remaining sibling subtree under ``prefix`` to a level
        reference (the classic P-Grid shower — each subtree handled
        exactly once, no duplicate work).  A :class:`FanoutTask` whose
        reports carry the leaves' values decides when every subtree
        has answered; its timeout (three op timeouts) guards against
        losses under churn.
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
        task.start("range", prefix, {}, self.timeout * 3)
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

    def _send_split(self, kind: str, task_id: str, origin: str,
                    action: str, groups: dict,
                    tried: "dict[str, None] | None" = None) -> None:
        """Route one sub-request of split op ``task_id`` (``kind``
        ``"write"`` or ``"read"``, of ``action`` on every key of
        ``groups``) toward their longest common prefix.

        Its op id is the ledger's own id, so a report finds the ledger
        at ``origin`` with one lookup.  ``tried``: see
        :meth:`_handle_route`.
        """
        self._handle_route(Message("route", self.node_id, self.node_id, {
            "op": kind,
            "op_id": task_id,
            "key": common_prefix_bits(groups),
            "origin": origin,
            "action": action,
            "groups": groups,
        }), tried)

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

    def _split_keys(self, groups: dict) -> tuple[dict, dict[int, dict]]:
        """Split ``groups`` (``{key bits: arg}``) into the keys this
        peer applies and, by trie level, the keys it sends on.

        A key belongs here on the rule :meth:`_handle_route` answers
        by (the path prefixes it, or it prefixes the path).  Every
        other key leaves the path at some trie level, and the keys
        leaving at one level travel on together.  Keys keep their
        first-occurrence order throughout, so the split depends on no
        set or hash order.  A lone key was routed to itself, so it
        belongs here.  A key's level depends only on its first
        ``len(path)`` bits, so it is worked out once per distinct head.
        """
        if len(groups) == 1:
            return groups, {}
        path = self.path._bits
        width = len(path)
        levels: dict[str, int] = {}
        applied: dict[str, Any] = {}
        onward: dict[int, dict[str, Any]] = {}
        for bits, arg in groups.items():
            head = bits[:width]
            level = levels.get(head)
            if level is None:
                level = levels[head] = common_prefix_length(path, head)
            if level == len(head):
                applied[bits] = arg
            else:
                onward.setdefault(level, {})[bits] = arg
        return applied, onward

    def _handle_split(self, kind: str, payload: dict) -> dict | None:
        """Apply the keys under this path and send the rest on — the
        one body of a split op, ``kind`` ``"write"`` or ``"read"``.

        :meth:`_split_keys` splits the keys, and each onward group goes
        toward the longest common prefix of its own keys, where the
        first peer inside their subtree splits them again.  A write
        applies each key's values tuple and sends each replica one
        ``replicate`` carrying all of them (its answers are ``None``);
        a read answers each key with ``_execute_op(action, key, arg)``.
        The report answers the keys applied here and declares what the
        answers carry; a peer that applied none reports nothing
        (``None``).  At the origin, onward sub-requests are first hops
        of the op (see :class:`SplitTask`).
        """
        action = payload["action"]
        applied, onward = self._split_keys(payload["groups"])
        carried = 0
        if kind == "write":
            if applied:
                self._write_local(action, applied)
                self._propagate_to_replicas(action, applied)
            answers = dict.fromkeys(applied)
        else:
            execute, count = self._execute_op, self._carried
            answers = {}
            for bits, arg in applied.items():
                answer = answers[bits] = execute(action, Key.of(bits), arg)
                carried += count(action, answer)
        if onward:
            task_id, origin = payload["op_id"], payload["origin"]
            task = self._tasks.get(task_id) if origin == self.node_id else None
            tried = None if task is None else task.tried_hops
            for groups in onward.values():
                self._send_split(kind, task_id, origin, action, groups, tried)
        if not answers:
            return None
        return {"answers": answers, "carried": carried}

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
        """Apply the operation locally and reply to the origin (an op
        with nothing to report — a split op's relay — replies not)."""
        payload = message.payload
        op = payload["op"]
        if op == "read" or op == "write":
            values = self._handle_split(op, payload)
            if values is None:
                return
            carried = values["carried"]
        else:
            values = self._execute_op(op, key, payload.get("value"))
            carried = self._carried(op, values)
        origin = payload["origin"]
        reply_payload = {
            "op_id": payload["op_id"],
            "values": values,
            "hops": message.hops,
        }
        if origin == self.node_id:
            self._complete(reply_payload)
        else:
            self.network.send(Message("reply", self.node_id, origin,
                                      reply_payload, message.hops + 1,
                                      carried=carried))

    def _carried(self, op: str, values: Any) -> int:
        """The result values an answer to ``op`` carries: a retrieved
        list's length, and nothing for a range or reformulation report
        (a split op's report declares the sum over its answers)."""
        if type(values) is list:
            return len(values)
        return 0

    def _write_local(self, action: str, groups: dict) -> None:
        """Apply a write here — a split op's, a replica's or
        :meth:`local_insert`'s: every key's values of ``groups`` (``{key
        bits: values}``), in order, by ``action``."""
        if action == "insert":
            for bits, values in groups.items():
                if values:
                    self.store.setdefault(bits, []).extend(values)
            self._sync_snapshot = None
            return
        remove = self.local_remove
        for bits, values in groups.items():
            key = Key.of(bits)
            for value in values:
                remove(key, value)

    def _propagate_to_replicas(self, op: str, groups: dict) -> None:
        """One ``replicate`` message per replica, carrying every key
        the write applied here with its whole values tuple
        (``groups`` is ``{key bits: values}``)."""
        network = self.network
        node_id = self.node_id
        payload = {"op": op, "groups": groups}
        for replica in self.replicas:
            network.send(Message("replicate", node_id, replica, payload))

    def _handle_replicate(self, message: Message) -> None:
        """Apply a replica's write: every key's values, in order, by
        the action the answering peer applied."""
        self._write_local(message.payload["op"], message.payload["groups"])

    def _handle_reply(self, message: Message) -> None:
        self._complete(message.payload)

    def _complete(self, payload: dict) -> None:
        op_id = payload["op_id"]
        task = self._tasks.get(op_id)
        if task is not None:
            # A split op's report: its id is the ledger's own.
            task.on_report(payload["values"], payload["hops"])
            return
        # A late or duplicate report of a finished op, or one of the two
        # tagged id shapes — ``<op>!<task>!<n>``, a fan-out delegate's
        # report, and ``refslkp!<level>!<n>``, a routed reference
        # discovery (see pgrid.maintenance) whose answering peer vouches
        # for itself and its replicas.
        tag, _, rest = op_id.partition("!")
        owner = rest.partition("!")[0]
        values = payload.get("values")
        if owner in self._tasks:
            self._tasks[owner].on_report(op_id, values or {}, payload["hops"])
        elif (tag == "refslkp" and owner.isdigit()
                and int(owner) < len(self.routing_table)):
            self._adopt_references(int(owner), values or ())


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

    That is the *id* rule, for operations whose origin cannot list
    their answerers: the range shower and recursive reformulation.
    Every other operation is a :class:`SplitTask`, which terminates by
    a second rule, counting keys.
    """

    def __init__(self, peer: PGridPeer, on_finish: Any,
                 on_results: Any = None) -> None:
        network = peer.network
        if network is None:
            raise SimulationError(f"node {peer.node_id} is not attached")
        self.peer = peer
        self.task_id = f"{peer.node_id}:{peer._op_ids}"
        peer._op_ids += 1
        #: a timeout-driven finish runs outside any delivery scope,
        #: and ``on_finish`` may still send attributable traffic
        self.scope = network.scope()
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

    def on_report(self, request_id: str, report: dict, hops: int) -> None:
        """A delegate reported which sub-requests it spawned (``hops``:
        the forwarding steps its request took)."""
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


class SplitTask:
    """The ledger of one split op (``kind`` ``"write"`` or ``"read"``)
    of ``action`` on every key of ``groups`` (``{key: arg}``): every
    write and every read issued at a peer, a one-key ``retrieve`` too.

    The origin knows every key it asked for, so this ledger counts
    *keys*, not request ids (the *key* rule, beside
    :class:`FanoutTask`'s id rule).  Every key resolves to exactly one
    :class:`OpResult`, handed to ``on_result``: the moment its answer
    arrives, or failed when the ledger finishes first.  A peer that
    answered no key owes no report; duplicated or late answers find
    their key gone.  When the timeout expires before every key has its
    answer, the ledger re-issues the unanswered keys from the origin as
    one split op, avoiding the first hops already tried, while
    :meth:`PGridPeer._may_retry` grants it; then it finishes
    incomplete.  An answer to any attempt counts.

    The task is its own timeout callback (:meth:`__call__`), and its
    tried first hops are a dict the cyclic collector does not track:
    an in-flight one-key read holds no bound method and no set.  When
    issued under an active trace it opens an ``op:<action>`` span and,
    under it, one ``attempt:<n>`` span per attempt.
    """

    __slots__ = ("peer", "task_id", "scope", "kind", "action",
                 "unanswered", "on_result", "issued_at", "attempts",
                 "tried_hops", "timeout_handle", "span", "attempt_span")

    def __init__(self, peer: PGridPeer, kind: str, action: str,
                 groups: dict, on_result: Any) -> None:
        network = peer.network
        if network is None:
            raise SimulationError(f"node {peer.node_id} is not attached")
        self.peer = peer
        self.task_id = f"{peer.node_id}:{peer._op_ids}"
        peer._op_ids += 1
        #: timeout-driven retries and failures run outside any delivery
        #: scope, and ``on_result`` may still send attributable traffic
        self.scope = network.scope()
        self.kind = kind
        self.action = action
        #: key bits -> argument, for every key no report has answered yet
        self.unanswered = {key._bits: arg for key, arg in groups.items()}
        self.on_result = on_result
        self.issued_at = network.loop._now
        self.attempts = 0
        #: first hops the attempts' sub-requests took from the origin
        self.tried_hops: dict[str, None] = {}
        self.timeout_handle: Any = None
        #: open span records (see :class:`repro.obs.tracer.Tracer`),
        #: ``None`` when issued with no trace active: the op umbrella
        #: and the current attempt under it
        self.span: Any = None
        self.attempt_span: Any = None

    def start(self) -> None:
        """Register and make the first attempt."""
        peer = self.peer
        network = peer.network
        tracer = network.tracer
        if tracer is not None and tracer.current() is not None:
            # Opened only when a trace is already active, so untraced
            # issues pay one attribute load and a check.
            self.span = tracer.begin(f"op:{self.action}", peer=peer.node_id,
                                     kind="op", start=network.loop._now)
            self.scope = (self.scope[0], tracer.context_of(self.span))
        peer._tasks[self.task_id] = self
        self._attempt()

    def _attempt(self) -> None:
        """Arm the timeout (first: the loop breaks same-time ties by
        scheduling order, and the root may be answered before this
        returns), then route the unanswered keys as one sub-request,
        inside the op's scope."""
        peer = self.peer
        network = peer.network
        self.attempts += 1
        self.timeout_handle = network.loop.schedule(peer.timeout, self)
        scope = self.scope
        if self.span is not None:
            # One span per attempt: a retry shows up as a sibling of
            # the failed attempt, which keeps its ``timeout`` status.
            tracer = network.tracer
            self.attempt_span = tracer.begin(
                f"attempt:{self.attempts}", peer=peer.node_id,
                kind="attempt", start=network.loop._now, context=scope[1])
            scope = (scope[0], tracer.context_of(self.attempt_span))
        groups = dict(self.unanswered)  # the ledger's copy keeps shrinking
        with network.resume(scope):
            peer._send_split(self.kind, self.task_id, peer.node_id,
                             self.action, groups, self.tried_hops)

    def __call__(self) -> None:
        """The timeout: retry the unanswered keys, or give up."""
        peer = self.peer
        if self.attempt_span is not None:
            peer.network.tracer.finish(self.attempt_span,
                                       peer.network.loop._now,
                                       status="timeout")
        if peer._may_retry(self.attempts, self.unanswered, self.tried_hops):
            peer._failover.retries += 1
            self._attempt()
            return
        peer._failover.gave_up += 1
        self.finish(False)

    def on_report(self, report: dict, hops: int) -> None:
        """A peer's answers arrived (``hops``: the forwarding steps its
        sub-request took)."""
        now = self.peer.network.loop._now
        for bits, answer in report["answers"].items():
            # Re-read per answer: one answer's consumer may cancel the
            # op, which empties the ledger.
            unanswered = self.unanswered
            if bits in unanswered:
                del unanswered[bits]
                if not unanswered and self.span is not None:
                    self._close_spans("ok")
                self.on_result(OpResult(Key.of(bits), True, answer, hops,
                                        now - self.issued_at, self.attempts))
        if not self.unanswered:
            self.finish(True)

    def cancel(self) -> None:
        """The issuing computation's cancel token fired: every key not
        answered yet fails now, and counts as cancelled."""
        if self.task_id in self.peer._tasks:  # else finished already
            self.peer._failover.cancelled += len(self.unanswered)
            self.finish(False, "cancelled")

    def finish(self, complete: bool, status: str = "gave_up") -> None:
        """Close the task (idempotent): every key still unanswered gets
        a failed result, inside the scope captured at issue time."""
        peer = self.peer
        if peer._tasks.pop(self.task_id, None) is None:
            return
        self.timeout_handle.cancel()
        # Taken, not just called: whatever waits on this task may hold
        # it too (a cancel token's callback list does).
        on_result, self.on_result = self.on_result, None
        if complete:
            return
        missing, self.unanswered = self.unanswered, {}
        self._close_spans(status)
        if missing:
            latency = peer.network.loop._now - self.issued_at
            with peer.network.resume(self.scope):
                for bits in missing:
                    on_result(OpResult(Key.of(bits), False, latency=latency,
                                       attempts=self.attempts))

    def _close_spans(self, status: str) -> None:
        """Close the op span and any open attempt span with ``status``
        (an attempt the timeout closed keeps its ``timeout``)."""
        if self.span is None:
            return
        tracer = self.peer.network.tracer
        now = self.peer.network.loop._now
        if self.attempt_span is not None:
            tracer.finish(self.attempt_span, now, status=status)
        tracer.finish(self.span, now, status=status, attempts=self.attempts)
