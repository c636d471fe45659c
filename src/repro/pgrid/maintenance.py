"""Overlay maintenance: routing-table repair and replica anti-entropy.

P-Grid's Retrieve/Update "provide probabilistic guarantees for data
consistency and are efficient even in highly unreliable, dynamic
environments" (§2.1).  Retries and replica groups give the
*probabilistic* part; this module supplies the *repair* part that keeps
the guarantees from eroding under sustained churn:

* **Reference probing** — each peer periodically probes the references
  of a random trie level; references that miss the ack deadline are
  dropped, and replacement candidates are requested from surviving
  references (which answer with the peers they know — their own
  references and replicas).
* **Replica anti-entropy** — each peer periodically pushes its store
  snapshot to a random replica; the replica merges values it missed
  while offline (``local_merge`` dedupes, so repeated pushes are
  idempotent).  The push is *digest-gated*: it carries an
  order-independent digest of the snapshot
  (:meth:`~repro.pgrid.peer.PGridPeer.sync_snapshot`, cached until the
  next store write), and a replica whose own digest is equal skips the
  merge, so a sync with nothing to repair costs O(1) on both sides.
  It is one ``sync_push`` message either way — message counts are
  those of the ungated protocol, and payload bytes are not modelled by
  any counter (``values_shipped`` counts ``"values"`` payload lists
  only; a push carries ``"items"``).  A real network would send the
  digest first and pull on mismatch, which *adds* messages per repair;
  that is why it is not simulated here.
  The same digest lets two replicas tell in O(1) whether they would
  answer alike — what "consensus answers over divergent replicas"
  needs.

:class:`MaintenanceProcess` schedules both activities for every peer
of an overlay with per-peer jitter (synchronized maintenance storms
would be unrealistic and would hide contention effects).  A routed
reference discovery is a ``refs_lookup`` route under the op id
``refslkp!<level>!<n>``; ``PGridPeer._complete`` reads the level to
repair off the reply's id.

Both message types additionally **piggyback synopsis digests**
(:mod:`repro.stats`): probes, probe acks and sync pushes carry a
bounded batch of per-peer statistics in their payload, so cardinality
estimates spread epidemically at zero extra message cost.

.. warning::
   While a maintenance process is running, the event queue never
   drains — ticks reschedule themselves indefinitely.  Advance the
   simulation with ``engine.run_until(time)`` or wait on one operation
   (``engine.result(ref)``, what every facade call does);
   ``run_until_idle()`` / ``settle()`` would spin forever.
"""

from __future__ import annotations

import itertools
import random

from repro.pgrid.peer import PGridPeer


class MaintenanceProcess:
    """Drives periodic maintenance for a set of peers.

    Parameters
    ----------
    peers:
        The peers to maintain (typically ``overlay.peers``).
    interval:
        Mean seconds between maintenance ticks per peer.
    probe_timeout:
        Seconds a probed reference has to ack before being dropped.
    refs_per_level:
        Target routing-table redundancy; levels below target trigger
        replacement requests.
    rng:
        Randomness for jitter and level selection.
    repair_thin_levels:
        When True, every tick additionally requests replacements for
        each routing level below target.  The default (False, the
        historical behaviour — repair fires only at the moment a
        probe drops a reference) cannot refill a level that was
        *emptied* while its owner was partitioned away, a gap the
        fault lab surfaced; scenarios with injected faults enable
        this.  Off by default so baseline message accounting stays
        bit-identical.
    """

    def __init__(
        self,
        peers: dict[str, PGridPeer],
        interval: float = 30.0,
        probe_timeout: float = 5.0,
        refs_per_level: int = 2,
        rng: random.Random | None = None,
        repair_thin_levels: bool = False,
    ) -> None:
        if interval <= 0 or probe_timeout <= 0:
            raise ValueError("interval and probe_timeout must be positive")
        self.peers = peers
        self.interval = interval
        self.probe_timeout = probe_timeout
        self.refs_per_level = refs_per_level
        self.rng = rng if rng is not None else random.Random(0)
        self.repair_thin_levels = repair_thin_levels
        self._tokens = itertools.count()
        self._running = False
        #: consecutive missed probes per (peer, ref) — a reference is
        #: only dropped after ``miss_threshold`` misses in a row, so a
        #: peer rebooting across one probe window is not evicted
        self.miss_threshold = 2
        self._misses: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first tick for every peer (with jitter): the
        first roster scan, over an empty roster."""
        self._running = True
        self._tracked: set[str] = set()
        self._roster_scan()

    def stop(self) -> None:
        """Stop scheduling new ticks (in-flight ones still fire)."""
        self._running = False

    def _schedule_roster_scan(self) -> None:
        """Periodically pick up peers that joined after start()."""
        for peer in self.peers.values():
            if peer.network is not None:
                peer.loop.schedule(self.interval, self._roster_scan)
                return

    def _roster_scan(self) -> None:
        if not self._running:
            return
        for node_id in sorted(self.peers):
            if node_id not in self._tracked:
                self._tracked.add(node_id)
                self._schedule_tick(node_id,
                                    self.rng.uniform(0, self.interval))
        self._schedule_roster_scan()

    def _schedule_tick(self, node_id: str, delay: float) -> None:
        peer = self.peers.get(node_id)
        if peer is None or peer.network is None:
            return
        peer.loop.schedule(delay, self._tick, node_id)

    def _tick(self, node_id: str) -> None:
        if not self._running:
            return
        peer = self.peers.get(node_id)
        if peer is None or peer.network is None:
            return
        if peer.online:
            self._probe_level(peer)
            self._push_to_replica(peer)
            if self.repair_thin_levels:
                self._repair_thin(peer)
        jittered = self.rng.uniform(0.5, 1.5) * self.interval
        self._schedule_tick(node_id, jittered)

    def _repair_thin(self, peer: PGridPeer) -> int:
        """Request replacements for each of ``peer``'s thin levels;
        returns how many levels were below target."""
        thin = 0
        for level in range(len(peer.path)):
            if len(peer.routing_table[level]) < self.refs_per_level:
                thin += 1
                self._request_replacements(peer, level)
        return thin

    def repair_sweep(self) -> int:
        """Request replacements for every below-target routing level.

        The periodic ticks only repair a level at the moment a probe
        drops one of its references; a level emptied while its owner
        was offline (or partitioned away) has no refs left to probe
        and would stay empty forever.  A sweep walks every online
        peer's table directly and fires the usual replacement
        discovery for each thin level — the fault lab runs a few of
        these after heal to give the overlay its claimed repair before
        checking eventual invariants.  Returns the number of thin
        levels a request was issued for.
        """
        issued = 0
        for node_id in sorted(self.peers):
            peer = self.peers[node_id]
            if peer.network is None or not peer.online:
                continue
            issued += self._repair_thin(peer)
        return issued

    # ------------------------------------------------------------------
    # Reference probing & replacement
    # ------------------------------------------------------------------

    def _probe_level(self, peer: PGridPeer) -> None:
        if not peer.routing_table:
            return
        level = self.rng.randrange(len(peer.routing_table))
        for ref in list(peer.routing_table[level]):
            token = f"{peer.node_id}:{next(self._tokens)}"
            peer._probe_pending[token] = (level, ref)
            peer.maintenance_stats.probes_sent += 1
            payload: dict = {"token": token}
            if peer.stats_gossip:
                # Piggyback synopsis digests on the probe we are
                # sending anyway — statistics dissemination costs zero
                # extra messages (see repro.stats.gossip).
                payload["synopses"] = peer.gossip_synopses()
            peer.send(ref, "probe", payload)
            peer.loop.schedule(self.probe_timeout, self._check_probe,
                               peer.node_id, token, level, ref)

    def _check_probe(self, node_id: str, token: str,
                     level: int, ref: str) -> None:
        peer = self.peers.get(node_id)
        if peer is None:
            return
        outcome = peer._probe_pending.pop(token, None)
        if outcome is None:
            # Ack arrived in time: the reference is alive; forgive any
            # earlier misses.
            self._misses.pop((node_id, ref), None)
            return
        if not peer.online:
            # The prober itself crashed during the probe window: the
            # missing ack says nothing about the reference (it may well
            # have answered into the void).  Withhold judgement.
            return
        misses = self._misses.get((node_id, ref), 0) + 1
        self._misses[(node_id, ref)] = misses
        if misses < self.miss_threshold:
            return
        del self._misses[(node_id, ref)]
        if level < len(peer.routing_table) and ref in peer.routing_table[level]:
            peer.routing_table[level].remove(ref)
            peer.maintenance_stats.refs_dropped += 1
        # quarantine the dead ref so replacement offers (which may
        # include it — e.g. a live replica vouching for its dead
        # sibling) do not immediately reinstate it
        peer.ref_blacklist[ref] = peer.loop.now + 2 * self.interval
        self._request_replacements(peer, level)

    def _request_replacements(self, peer: PGridPeer, level: int) -> None:
        """Discover live peers covering the thin level's complement.

        If a reference at the level survives, ask it directly (it
        covers the complement, so its replica group is exactly the
        candidate set).  If the level is *empty* — the whole known
        replica group died — fall back to a routed ``refs_lookup``
        launched from a random live helper: the helper's routing
        tables differ from ours, so the lookup can reach the
        complement around the gap that we cannot cross ourselves.
        """
        if level >= len(peer.path):
            return
        if len(peer.routing_table[level]) >= self.refs_per_level:
            return
        complement = peer.path.sibling_prefix(level)
        surviving = list(peer.routing_table[level])
        if surviving:
            peer.send(self.rng.choice(surviving), "refs_request", {
                "prefix": complement.bits,
                "level": level,
            })
            return
        helpers = [
            ref
            for refs in peer.routing_table for ref in refs
        ] + peer.replicas
        if peer.network is not None:
            live = [h for h in helpers if peer.network.is_online(h)]
            helpers = live or helpers
        if not helpers:
            return
        helper = self.rng.choice(helpers)
        op_id = f"refslkp!{level}!{peer.node_id}:{next(self._tokens)}"
        peer.send(helper, "route", {
            "op": "refs_lookup",
            "op_id": op_id,
            "key": complement.bits,
            "origin": peer.node_id,
            "value": None,
        })

    # ------------------------------------------------------------------
    # Replica anti-entropy
    # ------------------------------------------------------------------

    def _push_to_replica(self, peer: PGridPeer) -> None:
        if not peer.replicas:
            return
        replica = self.rng.choice(peer.replicas)
        peer.maintenance_stats.sync_pushes += 1
        payload = peer.sync_payload()
        if peer.stats_gossip:
            payload["synopses"] = peer.gossip_synopses()
        peer.send(replica, "sync_push", payload)
