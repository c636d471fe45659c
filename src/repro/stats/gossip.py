"""Synopsis dissemination: piggybacking helpers and anti-entropy pull.

The primary dissemination channel costs **zero extra messages**:
maintenance traffic the overlay exchanges anyway (reference probes,
probe acks, replica sync pushes — see
:mod:`repro.pgrid.maintenance`) carries a bounded batch of synopsis
digests in its payload.  Each peer forwards its own fresh digest plus
a deterministic round-robin slice of the digests it has collected, so
knowledge spreads epidemically across maintenance rounds.

Under churn the piggyback channel alone converges slowly (offline
peers neither probe nor get probed), so resilience scenarios add an
explicit **anti-entropy pull**: the querying origin periodically asks
random online peers for their digest batches.  Pulls do cost messages
(one ``stats_pull`` + one ``stats_push`` each) and are therefore
opt-in, scheduled by :class:`StatsAntiEntropy`.
"""

from __future__ import annotations

import random

#: digests piggybacked per maintenance message
PIGGYBACK_BUDGET = 8

#: digests returned per anti-entropy pull
PULL_BUDGET = 24


class StatsAntiEntropy:
    """Periodic synopsis pulls from one origin peer.

    Parameters
    ----------
    peers:
        All peers of the deployment (targets are drawn from here).
    origin:
        Node id that issues the pulls (typically the query origin).
    interval:
        Mean virtual seconds between pull rounds.
    fanout:
        Peers asked per round.
    rng:
        Randomness for target choice and jitter.
    """

    def __init__(self, peers: dict, origin: str,
                 interval: float = 30.0, fanout: int = 2,
                 rng: random.Random | None = None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.peers = peers
        self.origin = origin
        self.interval = interval
        self.fanout = fanout
        self.rng = rng if rng is not None else random.Random(0)
        self._running = False
        #: pull messages sent (for reporting)
        self.pulls_sent = 0
        #: pull rounds issued (suffixes the per-round trace ids)
        self._rounds = 0

    def start(self) -> None:
        """Schedule the first pull round (with jitter)."""
        peer = self.peers.get(self.origin)
        if peer is None or peer.network is None:
            return
        self._running = True
        peer.loop.schedule(self.rng.uniform(0, self.interval), self._tick)

    def stop(self) -> None:
        """Stop scheduling new rounds (in-flight replies still merge)."""
        self._running = False

    def sweep(self) -> int:
        """One full anti-entropy round: pull from *every* online peer.

        The periodic ticks sample ``fanout`` random peers, which is
        cheap but converges slowly after a partition heals — digests
        authored on the far side may sit behind many hops of
        round-robin gossip.  A sweep asks everyone directly; since
        each pull reply leads with the answering peer's own fresh
        digest, one sweep (plus delivery) makes the origin's registry
        hold the newest digest of every reachable peer — the state
        the fault lab's synopsis-convergence invariant is defined
        over.  Returns the number of pulls sent.
        """
        peer = self.peers.get(self.origin)
        if peer is None or peer.network is None or not peer.online:
            return 0
        return self._pull_round(peer, "antientropy:sweep",
                                self._online_targets(peer))

    def _tick(self) -> None:
        if not self._running:
            return
        peer = self.peers.get(self.origin)
        if peer is None or peer.network is None:
            return
        if peer.online:
            candidates = self._online_targets(peer)
            self.rng.shuffle(candidates)
            self._pull_round(peer, "antientropy:pull",
                             candidates[:self.fanout])
        peer.loop.schedule(self.rng.uniform(0.5, 1.5) * self.interval,
                           self._tick)

    def _online_targets(self, peer) -> list[str]:
        return [node_id for node_id in sorted(self.peers)
                if node_id != self.origin
                and peer.network.is_online(node_id)]

    def _pull_round(self, peer, name: str, targets: list[str]) -> int:
        """Send one ``stats_pull`` to each target; returns the count.

        Anti-entropy runs outside any query, so on a traced transport
        each round is the root of its own trace — the pull messages
        (and the pushes they trigger) parent under it instead of
        polluting query traces.
        """
        network = peer.network
        tracer = network.tracer
        root = scope = None
        if tracer is not None:
            self._rounds += 1
            root = tracer.start_trace(
                f"{name}:{self.origin}:{self._rounds}", name,
                peer=self.origin, start=peer.loop.now, kind="antientropy")
            scope = (None, tracer.context_of(root))
        with network.resume(scope):
            for target in targets:
                peer.send(target, "stats_pull", {"budget": PULL_BUDGET})
        self.pulls_sent += len(targets)
        if root is not None:
            tracer.finish(root, peer.loop.now, pulls=len(targets))
        return len(targets)
