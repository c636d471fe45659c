"""The facade spine: one deployment, one engine, one way to run an op.

:class:`PGridOverlay` ties a deployment's peers to the *engine* they
run on (the :class:`repro.simnet.shard._Engine` surface) and is the
base of :class:`~repro.mediation.network.GridVineNetwork`.  It owns
peer access, origin selection, membership and
:meth:`PGridOverlay.call` — the one place ``src/`` drives a peer
operation to completion, so its attribution scope ``op:<ref>``, trace
root and loop driving are the engine's, identical on one event loop
and on N inline shards.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from typing import Any

from repro.simnet.events import EventLoop, SimulationError
from repro.simnet.latency import LatencyModel
from repro.simnet.network import SimNetwork
from repro.simnet.shard import SingleLoopEngine
from repro.pgrid.construction import (
    assign_paths,
    populate_routing_tables,
)
from repro.pgrid.membership import graceful_leave, join_network
from repro.pgrid.peer import OpResult, PGridPeer
from repro.util.keys import Key


def passthrough(result: Any) -> Any:
    """Ship an operation's result back from ``submit`` unchanged
    (module-level: process workers pickle it by reference)."""
    return result


def build_overlay(
    num_peers: int,
    make_peer: Callable[[str, Key, float], PGridPeer],
    key_sample: Sequence[Key] | None = None,
    replication: int = 1,
    refs_per_level: int = 2,
    key_bits: int = 128,
    latency: LatencyModel | None = None,
    seed: int = 0,
) -> tuple[SingleLoopEngine, dict[str, Any], random.Random]:
    """A single-loop engine over a network of ``num_peers`` attached
    peers with routing tables.

    ``make_peer(node_id, path, rng)`` builds each peer; ``rng`` is the
    *seed* of the peer's stream, which the peer creates on its first
    draw.  All randomness derives from ``seed`` in one fixed draw order
    — network stream, path assignment, one seed per peer in sorted id
    order, routing tables — which the transport goldens pin; the master
    generator is returned, positioned after those draws, for harness
    randomness.
    """
    rng = random.Random(seed)
    network = SimNetwork(latency=latency, rng=random.Random(rng.random()))
    assignment = assign_paths(
        num_peers, key_sample=key_sample, replication=replication,
        key_bits=key_bits, rng=random.Random(rng.random()))
    peers: dict[str, Any] = {}
    for node_id, path in sorted(assignment.items()):
        peer = make_peer(node_id, path, rng.random())
        network.attach(peer)
        peers[node_id] = peer
    populate_routing_tables(peers, refs_per_level=refs_per_level,
                            rng=random.Random(rng.random()))
    return SingleLoopEngine(seed=seed, net=network), peers, rng


class PGridOverlay:
    """A simulated P-Grid deployment on an engine.

    Parameters
    ----------
    engine:
        What the deployment runs on: :meth:`build` makes a
        :class:`~repro.simnet.shard.SingleLoopEngine`; the scale-out
        driver hands in whichever engine it was given.
    peers:
        The deployment's peers, already attached to ``engine``.
    rng:
        Harness randomness (random origins, joins).  Without one every
        operation needs an explicit ``origin``.
    """

    def __init__(self, engine: Any, peers: dict[str, Any],
                 rng: random.Random | None = None) -> None:
        self.engine = engine
        self.peers = peers
        self.rng = rng
        #: peers in sorted-id order, cached between joins and leaves
        self._sorted_peers: list[Any] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_peers: int,
        key_sample: Sequence[Key] | None = None,
        replication: int = 1,
        refs_per_level: int = 2,
        key_bits: int = 128,
        latency: LatencyModel | None = None,
        seed: int = 0,
        timeout: float = 15.0,
        max_retries: int = 2,
    ) -> "PGridOverlay":
        """Build an overlay of ``num_peers`` peers.

        See :func:`repro.pgrid.construction.assign_paths` for the
        meaning of ``key_sample`` (load-balancing) and ``replication``
        (replica-group size).  All randomness derives from ``seed``.
        """
        return cls(*build_overlay(
            num_peers,
            lambda node_id, path, rng: PGridPeer(
                node_id, path, rng=rng, timeout=timeout,
                max_retries=max_retries),
            key_sample=key_sample, replication=replication,
            refs_per_level=refs_per_level, key_bits=key_bits,
            latency=latency, seed=seed,
        ))

    # ------------------------------------------------------------------
    # Single-loop diagnostic views
    # ------------------------------------------------------------------

    @property
    def network(self) -> SimNetwork:
        """The single loop's transport (a sharded engine has one per
        shard: there this is a :class:`SimulationError`)."""
        net = getattr(self.engine, "net", None)
        if net is None:
            raise SimulationError(
                "a sharded engine has one transport per shard and no "
                "`network`; its counters are engine.metrics_snapshot()")
        return net

    @property
    def loop(self) -> EventLoop:
        """The single loop's event loop (as :attr:`network`)."""
        return self.network.loop

    # ------------------------------------------------------------------
    # Peer access
    # ------------------------------------------------------------------

    def peer(self, node_id: str) -> Any:
        """Look up a peer by node id."""
        return self.peers[node_id]

    def _peer_order(self) -> list[Any]:
        if self._sorted_peers is None:
            self._sorted_peers = [self.peers[i] for i in sorted(self.peers)]
        return self._sorted_peers

    def peer_ids(self) -> list[str]:
        """All node ids, sorted (a fresh list)."""
        return [peer.node_id for peer in self._peer_order()]

    def _harness_rng(self) -> random.Random:
        if self.rng is None:
            raise SimulationError(
                "no harness rng to draw from; pass the facade an rng, "
                "or an explicit origin peer")
        return self.rng

    def random_peer(self) -> Any:
        """A uniformly random *online* peer (from the harness RNG).

        Offline peers cannot originate operations — their messages
        would vanish and the whole query would spuriously fail — so
        under churn the draw skips them.  With every peer online the
        draw is identical to the historical uniform choice.
        """
        rng = self._harness_rng()
        online = [peer for peer in self._peer_order() if peer.online]
        if not online:
            raise SimulationError("no online peer available as origin")
        return rng.choice(online)

    def _origin(self, origin: str | None) -> Any:
        if origin is None:
            return self.random_peer()
        peer = self.peers.get(origin)
        if peer is None:
            raise SimulationError(f"unknown origin peer {origin!r}")
        if not peer.online:
            raise SimulationError(
                f"origin peer {origin!r} is offline; pick an online "
                "peer or protect the origin from churn"
            )
        return peer

    def responsible_peers(self, key: Key) -> list[str]:
        """Ground truth: ids of peers whose path prefixes ``key``.

        Used by tests and benches to check routing correctness without
        going through the protocol.
        """
        return sorted(
            node_id
            for node_id, peer in self.peers.items()
            if peer.is_responsible_for(key)
        )

    def trie_depths(self) -> list[int]:
        """Path length of every peer (trie shape diagnostic)."""
        return [len(p.path) for p in self.peers.values()]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, node_id: str, seed: int = 0) -> PGridPeer:
        """Add a new peer to the live overlay (see
        :func:`repro.pgrid.membership.join_network`)."""
        rng = random.Random(seed)

        def factory(new_id: str, path: Key) -> PGridPeer:
            return PGridPeer(new_id, path, rng=rng.random())

        self._sorted_peers = None
        return join_network(self.network, self.peers, node_id, factory,
                            rng=rng)

    def leave(self, node_id: str) -> None:
        """Gracefully remove a peer (data handed to its replicas)."""
        self._sorted_peers = None
        graceful_leave(self.network, self.peers, node_id)

    # ------------------------------------------------------------------
    # Peer operations
    # ------------------------------------------------------------------

    def call(self, method: str, *args: Any,
             origin: str | None = None) -> tuple[Any, int]:
        """Run ``peer.<method>(*args)`` at ``origin`` (default: a
        random online peer) to completion on the engine.

        One attributed submission: returns the operation's own result
        and the exact number of messages it caused anywhere in the
        deployment; with a tracer installed it is one trace ``op:<ref>``.
        """
        engine = self.engine
        return engine.result(engine.submit(
            self._origin(origin).node_id, method, *args,
            summarize=passthrough, attribute=True))

    def retrieve_sync(self, origin: str, key: Key) -> OpResult:
        """Blocking ``Retrieve(key)`` issued from peer ``origin``."""
        return self.call("retrieve", key, origin=origin)[0]

    def update_sync(self, origin: str, key: Key, value: Any,
                    action: str = "insert") -> OpResult:
        """Blocking ``Update(key, value)`` (insert or remove)."""
        return self.call("update", key, value, action, origin=origin)[0]
