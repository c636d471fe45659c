"""Facade tying peers, network and event loop into one overlay object.

:class:`PGridOverlay` is what the mediation layer (and tests) talk to:
it builds a complete simulated P-Grid and exposes the two primitives of
the paper both asynchronously and synchronously.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from typing import Any

from repro.simnet.events import EventLoop, Future
from repro.simnet.latency import LatencyModel
from repro.simnet.network import SimNetwork
from repro.pgrid.construction import (
    assign_paths,
    populate_routing_tables,
)
from repro.pgrid.peer import OpResult, PGridPeer
from repro.util.keys import Key


def build_overlay(
    num_peers: int,
    make_peer: Callable[[str, Key, float], PGridPeer],
    key_sample: Sequence[Key] | None = None,
    replication: int = 1,
    refs_per_level: int = 2,
    key_bits: int = 128,
    latency: LatencyModel | None = None,
    seed: int = 0,
    loop: EventLoop | None = None,
) -> tuple[SimNetwork, dict[str, Any], random.Random]:
    """A network of ``num_peers`` attached peers with routing tables.

    ``make_peer(node_id, path, rng)`` builds each peer; ``rng`` is the
    *seed* of the peer's stream, which the peer creates on its first
    draw.  All randomness derives from ``seed`` in one fixed draw order
    — network stream, path assignment, one seed per peer in sorted id
    order, routing tables — which the transport goldens pin; the master
    generator is returned, positioned after those draws, for harness
    randomness.
    """
    rng = random.Random(seed)
    network = SimNetwork(loop=loop, latency=latency,
                         rng=random.Random(rng.random()))
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
    return network, peers, rng


class PGridOverlay:
    """A complete simulated P-Grid network.

    Typically constructed through :meth:`build`; the constructor is for
    tests that wire custom topologies by hand.
    """

    def __init__(self, network: SimNetwork, peers: dict[str, PGridPeer]) -> None:
        self.network = network
        self.peers = peers

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
        loop: EventLoop | None = None,
        timeout: float = 15.0,
        max_retries: int = 2,
    ) -> "PGridOverlay":
        """Build an overlay of ``num_peers`` peers.

        See :func:`repro.pgrid.construction.assign_paths` for the
        meaning of ``key_sample`` (load-balancing) and ``replication``
        (replica-group size).  All randomness derives from ``seed``.
        """
        network, peers, _rng = build_overlay(
            num_peers,
            lambda node_id, path, rng: PGridPeer(
                node_id, path, rng=rng, timeout=timeout,
                max_retries=max_retries),
            key_sample=key_sample, replication=replication,
            refs_per_level=refs_per_level, key_bits=key_bits,
            latency=latency, seed=seed, loop=loop,
        )
        return cls(network, peers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def loop(self) -> EventLoop:
        """The overlay's event loop."""
        return self.network.loop

    def peer(self, node_id: str) -> PGridPeer:
        """Look up a peer by node id."""
        return self.peers[node_id]

    def peer_ids(self) -> list[str]:
        """All node ids, sorted for determinism."""
        return sorted(self.peers)

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

    def storage_loads(self) -> list[int]:
        """Stored-value counts per peer (load-balance diagnostic)."""
        return [p.storage_load() for p in self.peers.values()]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, node_id: str, seed: int = 0) -> PGridPeer:
        """Add a new peer to the live overlay (see
        :func:`repro.pgrid.membership.join_network`)."""
        from repro.pgrid.membership import join_network
        rng = random.Random(seed)

        def factory(new_id: str, path: Key) -> PGridPeer:
            return PGridPeer(new_id, path, rng=rng.random())

        return join_network(self.network, self.peers, node_id, factory,
                            rng=rng)

    def leave(self, node_id: str) -> None:
        """Gracefully remove a peer (data handed to its replicas)."""
        from repro.pgrid.membership import graceful_leave
        graceful_leave(self.network, self.peers, node_id)

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def retrieve(self, origin: str, key: Key) -> Future:
        """Asynchronous ``Retrieve(key)`` issued from peer ``origin``."""
        return self.peers[origin].retrieve(key)

    def update(self, origin: str, key: Key, value: Any,
               action: str = "insert") -> Future:
        """Asynchronous ``Update(key, value)`` from peer ``origin``."""
        return self.peers[origin].update(key, value, action=action)

    def retrieve_sync(self, origin: str, key: Key) -> OpResult:
        """Blocking retrieve: runs the loop until the reply arrives."""
        return self.loop.run_until_complete(self.retrieve(origin, key))

    def update_sync(self, origin: str, key: Key, value: Any,
                    action: str = "insert") -> OpResult:
        """Blocking update (insert or remove)."""
        return self.loop.run_until_complete(
            self.update(origin, key, value, action=action)
        )
