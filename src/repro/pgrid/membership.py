"""Dynamic membership: peers joining and leaving a live overlay.

P-Grid is "a self-organizing and distributed access structure" (§2.1);
the trie is not a build-time artifact.  This module implements the two
membership transitions the demonstration network needs:

:func:`join_network`
    A newcomer bootstraps from an existing peer: it adopts the path of
    the *least-replicated* leaf (keeping replica groups balanced),
    clones that leaf's content and routing references, and registers
    with the replica group.  Other peers discover the newcomer lazily
    through the maintenance process's reference exchange.

:func:`graceful_leave`
    A departing peer pushes its store to its replica group (the
    existing anti-entropy message), deregisters from the group, and
    detaches.  Stale references to it elsewhere are evicted by
    probing.  Leaving is refused when the peer is its leaf's sole
    owner — its key-space partition would become unowned; callers must
    arrange a replacement (join first, then leave).  Operations the
    leaver itself still has in flight are failed *before* the detach
    (:meth:`~repro.pgrid.peer.PGridPeer.abandon_pending`): their
    futures resolve ``success=False`` inside their scopes and their
    timers are cancelled, so no retry, resolution or fan-out completion
    ever runs on a peer without a transport.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.pgrid.peer import PGridPeer
from repro.simnet.network import SimNetwork
from repro.util.keys import Key

#: builds a peer object for a given (node_id, path)
PeerFactory = Callable[[str, Key], PGridPeer]


class MembershipError(RuntimeError):
    """Raised for impossible membership transitions."""


def _replica_groups(peers: dict[str, PGridPeer]) -> dict[Key, list[str]]:
    groups: dict[Key, list[str]] = {}
    for node_id in sorted(peers):
        groups.setdefault(peers[node_id].path, []).append(node_id)
    return groups


def join_network(
    network: SimNetwork,
    peers: dict[str, PGridPeer],
    node_id: str,
    peer_factory: PeerFactory,
    rng: random.Random | None = None,
) -> PGridPeer:
    """Add a new peer to a live overlay; returns the new peer.

    The newcomer replicates the least-populated leaf: this is the
    load-balancing join (splitting a leaf instead would deepen the
    trie; replicating first keeps fault tolerance uniform, and splits
    can follow once groups grow — the exchange protocol of
    :mod:`repro.pgrid.construction` covers that dynamic).
    """
    if node_id in peers:
        raise MembershipError(f"node id {node_id!r} already in the overlay")
    if not peers:
        raise MembershipError("cannot bootstrap from an empty overlay")
    rng = rng if rng is not None else random.Random(0)
    groups = _replica_groups(peers)
    smallest = min(len(members) for members in groups.values())
    candidates = sorted(
        path for path, members in groups.items()
        if len(members) == smallest
    )
    path = rng.choice(candidates)
    host = peers[rng.choice(groups[path])]

    newcomer = peer_factory(node_id, path)
    network.attach(newcomer)
    peers[node_id] = newcomer
    # Clone content verbatim through the regular insertion path (so
    # subclasses like the mediation peer update their registries).
    # ``local_insert`` rather than ``local_merge``: duplicate values in
    # a bucket are legitimate state and must survive the clone.
    for bits, values in host.store.items():
        for value in values:
            newcomer.local_insert(Key(bits), value)
    # Clone routing knowledge (fresh lists, not aliases).
    newcomer.routing_table = [list(refs) for refs in host.routing_table]
    # Register with the replica group.
    group_members = [host.node_id] + list(host.replicas)
    newcomer.replicas = sorted(group_members)
    for member_id in group_members:
        member = peers.get(member_id)
        if member is not None and node_id not in member.replicas:
            member.replicas = sorted(member.replicas + [node_id])
    return newcomer


def graceful_leave(
    network: SimNetwork,
    peers: dict[str, PGridPeer],
    node_id: str,
) -> None:
    """Remove a peer from a live overlay, handing its data off first."""
    peer = peers.get(node_id)
    if peer is None:
        raise MembershipError(f"unknown node id {node_id!r}")
    survivors = [r for r in peer.replicas if r in peers]
    if not survivors:
        raise MembershipError(
            f"{node_id} is the sole owner of path {peer.path}; "
            "join a replacement before leaving"
        )
    for replica in survivors:
        peer.send(replica, "sync_push", peer.sync_payload())
    for replica in survivors:
        member = peers[replica]
        member.replicas = sorted(r for r in member.replicas
                                 if r != node_id)
    peer.abandon_pending()
    del peers[node_id]
    network.detach(node_id)
