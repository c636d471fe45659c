"""Building the P-Grid trie: path assignment and routing tables.

Two construction modes are provided.

:func:`assign_paths` (top-down, sample-driven)
    Splits the key space recursively so that each leaf carries roughly
    the same share of a *key sample*.  With an order-preserving hash the
    data distribution is skewed, so the resulting trie is unbalanced in
    depth but balanced in storage load — this reproduces P-Grid's
    "index load-balancing" role in the GridVine architecture.

:func:`build_by_exchanges` (bottom-up, decentralized)
    The randomized pairwise-exchange protocol of the original P-Grid
    work: peers start with empty paths, and whenever two peers with the
    same path meet they split it (one appends ``0``, the other ``1``)
    and adopt each other as level references; peers with diverging
    paths exchange references at their divergence level and recursively
    forward the meeting into deeper levels.  Used by tests and the
    construction ablation to show the decentralized process converges
    to the same structure the top-down builder produces directly.

:func:`populate_routing_tables` fills level references for peers with
already-assigned paths, and :func:`replica_groups` wires ``sigma(p)``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.util.keys import Key, common_prefix_length


def _split_counts(total_leaves: int, left_weight: int, right_weight: int) -> tuple[int, int]:
    """Apportion ``total_leaves`` between two subtrees by sample weight.

    Both sides get at least one leaf (we only call this when
    ``total_leaves >= 2``), and the split follows the sample proportions
    as closely as integer arithmetic allows.
    """
    weight = left_weight + right_weight
    if weight == 0:
        left = total_leaves // 2
    else:
        left = round(total_leaves * left_weight / weight)
    left = max(1, min(total_leaves - 1, left))
    return left, total_leaves - left


def _build_leaf_paths(
    num_leaves: int,
    sample: Sequence[Key],
    prefix: Key,
    max_depth: int,
) -> list[Key]:
    """Recursively split ``prefix`` into ``num_leaves`` leaf paths."""
    if num_leaves <= 1 or len(prefix) >= max_depth:
        return [prefix]
    left_sample = [k for k in sample if k.bit(len(prefix)) == "0"]
    right_sample = [k for k in sample if k.bit(len(prefix)) == "1"]
    left_leaves, right_leaves = _split_counts(
        num_leaves, len(left_sample), len(right_sample)
    )
    return (
        _build_leaf_paths(left_leaves, left_sample, prefix.append("0"), max_depth)
        + _build_leaf_paths(right_leaves, right_sample, prefix.append("1"), max_depth)
    )


def assign_paths(
    num_peers: int,
    key_sample: Sequence[Key] | None = None,
    replication: int = 1,
    key_bits: int = 128,
    rng: random.Random | None = None,
) -> dict[str, Key]:
    """Assign trie paths to ``num_peers`` peers.

    Parameters
    ----------
    num_peers:
        Number of peers to place.
    key_sample:
        Keys representative of the data to be indexed.  When given, the
        trie is shaped so every leaf covers roughly the same number of
        sample keys (load balancing); when omitted the trie is split
        evenly (balanced in depth).
    replication:
        Target replica-group size: the trie gets
        ``ceil(num_peers / replication)`` leaves and peers are dealt to
        leaves round-robin, so each leaf ends up with ``replication``
        (±1) replicas.
    key_bits:
        Maximum trie depth (key width).
    rng:
        Used to shuffle the peer-to-leaf assignment.

    Returns a mapping from node id (``"peer-<i>"``) to path.
    """
    if num_peers <= 0:
        raise ValueError("num_peers must be positive")
    if replication <= 0:
        raise ValueError("replication must be positive")
    rng = rng if rng is not None else random.Random(0)
    num_leaves = max(1, (num_peers + replication - 1) // replication)
    sample = list(key_sample) if key_sample else []
    leaves = _build_leaf_paths(num_leaves, sample, Key(""), key_bits)
    node_ids = [f"peer-{i}" for i in range(num_peers)]
    rng.shuffle(node_ids)
    assignment: dict[str, Key] = {}
    for index, node_id in enumerate(node_ids):
        assignment[node_id] = leaves[index % len(leaves)]
    return assignment


def replica_groups(assignment: dict[str, Key]) -> dict[Key, list[str]]:
    """Group node ids by identical path (the replica groups sigma)."""
    groups: dict[Key, list[str]] = {}
    for node_id, path in sorted(assignment.items()):
        groups.setdefault(path, []).append(node_id)
    return groups


def build_routing_tables(
    assignment: dict[str, Key],
    refs_per_level: int = 2,
    rng: random.Random | None = None,
) -> dict[str, tuple[list[str], list[list[str]]]]:
    """Derive replica lists and level references from a path assignment.

    The pure-data form of :func:`populate_routing_tables`: it consumes
    only a ``node_id -> path`` mapping and returns
    ``node_id -> (replicas, routing_table)``, so shard workers can
    construct their slice of peers from plain data without ever holding
    peer objects for the rest of the deployment.

    For peer ``p`` and level ``i``, eligible references are all peers
    covering the complementary prefix ``pi(p)[:i] + flip`` — forwarding
    to any of them strictly increases the common prefix with any key
    that diverges from ``pi(p)`` at level ``i``, which is what makes
    greedy prefix routing terminate in at most ``|pi(p)|`` hops.

    Exhaustive over all eligible candidates per level; for 10k+ peer
    deployments use :func:`sample_routing_tables` instead (statistically
    equivalent tables, cheaper construction).
    """
    rng = rng if rng is not None else random.Random(0)
    # A node's own path diverges from its complement prefix at the
    # complement's last bit, so a node never covers its own complement
    # (nor do its replicas): the eligible-candidate list depends only
    # on the complement, not on the asking node.  Compute each list
    # once, in assignment order, instead of scanning all peers per
    # (node, level) — the per-node shuffle below consumes the rng
    # exactly as the historical quadratic scan did.
    #
    # The covering peers of a complement ``c`` split into the subtree
    # below ``c`` (paths extending ``c``) and the ancestors of ``c``
    # (paths that are proper prefixes of it); indexing every node
    # under each prefix of its path answers both by dict lookup.
    # Merging the two halves by assignment index restores the exact
    # order the historical single-pass scan produced, so the shuffles
    # see identical inputs.
    subtree: dict[str, list[tuple[int, str]]] = {}
    at_path: dict[str, list[tuple[int, str]]] = {}
    for index, (node_id, path) in enumerate(assignment.items()):
        bits = path._bits
        entry = (index, node_id)
        for cut in range(len(bits) + 1):
            prefix_nodes = subtree.get(bits[:cut])
            if prefix_nodes is None:
                subtree[bits[:cut]] = [entry]
            else:
                prefix_nodes.append(entry)
        exact = at_path.get(bits)
        if exact is None:
            at_path[bits] = [entry]
        else:
            exact.append(entry)
    cover_cache: dict[str, list[str]] = {}
    replica_cache: dict[str, list[str]] = {}
    tables: dict[str, tuple[list[str], list[list[str]]]] = {}
    for node_id, path in assignment.items():
        path_bits = path._bits
        peers_at_path = replica_cache.get(path_bits)
        if peers_at_path is None:
            peers_at_path = replica_cache[path_bits] = sorted(
                other_id for _i, other_id in at_path[path_bits]
            )
        replicas = [p for p in peers_at_path if p != node_id]
        routing_table: list[list[str]] = []
        for level in range(len(path_bits)):
            complement = (path_bits[:level]
                          + ("1" if path_bits[level] == "0" else "0"))
            eligible = cover_cache.get(complement)
            if eligible is None:
                covering = list(subtree.get(complement, ()))
                for cut in range(len(complement)):
                    covering.extend(at_path.get(complement[:cut], ()))
                covering.sort()
                eligible = cover_cache[complement] = [
                    other_id for _i, other_id in covering
                ]
            candidates = list(eligible)
            rng.shuffle(candidates)
            routing_table.append(sorted(candidates[:refs_per_level]))
        tables[node_id] = (replicas, routing_table)
    return tables


def populate_routing_tables(
    peers: dict[str, "PGridPeerLike"],
    refs_per_level: int = 2,
    rng: random.Random | None = None,
) -> None:
    """Fill each peer's level references and replica list in place.

    A thin object-level wrapper over :func:`build_routing_tables`,
    kept bit-identical to the historical behavior (same candidate
    ordering, same rng consumption).
    """
    assignment = {node_id: peer.path for node_id, peer in peers.items()}
    tables = build_routing_tables(assignment, refs_per_level, rng)
    for node_id, peer in peers.items():
        peer.replicas, peer.routing_table = tables[node_id]


def sample_routing_tables(
    assignment: dict[str, Key],
    refs_per_level: int = 2,
    rng: random.Random | None = None,
) -> dict[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]:
    """Near-linear routing-table construction for large deployments.

    :func:`build_routing_tables` materializes every eligible candidate
    per (peer, level) — at level 0 that is half the network, which
    makes the build quadratic and prohibitive beyond a few thousand
    peers.  This variant *samples* ``refs_per_level`` references
    directly from the candidate population using the trie structure:

    - leaf paths are sorted; the leaves under a complement prefix form
      one contiguous run (found by bisection), and when that run is
      empty exactly one shallower leaf covers the prefix (leaves
      partition the key space);
    - a prefix-sum over per-leaf member counts turns "pick a uniform
      random eligible peer" into two bisections.

    Tables are statistically equivalent to the exhaustive builder's
    (uniform choice without replacement among the same candidate set)
    but not bit-identical to it; large-scale runs use this builder for
    every engine under comparison, so A/B results stay fair.

    The tables are *tuples*: one build is shared, read-only, by every
    engine run over it, and tuples of strings are invisible to the
    cyclic collector where 140k lists (at 10k peers) are re-traversed
    by every full collection.
    """
    import bisect

    rng = rng if rng is not None else random.Random(0)
    members: dict[str, list[str]] = {}
    for node_id, path in assignment.items():
        members.setdefault(path.bits, []).append(node_id)
    leaf_bits = sorted(members)
    counts = [len(members[bits]) for bits in leaf_bits]
    starts = [0] * (len(counts) + 1)
    for i, c in enumerate(counts):
        starts[i + 1] = starts[i] + c

    def _population(prefix_bits: str) -> tuple[int, int]:
        """(first leaf index, total members) of leaves covering prefix."""
        lo = bisect.bisect_left(leaf_bits, prefix_bits)
        hi = bisect.bisect_right(leaf_bits, prefix_bits + "1" * 200)
        if lo < hi:  # leaves inside the prefix subtree
            return lo, starts[hi] - starts[lo]
        # Empty run: the single shallower leaf containing the prefix.
        i = lo - 1
        while i >= 0:
            if prefix_bits.startswith(leaf_bits[i]):
                return i, counts[i]
            if not prefix_bits.startswith(leaf_bits[i][:len(prefix_bits)]):
                break
            i -= 1
        return lo, 0

    def _member_at(first_leaf: int, offset: int) -> str:
        leaf = bisect.bisect_right(starts, starts[first_leaf] + offset) - 1
        return members[leaf_bits[leaf]][starts[first_leaf] + offset - starts[leaf]]

    tables = {}
    for node_id, path in assignment.items():
        replicas = sorted(m for m in members[path.bits] if m != node_id)
        routing_table: list[tuple[str, ...]] = []
        for level in range(len(path)):
            complement = path.sibling_prefix(level)
            first, total = _population(complement.bits)
            take = min(refs_per_level, total)
            if take == 0:
                routing_table.append(())
                continue
            offsets = rng.sample(range(total), take)
            routing_table.append(
                tuple(sorted(_member_at(first, off) for off in offsets)))
        tables[node_id] = (tuple(replicas), tuple(routing_table))
    return tables


class PGridPeerLike:
    """Structural type for :func:`populate_routing_tables` (documentation
    only — any object with ``path``, ``routing_table`` and ``replicas``
    attributes qualifies)."""

    path: Key
    routing_table: list[list[str]]
    replicas: list[str]


# ---------------------------------------------------------------------------
# Decentralized, exchange-based construction
# ---------------------------------------------------------------------------

class _ExchangePeer:
    """Mutable per-peer state for the exchange-based builder."""

    __slots__ = ("node_id", "path", "refs")

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.path = Key("")
        # level -> set of node ids
        self.refs: list[set[str]] = []

    def _ensure_level(self, level: int) -> None:
        while len(self.refs) <= level:
            self.refs.append(set())


def _exchange(a: _ExchangePeer, b: _ExchangePeer, max_depth: int,
              rng: random.Random) -> None:
    """One pairwise meeting of the P-Grid construction protocol."""
    cpl = common_prefix_length(a.path, b.path)
    if cpl == len(a.path) and cpl == len(b.path):
        # Same path: split if depth allows, becoming each other's
        # reference at the new level.
        if len(a.path) >= max_depth:
            return
        first, second = (a, b) if rng.random() < 0.5 else (b, a)
        first.path = first.path.append("0")
        second.path = second.path.append("1")
        level = len(first.path) - 1
        first._ensure_level(level)
        second._ensure_level(level)
        first.refs[level].add(second.node_id)
        second.refs[level].add(first.node_id)
        return
    if cpl < len(a.path) and cpl < len(b.path):
        # Paths diverge: record each other as references at the
        # divergence level.
        a._ensure_level(cpl)
        b._ensure_level(cpl)
        a.refs[cpl].add(b.node_id)
        b.refs[cpl].add(a.node_id)
        return
    # One path is a strict prefix of the other: the shallower peer can
    # deepen by adopting the complement of the deeper peer's next bit.
    shallow, deep = (a, b) if len(a.path) < len(b.path) else (b, a)
    next_bit = deep.path.bit(len(shallow.path))
    shallow.path = shallow.path.append("1" if next_bit == "0" else "0")
    level = len(shallow.path) - 1
    shallow._ensure_level(level)
    deep._ensure_level(level)
    shallow.refs[level].add(deep.node_id)
    deep.refs[level].add(shallow.node_id)


def build_by_exchanges(
    num_peers: int,
    meetings: int | None = None,
    max_depth: int | None = None,
    rng: random.Random | None = None,
) -> dict[str, Key]:
    """Grow a trie through random pairwise exchanges.

    Peers all start at the trie root and refine their paths through
    ``meetings`` random encounters (default ``40 * n * log2(n)``, ample
    for convergence at test scale).  ``max_depth`` bounds path length
    (default ``ceil(log2(num_peers)) + 2``), preventing two chatty
    peers from splitting forever.

    Returns the final node-id-to-path assignment; reference sets built
    during exchanges are discarded — callers typically re-derive
    routing tables with :func:`populate_routing_tables`, which also
    covers pairs that never met.
    """
    if num_peers <= 0:
        raise ValueError("num_peers must be positive")
    rng = rng if rng is not None else random.Random(0)
    if max_depth is None:
        max_depth = max(1, (num_peers - 1).bit_length() + 2)
    if meetings is None:
        log_n = max(1, (num_peers - 1).bit_length())
        meetings = 40 * num_peers * log_n
    peers = [_ExchangePeer(f"peer-{i}") for i in range(num_peers)]
    if num_peers == 1:
        return {peers[0].node_id: peers[0].path}
    for _ in range(meetings):
        a, b = rng.sample(peers, 2)
        _exchange(a, b, max_depth, rng)
    return {p.node_id: p.path for p in peers}
