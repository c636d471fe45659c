"""Building the P-Grid trie: path assignment, routing tables, seeds.

Two ways to assign paths are provided.

:func:`assign_paths` (top-down, sample-driven)
    Splits the key space recursively so that each leaf carries roughly
    the same share of a *key sample*.  With an order-preserving hash the
    data distribution is skewed, so the resulting trie is unbalanced in
    depth but balanced in storage load — this reproduces P-Grid's
    "index load-balancing" role in the GridVine architecture.

:func:`build_by_exchanges` (bottom-up, decentralized)
    The randomized pairwise-exchange protocol of the original P-Grid
    work: peers start with empty paths, and whenever two peers with the
    same path meet they split it (one appends ``0``, the other ``1``);
    a peer whose path is a prefix of the other's deepens into the
    complementary subtree.  Used by tests and the construction ablation
    to show the decentralized process converges to the same structure
    the top-down builder produces directly.

Every assignment gets its tables from one builder,
:func:`sample_routing_tables` (§2.1: a level-``i`` reference is any
peer of the complementary subtree, drawn uniformly).  A level's
population is an index range of one leaf-ordered list of the peers,
and :func:`_draw` picks from it with the rng's words read in bulk
(:func:`_word_stream`), exactly as ``Random.sample`` would, so the
tables are pinned by the seed alone.  :func:`populate_routing_tables`
writes them into live peers as lists, and :func:`replica_groups` wires
``sigma(p)``.  Every
deployment seeds its streams by purpose: paths from
``Random(f"{seed}/paths")``, tables from ``Random(f"{seed}/tables")``
and each peer from ``_stream_seed(seed, "peer", node_id)``.
"""

from __future__ import annotations

import math
import random
import struct
import zlib
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from operator import length_hint
from typing import Any

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


def _stream_seed(*parts: object) -> int:
    """The seed of a private rng stream keyed by plain values (a peer
    buffers the first words of its stream at its first draw).

    Seeding with a small int takes a fast path in CPython (string
    seeds are hashed through SHA-512); at 10k peers the difference is
    a tenth of a second of pure setup per engine run.
    """
    return zlib.crc32("/".join(map(str, parts)).encode())


#: words :func:`_word_stream` takes from its rng per ``getrandbits``
_CHUNK = 1024


def _word_stream(rng: random.Random) -> tuple[Callable[[], int],
                                              Callable[[], None]]:
    """``(next_word, close)``: ``rng``'s stream as 32-bit words.

    ``next_word()`` returns the words ``rng.getrandbits(32)`` would,
    in order, fetched :data:`_CHUNK` at a time with one
    ``getrandbits(32 * _CHUNK)`` (word ``i`` is bits ``32 i`` to
    ``32 i + 31`` of it).  ``close()`` leaves ``rng`` just past the
    last word returned: it restores the state saved before the chunk
    in use and redraws the words used from it, so no more than one
    chunk is ever held or redrawn, however long the stream.
    """
    last: list[Any] = []

    def chunks():
        while True:
            state = rng.getstate()
            words = iter(struct.unpack(
                f"<{_CHUNK}I",
                rng.getrandbits(32 * _CHUNK).to_bytes(4 * _CHUNK, "little")))
            last[:] = (state, words)
            yield words

    def close() -> None:
        if last:
            state, words = last
            rng.setstate(state)
            rng.getrandbits(32 * (_CHUNK - length_hint(words)))

    return chain.from_iterable(chunks()).__next__, close


def _draw(next_word: Callable[[], int], seq: Sequence[Any],
          spans: Iterable[tuple[int, int, int]]) -> tuple[tuple[Any, ...], ...]:
    """A peer's level references: for each ``(lo, n, k)`` of ``spans``
    in turn, ``tuple(sorted(rng.sample(seq[lo:lo + n], k)))``, drawn
    from the words ``next_word`` returns as ``Random.sample`` draws.

    ``Random._randbelow(m)`` is the top ``m.bit_length()`` bits of the
    next word, redrawn while ``>= m``; ``Random.sample`` draws from a
    pool (swapping the last unpicked member into the vacancy) when
    ``n`` is at most the small-set size, and otherwise redraws an index
    it already picked.  No draw when ``k`` is 0.  One or two picks, the
    build's usual case, are read straight off the range with no pool,
    set or sort; ``tests/strategies/test_reference_draw.py`` pins the
    equality for every ``k``.  ``0 <= k <= n`` is the caller's to keep.
    """
    drawn = []
    for lo, n, k in spans:
        if not k:
            drawn.append(())
            continue
        shift = 32 - n.bit_length()
        j = next_word() >> shift
        while j >= n:
            j = next_word() >> shift
        first = seq[lo + j]
        if k == 1:
            drawn.append((first,))
            continue
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if k == 2:
            if n <= setsize:
                m = n - 1
                shift = 32 - m.bit_length()
                i = next_word() >> shift
                while i >= m:
                    i = next_word() >> shift
                second = seq[lo + (m if i == j else i)]
            else:
                i = next_word() >> shift
                while i >= n or i == j:
                    i = next_word() >> shift
                second = seq[lo + i]
            drawn.append((first, second) if first < second
                         else (second, first))
            continue
        picks = [first]
        if n <= setsize:
            pool = list(seq[lo:lo + n])
            pool[j] = pool[n - 1]
            for m in range(n - 1, n - k, -1):
                shift = 32 - m.bit_length()
                i = next_word() >> shift
                while i >= m:
                    i = next_word() >> shift
                picks.append(pool[i])
                pool[i] = pool[m - 1]
        else:
            selected = {j}
            for _ in range(k - 1):
                i = next_word() >> shift
                while i >= n or i in selected:
                    i = next_word() >> shift
                selected.add(i)
                picks.append(seq[lo + i])
        picks.sort()
        drawn.append(tuple(picks))
    return tuple(drawn)


def sample_routing_tables(
    assignment: dict[str, Key],
    refs_per_level: int = 2,
    rng: random.Random | None = None,
) -> dict[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]:
    """Derive replica lists and level references from a path assignment.

    For peer ``p`` and level ``i`` the eligible references are the
    peers covering the complementary prefix ``pi(p)[:i] + flip``: those
    whose path extends it, or is a prefix of it.  Forwarding to any of
    them strictly increases the common prefix with any key that
    diverges from ``pi(p)`` at level ``i``, which is what makes greedy
    prefix routing terminate in at most ``|pi(p)|`` hops.  Each level
    gets ``min(refs_per_level, |eligible|)`` of them, drawn uniformly
    without replacement and sorted; replicas are the other peers on
    ``pi(p)``, sorted.

    Every peer sits in one list, ``ordered``, grouped by leaf in
    sorted leaf order, each leaf's peers in assignment order.  The
    peers extending a complement prefix are then one index range
    ``[lo, lo + n)`` of it (its leaves are a contiguous run of the
    sorted leaf paths), and that range, with ``k = min(refs_per_level,
    n)``, is the level's whole population: a tuple of three ints,
    memoized per complement and shared by every leaf under it.  Only
    where leaves are proper prefixes of the complement (a trie that is
    not yet prefix-free, such as a partly converged
    :func:`build_by_exchanges`) is the population copied: the run,
    then those leaves' peers in depth order, appended to ``ordered``
    as a range of its own.  That order, run then leaves above, is the
    population ``Random.sample`` is mirrored on.

    The draw is :func:`_draw` over :func:`_word_stream`'s words, so for
    a given rng the tables are the ones ``rng.sample`` would give, and
    the rng ends where those draws would leave it;
    ``tests/test_routing_table_digests.py`` pins six builds.

    The tables are *tuples*: the scale-out deployment shares one build,
    read-only, between every engine run over it, and tuples of strings
    are invisible to the cyclic collector where 140k lists (at 10k
    peers) are re-traversed by every full collection.
    """
    if refs_per_level < 1:
        raise ValueError(
            f"refs_per_level must be >= 1, got {refs_per_level!r}")
    rng = rng if rng is not None else random.Random(0)
    members: dict[str, list[str]] = {}
    for node_id, path in assignment.items():
        members.setdefault(path.bits, []).append(node_id)
    leaf_bits = sorted(members)
    ordered = [node_id for bits in leaf_bits for node_id in members[bits]]
    starts = [0]
    for bits in leaf_bits:
        starts.append(starts[-1] + len(members[bits]))
    spans: dict[str, tuple[int, int, int]] = {}
    levels_of: dict[str, tuple[tuple[int, int, int], ...]] = {}
    for bits in leaf_bits:
        above: list[str] = []
        levels = []
        for level in range(len(bits)):
            prefix = bits[:level]
            if prefix in members:
                above += members[prefix]
            complement = prefix + ("1" if bits[level] == "0" else "0")
            span = spans.get(complement)
            if span is None:
                # "2" sorts after both bits: every extension of the
                # complement lies in [complement, complement + "2").
                lo = bisect_left(leaf_bits, complement)
                hi = bisect_left(leaf_bits, complement + "2", lo)
                lo, hi = starts[lo], starts[hi]
                if above:
                    run = ordered[lo:hi]
                    lo = len(ordered)
                    ordered += run
                    ordered += above
                    hi = len(ordered)
                n = hi - lo
                span = spans[complement] = (lo, n, min(refs_per_level, n))
            levels.append(span)
        levels_of[bits] = tuple(levels)

    # Replicas are listed sorted; the populations above keep each
    # leaf's assignment order, so sort only once they are built.
    for group in members.values():
        group.sort()
    next_word, close = _word_stream(rng)
    tables = {}
    for node_id, path in assignment.items():
        bits = path.bits
        replicas = tuple([m for m in members[bits] if m != node_id])
        tables[node_id] = (
            replicas, _draw(next_word, ordered, levels_of[bits]))
    close()
    return tables


def populate_routing_tables(
    peers: dict[str, Any],
    refs_per_level: int = 2,
    rng: random.Random | None = None,
) -> None:
    """Fill each peer's level references and replica list in place.

    The list-table form of :func:`sample_routing_tables` for peers
    that own their tables: maintenance and membership edit a live
    peer's ``routing_table`` and ``replicas``, so they are lists here.
    ``peers`` maps node ids to anything with ``path``,
    ``routing_table`` and ``replicas`` attributes.
    """
    tables = sample_routing_tables(
        {node_id: peer.path for node_id, peer in peers.items()},
        refs_per_level, rng)
    for node_id, peer in peers.items():
        replicas, routing_table = tables[node_id]
        peer.replicas = list(replicas)
        peer.routing_table = [list(refs) for refs in routing_table]


# ---------------------------------------------------------------------------
# Decentralized, exchange-based construction
# ---------------------------------------------------------------------------

def _exchange(paths: list[Key], a: int, b: int, max_depth: int,
              rng: random.Random) -> None:
    """One pairwise meeting of the P-Grid construction protocol between
    peers ``a`` and ``b`` (indices into ``paths``)."""
    path_a, path_b = paths[a], paths[b]
    cpl = common_prefix_length(path_a, path_b)
    if cpl == len(path_a) and cpl == len(path_b):
        # Same path: split it if depth allows.
        if len(path_a) >= max_depth:
            return
        first, second = (a, b) if rng.random() < 0.5 else (b, a)
        paths[first] = path_a.append("0")
        paths[second] = path_a.append("1")
    elif cpl == len(path_a) or cpl == len(path_b):
        # One path is a strict prefix of the other: the shallower peer
        # deepens by adopting the complement of the deeper peer's next
        # bit.  (Diverging paths change nothing.)
        shallow, deep = (a, b) if len(path_a) < len(path_b) else (b, a)
        next_bit = paths[deep].bit(len(paths[shallow]))
        paths[shallow] = paths[shallow].append(
            "1" if next_bit == "0" else "0")


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

    Returns the final node-id-to-path assignment; routing tables come
    from :func:`populate_routing_tables`, like every other assignment's.
    """
    if num_peers <= 0:
        raise ValueError("num_peers must be positive")
    rng = rng if rng is not None else random.Random(0)
    if max_depth is None:
        max_depth = max(1, (num_peers - 1).bit_length() + 2)
    if meetings is None:
        log_n = max(1, (num_peers - 1).bit_length())
        meetings = 40 * num_peers * log_n
    paths = [Key("")] * num_peers
    if num_peers > 1:
        for _ in range(meetings):
            a, b = rng.sample(range(num_peers), 2)
            _exchange(paths, a, b, max_depth, rng)
    return {f"peer-{i}": path for i, path in enumerate(paths)}
