"""Hypothesis strategies for query batches read over generated tries.

A :class:`ReadCase` is a trie from :func:`~strategies.tries.trie_cases`,
a corpus over the tiny term pool of :mod:`strategies.patterns`, and a
batch of exact-routed patterns read from a drawn origin.  The pool is
small, so patterns repeat up to variable renaming (one shared scan),
distinct patterns share a routing key (one key, several patterns) and
keys share long prefixes (one subtree, several keys) — the repeats a
split read groups by.  :func:`deploy_read_case` attaches the trie's
peers to an engine and stores the corpus at every peer responsible for
each of a triple's keys, so any responsible peer answers a pattern
alike.
"""

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.mediation.keys import triple_keys
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.pgrid.construction import populate_routing_tables
from repro.rdf.patterns import TriplePattern
from repro.rdf.triples import Triple
from repro.simnet.shard import partition_paths

from strategies.patterns import patterns, triple_sets
from strategies.tries import TrieCase, trie_cases


def _readable(pattern: TriplePattern) -> bool:
    """Exact-routed, with a variable to return (a query needs one)."""
    try:
        return pattern.routing_mode() == "exact" and bool(pattern.schema)
    except ValueError:  # no routable constant
        return False


@dataclass(frozen=True)
class ReadCase:
    """A trie, the corpus stored on it, and one batch read from it.

    ``origin`` indexes the sorted peer ids.
    """

    trie: TrieCase
    corpus: tuple[Triple, ...]
    batch: tuple[TriplePattern, ...]
    origin: int


@st.composite
def read_cases(draw, max_peers: int = 16, max_batch: int = 8):
    """A :class:`ReadCase` with one to ``max_batch`` patterns."""
    trie = draw(trie_cases(max_peers=max_peers))
    return ReadCase(
        trie=trie,
        corpus=tuple(draw(triple_sets())),
        batch=tuple(draw(st.lists(patterns().filter(_readable),
                                  min_size=1, max_size=max_batch))),
        origin=draw(st.integers(min_value=0,
                                max_value=len(trie.assignment) - 1)),
    )


def deploy_read_case(case: ReadCase, engine) -> GridVineNetwork:
    """The trie of ``case`` on ``engine``, holding its corpus; the same
    peers, tables and stores on every engine."""
    trie = case.trie
    peers = {node_id: GridVinePeer(node_id, path, rng=f"{trie.seed}/{node_id}")
             for node_id, path in sorted(trie.assignment.items())}
    populate_routing_tables(peers, refs_per_level=trie.refs_per_level,
                            rng=random.Random(trie.seed))
    for triple in case.corpus:
        for key in triple_keys(triple):
            for peer in peers.values():
                if peer.is_responsible_for(key):
                    peer.local_insert(key, triple)
    owner = partition_paths(trie.assignment, engine.num_shards)
    for node_id, peer in peers.items():
        engine.add_peer(peer, owner[node_id])
    return GridVineNetwork(engine, peers)
