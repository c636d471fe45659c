"""Pinned routing tables: a sha256 over each build's sorted tables.

:func:`sample_routing_tables` draws every deployment's references, so a
change to how it walks the trie or consumes its rng stream changes
which peers each table holds.  The downstream goldens only see that
through routed traffic; these digests see it directly.  The first
three were recorded before the builder computed one population per
trie node and drew without ``Random.sample``; the two other 400-peer
ones and the 100 000-peer one before it drew from index ranges of one
leaf-ordered list, with words read in bulk.  Neither rewrite changed
any of them.

- ``route``'s smoke deployment (400 peers, ``replication=4``) at
  ``refs_per_level`` 2, its own, and at 1 and 3 (three picks take the
  builder's general draw, on a prefix-free trie);
- the same spec at ``route``'s full 10 000 peers;
- a partly converged :func:`build_by_exchanges` trie, where some
  paths are still proper prefixes of others;
- at 100 000 peers, ``route``'s spec: built, never run.  It takes
  seconds, so it runs only with ``REPRO_DIGEST_100K=1`` (CI's
  scale-smoke job).
"""

import hashlib
import os
import random

import pytest

from repro.pgrid.construction import build_by_exchanges, sample_routing_tables
from repro.pgrid.scaleout import ScaleoutSpec, build_deployment


def digest(tables) -> str:
    return hashlib.sha256(repr(sorted(tables.items())).encode()).hexdigest()


def route_tables(num_peers, refs_per_level=2):
    spec = ScaleoutSpec(num_peers=num_peers, replication=4,
                        refs_per_level=refs_per_level, seed=11)
    return build_deployment(spec).tables


@pytest.mark.parametrize("num_peers, expected", [
    (400, "27997c0b14c3df0f67d60e87452918c67a2074c053a3cfd210e9fc7bc590b276"),
    (10_000,
     "7eb6e82e24c54f78fab4254d6c5f36f485f909815667851be24da18bb0b7f7b8"),
    pytest.param(
        100_000,
        "05d6843be55952c91097602de38a031127840c75a441bccdb9aa4ca14cbbebfe",
        marks=pytest.mark.skipif(
            os.environ.get("REPRO_DIGEST_100K") != "1",
            reason="100 000 peers: set REPRO_DIGEST_100K=1")),
])
def test_route_deployment_tables(num_peers, expected):
    assert digest(route_tables(num_peers)) == expected


@pytest.mark.parametrize("refs_per_level, expected", [
    (1, "0dde78bef508c388eb79dc25207382bda72f5c7c71fcfa546cd8631090f2c5cf"),
    (3, "300a9f4104206c39cb257c6989cacab2f28399bc32ed9170c427f8054c2a37b7"),
])
def test_route_smoke_tables_at_other_redundancies(refs_per_level, expected):
    assert digest(route_tables(400, refs_per_level)) == expected


def test_partly_converged_exchange_tables():
    assignment = build_by_exchanges(300, meetings=3000,
                                    rng=random.Random(5))
    paths = {path.bits for path in assignment.values()}
    assert any(other != bits and other.startswith(bits)
               for bits in paths for other in paths), "trie converged"
    tables = sample_routing_tables(assignment, 3, random.Random(7))
    assert digest(tables) == (
        "4fe1944997d236a22f901bb58a3d9762433f37a9b07b14fa8162fb5577fbc898")
