"""Pinned routing tables: a sha256 over three builds' sorted tables.

:func:`sample_routing_tables` draws every deployment's references, so a
change to how it walks the trie or consumes its rng stream changes
which peers each table holds.  The downstream goldens only see that
through routed traffic; these digests see it directly.  They were
recorded before the builder computed one population per trie node and
drew without ``Random.sample``, and that rewrite left them unchanged.

- ``route``'s smoke deployment (400 peers, ``replication=4``);
- the same spec at ``route``'s full 10 000 peers;
- a partly converged :func:`build_by_exchanges` trie, where some
  paths are still proper prefixes of others.
"""

import hashlib
import random

import pytest

from repro.pgrid.construction import build_by_exchanges, sample_routing_tables
from repro.pgrid.scaleout import ScaleoutSpec, build_deployment


def digest(tables) -> str:
    return hashlib.sha256(repr(sorted(tables.items())).encode()).hexdigest()


@pytest.mark.parametrize("num_peers, expected", [
    (400, "27997c0b14c3df0f67d60e87452918c67a2074c053a3cfd210e9fc7bc590b276"),
    (10_000,
     "7eb6e82e24c54f78fab4254d6c5f36f485f909815667851be24da18bb0b7f7b8"),
])
def test_route_deployment_tables(num_peers, expected):
    spec = ScaleoutSpec(num_peers=num_peers, replication=4, seed=11)
    assert digest(build_deployment(spec).tables) == expected


def test_partly_converged_exchange_tables():
    assignment = build_by_exchanges(300, meetings=3000,
                                    rng=random.Random(5))
    paths = {path.bits for path in assignment.values()}
    assert any(other != bits and other.startswith(bits)
               for bits in paths for other in paths), "trie converged"
    tables = sample_routing_tables(assignment, 3, random.Random(7))
    assert digest(tables) == (
        "4fe1944997d236a22f901bb58a3d9762433f37a9b07b14fa8162fb5577fbc898")
