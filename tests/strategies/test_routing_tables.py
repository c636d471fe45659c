"""The one routing-table builder meets §2.1's definition on generated tries.

For every peer and level the eligible references are listed by brute
force: the peers whose path extends the level's complementary prefix
``path.sibling_prefix(level)``, or is a prefix of it.  The sampled
tables must hold only eligible peers, ``min(refs_per_level,
|eligible|)`` distinct ones per level, and as replicas exactly the
other peers on the same path.  :func:`populate_routing_tables` writes
the same draw into live peers, as lists.

*The tables are ``Random.sample``'s.*  A brute-force reference lists
each level's eligible peers in the builder's documented order (the
peers extending the complement by leaf path, each leaf in assignment
order, then the peers on proper prefixes of it by depth) and draws
``min(refs_per_level, |eligible|)`` of them with
``random.Random.sample``, peer by peer in assignment order.  For every
source of :func:`~strategies.tries.trie_cases` at every redundancy
from 1 to 4 the builder's tables must equal the reference's, and its
rng must end in the reference's state.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.construction import (
    populate_routing_tables,
    sample_routing_tables,
)

from strategies import QUICK_SETTINGS, STANDARD_SETTINGS, trie_cases
from strategies.tries import SOURCES


def eligible(assignment, complement) -> set[str]:
    return {node_id for node_id, path in assignment.items()
            if complement.is_prefix_of(path)
            or path.is_prefix_of(complement)}


@STANDARD_SETTINGS
@given(trie_cases())
def test_sampled_tables_meet_their_definition(case):
    assignment = case.assignment
    tables = sample_routing_tables(assignment, case.refs_per_level,
                                   random.Random(case.seed))
    assert tables.keys() == assignment.keys()
    for node_id, path in assignment.items():
        replicas, routing_table = tables[node_id]
        assert replicas == tuple(sorted(
            other for other, other_path in assignment.items()
            if other_path == path and other != node_id))
        assert len(routing_table) == len(path)
        for level, refs in enumerate(routing_table):
            pool = eligible(assignment, path.sibling_prefix(level))
            assert set(refs) <= pool, (node_id, level, refs)
            assert len(set(refs)) == len(refs) == min(
                case.refs_per_level, len(pool)), (node_id, level, refs)

    peers = {node_id: SimpleNamespace(path=path)
             for node_id, path in assignment.items()}
    populate_routing_tables(peers, case.refs_per_level,
                            random.Random(case.seed))
    for node_id, peer in peers.items():
        replicas, routing_table = tables[node_id]
        assert peer.replicas == list(replicas)
        assert peer.routing_table == [list(refs) for refs in routing_table]


def reference_tables(assignment, refs_per_level, rng):
    """The builder's tables by brute force, drawn with ``rng.sample``."""
    tables = {}
    for node_id, path in assignment.items():
        replicas = tuple(sorted(
            other for other, other_path in assignment.items()
            if other_path == path and other != node_id))
        routing_table = []
        for level in range(len(path)):
            complement = path.sibling_prefix(level)
            below = sorted(
                (other for other, other_path in assignment.items()
                 if complement.is_prefix_of(other_path)),
                key=lambda other: assignment[other].bits)
            above = sorted(
                (other for other, other_path in assignment.items()
                 if other_path.is_prefix_of(complement)
                 and len(other_path) < len(complement)),
                key=lambda other: len(assignment[other]))
            population = below + above
            k = min(refs_per_level, len(population))
            routing_table.append(tuple(sorted(rng.sample(population, k))))
        tables[node_id] = (replicas, tuple(routing_table))
    return tables


@pytest.mark.parametrize("refs_per_level", [1, 2, 3, 4])
@pytest.mark.parametrize("source", SOURCES)
@QUICK_SETTINGS
@given(data=st.data())
def test_the_tables_are_random_samples(source, refs_per_level, data):
    case = data.draw(trie_cases(max_peers=64, source=source,
                                refs_per_level=refs_per_level))
    rng = random.Random(case.seed)
    reference = random.Random(case.seed)
    assert sample_routing_tables(case.assignment, refs_per_level, rng) == (
        reference_tables(case.assignment, refs_per_level, reference))
    assert rng.getstate() == reference.getstate()
