"""The one routing-table builder meets §2.1's definition on generated tries.

For every peer and level the eligible references are listed by brute
force: the peers whose path extends the level's complementary prefix
``path.sibling_prefix(level)``, or is a prefix of it.  The sampled
tables must hold only eligible peers, ``min(refs_per_level,
|eligible|)`` distinct ones per level, and as replicas exactly the
other peers on the same path.  :func:`populate_routing_tables` writes
the same draw into live peers, as lists.
"""

import random
from types import SimpleNamespace

from hypothesis import given

from repro.pgrid.construction import (
    populate_routing_tables,
    sample_routing_tables,
)

from strategies import STANDARD_SETTINGS, trie_cases


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
