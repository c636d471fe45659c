"""Tests for P-Grid path assignment and routing-table population."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediation.network import GridVineNetwork
from repro.pgrid.construction import (
    assign_paths,
    build_by_exchanges,
    populate_routing_tables,
    replica_groups,
    sample_routing_tables,
)
from repro.pgrid.overlay import PGridOverlay
from repro.pgrid.peer import PGridPeer
from repro.util.hashing import order_preserving_hash
from repro.util.keys import Key, common_prefix_length


def paths_cover_keyspace(paths):
    """Leaf paths must partition the key space: prefix-free, and the
    leaf fractions must sum to 1."""
    unique = sorted(set(paths))
    for i, a in enumerate(unique):
        for b in unique[i + 1:]:
            if a != b:
                assert not a.is_prefix_of(b), (a, b)
                assert not b.is_prefix_of(a), (a, b)
    total = sum(2.0 ** -len(p) for p in unique)
    assert total == pytest.approx(1.0)


class TestAssignPaths:
    def test_single_peer_gets_root(self):
        assert assign_paths(1) == {"peer-0": Key("")}

    def test_power_of_two_is_balanced(self):
        assignment = assign_paths(8)
        assert sorted(p.bits for p in assignment.values()) == sorted(
            format(i, "03b") for i in range(8)
        )

    def test_partition_invariant_odd_sizes(self):
        for n in (3, 5, 7, 13, 100):
            assignment = assign_paths(n)
            paths_cover_keyspace(list(assignment.values()))

    def test_replication_groups_sizes(self):
        assignment = assign_paths(12, replication=3)
        groups = replica_groups(assignment)
        assert sum(len(g) for g in groups.values()) == 12
        assert all(len(g) == 3 for g in groups.values())

    def test_replication_uneven(self):
        assignment = assign_paths(10, replication=3)
        groups = replica_groups(assignment)
        assert sum(len(g) for g in groups.values()) == 10
        assert {len(g) for g in groups.values()} <= {2, 3}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            assign_paths(0)
        with pytest.raises(ValueError):
            assign_paths(4, replication=0)

    def test_sample_driven_tries_balance_load(self):
        # Keys clustered in a narrow region of the key space (strings
        # over a two-letter alphabet occupy a thin band under the
        # order-preserving hash): the sample-driven trie splits that
        # band deeper than a uniform split would, yielding a lower max
        # leaf load.
        rng = random.Random(1)
        sample = [
            order_preserving_hash(
                "".join(rng.choice("ab") for _ in range(8)))
            for _ in range(200)
        ]

        def max_load(assignment):
            loads = {}
            for key in sample:
                owners = [p for p in set(assignment.values())
                          if p.is_prefix_of(key)]
                assert len(owners) == 1
                loads[owners[0]] = loads.get(owners[0], 0) + 1
            return max(loads.values())

        adapted = assign_paths(16, key_sample=sample,
                               rng=random.Random(2))
        uniform = assign_paths(16, rng=random.Random(2))
        assert max_load(adapted) < max_load(uniform)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 4))
    def test_partition_property(self, n, replication):
        assignment = assign_paths(n, replication=replication,
                                  rng=random.Random(0))
        assert len(assignment) == n
        paths_cover_keyspace(list(assignment.values()))


class TestRoutingTables:
    def _build_peers(self, n, refs=2, seed=0):
        assignment = assign_paths(n, rng=random.Random(seed))
        peers = {
            node_id: PGridPeer(node_id, path)
            for node_id, path in assignment.items()
        }
        populate_routing_tables(peers, refs_per_level=refs,
                                rng=random.Random(seed))
        return peers

    def test_every_level_has_a_reference(self):
        peers = self._build_peers(16)
        for peer in peers.values():
            assert len(peer.routing_table) == len(peer.path)
            for level, refs in enumerate(peer.routing_table):
                assert refs, f"{peer.node_id} level {level} empty"

    def test_references_cover_complementary_subtree(self):
        peers = self._build_peers(16)
        for peer in peers.values():
            for level, refs in enumerate(peer.routing_table):
                complement = peer.path.sibling_prefix(level)
                for ref in refs:
                    other = peers[ref].path
                    assert (other.is_prefix_of(complement)
                            or complement.is_prefix_of(other))

    def test_refs_per_level_bounded(self):
        peers = self._build_peers(32, refs=3)
        for peer in peers.values():
            for refs in peer.routing_table:
                assert 1 <= len(refs) <= 3

    def test_replicas_share_path_and_exclude_self(self):
        assignment = assign_paths(8, replication=2, rng=random.Random(1))
        peers = {nid: PGridPeer(nid, p) for nid, p in assignment.items()}
        populate_routing_tables(peers, rng=random.Random(1))
        for node_id, peer in peers.items():
            assert node_id not in peer.replicas
            for replica in peer.replicas:
                assert peers[replica].path == peer.path
            assert len(peer.replicas) == 1  # groups of 2

    def test_forwarding_strictly_increases_common_prefix(self):
        peers = self._build_peers(32)
        key = order_preserving_hash("some-data-key")
        for peer in peers.values():
            if peer.is_responsible_for(key):
                continue
            level = common_prefix_length(peer.path, key)
            for ref in peer.routing_table[level]:
                other = peers[ref].path
                assert (common_prefix_length(other, key) > level
                        or other.is_prefix_of(key))


def _eight_peers():
    return assign_paths(8, replication=2, rng=random.Random(1))


#: every way to get routing tables; each must refuse to build them empty
TABLE_BUILDERS = {
    "sample_routing_tables": lambda refs: sample_routing_tables(
        _eight_peers(), refs),
    "populate_routing_tables": lambda refs: populate_routing_tables(
        {nid: PGridPeer(nid, path) for nid, path in _eight_peers().items()},
        refs),
    "PGridOverlay.build": lambda refs: PGridOverlay.build(
        8, refs_per_level=refs),
    "GridVineNetwork.build": lambda refs: GridVineNetwork.build(
        8, refs_per_level=refs),
}


@pytest.mark.parametrize("refs", [0, -1])
@pytest.mark.parametrize("builder", sorted(TABLE_BUILDERS))
def test_refs_per_level_below_one_is_refused(builder, refs):
    with pytest.raises(ValueError, match="refs_per_level must be >= 1"):
        TABLE_BUILDERS[builder](refs)


class TestExchangeConstruction:
    def test_single_peer(self):
        assert build_by_exchanges(1) == {"peer-0": Key("")}

    def test_paths_become_distinct(self):
        assignment = build_by_exchanges(16, rng=random.Random(3))
        # After ample meetings, no two peers should sit on the same
        # path unless the depth cap forced replication.
        paths = [p.bits for p in assignment.values()]
        assert len(set(paths)) >= 12

    def test_prefix_free_after_convergence(self):
        assignment = build_by_exchanges(8, rng=random.Random(4))
        paths = sorted(set(assignment.values()))
        for i, a in enumerate(paths):
            for b in paths[i + 1:]:
                assert not (a != b and a.is_prefix_of(b))

    def test_depth_bounded(self):
        assignment = build_by_exchanges(8, max_depth=3,
                                        rng=random.Random(5))
        assert all(len(p) <= 3 for p in assignment.values())

    def test_mean_depth_near_log_n(self):
        assignment = build_by_exchanges(32, rng=random.Random(6))
        depths = [len(p) for p in assignment.values()]
        mean_depth = sum(depths) / len(depths)
        assert 4.0 <= mean_depth <= 7.0  # log2(32) = 5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_by_exchanges(0)
