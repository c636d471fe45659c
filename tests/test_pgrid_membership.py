"""Tests for dynamic membership: join and graceful leave."""

import pytest

from repro.mediation.network import GridVineNetwork
from repro.pgrid.membership import MembershipError
from repro.pgrid.overlay import PGridOverlay
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.util.hashing import uniform_hash
from repro.util.keys import Key


class TestJoin:
    def test_joiner_adopts_least_replicated_leaf(self):
        overlay = PGridOverlay.build(9, replication=3, seed=1)
        # make one group smaller by removing a member
        groups: dict = {}
        for node_id, peer in overlay.peers.items():
            groups.setdefault(peer.path, []).append(node_id)
        some_path, members = next(iter(sorted(groups.items())))
        overlay.leave(members[0])
        newcomer = overlay.join("peer-new")
        assert newcomer.path == some_path

    def test_joiner_clones_data(self):
        overlay = PGridOverlay.build(4, replication=2, seed=2)
        origin = overlay.peer_ids()[0]
        keys = [uniform_hash(f"k{i}") for i in range(12)]
        for i, key in enumerate(keys):
            overlay.update_sync(origin, key, i)
        overlay.loop.run_until_idle()
        newcomer = overlay.join("peer-new")
        host_load = {
            node_id: overlay.peer(node_id).storage_load()
            for node_id in newcomer.replicas
        }
        assert newcomer.storage_load() == max(host_load.values())

    def test_joiner_is_routable_and_serves(self):
        overlay = PGridOverlay.build(8, replication=2, seed=3)
        origin = overlay.peer_ids()[0]
        key = uniform_hash("findme")
        overlay.update_sync(origin, key, "v")
        overlay.loop.run_until_idle()
        newcomer = overlay.join("peer-new")
        # retrieves issued BY the newcomer work immediately
        result = overlay.loop.run_until_complete(newcomer.retrieve(key))
        assert result.success
        assert result.values == ["v"]

    def test_group_membership_is_mutual(self):
        overlay = PGridOverlay.build(6, replication=2, seed=4)
        newcomer = overlay.join("peer-new")
        for member_id in newcomer.replicas:
            assert "peer-new" in overlay.peer(member_id).replicas

    def test_duplicate_id_rejected(self):
        overlay = PGridOverlay.build(4, seed=5)
        with pytest.raises(MembershipError):
            overlay.join(overlay.peer_ids()[0])

    def test_new_writes_replicate_to_joiner(self):
        overlay = PGridOverlay.build(6, replication=2, seed=6)
        newcomer = overlay.join("peer-new")
        origin = overlay.peer_ids()[0]
        # find a key in the newcomer's partition and insert it
        key = None
        for i in range(500):
            candidate = uniform_hash(f"probe{i}")
            if newcomer.is_responsible_for(candidate):
                key = candidate
                break
        assert key is not None
        overlay.update_sync(origin, key, "fresh")
        overlay.loop.run_until_idle()
        assert newcomer.local_retrieve(key) == ["fresh"]


class TestLeave:
    def test_leave_hands_data_to_replicas(self):
        overlay = PGridOverlay.build(8, replication=2, seed=7)
        origin = overlay.peer_ids()[0]
        keys = [uniform_hash(f"k{i}") for i in range(20)]
        for i, key in enumerate(keys):
            overlay.update_sync(origin, key, i)
        overlay.loop.run_until_idle()
        leaver = next(n for n in overlay.peer_ids()
                      if n != origin and overlay.peer(n).replicas)
        survivors = list(overlay.peer(leaver).replicas)
        overlay.leave(leaver)
        overlay.loop.run_until_idle()  # let sync_push land
        assert leaver not in overlay.peers
        # all keys still retrievable
        for i, key in enumerate(keys):
            result = overlay.retrieve_sync(origin, key)
            assert result.success and i in result.values
        for survivor in survivors:
            assert leaver not in overlay.peer(survivor).replicas

    def test_sole_owner_cannot_leave(self):
        overlay = PGridOverlay.build(4, replication=1, seed=8)
        with pytest.raises(MembershipError):
            overlay.leave(overlay.peer_ids()[0])

    def test_unknown_peer_cannot_leave(self):
        overlay = PGridOverlay.build(4, seed=9)
        with pytest.raises(MembershipError):
            overlay.leave("ghost")

    def test_join_then_leave_preserves_coverage(self):
        overlay = PGridOverlay.build(4, replication=1, seed=10)
        origin = overlay.peer_ids()[0]
        key = uniform_hash("coverage")
        overlay.update_sync(origin, key, "v")
        overlay.loop.run_until_idle()
        owner = overlay.responsible_peers(key)[0]
        if owner == origin:
            pytest.skip("origin owns the key; scenario degenerate")
        overlay.join("replacement", seed=10)
        replacement = overlay.peer("replacement")
        if replacement.path != overlay.peer(owner).path:
            pytest.skip("joiner landed on a different leaf")
        overlay.leave(owner)
        overlay.loop.run_until_idle()
        result = overlay.retrieve_sync(origin, key)
        assert result.success
        assert result.values == ["v"]

    @pytest.mark.parametrize("issue", ["retrieve", "range_query",
                                       "recursive_query"])
    def test_leaver_fails_its_own_operations_in_flight(self, issue):
        """Whatever the leaver still has pending resolves as failed at
        the leave; no retry or timeout of it fires after the detach
        (that used to crash the event loop)."""
        net = GridVineNetwork.build(num_peers=16, replication=2, seed=3)
        peer = next(p for p in net.peers.values() if p.replicas)
        for refs in peer.routing_table:  # nothing it routes arrives
            for ref in refs:
                net.network.set_online(ref, False)
        if issue == "retrieve":
            future = peer.retrieve(next(
                key for key in map(uniform_hash, "abcdefgh")
                if not peer.is_responsible_for(key)))
        elif issue == "range_query":
            future = peer.range_query(Key(""))
        else:
            future = peer.search_for(
                parse_search_for("SearchFor(x? : (x?, S#org, %Asp%))"),
                strategy="recursive")
        assert not future.done
        net.leave(peer.node_id)
        assert future.done
        if issue == "recursive_query":
            assert not future.result().complete
        else:
            assert not future.result().success
            assert peer.failover_stats.gave_up == (issue == "retrieve")
        assert not (peer._pending or peer._tasks)
        net.loop.run_until(net.loop.now + 200.0)  # past every timeout


class TestMediationMembership:
    def test_gridvine_joiner_builds_registries(self):
        net = GridVineNetwork.build(num_peers=6, replication=2, seed=11)
        schema = Schema("S", ["org"], domain="m")
        net.insert_schema(schema)
        net.insert_triples([
            Triple(URI("S:1"), URI("S#org"), Literal("Aspergillus")),
        ])
        net.settle()
        newcomer = net.join("peer-new")
        # the mediation registries are populated from the cloned store
        schema_holder = any(
            "S" in net.peer(m).local_schemas
            for m in newcomer.replicas
        )
        if schema_holder:
            assert "S" in newcomer.local_schemas
        # queries from the newcomer work
        out = net.search_for(
            "SearchFor(x? : (x?, S#org, %Asp%))",
            strategy="local", origin="peer-new")
        assert out.result_count == 1

    def test_leave_keeps_queries_answerable(self):
        net = GridVineNetwork.build(num_peers=12, replication=3, seed=12)
        schema = Schema("S", ["org"], domain="m")
        net.insert_schema(schema)
        net.insert_triples([
            Triple(URI(f"S:{i}"), URI("S#org"), Literal(f"Asp {i}"))
            for i in range(10)
        ])
        net.settle()
        origin = net.peer_ids()[0]
        leaver = next(n for n in net.peer_ids() if n != origin)
        net.leave(leaver)
        net.settle()
        out = net.search_for("SearchFor(x? : (x?, S#org, %Asp%))",
                             strategy="local", origin=origin)
        assert out.result_count == 10
