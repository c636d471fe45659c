"""Tests for overlay range queries and the maintenance process."""

import builtins
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import SLOW_SETTINGS

from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.mediation.peer import GridVinePeer
from repro.mediation.records import (
    ConnectivityRecord,
    MappingRecord,
)
from repro.pgrid.maintenance import MaintenanceProcess
from repro.pgrid.overlay import PGridOverlay
from repro.pgrid.peer import PGridPeer
from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.simnet.network import Message, SimNetwork
from repro.stats.synopsis import PeerSynopsis
from repro.util.hashing import (
    order_preserving_hash,
    prefix_interval,
    uniform_hash,
)
from repro.util.keys import Key, covering_prefixes


class TestCoveringPrefixes:
    def test_full_space(self):
        covers = covering_prefixes(Key("000"), Key("111"))
        assert covers == [Key("")]

    def test_known_decomposition(self):
        covers = covering_prefixes(Key("010"), Key("101"))
        assert [c.bits for c in covers] == ["01", "10"]

    def test_single_key(self):
        covers = covering_prefixes(Key("011"), Key("011"))
        assert covers == [Key("011")]

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            covering_prefixes(Key("0"), Key("11"))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            covering_prefixes(Key("10"), Key("01"))

    def test_max_length_over_approximates(self):
        covers = covering_prefixes(Key("0101"), Key("0110"), max_length=2)
        # coarsened cover must still contain the whole interval
        for key_int in range(int("0101", 2), int("0110", 2) + 1):
            key = Key.from_int(key_int, 4)
            assert any(c.is_prefix_of(key) for c in covers)
        assert all(len(c) <= 2 for c in covers)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_exact_cover_property(self, a, b):
        low, high = min(a, b), max(a, b)
        covers = covering_prefixes(Key.from_int(low, 8),
                                   Key.from_int(high, 8))
        # disjoint
        for i, x in enumerate(covers):
            for y in covers[i + 1:]:
                assert not x.is_prefix_of(y) and not y.is_prefix_of(x)
        # exact: a key is covered iff it lies in [low, high]
        for value in range(256):
            key = Key.from_int(value, 8)
            covered = any(c.is_prefix_of(key) for c in covers)
            assert covered == (low <= value <= high)

    def test_prefix_interval_contains_extensions(self):
        low, high = prefix_interval("Asp")
        for word in ("Asp", "Aspergillus", "Aspz", "Asp zzz"):
            assert low <= order_preserving_hash(word) <= high
        # strings clearly outside the prefix fall outside the interval
        # ("Asq" itself shares the quantized boundary key — see the
        # prefix_interval docstring — so test from "Asr" up)
        for word in ("Asr", "Aso", "B", "Asozzz"):
            h = order_preserving_hash(word)
            assert not (low <= h <= high)


class TestRangeQuery:
    def _populate(self, overlay, words):
        origin = overlay.peer_ids()[0]
        for word in words:
            overlay.update_sync(origin, order_preserving_hash(word), word)
        overlay.loop.run_until_idle()

    def test_range_spanning_many_peers(self):
        overlay = PGridOverlay.build(32, seed=5)
        words = [f"item-{i:03d}" for i in range(40)] + ["zebra", "aardvark"]
        self._populate(overlay, words)
        low, high = prefix_interval("item-")
        origin = overlay.peer(overlay.peer_ids()[0])
        results = []
        for cover in covering_prefixes(low, high, max_length=16):
            result = overlay.loop.run_until_complete(
                origin.range_query(cover))
            assert result.success
            results.extend(result.values)
        matching = [v for v in results if str(v).startswith("item-")]
        assert sorted(set(matching)) == sorted(
            w for w in words if w.startswith("item-"))

    def test_range_on_empty_region(self):
        overlay = PGridOverlay.build(16, seed=6)
        self._populate(overlay, ["only-entry"])
        origin = overlay.peer(overlay.peer_ids()[0])
        low, high = prefix_interval("zzz")
        for cover in covering_prefixes(low, high, max_length=12):
            result = overlay.loop.run_until_complete(
                origin.range_query(cover))
            assert result.success
            assert result.values == []

    def test_whole_keyspace_range_returns_everything(self):
        overlay = PGridOverlay.build(16, seed=7)
        words = [f"w{i}" for i in range(25)]
        self._populate(overlay, words)
        origin = overlay.peer(overlay.peer_ids()[0])
        result = overlay.loop.run_until_complete(
            origin.range_query(Key("")))
        assert result.success
        assert sorted(set(result.values)) == sorted(words)

    def test_range_with_replication_no_duplicates_per_leaf(self):
        overlay = PGridOverlay.build(24, replication=3, seed=8)
        words = [f"r{i}" for i in range(15)]
        self._populate(overlay, words)
        origin = overlay.peer(overlay.peer_ids()[0])
        result = overlay.loop.run_until_complete(
            origin.range_query(Key("")))
        assert result.success
        # the shower visits each subtree once: one replica answers per
        # leaf, so values appear exactly once
        assert sorted(result.values) == sorted(words)

    def test_range_timeout_reports_partial(self):
        overlay = PGridOverlay.build(16, seed=9, timeout=3.0)
        words = [f"t{i}" for i in range(10)]
        self._populate(overlay, words)
        # kill half the network: some subtrees are unreachable
        for node_id in overlay.peer_ids()[::2]:
            overlay.network.set_online(node_id, False)
        origin_id = next(n for n in overlay.peer_ids()
                         if overlay.network.is_online(n))
        origin = overlay.peer(origin_id)
        result = overlay.loop.run_until_complete(
            origin.range_query(Key(""), timeout=30.0))
        assert not result.success  # incomplete coverage admitted


class TestMaintenance:
    def test_dead_refs_dropped_and_replaced(self):
        overlay = PGridOverlay.build(16, replication=2, seed=10)
        peers = overlay.peers
        maintenance = MaintenanceProcess(peers, interval=10.0,
                                         probe_timeout=2.0,
                                         rng=random.Random(10))
        # kill one peer; someone references it
        victim = overlay.peer_ids()[3]
        overlay.network.set_online(victim, False)
        referencing = [
            p for p in peers.values()
            if any(victim in refs for refs in p.routing_table)
            and p.node_id != victim
        ]
        assert referencing
        maintenance.start()
        overlay.loop.run_until(300.0)
        maintenance.stop()
        for peer in referencing:
            for refs in peer.routing_table:
                assert victim not in refs
        dropped = sum(p.maintenance_stats.refs_dropped
                      for p in peers.values())
        assert dropped >= 1

    def test_routing_still_works_after_churn_with_maintenance(self):
        overlay = PGridOverlay.build(24, replication=3, seed=11,
                                     timeout=4.0, max_retries=3)
        from repro.util.hashing import uniform_hash
        origin = overlay.peer_ids()[0]
        keys = [uniform_hash(f"k{i}") for i in range(15)]
        for i, key in enumerate(keys):
            overlay.update_sync(origin, key, i)
        overlay.loop.run_until_idle()
        maintenance = MaintenanceProcess(overlay.peers, interval=20.0,
                                         probe_timeout=3.0,
                                         rng=random.Random(11))
        maintenance.start()
        # permanently fail a third of the network (not the origin)
        for node_id in overlay.peer_ids()[1::3]:
            overlay.network.set_online(node_id, False)
        overlay.loop.run_until(overlay.loop.now + 400.0)
        successes = sum(
            1 for key in keys
            if overlay.retrieve_sync(origin, key).success
        )
        maintenance.stop()
        assert successes >= 13

    def test_anti_entropy_repairs_stale_replica(self):
        overlay = PGridOverlay.build(8, replication=2, seed=12)
        from repro.util.hashing import uniform_hash
        origin = overlay.peer_ids()[0]
        key = uniform_hash("repair-me")
        owners = overlay.responsible_peers(key)
        assert len(owners) == 2
        # one replica sleeps through the insert
        overlay.network.set_online(owners[1], False)
        overlay.update_sync(origin, key, "payload")
        overlay.loop.run_until_idle()
        assert overlay.peer(owners[1]).local_retrieve(key) == []
        overlay.network.set_online(owners[1], True)
        maintenance = MaintenanceProcess(overlay.peers, interval=15.0,
                                         rng=random.Random(12))
        maintenance.start()
        overlay.loop.run_until(overlay.loop.now + 200.0)
        maintenance.stop()
        assert overlay.peer(owners[1]).local_retrieve(key) == ["payload"]

    def test_sync_push_is_idempotent(self):
        overlay = PGridOverlay.build(8, replication=2, seed=13)
        from repro.util.hashing import uniform_hash
        origin = overlay.peer_ids()[0]
        key = uniform_hash("idem")
        overlay.update_sync(origin, key, "v")
        overlay.loop.run_until_idle()
        owners = overlay.responsible_peers(key)
        maintenance = MaintenanceProcess(overlay.peers, interval=5.0,
                                         rng=random.Random(13))
        maintenance.start()
        overlay.loop.run_until(overlay.loop.now + 300.0)
        maintenance.stop()
        for owner in owners:
            assert overlay.peer(owner).local_retrieve(key) == ["v"]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MaintenanceProcess({}, interval=0.0)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` (or shadow the builtin of that name in a
    module) by a counting pass-through; returns the one-element call
    counter."""
    original = getattr(owner, name, None) or getattr(builtins, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting, raising=False)
    return calls


class TestBackgroundWorkIsConstant:
    """Count-based guards (no wall clock): maintenance that has
    nothing to repair does no per-item and no per-registry-entry
    work."""

    def test_converged_group_ticks_merge_nothing(self, monkeypatch):
        overlay = PGridOverlay.build(6, replication=3, seed=21)
        origin = overlay.peer_ids()[0]
        for i in range(20):
            overlay.update_sync(origin, uniform_hash(f"k{i}"), f"v{i}")
        overlay.loop.run_until_idle()
        group = [p for p in overlay.peers.values() if p.store]
        assert group and all(len(p.replicas) == 2 for p in group)
        maintenance = MaintenanceProcess(overlay.peers, interval=10.0,
                                         rng=random.Random(21))
        maintenance._running = True
        merges = count_calls(monkeypatch, PGridPeer, "local_merge")
        pushed = []
        deliver = overlay.network.send

        def recording_send(message):
            if message.kind == "sync_push":
                pushed.append(message)
            deliver(message)

        monkeypatch.setattr(overlay.network, "send", recording_send)
        for _tick in range(2):
            for peer in group:
                maintenance._push_to_replica(peer)
            overlay.loop.run_until_idle()
        assert len(pushed) == 2 * len(group)
        assert merges[0] == 0
        for peer in group:
            first, second = (m.payload["items"] for m in pushed
                             if m.src == peer.node_id)
            assert first is second
            assert len(first) == peer.storage_load() > 0
        assert all(p.maintenance_stats.values_repaired == 0
                   for p in group)

    def test_gossip_sorts_only_when_registry_grows(self, monkeypatch):
        import repro.pgrid.peer as peer_module
        import repro.stats.synopsis as synopsis_module

        peer = PGridPeer("me", Key("0"))
        for i in range(9):
            peer.synopses.register(PeerSynopsis(f"n{i}", 1, i))
        peer.gossip_synopses()
        sorts = count_calls(monkeypatch, synopsis_module, "sorted")
        peer_sorts = count_calls(monkeypatch, peer_module, "sorted")
        seen = []
        for round_ in range(6):
            # a newer digest of a known peer keeps the order
            peer.synopses.register(PeerSynopsis("n3", 2 + round_, 99))
            seen += [d.peer_id for d in peer.gossip_synopses(budget=4)]
        assert sorts[0] == 0 and peer_sorts[0] == 0
        # round-robin over the sorted registry, wrapping around
        order = [f"n{i}" for i in range(9)]
        start = order.index(seen[0])
        assert seen == [order[(start + i) % 9] for i in range(24)]
        peer.synopses.register(PeerSynopsis("n9", 1, 0))
        assert "n9" in {d.peer_id for _ in range(3)
                        for d in peer.gossip_synopses(budget=4)}
        assert sorts[0] == 1 and peer_sorts[0] == 0


# -- digest-gated sync == the ungated merge loop ------------------------

SYNC_KEYS = [Key(bits) for bits in ("00", "01", "10", "11")]


def _mapping(i: int) -> SchemaMapping:
    return SchemaMapping(
        f"m{i}", f"S{i}", f"S{i + 1}",
        [PredicateCorrespondence(URI(f"S{i}#p"), URI(f"S{i + 1}#p"))])


SYNC_VALUES = (
    [Triple(URI(f"S:e{i}"), URI("S#p"), Literal(f"v{i}")) for i in range(5)]
    + [MappingRecord(_mapping(i)) for i in range(2)]
    # one schema, different degrees: last-writer-wins replace path
    + [ConnectivityRecord("S0", in_degree, 1) for in_degree in range(3)]
    + [ConnectivityRecord("S1", 0, 0)]
)

sync_items = st.lists(
    st.tuples(st.sampled_from(SYNC_KEYS), st.sampled_from(SYNC_VALUES)),
    max_size=12)


def sync_pair(shared, sender_only, receiver_only):
    """Two replicas on one network holding ``shared`` plus their own
    items (repeats make duplicate values in a bucket)."""
    network = SimNetwork()
    sender = GridVinePeer("sender", Key(""))
    receiver = GridVinePeer("receiver", Key(""))
    network.attach(sender)
    network.attach(receiver)
    for peer, own in ((sender, sender_only), (receiver, receiver_only)):
        for key, value in shared + own:
            peer.local_insert(key, value)
    return sender, receiver


def ungated_sync_push(peer, items):
    """The merge loop as it ran before pushes carried a digest."""
    for bits, value in items:
        if peer.local_merge(Key(bits), value):
            peer.maintenance_stats.values_repaired += 1


def flattened(peer):
    return [(bits, value) for bits, values in peer.store.items()
            for value in values]


def replica_state(peer):
    return (peer.store, peer.db.all_triples(), peer.local_mappings,
            peer.maintenance_stats.values_repaired)


def assert_db_mirrors_store(peer):
    """The triple database holds exactly the triples the store does."""
    assert set(peer.db.all_triples()) == {
        value for values in peer.store.values() for value in values
        if isinstance(value, Triple)}


def push(sender, receiver):
    receiver._handle_sync_push(Message(
        "sync_push", sender.node_id, receiver.node_id,
        sender.sync_payload()))


class TestDigestGatedSync:
    @SLOW_SETTINGS
    @given(shared=sync_items, sender_only=sync_items,
           receiver_only=sync_items, removal=st.integers(0, 40),
           late=sync_items)
    def test_gated_handler_equals_ungated_loop(
            self, shared, sender_only, receiver_only, removal, late):
        sender, gated = sync_pair(shared, sender_only, receiver_only)
        _twin, ungated = sync_pair(shared, sender_only, receiver_only)

        def push_both():
            push(sender, gated)
            ungated_sync_push(ungated, flattened(sender))
            assert replica_state(gated) == replica_state(ungated)
            assert sender.sync_snapshot()[1] == tuple(flattened(sender))
            for peer in (sender, gated, ungated):
                assert_db_mirrors_store(peer)

        push_both()
        # every kind of write at the sender after a push built its
        # snapshot must reach the digest and the items of the next one
        for key, value in late:
            sender.local_insert(key, value)
        push_both()
        held = flattened(sender)
        if held:
            bits, value = held[removal % len(held)]
            sender.local_remove(Key(bits), value)
        push_both()

    def test_equal_stores_skip_the_merge_loop(self, monkeypatch):
        items = [(SYNC_KEYS[0], SYNC_VALUES[0]), (SYNC_KEYS[0], SYNC_VALUES[0]),
                 (SYNC_KEYS[1], SYNC_VALUES[1]), (SYNC_KEYS[2], SYNC_VALUES[7])]
        sender, receiver = sync_pair(items[:2], items[2:], items[:1:-1])
        merges = count_calls(monkeypatch, PGridPeer, "local_merge")
        push(sender, receiver)
        assert merges[0] == 0  # same multiset, different insert order
        receiver._handle_sync_push(Message(
            "sync_push", "sender", "receiver", {"items": flattened(sender)}))
        assert merges[0] == len(items)  # no digest: the plain loop

    def test_removal_after_a_skipped_push_is_repaired_again(self):
        items = [(SYNC_KEYS[0], SYNC_VALUES[0]), (SYNC_KEYS[1], SYNC_VALUES[1])]
        sender, receiver = sync_pair(items, [], [])
        push(sender, receiver)  # equal digests: skipped
        assert receiver.maintenance_stats.values_repaired == 0
        receiver.local_remove(*items[0])
        assert receiver.db.all_triples() == [SYNC_VALUES[1]]
        push(sender, receiver)
        assert receiver.maintenance_stats.values_repaired == 1
        assert receiver.local_retrieve(SYNC_KEYS[0]) == [SYNC_VALUES[0]]
        assert len(receiver.db.all_triples()) == 2

    def test_unhashable_values_fall_back_to_the_merge_loop(self):
        network = SimNetwork()
        sender = PGridPeer("sender", Key(""))
        receiver = PGridPeer("receiver", Key(""))
        network.attach(sender)
        network.attach(receiver)
        sender.local_insert(Key("0"), ["a", "list"])
        assert sender.sync_snapshot()[0] is None
        push(sender, receiver)
        push(sender, receiver)
        assert receiver.store == {"0": [["a", "list"]]}
        assert receiver.maintenance_stats.values_repaired == 1


class TestPrefixPatternQueries:
    def test_prefix_literal_detection(self):
        from repro.rdf.terms import Literal
        assert Literal("Asp%").is_prefix_pattern
        assert not Literal("%Asp%").is_prefix_pattern
        assert not Literal("Asp").is_prefix_pattern
        assert Literal("Asp%").prefix_needle == "Asp"

    def test_prefix_routing_mode(self):
        from repro.rdf.patterns import TriplePattern
        from repro.rdf.terms import Literal, URI, Variable
        exact = TriplePattern(Variable("x"), URI("S#p"), Literal("Asp%"))
        assert exact.routing_mode() == "exact"  # predicate wins
        only_prefix = TriplePattern(Variable("x"), Variable("p"),
                                    Literal("Asp%"))
        assert only_prefix.routing_mode() == "prefix"

    def test_mediation_prefix_search(self):
        from repro import GridVineNetwork, Literal, Schema, Triple, URI
        from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
        from repro.rdf.terms import Variable
        net = GridVineNetwork.build(num_peers=32, seed=14)
        schema = Schema("S", ["org"], domain="x")
        net.insert_schema(schema)
        net.insert_triples([
            Triple(URI("S:1"), URI("S#org"), Literal("Aspergillus niger")),
            Triple(URI("S:2"), URI("S#org"), Literal("Aspergillus oryzae")),
            Triple(URI("S:3"), URI("S#org"), Literal("Saccharomyces")),
        ])
        net.settle()
        x = Variable("x")
        query = ConjunctiveQuery(
            [TriplePattern(x, Variable("p"), Literal("Aspergillus%"))], [x])
        out = net.search_for(query, strategy="local")
        assert {str(r[0]) for r in out.results} == {"<S:1>", "<S:2>"}

    def test_prefix_and_exact_agree(self):
        from repro import GridVineNetwork, Literal, Schema, Triple, URI
        from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
        from repro.rdf.terms import Variable
        net = GridVineNetwork.build(num_peers=24, seed=15)
        schema = Schema("S", ["org"], domain="x")
        net.insert_schema(schema)
        triples = [
            Triple(URI(f"S:{i}"), URI("S#org"),
                   Literal(f"Aspergillus strain {i}"))
            for i in range(10)
        ]
        net.insert_triples(triples)
        net.settle()
        x = Variable("x")
        via_predicate = net.search_for(ConjunctiveQuery(
            [TriplePattern(x, URI("S#org"), Literal("Aspergillus%"))],
            [x]), strategy="local")
        via_range = net.search_for(ConjunctiveQuery(
            [TriplePattern(x, Variable("p"), Literal("Aspergillus%"))],
            [x]), strategy="local")
        assert via_predicate.results == via_range.results
