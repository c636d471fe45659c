"""Tests for P-Grid routing: Retrieve/Update correctness and bounds."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgrid.overlay import PGridOverlay
from repro.simnet.churn import ChurnProcess
from repro.util.hashing import order_preserving_hash, uniform_hash
from repro.util.keys import Key


def build(n, **kwargs):
    kwargs.setdefault("seed", 11)
    return PGridOverlay.build(n, **kwargs)


class TestUpdateRetrieve:
    def test_round_trip(self):
        overlay = build(8)
        key = uniform_hash("some-key")
        origin = overlay.peer_ids()[0]
        result = overlay.update_sync(origin, key, "payload")
        assert result.success
        got = overlay.retrieve_sync(overlay.peer_ids()[3], key)
        assert got.success
        assert got.values == ["payload"]

    def test_retrieve_missing_key_returns_empty(self):
        overlay = build(8)
        got = overlay.retrieve_sync(
            overlay.peer_ids()[0], uniform_hash("never-inserted"))
        assert got.success
        assert got.values == []

    def test_multiple_values_accumulate(self):
        overlay = build(8)
        key = uniform_hash("k")
        origin = overlay.peer_ids()[0]
        overlay.update_sync(origin, key, "a")
        overlay.update_sync(origin, key, "b")
        got = overlay.retrieve_sync(origin, key)
        assert sorted(got.values) == ["a", "b"]

    def test_remove_deletes_value(self):
        overlay = build(8)
        key = uniform_hash("k")
        origin = overlay.peer_ids()[0]
        overlay.update_sync(origin, key, "a")
        overlay.update_sync(origin, key, "b")
        overlay.update_sync(origin, key, "a", action="remove")
        got = overlay.retrieve_sync(origin, key)
        assert got.values == ["b"]

    def test_unknown_action_rejected(self):
        overlay = build(4)
        with pytest.raises(ValueError):
            overlay.peers[overlay.peer_ids()[0]].update(
                Key("0"), "x", action="upsert")

    def test_value_lands_on_responsible_peer(self):
        overlay = build(16)
        key = uniform_hash("where-does-it-go")
        overlay.update_sync(overlay.peer_ids()[0], key, "v")
        owners = overlay.responsible_peers(key)
        assert owners
        for owner in owners:
            assert overlay.peer(owner).local_retrieve(key) == ["v"]

    def test_replication_copies_to_whole_group(self):
        overlay = build(12, replication=3)
        key = uniform_hash("replicated")
        overlay.update_sync(overlay.peer_ids()[0], key, "v")
        overlay.loop.run_until_idle()  # let replicate messages land
        owners = overlay.responsible_peers(key)
        assert len(owners) == 3
        for owner in owners:
            assert overlay.peer(owner).local_retrieve(key) == ["v"]

    def test_hop_count_bounded_by_max_depth(self):
        overlay = build(64)
        max_depth = max(overlay.trie_depths())
        origin = overlay.peer_ids()[0]
        for i in range(30):
            result = overlay.retrieve_sync(
                origin, uniform_hash(f"probe-{i}"))
            assert result.success
            assert result.hops <= max_depth

    def test_origin_responsible_means_zero_hops(self):
        overlay = build(8)
        origin = overlay.peer_ids()[0]
        peer = overlay.peer(origin)
        key = Key(peer.path.bits.ljust(128, "0"))
        result = overlay.retrieve_sync(origin, key)
        assert result.success
        assert result.hops == 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 40), st.text(
        alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
        min_size=1, max_size=20))
    def test_any_peer_retrieves_any_inserted_key(self, n, data):
        overlay = build(n)
        key = order_preserving_hash(data)
        ids = overlay.peer_ids()
        assert overlay.update_sync(ids[0], key, data).success
        got = overlay.retrieve_sync(ids[-1], key)
        assert got.success
        assert data in got.values


class TestPrefixRetrieve:
    def test_prefix_retrieve_finds_extensions(self):
        overlay = build(8)
        origin = overlay.peer_ids()[0]
        base = order_preserving_hash("EMBL#Organism")
        overlay.update_sync(origin, base, "v1")
        # a nearby key sharing a long prefix
        sibling = order_preserving_hash("EMBL#Organisn")
        overlay.update_sync(origin, sibling, "v2")
        depth = max(overlay.trie_depths())
        prefix = base.prefix(max(depth, 20))
        result = overlay.loop.run_until_complete(
            overlay.peer(origin).range_query(prefix))
        assert result.success
        assert "v1" in result.values


class TestChurnResilience:
    def test_retries_through_replicas_under_churn(self):
        overlay = build(24, replication=3, timeout=5.0, max_retries=4)
        origin = overlay.peer_ids()[0]
        keys = [uniform_hash(f"key-{i}") for i in range(20)]
        for i, key in enumerate(keys):
            overlay.update_sync(origin, key, f"value-{i}")
        overlay.loop.run_until_idle()
        churn = ChurnProcess(overlay.network, mean_uptime=120.0,
                             mean_downtime=20.0, rng=random.Random(5),
                             protected={origin})
        churn.start()
        successes = 0
        for key in keys:
            result = overlay.retrieve_sync(origin, key)
            if result.success and result.values:
                successes += 1
        churn.stop()
        # Probabilistic guarantee: the vast majority must succeed.
        assert successes >= 17

    def test_failure_reported_when_owners_dead(self):
        overlay = build(8, timeout=2.0, max_retries=1)
        key = uniform_hash("lost")
        origin = overlay.peer_ids()[0]
        overlay.update_sync(origin, key, "v")
        owners = overlay.responsible_peers(key)
        if origin in owners:
            pytest.skip("origin owns the key; cannot simulate loss")
        for owner in owners:
            overlay.network.set_online(owner, False)
        result = overlay.retrieve_sync(origin, key)
        assert not result.success
        # base attempts (max_retries + 1) plus the failover budget
        # granted while untried first-hop alternates remain
        peer = overlay.peer(origin)
        assert 2 <= result.attempts <= 2 + peer.failover_retries

    def test_failure_attempts_exact_without_failover(self):
        overlay = build(8, timeout=2.0, max_retries=1)
        for peer in overlay.peers.values():
            peer.failover = False
        key = uniform_hash("lost")
        origin = overlay.peer_ids()[0]
        overlay.update_sync(origin, key, "v")
        owners = overlay.responsible_peers(key)
        if origin in owners:
            pytest.skip("origin owns the key; cannot simulate loss")
        for owner in owners:
            overlay.network.set_online(owner, False)
        result = overlay.retrieve_sync(origin, key)
        assert not result.success
        assert result.attempts == 2

    def test_failover_skips_dead_reference_at_every_hop(self):
        """With failover on, a retrieve succeeds as long as one replica
        of every subtree on the path is alive: dead references are
        skipped at forwarding time instead of eating a timeout."""
        overlay = build(24, replication=3, timeout=5.0, max_retries=1)
        origin = overlay.peer_ids()[0]
        key = uniform_hash("precious")
        overlay.update_sync(origin, key, "v")
        overlay.loop.run_until_idle()
        owners = overlay.responsible_peers(key)
        if origin in owners:
            pytest.skip("origin owns the key; cannot simulate loss")
        # Kill all but one owner: failover must find the survivor.
        for owner in owners[:-1]:
            overlay.network.set_online(owner, False)
        result = overlay.retrieve_sync(origin, key)
        assert result.success
        assert "v" in result.values


class TestLoadBalancing:
    def test_sample_driven_overlay_spreads_skewed_load(self):
        rng = random.Random(0)
        # Skewed key population: all keys sit in the narrow band of
        # two-letter-alphabet strings, diverging within a few chars.
        keys = [
            order_preserving_hash(
                "".join(rng.choice("no") for _ in range(10)))
            for _ in range(300)
        ]
        adapted = PGridOverlay.build(16, key_sample=keys, seed=3)
        uniform = PGridOverlay.build(16, seed=3)
        for overlay in (adapted, uniform):
            origin = overlay.peer_ids()[0]
            for i, key in enumerate(rng.sample(keys, 150)):
                overlay.update_sync(origin, key, i)
        adapted_max, uniform_max = (
            max(p.storage_load() for p in overlay.peers.values())
            for overlay in (adapted, uniform))
        assert adapted_max < uniform_max
