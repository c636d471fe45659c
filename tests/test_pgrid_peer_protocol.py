"""Protocol-level unit tests for PGridPeer internals."""

import pytest

from repro.pgrid.overlay import PGridOverlay
from repro.pgrid.peer import PGridPeer
from repro.simnet.events import CancelToken, SimulationError
from repro.simnet.network import Message, SimNetwork
from repro.util.hashing import uniform_hash
from repro.util.keys import Key


class TestLocalStore:
    def make_peer(self):
        peer = PGridPeer("p", Key("0"))
        network = SimNetwork()
        network.attach(peer)
        return peer

    def test_insert_retrieve_remove_cycle(self):
        peer = self.make_peer()
        key = Key("0101")
        peer.local_insert(key, "a")
        peer.local_insert(key, "b")
        assert peer.local_retrieve(key) == ["a", "b"]
        assert peer.local_remove(key, "a") == 1
        assert peer.local_retrieve(key) == ["b"]
        assert peer.local_remove(key, "zz") == 0

    def test_remove_all_equal_copies(self):
        peer = self.make_peer()
        key = Key("0101")
        peer.local_insert(key, "x")
        peer.local_insert(key, "x")
        assert peer.local_remove(key, "x") == 2
        assert peer.local_retrieve(key) == []

    def test_empty_bucket_cleaned_up(self):
        peer = self.make_peer()
        key = Key("0101")
        peer.local_insert(key, "x")
        peer.local_remove(key, "x")
        assert key.bits not in peer.store

    def test_local_merge_dedupes(self):
        peer = self.make_peer()
        key = Key("0101")
        assert peer.local_merge(key, "v") is True
        assert peer.local_merge(key, "v") is False
        assert peer.local_retrieve(key) == ["v"]

    def test_local_retrieve_prefix(self):
        peer = self.make_peer()
        peer.local_insert(Key("0101"), "a")
        peer.local_insert(Key("0110"), "b")
        peer.local_insert(Key("0011"), "c")
        assert sorted(peer.local_retrieve_prefix(Key("01"))) == ["a", "b"]

    def test_storage_load(self):
        peer = self.make_peer()
        peer.local_insert(Key("01"), "a")
        peer.local_insert(Key("01"), "b")
        peer.local_insert(Key("00"), "c")
        assert peer.storage_load() == 3

    def test_responsibility(self):
        peer = self.make_peer()
        assert peer.is_responsible_for(Key("0111"))
        assert not peer.is_responsible_for(Key("1000"))


class TestMessageHandling:
    def test_unknown_kind_raises(self):
        peer = PGridPeer("p", Key("0"))
        network = SimNetwork()
        network.attach(peer)
        with pytest.raises(ValueError):
            peer.on_message(Message(kind="gossip", src="q", dst="p"))

    def test_unknown_op_raises(self):
        peer = PGridPeer("p", Key("0"))
        with pytest.raises(ValueError):
            peer._execute_op("mystery", Key("01"), None)

    def test_probe_is_acked(self):
        network = SimNetwork()
        a = PGridPeer("a", Key("0"))
        b = PGridPeer("b", Key("1"))
        network.attach(a)
        network.attach(b)
        a._probe_pending["t1"] = (0, "b")
        a.send("b", "probe", {"token": "t1"})
        network.loop.run_until_idle()
        assert "t1" not in a._probe_pending  # ack cleared it

    def test_replicate_applies_without_reply(self):
        network = SimNetwork()
        a = PGridPeer("a", Key("0"))
        b = PGridPeer("b", Key("0"))
        network.attach(a)
        network.attach(b)
        a.send("b", "replicate", {"op": "insert", "groups": {
            "0101": ("v", "w"), "0110": ("x",)}})
        network.loop.run_until_idle()
        assert b.local_retrieve(Key("0101")) == ["v", "w"]
        assert b.local_retrieve(Key("0110")) == ["x"]
        assert network.metrics.messages_by_kind.get("reply", 0) == 0

    def test_hop_ttl_drops_runaway_routes(self):
        network = SimNetwork()
        a = PGridPeer("a", Key("0"))
        network.attach(a)
        runaway = Message(kind="route", src="x", dst="a",
                          payload={"op": "retrieve", "op_id": "z",
                                   "key": "1" * 8, "origin": "x"},
                          hops=100)
        a.on_message(runaway)  # must not answer or forward
        network.loop.run_until_idle()
        assert network.metrics.messages_sent == 0


class TestDetachedPeer:
    """Every entry point of a detached peer refuses at once, with the
    error that names the peer, before it mints an id or arms a timer."""

    @pytest.mark.parametrize("issue", [
        "retrieve", "update", "update_many", "range_query", "read_many",
        "retrieve_many"])
    def test_an_operation_on_a_detached_peer_raises(self, issue):
        peer = PGridPeer("p", Key("0"))
        key = Key("01")
        issuers = {
            "retrieve": lambda: peer.retrieve(key),
            "update": lambda: peer.update(key, ("v",)),
            "update_many": lambda: peer.update_many({key: ("v",)}),
            "range_query": lambda: peer.range_query(Key("")),
            "read_many": lambda: peer.read_many(
                "retrieve", {key: None}, lambda _key, _values: None),
            "retrieve_many": lambda: peer.retrieve_many([key]),
        }
        with pytest.raises(SimulationError, match="node p is not attached"):
            issuers[issue]()
        assert peer._op_ids == 0


class TestEmptyRead:
    def test_an_empty_read_is_rejected_before_a_ledger_exists(self):
        """A read of no key raises at once: no ledger is registered and
        no timer armed, so the loop runs on clean."""
        from repro.mediation.network import GridVineNetwork

        net = GridVineNetwork.build(num_peers=8, seed=1, replication=2)
        peer = net.peer(net.peer_ids()[0])
        ids, answered = peer._op_ids, []
        with pytest.raises(ValueError, match="at least one key"):
            peer.read_many("retrieve", {}, answered.append)
        assert (peer._tasks, peer._op_ids, answered) == ({}, ids, [])
        net.settle()
        assert peer.retrieve_many([]).result() == {}


class TestCancelledRead:
    def test_a_read_cancelled_before_it_is_sent_fails_every_key(self):
        """A ``retrieve_many`` whose token fired first sends nothing,
        registers no ledger and reads every key as failed (empty),
        though each holds a value."""
        overlay = PGridOverlay.build(8, seed=3)
        origin = overlay.peer_ids()[0]
        keys = [uniform_hash(f"cancelled-{i}") for i in range(4)]
        for key in keys:
            assert overlay.update_sync(origin, key, f"v-{key}").success
        peer = overlay.peer(origin)
        token = CancelToken()
        token.cancel()
        sent, ids = overlay.network.metrics.messages_sent, peer._op_ids
        read = peer.retrieve_many(keys, cancel=token)
        assert read.done
        assert read.result() == {key: [] for key in keys}
        assert (peer._tasks, peer._op_ids) == ({}, ids)
        overlay.loop.run_until_idle()
        assert overlay.network.metrics.messages_sent == sent
        answered, messages = overlay.call("retrieve_many", keys,
                                          origin=origin)
        assert answered == {key: [f"v-{key}"] for key in keys}
        assert messages > 0


class TestOpResults:
    def test_failure_reports_attempts_and_latency(self):
        overlay = PGridOverlay.build(8, seed=20, timeout=2.0,
                                     max_retries=2)
        key = uniform_hash("dead-key")
        origin = overlay.peer_ids()[0]
        owners = overlay.responsible_peers(key)
        if origin in owners:
            pytest.skip("origin owns the key")
        for owner in owners:
            overlay.network.set_online(owner, False)
        result = overlay.retrieve_sync(origin, key)
        assert not result.success
        assert result.attempts == 3  # 1 try + 2 retries
        assert result.latency == pytest.approx(3 * 2.0, rel=0.01)

    def test_success_latency_matches_clock(self):
        overlay = PGridOverlay.build(8, seed=21)
        origin = overlay.peer_ids()[0]
        key = uniform_hash("timed")
        before = overlay.loop.now
        result = overlay.update_sync(origin, key, "v")
        assert result.success
        assert result.latency == pytest.approx(
            overlay.loop.now - before)

    def test_late_duplicate_reply_ignored(self):
        # A reply for an op that already completed must be a no-op.
        overlay = PGridOverlay.build(4, seed=22)
        origin = overlay.peer(overlay.peer_ids()[0])
        origin._complete({"op_id": "stale-op", "values": [],
                          "hops": 1})  # no pending entry: ignored


class TestBlacklistInRouting:
    def test_blacklisted_ref_avoided_when_alternative_exists(self):
        peer = PGridPeer("p", Key("0"))
        network = SimNetwork()
        network.attach(peer)
        peer.routing_table = [["good", "bad"]]
        peer.ref_blacklist["bad"] = 1_000.0  # far future
        picks = {peer._pick_reference(0) for _ in range(20)}
        assert picks == {"good"}

    def test_blacklist_expires(self):
        peer = PGridPeer("p", Key("0"))
        network = SimNetwork()
        network.attach(peer)
        peer.routing_table = [["only"]]
        peer.ref_blacklist["only"] = 0.0  # already expired at t=0
        assert peer._pick_reference(0) == "only"

    def test_all_blacklisted_falls_back_to_blind_pick(self):
        peer = PGridPeer("p", Key("0"))
        network = SimNetwork()
        network.attach(peer)
        peer.routing_table = [["a", "b"]]
        peer.ref_blacklist["a"] = 1_000.0
        peer.ref_blacklist["b"] = 1_000.0
        assert peer._pick_reference(0) in {"a", "b"}
