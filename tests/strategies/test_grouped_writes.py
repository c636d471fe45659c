"""Split uploads store exactly what per-triple updates would.

An upload groups its triples by key and sends the groups as one overlay
write that splits where the keys diverge.  Whatever the corpus repeats
and however the overlay is shaped, after ``settle`` every peer holds
the oracle: each uploaded triple under each of its three keys, at every
peer whose path prefixes that key, once per publication, and the
removed triples under none.  Its triple database counts exactly those
copies.  When routes and replies are lost for a while, every key still
succeeds — a key no report confirmed is re-sent on its own — and every
peer holds the oracle's pairs, some of them more than once: delivery is
at least once.  Checked on the single loop and on two inline shards.

A peer applies a write in one call: a write of triples enters the
database in one ``TripleStore.add``, and a write holding records is
dispatched value by value in key order.  For drawn writes mixing
triples and records, that apply ends
in exactly the state of the per-key apply kept here as the reference
(one database add per key of triples, any other key value by value):
the same buckets in order, database copies in order, version, digest,
registries, published connectivity and messages sent, each message
sent while the database held the same version.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faultlab import FaultPlan, MessageDrop
from repro.faultlab.injector import install_plan
from repro.mediation.keys import triple_keys
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.shard import ShardedTransport, SingleLoopEngine
from repro.util.keys import Key

from strategies import (
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
    deploy_upload_case,
    mixed_writes,
    upload_cases,
)

ENGINES = {
    "single-loop": lambda seed: SingleLoopEngine(seed=seed),
    "2-shards": lambda seed: ShardedTransport(2, seed=seed),
}

#: virtual seconds of message loss after the fault plan is installed:
#: below the peers' 15 s timeout, so every re-sent key is delivered
LOSSY_WINDOW = 10.0


def oracle(case, peer) -> Counter:
    """``(key bits, triple)`` copies ``peer`` must hold."""
    removed = {triple for _origin, triple in case.removals}
    return Counter(
        (key.bits, triple)
        for _origin, batch in case.uploads for triple in batch
        if triple not in removed
        for key in triple_keys(triple) if peer.is_responsible_for(key))


def stored(peer) -> Counter:
    """``(key bits, value)`` copies in ``peer``'s store."""
    return Counter((bits, value)
                   for bits, values in peer.store.items()
                   for value in values)


def upload_and_remove(net, case) -> None:
    """Run the case's uploads, then its removals; every key of every
    write must succeed."""
    ids = net.peer_ids()
    for origin, batch in case.uploads:
        results, _messages = net.call("insert_triples", list(batch),
                                      origin=ids[origin])
        assert all(result.success for result in results)
    net.settle()
    for origin, triple in case.removals:
        results, _messages = net.call("remove_triple", triple,
                                      origin=ids[origin])
        assert all(result.success for result in results)
    net.settle()


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=upload_cases())
def test_grouped_uploads_store_the_per_triple_oracle(engine, case):
    with ENGINES[engine](case.seed) as transport:
        net = deploy_upload_case(case, transport)
        upload_and_remove(net, case)
        for peer in net.peers.values():
            expected = oracle(case, peer)
            assert stored(peer) == expected
            copies: Counter = Counter()
            for (_bits, triple), count in expected.items():
                copies[triple] += count
            assert peer.db.all_triples() == sorted(copies)
            assert peer.db._copies == copies


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=upload_cases(),
       loss=st.floats(min_value=0.2, max_value=0.6))
def test_lossy_uploads_are_repaired_to_the_oracle(engine, case, loss):
    with ENGINES[engine](case.seed) as transport:
        net = deploy_upload_case(case, transport)
        install_plan(transport, FaultPlan(seed=case.seed, faults=(
            MessageDrop(kinds=("route", "reply"), probability=loss,
                        until=LOSSY_WINDOW),)))
        upload_and_remove(net, case)
        for peer in net.peers.values():
            copies = stored(peer)
            assert set(copies) == set(oracle(case, peer))
            held: Counter = Counter()
            for (_bits, triple), count in copies.items():
                held[triple] += count
            assert peer.db._copies == held


# -- one peer's apply ----------------------------------------------------

def reference_write(peer, action: str, groups: dict) -> None:
    """The per-key apply: one database add per key of triples, any
    other key's values dispatched one by one."""
    if action == "remove":
        for bits, values in groups.items():
            key = Key.of(bits)
            for value in values:
                peer.local_remove(key, value)
        return
    for bits, values in groups.items():
        if all(type(value) is Triple for value in values):
            if values:
                peer.store.setdefault(bits, []).extend(values)
                peer._sync_snapshot = None
            peer.db.add(*values)
            continue
        for value in values:
            if isinstance(value, ConnectivityRecord):
                bucket = peer.store.setdefault(bits, [])
                held = next((index for index, stored in enumerate(bucket)
                             if isinstance(stored, ConnectivityRecord)
                             and stored.schema_name == value.schema_name),
                            None)
                if held is not None:
                    if bucket[held].version >= value.version:
                        continue
                    del bucket[held]
                bucket.append(value)
                peer._sync_snapshot = None
                continue
            peer.store.setdefault(bits, []).append(value)
            peer._sync_snapshot = None
            if isinstance(value, Triple):
                peer.db.add(value)
            elif isinstance(value, Schema):
                peer.local_schemas[value.name] = value
                peer._republish_connectivity(value.name)
            elif isinstance(value, MappingRecord):
                peer.local_mappings[value.mapping.mapping_id] = value.mapping
                peer._mapping_stats_version += 1
                peer._republish_connectivity(value.mapping.source_schema)
            elif isinstance(value, IncomingMappingRecord):
                peer.incoming_mappings[value.mapping.mapping_id] = (
                    value.mapping)
                peer._republish_connectivity(value.mapping.target_schema)


def record_sends(peer) -> list:
    """Every message sent from now on, with the database version
    ``peer`` held when it left."""
    sent: list = []
    network = peer.network
    send = network.send

    def recording(message) -> None:
        sent.append((message.kind, message.src, message.dst,
                     message.payload, message.hops, message.carried,
                     peer.db.version))
        send(message)

    network.send = recording
    return sent


def peer_state(peer) -> tuple:
    """Everything a write may change at ``peer``, order included."""
    return (
        [(bits, list(values)) for bits, values in peer.store.items()],
        list(peer.db._copies.items()),
        peer.db.version,
        peer.synopsis_digest(),
        list(peer.local_schemas.items()),
        list(peer.local_mappings.items()),
        list(peer.incoming_mappings.items()),
        list(peer._published_connectivity.items()),
    )


@STANDARD_SETTINGS
@given(num_peers=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**16),
       origin=st.integers(min_value=0, max_value=5),
       writes=mixed_writes())
def test_a_write_applies_as_the_per_key_reference(num_peers, seed, origin,
                                                  writes):
    case = SimpleNamespace(num_peers=num_peers, replication=2,
                           refs_per_level=2, seed=seed)
    with SingleLoopEngine(seed=seed) as applied, \
            SingleLoopEngine(seed=seed) as referenced:
        peer = deploy_upload_case(case, applied).peers[
            f"peer-{origin % num_peers}"]
        reference = deploy_upload_case(case, referenced).peers[peer.node_id]
        # Nested applies (a republish routed back to the peer) take
        # the reference path too.
        reference._write_local = (
            lambda action, groups: reference_write(reference, action,
                                                   groups))
        sent, expected = record_sends(peer), record_sends(reference)
        for action, groups in writes:
            peer._write_local(action, groups)
            reference._write_local(action, groups)
            assert peer_state(peer) == peer_state(reference)
            assert sent == expected
