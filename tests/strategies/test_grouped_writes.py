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
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faultlab import FaultPlan, MessageDrop
from repro.faultlab.injector import install_plan
from repro.mediation.keys import triple_keys
from repro.simnet.shard import ShardedTransport, SingleLoopEngine

from strategies import SLOW_SETTINGS, deploy_upload_case, upload_cases

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
