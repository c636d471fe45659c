"""A split read returns what per-key reads would, for each of its ops.

An engine batch starts a wave's exact-routed scans as one overlay read
(``search``) that splits where their keys diverge.  Whatever the trie
and however the batch's patterns share keys, every scan gets exactly
the rows a peer responsible for its key holds (``db.match``, which is
the same at every responsible peer here), once, and the batch's fetch
statistics are those of one scan per distinct pattern.  A
``retrieve_many`` (``retrieve``) answers every key, once and in the
order asked, with the values a responsible peer's ``local_retrieve``
holds, and so does a one-key ``retrieve`` per key — the same split
read with one key.  When routes and replies are lost for a while,
every scan and every key still gets its answer: a key no report
answered is re-sent on its own.  Checked on the single loop and on two
inline shards.
"""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.signature import canonicalize_pattern
from repro.exec.operators import PatternScan
from repro.faultlab import FaultPlan, MessageDrop
from repro.faultlab.injector import install_plan
from repro.mediation.keys import term_key, triple_keys
from repro.rdf.patterns import ConjunctiveQuery
from repro.reformulation.planner import Reformulation
from repro.simnet.shard import ShardedTransport, SingleLoopEngine

from strategies import SLOW_SETTINGS, deploy_read_case, read_cases

ENGINES = {
    "single-loop": lambda seed: SingleLoopEngine(seed=seed),
    "2-shards": lambda seed: ShardedTransport(2, seed=seed),
}

#: virtual seconds of message loss after the fault plan is installed:
#: below the peers' 15 s timeout, so every re-sent key is delivered
LOSSY_WINDOW = 10.0


def lossy(transport, case, loss) -> None:
    """Drop routes and replies with probability ``loss`` for
    :data:`LOSSY_WINDOW` virtual seconds."""
    install_plan(transport, FaultPlan(seed=case.trie.seed, faults=(
        MessageDrop(kinds=("route", "reply"), probability=loss,
                    until=LOSSY_WINDOW),)))


def oracle(net, pattern) -> list:
    """The rows of ``pattern`` at a peer responsible for its key."""
    key = term_key(pattern.routing_constant())
    for peer in net.peers.values():
        if peer.is_responsible_for(key):
            return peer.db.match(pattern)
    return []


def read_batch(net, case):
    """Run the case's batch, one single-pattern query per pattern;
    returns the fetch statistics and every scan's delivered rows."""
    queries = [ConjunctiveQuery([pattern], pattern.schema)
               for pattern in case.batch]
    delivered: list = []
    real_deliver = PatternScan.deliver

    def recording_deliver(scan, rows):
        delivered.append((scan.pattern, list(rows)))
        real_deliver(scan, rows)

    with mock.patch.object(PatternScan, "deliver", recording_deliver):
        _outcomes, stats, _messages = net.run_batch(
            net.peers[net.peer_ids()[case.origin]], queries,
            [[Reformulation(query)] for query in queries])
    return stats, delivered


def assert_per_scan_oracle(net, case, stats, delivered) -> None:
    scans = list(dict.fromkeys(canonicalize_pattern(pattern)[0]
                               for pattern in case.batch))
    assert sorted(delivered, key=repr) == sorted(
        ((scan, oracle(net, scan)) for scan in scans), key=repr)
    assert stats.snapshot() == {
        "patterns_total": len(case.batch),
        "patterns_fetched": len(scans),
        "scans_issued": len(scans),
        "scans_skipped": 0,
        "limits_hit": 0,
        "lookups_saved": len(case.batch) - len(scans),
    }


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=read_cases())
def test_batch_reads_equal_the_per_scan_oracle(engine, case):
    with ENGINES[engine](case.trie.seed) as transport:
        net = deploy_read_case(case, transport)
        stats, delivered = read_batch(net, case)
        assert_per_scan_oracle(net, case, stats, delivered)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=read_cases(),
       loss=st.floats(min_value=0.2, max_value=0.6))
def test_lossy_batch_reads_are_repaired_to_the_oracle(engine, case, loss):
    with ENGINES[engine](case.trie.seed) as transport:
        net = deploy_read_case(case, transport)
        lossy(transport, case, loss)
        stats, delivered = read_batch(net, case)
        assert_per_scan_oracle(net, case, stats, delivered)


def retrieve_keys(case) -> list:
    """The batch's routing keys, then every key of the corpus: keys
    with values and without, some of them repeated."""
    return ([term_key(pattern.routing_constant()) for pattern in case.batch]
            + [key for triple in case.corpus for key in triple_keys(triple)])


def read_many_at_once(net, origin, keys) -> dict:
    """Every key in one ``retrieve_many``."""
    values, _messages = net.call("retrieve_many", keys, origin=origin)
    return values


def read_one_by_one(net, origin, keys) -> dict:
    """Every key in a one-key ``retrieve`` of its own, repeats too."""
    values: dict = {}
    for key in keys:
        result, _messages = net.call("retrieve", key, origin=origin)
        assert result.success and result.key == key
        assert values.setdefault(key, result.values) == result.values
    return values


def assert_per_key_oracle(net, case, read=read_many_at_once) -> None:
    keys = retrieve_keys(case)
    values = read(net, net.peer_ids()[case.origin], keys)
    assert list(values) == list(dict.fromkeys(keys))
    for key, answer in values.items():
        holder = next(peer for peer in net.peers.values()
                      if peer.is_responsible_for(key))
        assert answer == holder.local_retrieve(key)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=read_cases())
def test_retrieve_many_equals_the_per_key_oracle(engine, case):
    with ENGINES[engine](case.trie.seed) as transport:
        assert_per_key_oracle(deploy_read_case(case, transport), case)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=read_cases(),
       loss=st.floats(min_value=0.2, max_value=0.6))
def test_lossy_retrieve_many_is_repaired_to_the_oracle(engine, case, loss):
    with ENGINES[engine](case.trie.seed) as transport:
        net = deploy_read_case(case, transport)
        lossy(transport, case, loss)
        assert_per_key_oracle(net, case)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=read_cases())
def test_one_key_retrieves_equal_the_per_key_oracle(engine, case):
    with ENGINES[engine](case.trie.seed) as transport:
        assert_per_key_oracle(deploy_read_case(case, transport), case,
                              read_one_by_one)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@SLOW_SETTINGS
@given(case=read_cases(),
       loss=st.floats(min_value=0.2, max_value=0.6))
def test_lossy_one_key_retrieves_are_repaired_to_the_oracle(engine, case,
                                                           loss):
    with ENGINES[engine](case.trie.seed) as transport:
        net = deploy_read_case(case, transport)
        lossy(transport, case, loss)
        assert_per_key_oracle(net, case, read_one_by_one)
