"""Failure-injection tests for the mediation layer's query paths."""

import pytest

from repro.mediation.keys import schema_key, term_key
from repro.mediation.network import GridVineNetwork
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema


# NOTE on key geography: the order-preserving hash clusters related
# names — a schema's record and all of its predicate data share the
# schema-name prefix and therefore co-locate on the same peer(s) at
# laptop trie depths.  The two test schemas are named "Alpha" and
# "Zulu" so that *their* key spaces separate at the first trie level,
# letting the tests kill one schema's world while the other survives.
def deploy(num_peers=24, seed=61, **kwargs):
    kwargs.setdefault("timeout", 4.0)
    kwargs.setdefault("max_retries", 1)
    net = GridVineNetwork.build(num_peers=num_peers, seed=seed, **kwargs)
    for peer in net.peers.values():
        peer.query_timeout = 30.0
    alpha = Schema("Alpha", ["organism"], domain="f")
    zulu = Schema("Zulu", ["species"], domain="f")
    net.insert_schema(alpha)
    net.insert_schema(zulu)
    net.insert_triples([
        Triple(URI("Alpha:1"), URI("Alpha#organism"),
               Literal("Aspergillus niger")),
        Triple(URI("Zulu:1"), URI("Zulu#species"),
               Literal("Aspergillus oryzae")),
    ])
    net.create_mapping(alpha, zulu, [("organism", "species")])
    net.settle()
    return net


QUERY = "SearchFor(x? : (x?, Alpha#organism, %Aspergillus%))"


def kill_owners(net, key, keep_origin):
    killed = []
    for node_id, peer in net.peers.items():
        if peer.is_responsible_for(key) and node_id != keep_origin:
            net.network.set_online(node_id, False)
            killed.append(node_id)
    return killed


class TestRecursiveTimeout:
    def test_dead_source_schema_peer_times_out_incomplete(self):
        net = deploy()
        origin = net.peer_ids()[0]
        killed = kill_owners(net, schema_key("Alpha"), origin)
        if not killed:
            pytest.skip("origin owns the schema key space")
        out = net.search_for(QUERY, strategy="recursive", origin=origin)
        assert not out.complete  # timeout admitted, not a hang
        assert out.latency == pytest.approx(30.0, rel=0.01)

    def test_dead_target_schema_world_gives_partial_results(self):
        net = deploy()
        origin = net.peer_ids()[0]
        killed = kill_owners(net, schema_key("Zulu"), origin)
        alpha_alive = all(
            net.network.is_online(n)
            for n in net.peer_ids()
            if net.peer(n).is_responsible_for(schema_key("Alpha")))
        if not killed or not alpha_alive:
            pytest.skip("topology degenerate for this scenario")
        out = net.search_for(QUERY, strategy="recursive", origin=origin)
        # the Alpha side still answers; the Zulu reformulation is lost
        assert {str(r[0]) for r in out.results} == {"<Alpha:1>"}
        assert not out.complete


class TestIterativeDegradation:
    def test_dead_data_peer_yields_empty_pattern_results(self):
        net = deploy()
        origin = net.peer_ids()[0]
        key = term_key(URI("Alpha#organism"))
        killed = kill_owners(net, key, origin)
        if not killed:
            pytest.skip("origin owns the data key space")
        out = net.search_for(QUERY, strategy="iterative", origin=origin)
        # failed pattern lookups resolve to empty sets, not hangs
        assert all("Alpha" not in str(r[0]) for r in out.results)

    def test_iterative_partial_when_target_world_dead(self):
        net = deploy()
        origin = net.peer_ids()[0]
        killed = kill_owners(net, schema_key("Zulu"), origin)
        if not killed:
            pytest.skip("origin owns the schema key space")
        out = net.search_for(QUERY, strategy="iterative", origin=origin)
        # Alpha's mappings fetched fine, so the Zulu reformulation was
        # explored — but its data lookup failed to an empty set; the
        # Alpha side still answers and the future resolves
        assert out.reformulations_explored == 1
        assert {str(r[0]) for r in out.results} == {"<Alpha:1>"}


class TestRecoveryAfterFailures:
    def test_results_return_after_peers_recover(self):
        net = deploy()
        origin = net.peer_ids()[0]
        killed = kill_owners(net, schema_key("Zulu"), origin)
        if not killed:
            pytest.skip("origin owns the key space")
        degraded = net.search_for(QUERY, strategy="iterative",
                                  origin=origin)
        for node_id in killed:
            net.network.set_online(node_id, True)
        recovered = net.search_for(QUERY, strategy="iterative",
                                   origin=origin)
        assert recovered.result_count >= degraded.result_count
        assert recovered.result_count == 2
