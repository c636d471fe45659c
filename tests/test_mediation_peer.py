"""Tests for GridVinePeer: mediation updates, search, degree records."""

import pytest

from repro.mediation.keys import domain_key, schema_key, triple_keys
from repro.mediation.network import GridVineNetwork
from repro.mediation.records import (
    ConnectivityRecord,
    MappingRecord,
)
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.schema.model import Schema


TRIPLE = Triple(URI("EMBL:A78712"), URI("EMBL#Organism"),
                Literal("Aspergillus niger"))


class TestTripleInsertion:
    def test_indexed_three_times(self, small_network):
        net = small_network
        origin = net.peer(net.peer_ids()[0])
        net.loop.run_until_complete(origin.insert_triple(TRIPLE))
        net.settle()
        for key in triple_keys(TRIPLE):
            owners = [p for p in net.peers.values()
                      if p.is_responsible_for(key)]
            assert owners
            for owner in owners:
                assert TRIPLE in owner.db

    def test_insertion_costs_three_updates(self, small_network):
        net = small_network
        origin = net.peer(net.peer_ids()[0])
        before = net.metrics_snapshot()["messages_by_kind"].get("route", 0)
        net.loop.run_until_complete(origin.insert_triple(TRIPLE))
        net.settle()
        routes = (net.metrics_snapshot()["messages_by_kind"].get("route", 0)
                  - before)
        # exactly 3 routed updates (some resolved locally cost 0
        # network messages, so routes <= 3 * max_hops but >= 0; the
        # op count is what we check instead)
        assert routes <= 3 * 12
        stored = sum(
            1 for peer in net.peers.values()
            for bucket in peer.store.values()
            for value in bucket
            if value == TRIPLE
        )
        assert stored == 3  # one copy per key (replication=1)

    def test_a_batch_resolves_flat_in_issue_order(self, small_network):
        net = small_network
        origin = net.peer(net.peer_ids()[0])
        batch = [TRIPLE, Triple(URI("EMP:N1"), URI("EMP#Length"),
                                Literal("1200"))]
        results = net.loop.run_until_complete(origin.insert_triples(batch))
        assert [r.key for r in results] == [
            key for triple in batch for key in triple_keys(triple)]
        assert all(r.success for r in results)
        single = net.loop.run_until_complete(origin.insert_triple(TRIPLE))
        assert [r.key for r in single] == triple_keys(TRIPLE)

    def test_remove_triple(self, small_network):
        net = small_network
        origin = net.peer(net.peer_ids()[0])
        net.loop.run_until_complete(origin.insert_triple(TRIPLE))
        net.settle()
        net.loop.run_until_complete(origin.remove_triple(TRIPLE))
        net.settle()
        for peer in net.peers.values():
            assert TRIPLE not in peer.db


class TestStoredCopies:
    """A peer holds a triple once per key it lands under there, and the
    triple database counts those copies instead of searching for them."""

    def test_removing_a_copy_compares_only_within_its_bucket(
            self, monkeypatch):
        net = GridVineNetwork.build(num_peers=1, seed=3)
        peer = net.peer(net.peer_ids()[0])  # responsible for every key
        target = Triple(URI("T:alone"), URI("T#alone"), Literal("alone"))
        net.insert_triples(
            [Triple(URI(f"S:e{i}"), URI(f"S#p{i % 7}"), Literal(f"v{i}"))
             for i in range(300)] + [target])
        net.settle()
        real_eq = Triple.__eq__
        compared = []

        def counting_eq(left, right):
            compared.append((left, right))
            return real_eq(left, right)

        monkeypatch.setattr(Triple, "__eq__", counting_eq)
        for removed, key in enumerate(triple_keys(target), start=1):
            bucket = list(peer.store[key.bits])
            (stored,) = bucket  # the target's terms are its own
            compared.clear()
            assert peer.local_remove(key, stored) == 1
            outside = [pair for pair in compared
                       if not all(any(operand is value for value in bucket)
                                  for operand in pair)]
            assert outside == []
            assert (target in peer.db) == (removed < 3)
        monkeypatch.undo()
        assert peer.db.count() == 300


class TestSchemaAndMappingPlacement:
    def test_schema_record_at_schema_key(self, small_network):
        net = small_network
        schema = Schema("EMBL", ["Organism"], domain="bio")
        net.insert_schema(schema)
        net.settle()
        key = schema_key("EMBL")
        for peer in net.peers.values():
            if peer.is_responsible_for(key):
                assert peer.local_schemas["EMBL"] == schema
                assert schema in peer.store[key.bits]

    def test_mapping_stored_at_source_key_space(self, fig2_network):
        net, embl, emp = fig2_network
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.settle()
        source_key = schema_key("EMBL")
        target_key = schema_key("EMP")
        for peer in net.peers.values():
            if peer.is_responsible_for(source_key):
                assert mapping.mapping_id in peer.local_mappings
            if peer.is_responsible_for(target_key):
                assert mapping.mapping_id in peer.incoming_mappings

    def test_bidirectional_mapping_stored_both_sides(self, fig2_network):
        net, embl, emp = fig2_network
        origin = net.peer(net.peer_ids()[0])
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        # create_mapping is directed; insert the reverse explicitly via
        # the bidirectional flag of insert_mapping
        net.loop.run_until_complete(
            origin.insert_mapping(mapping.reversed(), bidirectional=False))
        net.settle()
        mappings = net.fetch_mappings("EMP")
        assert any(m.source_schema == "EMP" for m in mappings)

    def test_fetch_mappings_filters_deprecated(self, fig2_network):
        net, embl, emp = fig2_network
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.settle()
        assert len(net.fetch_mappings("EMBL")) == 1
        net.deprecate_mapping(mapping)
        net.settle()
        assert net.fetch_mappings("EMBL") == []
        assert len(net.fetch_mappings(
            "EMBL", include_deprecated=True)) == 1


class TestConnectivityRecords:
    def test_schema_with_no_mappings_publishes_zero_degrees(
            self, small_network):
        net = small_network
        net.insert_schema(Schema("Solo", ["a"], domain="bio"))
        net.settle()
        records = net.connectivity_records("bio")
        assert records == [ConnectivityRecord("Solo", 0, 0)]

    def test_degrees_update_on_mapping_insert(self, fig2_network):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        records = {r.schema_name: r for r in net.connectivity_records("bio")}
        assert records["EMBL"].degree_pair == (0, 1)
        assert records["EMP"].degree_pair == (1, 0)

    def test_degrees_update_on_deprecation(self, fig2_network):
        net, embl, emp = fig2_network
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.settle()
        net.deprecate_mapping(mapping)
        net.settle()
        records = {r.schema_name: r for r in net.connectivity_records("bio")}
        assert records["EMBL"].degree_pair == (0, 0)
        assert records["EMP"].degree_pair == (0, 0)

    def test_one_record_per_schema_despite_updates(self, fig2_network):
        net, embl, emp = fig2_network
        m1 = net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        net.create_mapping(embl, emp, [("SeqLength", "Length")])
        net.settle()
        net.deprecate_mapping(m1)
        net.settle()
        records = net.connectivity_records("bio")
        assert len(records) == 2  # EMBL and EMP exactly once each

    def test_domain_key_space_holds_records(self, small_network):
        net = small_network
        net.insert_schema(Schema("S", ["a"], domain="mydomain"))
        net.settle()
        key = domain_key("mydomain")
        holders = [p for p in net.peers.values()
                   if p.is_responsible_for(key)]
        assert holders
        assert any(
            isinstance(v, ConnectivityRecord)
            for p in holders for v in p.store.get(key.bits, ())
        )


class TestSearch:
    def test_search_routes_by_most_specific_constant(self, fig2_network):
        net, _embl, _emp = fig2_network
        out = net.search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))",
            strategy="local")
        assert {str(r[0]) for r in out.results} == {
            "<EMBL:A78712>", "<EMBL:A78767>"}

    def test_subject_lookup(self, fig2_network):
        net, _embl, _emp = fig2_network
        out = net.search_for(
            "SearchFor(o? : (EMBL:A78712, EMBL#Organism, o?))",
            strategy="local")
        assert out.sorted_results() == [(Literal("Aspergillus niger"),)]

    def test_exact_object_constraint(self, fig2_network):
        net, _embl, _emp = fig2_network
        out = net.search_for(
            'SearchFor(x? : (x?, EMBL#Organism, "Aspergillus niger"))',
            strategy="local")
        assert out.sorted_results() == [(URI("EMBL:A78712"),)]

    def test_unroutable_query_raises_early(self, small_network):
        net = small_network
        from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
        query = ConjunctiveQuery(
            [TriplePattern(Variable("x"), Variable("p"), Variable("o"))],
            [Variable("x")])
        with pytest.raises(ValueError):
            net.search_for(query)

    def test_conjunctive_query_joins_on_shared_variable(self, small_network):
        net = small_network
        net.insert_triples([
            Triple(URI("e1"), URI("S#org"), Literal("Aspergillus")),
            Triple(URI("e1"), URI("S#len"), Literal("120")),
            Triple(URI("e2"), URI("S#org"), Literal("Aspergillus")),
        ])
        net.settle()
        out = net.search_for(
            "SearchFor(x?, y? : (x?, S#org, %Asp%) AND (x?, S#len, y?))",
            strategy="local")
        assert out.sorted_results() == [(URI("e1"), Literal("120"))]

    def test_query_outcome_metadata(self, fig2_network):
        net, _embl, _emp = fig2_network
        out = net.search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))",
            strategy="local")
        assert out.strategy == "local"
        assert out.latency >= 0.0
        assert out.complete
        assert out.result_count == 2


class TestGuidMinting:
    def test_guid_embeds_peer_path(self, small_network):
        net = small_network
        peer = net.peer(net.peer_ids()[0])
        guid = peer.mint_guid("my-schema")
        assert guid.startswith(f"{peer.path.bits}@")
