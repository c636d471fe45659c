"""Tests for the GridVineNetwork facade: misc surface and edge cases."""

import pytest

from repro.mapping.model import MappingKind
from repro.mediation.network import GridVineNetwork
from repro.rdf.parser import ParseError
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.events import SimulationError


class TestFacadeBasics:
    def test_build_peer_counts(self):
        net = GridVineNetwork.build(num_peers=10, seed=1)
        assert len(net.peer_ids()) == 10
        assert net.peer(net.peer_ids()[0]).node_id == net.peer_ids()[0]

    def test_random_peer_comes_from_deployment(self):
        net = GridVineNetwork.build(num_peers=5, seed=2)
        assert net.random_peer().node_id in net.peer_ids()

    def test_unknown_origin_raises(self):
        net = GridVineNetwork.build(num_peers=4, seed=3)
        with pytest.raises(SimulationError,
                           match="unknown origin peer 'ghost'"):
            net.search_for("SearchFor(x? : (x?, S#p, %v%))",
                           origin="ghost")
        with pytest.raises(SimulationError, match="'ghost'"):
            net.insert_schema(Schema("S", ["p"]), origin="ghost")
        # Refused before anything was submitted: no op ref is spent.
        assert net.engine.submit(net.peer_ids()[0], "fetch_connectivity",
                                 "default") == 0

    def test_string_query_parse_errors_propagate(self, small_network):
        with pytest.raises(ParseError):
            small_network.search_for("SELECT * FROM nothing")

    def test_unknown_strategy_rejected(self, fig2_network):
        net, _e, _m = fig2_network
        with pytest.raises(ValueError):
            net.search_for(
                "SearchFor(x? : (x?, EMBL#Organism, %A%))",
                strategy="telepathic")

    def test_metrics_snapshot_shape(self, small_network):
        snapshot = small_network.metrics_snapshot()
        assert set(snapshot) >= {"messages_sent", "messages_dropped",
                                 "mean_latency", "values_shipped",
                                 "messages_by_kind"}


class TestCreateMapping:
    def test_create_mapping_mints_guid_of_creator(self, fig2_network):
        net, embl, emp = fig2_network
        origin = net.peer_ids()[0]
        mapping = net.create_mapping(
            embl, emp, [("Organism", "SystematicName")], origin=origin)
        creator_path = net.peer(origin).path
        assert mapping.mapping_id.startswith(creator_path.bits + "@")

    def test_create_subsumption_mapping(self, fig2_network):
        net, embl, emp = fig2_network
        mapping = net.create_mapping(
            embl, emp, [("Organism", "SystematicName")],
            kind=MappingKind.SUBSUMPTION)
        assert mapping.correspondences[0].kind is MappingKind.SUBSUMPTION
        # pure-subsumption mappings cannot be reversed
        with pytest.raises(ValueError):
            mapping.reversed()

    def test_create_mapping_validates_attributes(self, fig2_network):
        net, embl, emp = fig2_network
        with pytest.raises(KeyError):
            net.create_mapping(embl, emp, [("NoSuchAttr", "Length")])

    def test_auto_provenance_and_confidence(self, fig2_network):
        net, embl, emp = fig2_network
        mapping = net.create_mapping(
            embl, emp, [("SeqLength", "Length")],
            provenance="auto", confidence=0.6)
        assert not mapping.is_user_defined
        assert mapping.confidence == 0.6


class TestSubsumptionSemantics:
    def test_subsumption_reformulates_one_way_only(self, small_network):
        net = small_network
        broad = Schema("Broad", ["organism"], domain="sub")
        narrow = Schema("Narrow", ["fungus"], domain="sub")
        net.insert_schema(broad)
        net.insert_schema(narrow)
        net.insert_triples([
            Triple(URI("Broad:1"), URI("Broad#organism"),
                   Literal("Aspergillus niger")),
            Triple(URI("Narrow:1"), URI("Narrow#fungus"),
                   Literal("Aspergillus oryzae")),
        ])
        # Narrow#fungus is subsumed by Broad#organism: a query on the
        # broad predicate may soundly be rewritten to the narrow one.
        net.create_mapping(broad, narrow, [("organism", "fungus")],
                           kind=MappingKind.SUBSUMPTION)
        net.settle()
        broad_query = net.search_for(
            "SearchFor(x? : (x?, Broad#organism, %Aspergillus%))",
            strategy="iterative")
        assert broad_query.result_count == 2  # broad + subsumed narrow
        narrow_query = net.search_for(
            "SearchFor(x? : (x?, Narrow#fungus, %Aspergillus%))",
            strategy="iterative")
        # the reverse rewriting would be unsound and must not happen
        assert narrow_query.result_count == 1


class TestOutcomeAccounting:
    def test_results_by_query_partitions_results(self, fig2_network):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        out = net.search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))",
            strategy="iterative")
        union = set()
        for rows in out.results_by_query.values():
            union |= rows
        assert union == out.results

    def test_messages_attributed(self, fig2_network):
        net, _embl, _emp = fig2_network
        out = net.search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))",
            strategy="local")
        assert out.messages > 0
