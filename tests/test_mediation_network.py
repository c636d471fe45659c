"""End-to-end tests: reformulation strategies, Figure 2, chains."""

import pytest

from repro.mediation.network import GridVineNetwork
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema

FIG2_QUERY = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"


class TestFigure2:
    """The paper's Figure 2: reformulation across EMBL -> EMP."""

    def test_without_mapping_only_local_schema_answers(self, fig2_network):
        net, _embl, _emp = fig2_network
        for strategy in ("local", "iterative", "recursive"):
            out = net.search_for(FIG2_QUERY, strategy=strategy)
            assert {str(r[0]) for r in out.results} == {
                "<EMBL:A78712>", "<EMBL:A78767>"}, strategy

    @pytest.mark.parametrize("strategy", ["iterative", "recursive"])
    def test_with_mapping_union_of_both_schemas(self, fig2_network,
                                                strategy):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        out = net.search_for(FIG2_QUERY, strategy=strategy)
        assert {str(r[0]) for r in out.results} == {
            "<EMBL:A78712>", "<EMBL:A78767>", "<EMP:NEN94295-05>"}
        assert out.complete
        assert out.reformulations_explored == 1

    def test_results_attributed_per_reformulation(self, fig2_network):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        out = net.search_for(FIG2_QUERY, strategy="iterative")
        emp_query = parse_search_for(
            "SearchFor(x? : (x?, EMP#SystematicName, %Aspergillus%))")
        assert out.results_by_query[emp_query] == {
            (URI("EMP:NEN94295-05"),)}

    def test_deprecated_mapping_ignored_by_reformulation(self,
                                                         fig2_network):
        net, embl, emp = fig2_network
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.settle()
        net.deprecate_mapping(mapping)
        net.settle()
        out = net.search_for(FIG2_QUERY, strategy="iterative")
        assert len(out.results) == 2  # EMP result no longer reachable


def build_chain_network(length, seed=3, num_peers=32):
    """S0 -> S1 -> ... -> S_length, one record and one mapping per hop."""
    net = GridVineNetwork.build(num_peers=num_peers, seed=seed)
    schemas = []
    for i in range(length + 1):
        schema = Schema(f"S{i}", [f"org{i}"], domain="chain")
        schemas.append(schema)
        net.insert_schema(schema)
        net.insert_triples([
            Triple(URI(f"S{i}:e"), URI(f"S{i}#org{i}"),
                   Literal("Aspergillus")),
        ])
    for i in range(length):
        net.create_mapping(schemas[i], schemas[i + 1],
                           [(f"org{i}", f"org{i + 1}")])
    net.settle()
    return net


class TestMappingChains:
    @pytest.mark.parametrize("strategy", ["iterative", "recursive"])
    def test_full_chain_reached(self, strategy):
        net = build_chain_network(4)
        out = net.search_for(
            "SearchFor(x? : (x?, S0#org0, %Asp%))",
            strategy=strategy, max_hops=6)
        assert out.result_count == 5
        assert out.reformulations_explored == 4

    @pytest.mark.parametrize("strategy", ["iterative", "recursive"])
    def test_max_hops_truncates_chain(self, strategy):
        net = build_chain_network(4)
        out = net.search_for(
            "SearchFor(x? : (x?, S0#org0, %Asp%))",
            strategy=strategy, max_hops=2)
        assert out.result_count == 3  # S0 + 2 hops

    def test_cyclic_mappings_terminate(self):
        net = GridVineNetwork.build(num_peers=16, seed=5)
        a = Schema("A", ["x"], domain="c")
        b = Schema("B", ["y"], domain="c")
        net.insert_schema(a)
        net.insert_schema(b)
        net.insert_triples([
            Triple(URI("A:1"), URI("A#x"), Literal("v")),
            Triple(URI("B:1"), URI("B#y"), Literal("v")),
        ])
        net.create_mapping(a, b, [("x", "y")])
        net.create_mapping(b, a, [("y", "x")])
        net.settle()
        for strategy in ("iterative", "recursive"):
            out = net.search_for('SearchFor(x? : (x?, A#x, "v"))',
                                 strategy=strategy, max_hops=10)
            assert out.result_count == 2
            assert out.complete

    def test_branching_mappings_all_explored(self):
        net = GridVineNetwork.build(num_peers=24, seed=6)
        root = Schema("Root", ["attr"], domain="tree")
        net.insert_schema(root)
        net.insert_triples([
            Triple(URI("Root:1"), URI("Root#attr"), Literal("hit"))])
        for i in range(3):
            leaf = Schema(f"Leaf{i}", ["field"], domain="tree")
            net.insert_schema(leaf)
            net.insert_triples([
                Triple(URI(f"Leaf{i}:1"), URI(f"Leaf{i}#field"),
                       Literal("hit"))])
            net.create_mapping(root, leaf, [("attr", "field")])
        net.settle()
        out = net.search_for('SearchFor(x? : (x?, Root#attr, "hit"))',
                             strategy="recursive")
        assert out.result_count == 4
        assert out.reformulations_explored == 3


class TestMappingGraphReconstruction:
    def test_graph_matches_inserted_mappings(self, fig2_network):
        net, embl, emp = fig2_network
        m = net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        graph = net.mapping_graph("bio")
        assert [x.mapping_id for x in graph.mappings()] == [m.mapping_id]
        assert set(graph.schemas()) == {"EMBL", "EMP"}

    def test_indicator_through_overlay(self, fig2_network):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        # one directed edge between two schemas: fragmented
        assert net.connectivity_indicator("bio") == pytest.approx(-0.5)

    def test_bidirectional_mapping_reaches_criticality(self, fig2_network):
        net, embl, emp = fig2_network
        origin = net.peer(net.peer_ids()[0])
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.loop.run_until_complete(
            origin.insert_mapping(mapping.reversed()))
        net.settle()
        # A <-> B: j=k=1 for both, ci = 0 (criticality)
        assert net.connectivity_indicator("bio") == pytest.approx(0.0)


class TestReplicationAndScale:
    def test_fig2_with_replication(self):
        net = GridVineNetwork.build(num_peers=30, seed=8, replication=3)
        embl = Schema("EMBL", ["Organism"], domain="bio")
        emp = Schema("EMP", ["SystematicName"], domain="bio")
        net.insert_schema(embl)
        net.insert_schema(emp)
        net.insert_triples([
            Triple(URI("EMBL:A1"), URI("EMBL#Organism"),
                   Literal("Aspergillus niger")),
            Triple(URI("EMP:B1"), URI("EMP#SystematicName"),
                   Literal("Aspergillus oryzae")),
        ])
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        out = net.search_for(FIG2_QUERY, strategy="recursive")
        assert out.result_count == 2

    def test_total_triples_stored_counts_copies(self, fig2_network):
        net, _embl, _emp = fig2_network
        # 4 triples x 3 keys, replication=1; copies may collapse when
        # two keys of one triple land on the same peer (db is a set).
        assert 4 <= net.total_triples_stored() <= 12
