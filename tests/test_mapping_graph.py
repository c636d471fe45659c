"""Tests for the mapping graph: adjacency, paths, cycles, composition."""

import pytest

from repro.mapping.graph import MappingGraph
from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.rdf.terms import URI


def edge(mapping_id, src, dst, pairs=None, provenance="user",
         deprecated=False):
    pairs = pairs if pairs is not None else [("p", "p")]
    return SchemaMapping(
        mapping_id, src, dst,
        [PredicateCorrespondence(URI(f"{src}#{a}"), URI(f"{dst}#{b}"))
         for a, b in pairs],
        provenance=provenance,
        deprecated=deprecated,
    )


class TestAdjacency:
    def test_add_and_lookup(self):
        g = MappingGraph([edge("m1", "A", "B")])
        assert g.get("m1") is not None
        assert g.schemas() == ["A", "B"]

    def test_add_overwrites_by_id(self):
        g = MappingGraph()
        g.add(edge("m1", "A", "B"))
        g.add(edge("m1", "A", "C"))
        assert g.get("m1").target_schema == "C"
        assert g.outgoing("A")[0].target_schema == "C"

    def test_remove(self):
        g = MappingGraph([edge("m1", "A", "B")])
        removed = g.remove("m1")
        assert removed.mapping_id == "m1"
        assert g.mappings() == []
        assert g.remove("m1") is None

    def test_degree(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m2", "A", "C"),
                          edge("m3", "C", "A")])
        assert g.degree("A") == (1, 2)
        assert g.degree("B") == (1, 0)

    def test_deprecated_excluded_from_views(self):
        g = MappingGraph([edge("m1", "A", "B", deprecated=True)])
        assert g.mappings() == []
        assert g.outgoing("A") == []
        assert g.degree("A") == (0, 0)
        assert len(g.mappings(include_deprecated=True)) == 1

    def test_add_schema_node_without_mappings(self):
        g = MappingGraph()
        g.add_schema("Lonely")
        assert g.schemas() == ["Lonely"]
        assert g.degree("Lonely") == (0, 0)


class TestPaths:
    def make_chain(self):
        return MappingGraph([
            edge("m1", "A", "B"), edge("m2", "B", "C"),
            edge("m3", "A", "C"),
        ])

    def test_find_paths_returns_all_simple_paths(self):
        paths = self.make_chain().find_paths("A", "C")
        assert [[m.mapping_id for m in p] for p in paths] == [
            ["m3"], ["m1", "m2"]]

    def test_find_paths_respects_max_hops(self):
        paths = self.make_chain().find_paths("A", "C", max_hops=1)
        assert [[m.mapping_id for m in p] for p in paths] == [["m3"]]

    def test_reachable_schemas(self):
        g = self.make_chain()
        assert g.reachable_schemas("A") == {"B", "C"}
        assert g.reachable_schemas("C") == set()

    def test_reachable_with_hop_limit(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m2", "B", "C")])
        assert g.reachable_schemas("A", max_hops=1) == {"B"}

    def test_deprecated_edges_not_traversed(self):
        g = MappingGraph([edge("m1", "A", "B", deprecated=True)])
        assert g.reachable_schemas("A") == set()


class TestComposition:
    def test_compose_two_hops(self):
        g = [edge("m1", "A", "B", [("x", "y")]),
             edge("m2", "B", "C", [("y", "z")])]
        composed = MappingGraph.compose_path(g)
        assert composed.source_schema == "A"
        assert composed.target_schema == "C"
        assert composed.correspondences[0].source == URI("A#x")
        assert composed.correspondences[0].target == URI("C#z")

    def test_compose_drops_lost_predicates(self):
        g = [edge("m1", "A", "B", [("x", "y"), ("u", "v")]),
             edge("m2", "B", "C", [("y", "z")])]
        composed = MappingGraph.compose_path(g)
        assert len(composed.correspondences) == 1

    def test_compose_empty_result_is_none(self):
        g = [edge("m1", "A", "B", [("x", "y")]),
             edge("m2", "B", "C", [("other", "z")])]
        assert MappingGraph.compose_path(g) is None

    def test_compose_non_chaining_raises(self):
        with pytest.raises(ValueError):
            MappingGraph.compose_path(
                [edge("m1", "A", "B"), edge("m2", "C", "D")])

    def test_subsumption_is_contagious(self):
        sub = SchemaMapping(
            "m2", "B", "C",
            [PredicateCorrespondence(URI("B#y"), URI("C#z"),
                                     kind=MappingKind.SUBSUMPTION)],
        )
        composed = MappingGraph.compose_path(
            [edge("m1", "A", "B", [("x", "y")]), sub])
        assert composed.correspondences[0].kind is MappingKind.SUBSUMPTION

    def test_compose_correspondences_handles_cycles(self):
        cycle = [edge("m1", "A", "B", [("x", "y")]),
                 edge("m2", "B", "A", [("y", "x")])]
        composed = MappingGraph.compose_correspondences(cycle)
        assert composed[0].source == composed[0].target == URI("A#x")


class TestCycles:
    def test_two_cycle(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m2", "B", "A")])
        cycles = g.find_cycles()
        assert len(cycles) == 1
        assert [m.mapping_id for m in cycles[0]] == ["m1", "m2"]

    def test_triangle_found_once(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m2", "B", "C"),
                          edge("m3", "C", "A")])
        cycles = g.find_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 3

    def test_max_length_respected(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m2", "B", "C"),
                          edge("m3", "C", "A")])
        assert g.find_cycles(max_length=2) == []

    def test_no_cycles_in_dag(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m2", "B", "C")])
        assert g.find_cycles() == []

    def test_parallel_mappings_make_multiple_cycles(self):
        g = MappingGraph([edge("m1", "A", "B"), edge("m1b", "A", "B"),
                          edge("m2", "B", "A")])
        assert len(g.find_cycles()) == 2

    def test_deprecated_edges_excluded(self):
        g = MappingGraph([edge("m1", "A", "B"),
                          edge("m2", "B", "A", deprecated=True)])
        assert g.find_cycles() == []
