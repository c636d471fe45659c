"""Tests for reformulation planning over a mapping graph."""

from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import URI
from repro.reformulation.planner import plan_reformulations


def edge(mapping_id, src, dst, pairs):
    return SchemaMapping(
        mapping_id, src, dst,
        [PredicateCorrespondence(URI(f"{src}#{a}"), URI(f"{dst}#{b}"))
         for a, b in pairs],
    )


QUERY = parse_search_for("SearchFor(x? : (x?, A#org, %Asp%))")


class TestPlanner:
    def test_empty_graph_only_original(self):
        plans = plan_reformulations(QUERY, MappingGraph())
        assert len(plans) == 1
        assert plans[0].query == QUERY
        assert plans[0].hops == 0

    def test_single_hop(self):
        graph = MappingGraph([edge("m1", "A", "B", [("org", "name")])])
        plans = plan_reformulations(QUERY, graph)
        assert len(plans) == 2
        assert plans[1].query.patterns[0].predicate == URI("B#name")
        assert plans[1].hops == 1

    def test_chain_explored_breadth_first(self):
        graph = MappingGraph([
            edge("m1", "A", "B", [("org", "name")]),
            edge("m2", "B", "C", [("name", "species")]),
        ])
        plans = plan_reformulations(QUERY, graph)
        assert [p.hops for p in plans] == [0, 1, 2]

    def test_max_hops_truncates(self):
        graph = MappingGraph([
            edge("m1", "A", "B", [("org", "name")]),
            edge("m2", "B", "C", [("name", "species")]),
        ])
        plans = plan_reformulations(QUERY, graph, max_hops=1)
        assert [p.hops for p in plans] == [0, 1]

    def test_cycle_terminates_with_dedup(self):
        graph = MappingGraph([
            edge("m1", "A", "B", [("org", "name")]),
            edge("m2", "B", "A", [("name", "org")]),
        ])
        plans = plan_reformulations(QUERY, graph, max_hops=10)
        # A->B then B->A reproduces the original query: deduped.
        assert len(plans) == 2

    def test_diamond_produces_each_query_once(self):
        graph = MappingGraph([
            edge("m1", "A", "B", [("org", "name")]),
            edge("m2", "A", "C", [("org", "spec")]),
            edge("m3", "B", "D", [("name", "final")]),
            edge("m4", "C", "D", [("spec", "final")]),
        ])
        plans = plan_reformulations(QUERY, graph)
        queries = [p.query for p in plans]
        assert len(queries) == len(set(queries)) == 4

    def test_deprecated_mapping_not_planned(self):
        graph = MappingGraph([
            edge("m1", "A", "B", [("org", "name")]).with_deprecated(True),
        ])
        # must re-add because with_deprecated returns a copy
        graph = MappingGraph(
            [edge("m1", "A", "B", [("org", "name")]).with_deprecated(True)])
        assert len(plan_reformulations(QUERY, graph)) == 1

    def test_target_schemas_reported(self):
        graph = MappingGraph([edge("m1", "A", "B", [("org", "name")])])
        plans = plan_reformulations(QUERY, graph)
        assert plans[1].target_schemas == {"B"}
