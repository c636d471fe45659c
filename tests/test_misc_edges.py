"""Edge-case sweep across small surfaces not covered elsewhere."""

import pytest

from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.mediation.query import QueryOutcome
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import Literal, URI
from repro.simnet.events import EventLoop
from repro.util.keys import Key


class TestQueryOutcome:
    def make(self):
        return QueryOutcome(
            query=parse_search_for("SearchFor(x? : (x?, A#p, %v%))"),
            strategy="local",
        )

    def test_record_merges_rows(self):
        outcome = self.make()
        q2 = parse_search_for("SearchFor(x? : (x?, B#q, %v%))")
        outcome.record(outcome.query, {(URI("a"),)})
        outcome.record(q2, {(URI("b"),), (URI("a"),)})
        assert outcome.result_count == 2
        assert outcome.results_by_query[q2] == {(URI("b"),), (URI("a"),)}

    def test_sorted_results_deterministic(self):
        outcome = self.make()
        outcome.record(outcome.query,
                       {(URI("b"),), (URI("a"),), (Literal("z"),)})
        assert outcome.sorted_results() == [
            (URI("a"),), (URI("b"),), (Literal("z"),)]

    def test_repeated_record_accumulates_per_query(self):
        outcome = self.make()
        outcome.record(outcome.query, {(URI("a"),)})
        outcome.record(outcome.query, {(URI("b"),)})
        assert outcome.results_by_query[outcome.query] == {
            (URI("a"),), (URI("b"),)}


class TestEventLoopEdges:
    def test_schedule_at_past_time_fires_now(self):
        loop = EventLoop()
        loop.run_until(10.0)
        seen = []
        loop.schedule_at(5.0, lambda: seen.append(loop.now))
        loop.run_until_idle()
        assert seen == [10.0]  # clamped to now, not the past

    def test_run_until_with_empty_queue_advances_clock(self):
        loop = EventLoop()
        loop.run_until(42.0)
        assert loop.now == 42.0


class TestMappingGraphEdges:
    def edge(self, mid, src, dst):
        return SchemaMapping(
            mid, src, dst,
            [PredicateCorrespondence(URI(f"{src}#x"), URI(f"{dst}#x"))],
        )

    def test_paths_to_self_belong_to_find_cycles(self):
        graph = MappingGraph([self.edge("m1", "A", "B"),
                              self.edge("m2", "B", "A")])
        # simple paths never revisit the source; round trips are the
        # domain of find_cycles
        assert graph.find_paths("A", "A") == []
        assert len(graph.find_cycles()) == 1

    def test_degree_pairs_cover_all_schemas(self):
        graph = MappingGraph([self.edge("m1", "A", "B")])
        graph.add_schema("Lonely")
        assert len(graph.degree_pairs()) == 3

    def test_compose_empty_path(self):
        assert MappingGraph.compose_path([]) is None
        assert MappingGraph.compose_correspondences([]) == []


class TestKeyEdges:
    def test_prefix_longer_than_key(self):
        # prefix() never pads; asking beyond length returns the key
        assert Key("01").prefix(10) == Key("01")

    def test_iteration_yields_bits(self):
        assert list(Key("011")) == ["0", "1", "1"]


class TestParserWhitespaceAndQuotes:
    def test_quoted_value_with_comma(self):
        q = parse_search_for('SearchFor(x? : (x?, A#p, "a, b"))')
        assert q.patterns[0].object == Literal("a, b")

    def test_quoted_value_with_and(self):
        q = parse_search_for('SearchFor(x? : (x?, A#p, "this AND that"))')
        assert len(q.patterns) == 1
        assert q.patterns[0].object == Literal("this AND that")

    def test_multiline_query(self):
        q = parse_search_for(
            "SearchFor(x? :\n  (x?, A#p, %v%)\n  AND (x?, A#q, y?))")
        assert len(q.patterns) == 2


class TestSchemaMappingValidationEdges:
    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            SchemaMapping(
                "m", "A", "B",
                [PredicateCorrespondence(URI("A#x"), URI("B#y"))],
                confidence=1.5,
            )
