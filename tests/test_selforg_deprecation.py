"""Tests for the Bayesian cycle analysis and deprecation logic."""

import random

import pytest

from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.rdf.terms import URI
from repro.selforg.deprecation import (
    PRIOR,
    THRESHOLD,
    assess_mapping_quality,
    cycle_is_consistent,
    mappings_to_deprecate,
)


def edge(mapping_id, src, dst, pairs, provenance="auto"):
    return SchemaMapping(
        mapping_id, src, dst,
        [PredicateCorrespondence(URI(f"{src}#{a}"), URI(f"{dst}#{b}"))
         for a, b in pairs],
        provenance=provenance,
        confidence=PRIOR if provenance == "auto" else 1.0,
    )


class TestCycleConsistency:
    def test_identity_cycle_is_consistent(self):
        cycle = [edge("m1", "A", "B", [("x", "y")]),
                 edge("m2", "B", "A", [("y", "x")])]
        assert cycle_is_consistent(cycle) is True

    def test_twisted_cycle_is_inconsistent(self):
        cycle = [edge("m1", "A", "B", [("x", "y"), ("u", "v")]),
                 edge("m2", "B", "A", [("y", "u"), ("v", "x")])]
        assert cycle_is_consistent(cycle) is False

    def test_no_surviving_attribute_gives_no_evidence(self):
        cycle = [edge("m1", "A", "B", [("x", "y")]),
                 edge("m2", "B", "A", [("other", "x")])]
        assert cycle_is_consistent(cycle) is None


class TestAssessment:
    def triangle(self, bad_last=False):
        """A->B->C->A; the closing mapping is correct or corrupted."""
        graph = MappingGraph()
        graph.add(edge("u1", "A", "B", [("x", "x"), ("w", "w")],
                       provenance="user"))
        graph.add(edge("u2", "B", "C", [("x", "x"), ("w", "w")],
                       provenance="user"))
        closing_pairs = ([("x", "w"), ("w", "x")] if bad_last
                         else [("x", "x"), ("w", "w")])
        graph.add(edge("a1", "C", "A", closing_pairs))
        return graph

    def test_user_mappings_pinned_at_one(self):
        beliefs = assess_mapping_quality(self.triangle())
        assert beliefs["u1"] == 1.0
        assert beliefs["u2"] == 1.0

    def test_consistent_cycle_raises_auto_confidence(self):
        beliefs = assess_mapping_quality(self.triangle())
        assert beliefs["a1"] > PRIOR

    def test_inconsistent_cycle_lowers_auto_confidence(self):
        beliefs = assess_mapping_quality(self.triangle(bad_last=True))
        assert beliefs["a1"] < THRESHOLD

    def test_no_cycles_keeps_prior(self):
        graph = MappingGraph([edge("a1", "A", "B", [("x", "y")])])
        beliefs = assess_mapping_quality(graph)
        assert beliefs["a1"] == pytest.approx(PRIOR, abs=1e-6)

    def test_blame_lands_on_auto_not_user(self):
        # Inconsistent cycle of two user mappings and one auto: only
        # the auto mapping can be blamed.
        graph = self.triangle(bad_last=True)
        beliefs = assess_mapping_quality(graph)
        assert beliefs["u1"] == beliefs["u2"] == 1.0
        assert beliefs["a1"] < 0.5

    def test_good_and_bad_parallel_paths_separated(self):
        graph = self.triangle(bad_last=True)
        graph.add(edge("a2", "C", "A", [("x", "x"), ("w", "w")]))
        beliefs = assess_mapping_quality(graph)
        assert beliefs["a2"] > 0.8
        assert beliefs["a1"] < 0.35

    def test_deprecated_mappings_not_assessed(self):
        graph = self.triangle(bad_last=True)
        graph.add(graph.get("a1").with_deprecated(True))
        beliefs = assess_mapping_quality(graph)
        assert "a1" not in beliefs


class TestDeprecationSelection:
    def test_selects_only_bad_autos(self):
        graph = MappingGraph()
        graph.add(edge("u1", "A", "B", [("x", "x")], provenance="user"))
        graph.add(edge("a-good", "B", "A", [("x", "x")]))
        graph.add(edge("a-bad", "B", "A", [("x", "other")]))
        # a-bad composes A#x -> B#x -> A#other: inconsistent.
        doomed = mappings_to_deprecate(graph)
        assert [m.mapping_id for m in doomed] == ["a-bad"]

    def test_user_mapping_never_deprecated(self):
        graph = MappingGraph()
        graph.add(edge("u1", "A", "B", [("x", "w")], provenance="user"))
        graph.add(edge("u2", "B", "A", [("w", "w")], provenance="user"))
        # Even an inconsistent all-user cycle deprecates nothing.
        assert mappings_to_deprecate(graph) == []


class TestEndToEndWithDataset(object):
    def test_corrupted_mapping_detected(self, bio_dataset):
        ds = bio_dataset
        names = [s.name for s in ds.schemas[:3]]
        graph = MappingGraph()
        # User backbone A->B->C; two automatic candidates close the
        # C->A cycle, one correct and one corrupted — the parallel
        # paths give the analysis the evidence to separate them.
        graph.add(ds.ground_truth_mapping(names[0], names[1],
                                          provenance="user"))
        graph.add(ds.ground_truth_mapping(names[1], names[2],
                                          provenance="user"))
        graph.add(ds.ground_truth_mapping(names[2], names[0],
                                          mapping_id="auto:ok",
                                          provenance="auto"))
        graph.add(ds.corrupted_mapping(names[2], names[0],
                                       random.Random(1),
                                       mapping_id="auto:bad"))
        beliefs = assess_mapping_quality(graph)
        assert beliefs["auto:ok"] > 0.8
        assert beliefs["auto:bad"] < 0.35

    def test_single_cycle_with_two_suspects_stays_ambiguous(self, bio_dataset):
        # With only one inconsistent cycle containing two automatic
        # mappings, the analysis cannot tell which is wrong: both end
        # up in the ambiguous middle, neither cleared nor condemned.
        ds = bio_dataset
        names = [s.name for s in ds.schemas[:3]]
        graph = MappingGraph()
        graph.add(ds.ground_truth_mapping(names[0], names[1],
                                          provenance="user"))
        graph.add(ds.ground_truth_mapping(names[1], names[2],
                                          mapping_id="auto:ok",
                                          provenance="auto"))
        graph.add(ds.corrupted_mapping(names[2], names[0],
                                       random.Random(1),
                                       mapping_id="auto:bad"))
        beliefs = assess_mapping_quality(graph)
        assert beliefs["auto:ok"] == pytest.approx(beliefs["auto:bad"])
        assert 0.35 < beliefs["auto:ok"] < 0.9
