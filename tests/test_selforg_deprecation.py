"""Tests for the Bayesian cycle analysis and deprecation logic."""

import random

import pytest

from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.rdf.terms import URI
from repro.selforg.deprecation import (
    DeprecationConfig,
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
        confidence=0.7 if provenance == "auto" else 1.0,
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
        config = DeprecationConfig()
        beliefs = assess_mapping_quality(self.triangle(), config)
        assert beliefs["a1"] > config.prior

    def test_inconsistent_cycle_lowers_auto_confidence(self):
        config = DeprecationConfig()
        beliefs = assess_mapping_quality(self.triangle(bad_last=True),
                                         config)
        assert beliefs["a1"] < config.threshold

    def test_no_cycles_keeps_prior(self):
        graph = MappingGraph([edge("a1", "A", "B", [("x", "y")])])
        config = DeprecationConfig()
        beliefs = assess_mapping_quality(graph, config)
        assert beliefs["a1"] == pytest.approx(config.prior, abs=1e-6)

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
        graph.deprecate("a1")
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

    def test_threshold_sweep_monotone(self):
        graph = MappingGraph()
        graph.add(edge("u1", "A", "B", [("x", "x")], provenance="user"))
        graph.add(edge("a1", "B", "A", [("x", "other")]))
        lax = DeprecationConfig(threshold=0.05)
        strict = DeprecationConfig(threshold=0.95)
        assert (len(mappings_to_deprecate(graph, lax))
                <= len(mappings_to_deprecate(graph, strict)))


class TestConfigValidation:
    """A config the analysis cannot run on is refused at construction,
    not once a cycle is observed inside a round."""

    @pytest.mark.parametrize("field, value", [
        ("prior", 0.0), ("prior", 1.0), ("prior", -0.1), ("prior", 1.5),
        ("epsilon", -0.01), ("epsilon", 1.01),
        ("delta", -0.01), ("delta", 1.01),
        ("threshold", -0.01), ("threshold", 1.01),
        ("damping", -0.01), ("damping", 1.01),
        ("iterations", -1),
        ("max_cycle_length", 1), ("max_cycle_length", 0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            DeprecationConfig(**{field: value})

    def test_edge_values_assess_a_cycle(self):
        # Three mappings on one inconsistent cycle: the shape on which
        # a prior of 0 or 1 used to fail inside the analysis.
        graph = MappingGraph([
            edge("a1", "A", "B", [("x", "x")]),
            edge("a2", "B", "C", [("x", "x")]),
            edge("a3", "C", "A", [("x", "w")]),
        ])
        for config in (
            DeprecationConfig(prior=1e-6, epsilon=0.0, delta=1.0,
                              threshold=0.0, damping=1.0),
            DeprecationConfig(prior=1 - 1e-6, epsilon=1.0, delta=0.0,
                              threshold=1.0, damping=0.0,
                              iterations=0, max_cycle_length=2),
        ):
            beliefs = assess_mapping_quality(graph, config)
            assert all(0.0 <= b <= 1.0 for b in beliefs.values())


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
