"""Tests for the automatic matcher and candidate-pair selection."""

import pytest

from repro.mapping.graph import MappingGraph
from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.rdf.terms import URI
from repro.schema.model import Schema
from repro.selforg.candidates import rank_candidate_pairs
from repro.selforg.matcher import (
    MatcherConfig,
    lexical_similarity,
    match_attributes,
    score_pair,
)


class TestScorePair:
    config = MatcherConfig()

    def test_identical_names_and_values(self):
        vals = {"a", "b", "c"}
        assert score_pair("Organism", "Organism", vals, vals,
                          self.config) == pytest.approx(1.0)

    def test_lexical_only_when_values_sparse(self):
        s = score_pair("Organism", "OrganismName", {"x"}, set(),
                       self.config)
        assert s == pytest.approx(
            lexical_similarity("Organism", "OrganismName"))

    def test_strong_extensional_overrides_weak_lexical(self):
        organisms = {f"species-{i}" for i in range(20)}
        s = score_pair("OS", "SystematicName", organisms, organisms,
                       self.config)
        assert s >= self.config.strong_extensional

    def test_weak_both_scores_low(self):
        s = score_pair("Length", "LocusName",
                       {str(i) for i in range(10)},
                       {f"gene{i}" for i in range(10)},
                       self.config)
        assert s < self.config.threshold


class TestMatchAttributes:
    def make_schemas(self):
        a = Schema("A", ["Organism", "SeqLength", "Accession"])
        b = Schema("B", ["OrganismName", "Length", "AccNo"])
        organisms = {f"Aspergillus {i}" for i in range(10)}
        lengths_a = {str(i) for i in range(100, 140)}
        lengths_b = {str(i) for i in range(100, 130)}
        acc_a = {f"P{i}" for i in range(20)}
        acc_b = {f"P{i}" for i in range(10, 30)}
        va = {"Organism": organisms, "SeqLength": lengths_a,
              "Accession": acc_a}
        vb = {"OrganismName": organisms, "Length": lengths_b,
              "AccNo": acc_b}
        return a, b, va, vb

    def test_finds_correct_pairs(self):
        a, b, va, vb = self.make_schemas()
        found = {(c.source.local_name, c.target.local_name)
                 for c in match_attributes(a, b, va, vb)}
        assert ("Organism", "OrganismName") in found

    def test_one_to_one_assignment(self):
        a, b, va, vb = self.make_schemas()
        correspondences = match_attributes(a, b, va, vb)
        sources = [c.source for c in correspondences]
        targets = [c.target for c in correspondences]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))

    def test_correspondence_endpoints_belong_to_schemas(self):
        a, b, va, vb = self.make_schemas()
        for c in match_attributes(a, b, va, vb):
            assert c.source.namespace == "A"
            assert c.target.namespace == "B"

    def test_high_threshold_returns_nothing(self):
        a, b, va, vb = self.make_schemas()
        config = MatcherConfig(threshold=0.999, strong_lexical=1.1,
                               strong_extensional=1.1)
        # only exactly-identical name+value pairs could pass — none here
        assert match_attributes(a, b, va, vb, config) == []

    def test_subsumption_detected_on_asymmetric_containment(self):
        a = Schema("A", ["Organism"])
        b = Schema("B", ["OrganismSub"])
        full = {f"species-{i}" for i in range(40)}
        subset = {f"species-{i}" for i in range(8)}
        found = match_attributes(a, b, {"Organism": full},
                                 {"OrganismSub": subset})
        assert found
        assert found[0].kind is MappingKind.SUBSUMPTION

    def test_symmetric_overlap_is_equivalence(self):
        a = Schema("A", ["Organism"])
        b = Schema("B", ["OrganismName"])
        vals = {f"species-{i}" for i in range(20)}
        found = match_attributes(a, b, {"Organism": vals},
                                 {"OrganismName": vals})
        assert found[0].kind is MappingKind.EQUIVALENCE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MatcherConfig(threshold=2.0)
        with pytest.raises(ValueError):
            MatcherConfig(lexical_weight=0.0, extensional_weight=0.0)


class TestCandidates:
    def test_shared_reference_count(self):
        assert rank_candidate_pairs({"A": {"a", "b"}, "B": {"b", "c"}}) == [
            ("A", "B", 1)]

    def test_ranking_by_shared_refs(self):
        refs = {
            "A": {f"P{i}" for i in range(30)},        # 0..29
            "B": {f"P{i}" for i in range(20, 40)},    # 10 shared with A
            "C": {f"P{i}" for i in range(38, 60)},    # 2 with B, 0 with A
        }
        ranked = rank_candidate_pairs(refs)
        assert ranked[0] == ("A", "B", 10)
        assert ranked[1] == ("B", "C", 2)

    def test_connected_pairs_skipped(self):
        refs = {"A": {"r1", "r2"}, "B": {"r1", "r2"}}
        graph = MappingGraph([SchemaMapping(
            "m", "A", "B",
            [PredicateCorrespondence(URI("A#x"), URI("B#y"))],
        )])
        assert rank_candidate_pairs(refs, graph) == []

    def test_deprecated_connection_does_not_block(self):
        refs = {"A": {"r1"}, "B": {"r1"}}
        graph = MappingGraph([SchemaMapping(
            "m", "A", "B",
            [PredicateCorrespondence(URI("A#x"), URI("B#y"))],
            deprecated=True,
        )])
        assert rank_candidate_pairs(refs, graph) == [("A", "B", 1)]

    def test_min_shared_filter(self):
        refs = {"A": {"r1"}, "B": {"r1"}, "C": set()}
        ranked = rank_candidate_pairs(refs, min_shared=2)
        assert ranked == []

    def test_deterministic_tie_break(self):
        refs = {"A": {"r"}, "B": {"r"}, "C": {"r"}}
        ranked = rank_candidate_pairs(refs)
        assert ranked == [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)]
