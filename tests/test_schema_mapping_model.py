"""Tests for schemas, correspondences and mappings."""

import pytest

from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.rdf.terms import URI
from repro.schema.model import Schema


class TestSchema:
    def test_attributes_sorted_and_deduped(self):
        s = Schema("S", ["b", "a", "b"])
        assert s.attributes == ("a", "b")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Schema("", ["a"])

    def test_rejects_hash_in_name(self):
        with pytest.raises(ValueError):
            Schema("S#T", ["a"])

    def test_rejects_empty_attribute_set(self):
        with pytest.raises(ValueError):
            Schema("S", [])

    def test_rejects_bad_attribute(self):
        with pytest.raises(ValueError):
            Schema("S", ["a#b"])

    def test_predicate_uri(self):
        s = Schema("EMBL", ["Organism"])
        assert s.predicate("Organism") == URI("EMBL#Organism")

    def test_predicate_unknown_attribute(self):
        s = Schema("EMBL", ["Organism"])
        with pytest.raises(KeyError):
            s.predicate("Nope")

    def test_owns_predicate(self):
        s = Schema("EMBL", ["Organism"])
        assert s.owns_predicate(URI("EMBL#Organism"))
        assert not s.owns_predicate(URI("EMP#Organism"))
        assert not s.owns_predicate(URI("EMBL#Other"))

    def test_predicates_list(self):
        s = Schema("S", ["b", "a"])
        assert s.predicates() == [URI("S#a"), URI("S#b")]

    def test_equality_and_hash(self):
        assert Schema("S", ["a"]) == Schema("S", ["a"])
        assert Schema("S", ["a"]) != Schema("S", ["a"], domain="bio")
        assert len({Schema("S", ["a"]), Schema("S", ["a"])}) == 1

    def test_immutability(self):
        s = Schema("S", ["a"])
        with pytest.raises(AttributeError):
            s.name = "T"


class TestCorrespondence:
    def test_requires_uris(self):
        with pytest.raises(TypeError):
            PredicateCorrespondence("A#x", URI("B#y"))

    def test_score_range(self):
        with pytest.raises(ValueError):
            PredicateCorrespondence(URI("A#x"), URI("B#y"), score=1.5)

    def test_reversed_equivalence(self):
        c = PredicateCorrespondence(URI("A#x"), URI("B#y"))
        r = c.reversed()
        assert r.source == URI("B#y")
        assert r.target == URI("A#x")

    def test_reversed_subsumption_rejected(self):
        c = PredicateCorrespondence(URI("A#x"), URI("B#y"),
                                    kind=MappingKind.SUBSUMPTION)
        with pytest.raises(ValueError):
            c.reversed()


def make_mapping(**kwargs):
    defaults = dict(
        mapping_id="m1",
        source_schema="A",
        target_schema="B",
        correspondences=[
            PredicateCorrespondence(URI("A#x"), URI("B#y")),
            PredicateCorrespondence(URI("A#z"), URI("B#w"),
                                    kind=MappingKind.SUBSUMPTION),
        ],
    )
    defaults.update(kwargs)
    return SchemaMapping(**defaults)


class TestSchemaMapping:
    def test_requires_correspondences(self):
        with pytest.raises(ValueError):
            make_mapping(correspondences=[])

    def test_rejects_self_mapping(self):
        with pytest.raises(ValueError):
            make_mapping(target_schema="A", correspondences=[
                PredicateCorrespondence(URI("A#x"), URI("A#y"))])

    def test_correspondence_schemas_validated(self):
        with pytest.raises(ValueError):
            make_mapping(correspondences=[
                PredicateCorrespondence(URI("C#x"), URI("B#y"))])
        with pytest.raises(ValueError):
            make_mapping(correspondences=[
                PredicateCorrespondence(URI("A#x"), URI("C#y"))])

    def test_provenance_validated(self):
        with pytest.raises(ValueError):
            make_mapping(provenance="robot")

    def test_translate(self):
        m = make_mapping()
        assert m.translate(URI("A#x")) == URI("B#y")
        assert m.translate(URI("A#unmapped")) is None

    def test_reversed_keeps_only_equivalences(self):
        r = make_mapping().reversed()
        assert r.source_schema == "B"
        assert r.target_schema == "A"
        assert len(r.correspondences) == 1  # the subsumption is dropped
        assert r.mapping_id == "m1~rev"

    def test_reversed_pure_subsumption_rejected(self):
        m = make_mapping(correspondences=[
            PredicateCorrespondence(URI("A#x"), URI("B#y"),
                                    kind=MappingKind.SUBSUMPTION)])
        with pytest.raises(ValueError):
            m.reversed()

    def test_with_deprecated_is_copy(self):
        m = make_mapping()
        d = m.with_deprecated(True)
        assert d.deprecated and not m.deprecated
        assert not d.active and m.active
        assert d != m  # value semantics: the flag matters for equality

    def test_user_flag(self):
        assert make_mapping().is_user_defined
        assert not make_mapping(provenance="auto").is_user_defined

    def test_equality_by_full_content(self):
        assert make_mapping() == make_mapping()
        assert make_mapping() != make_mapping(mapping_id="m2")
