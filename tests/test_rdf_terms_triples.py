"""Tests for terms and triples."""

import pytest

from repro.rdf.terms import Literal, URI, Variable, is_ground
from repro.rdf.triples import ALL_POSITIONS, Position, Triple


class TestTerms:
    def test_empty_value_rejected(self):
        for cls in (URI, Literal, Variable):
            with pytest.raises(ValueError):
                cls("")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            URI(42)

    def test_immutability(self):
        u = URI("x")
        with pytest.raises(AttributeError):
            u.value = "y"

    def test_equality_is_type_sensitive(self):
        assert URI("x") != Literal("x")
        assert Literal("x") != Variable("x")
        assert URI("x") == URI("x")

    def test_ordering_uris_then_literals_then_variables(self):
        terms = [Variable("a"), Literal("a"), URI("a")]
        assert sorted(terms) == [URI("a"), Literal("a"), Variable("a")]

    def test_uri_namespace_split(self):
        u = URI("EMBL#Organism")
        assert u.namespace == "EMBL"
        assert u.local_name == "Organism"

    def test_uri_without_hash(self):
        u = URI("EMBL:A78712")
        assert u.namespace == "EMBL:A78712"
        assert u.local_name == "EMBL:A78712"

    def test_str_forms(self):
        assert str(URI("a")) == "<a>"
        assert str(Literal("a")) == '"a"'
        assert str(Variable("a")) == "a?"

    def test_is_ground(self):
        assert is_ground(URI("a"))
        assert is_ground(Literal("a"))
        assert not is_ground(Variable("a"))


class TestLikeLiterals:
    def test_detection(self):
        assert Literal("%Aspergillus%").is_like_pattern
        assert not Literal("Aspergillus").is_like_pattern
        assert not Literal("%onlyleading").is_like_pattern
        assert Literal("%%").is_like_pattern

    def test_matches_value_like(self):
        like = Literal("%sperg%")
        assert like.matches_value(Literal("Aspergillus niger"))
        assert not like.matches_value(Literal("Yeast"))

    def test_matches_value_exact(self):
        exact = Literal("Aspergillus")
        assert exact.matches_value(Literal("Aspergillus"))
        assert not exact.matches_value(Literal("Aspergillus niger"))

    def test_like_matches_uri_objects_too(self):
        assert Literal("%A787%").matches_value(URI("EMBL:A78712"))


class TestTriple:
    def test_positions(self):
        triple = Triple(URI("s"), URI("p"), Literal("o"))
        assert triple.at(Position.SUBJECT) == URI("s")
        assert triple.at(Position.PREDICATE) == URI("p")
        assert triple.at(Position.OBJECT) == Literal("o")

    def test_all_positions_order(self):
        assert [p.value for p in ALL_POSITIONS] == [
            "subject", "predicate", "object"]

    def test_type_validation(self):
        with pytest.raises(TypeError):
            Triple(Literal("s"), URI("p"), Literal("o"))
        with pytest.raises(TypeError):
            Triple(URI("s"), Literal("p"), Literal("o"))
        with pytest.raises(TypeError):
            Triple(URI("s"), URI("p"), Variable("o"))

    def test_object_may_be_uri(self):
        triple = Triple(URI("s"), URI("p"), URI("o"))
        assert triple.object == URI("o")

    def test_immutability(self):
        triple = Triple(URI("s"), URI("p"), Literal("o"))
        with pytest.raises(AttributeError):
            triple.subject = URI("t")

    def test_equality_and_hash(self):
        a = Triple(URI("s"), URI("p"), Literal("o"))
        b = Triple(URI("s"), URI("p"), Literal("o"))
        assert a == b
        assert len({a, b}) == 1

    def test_ordering(self):
        a = Triple(URI("a"), URI("p"), Literal("o"))
        b = Triple(URI("b"), URI("p"), Literal("o"))
        assert a < b

    def test_as_tuple(self):
        triple = Triple(URI("s"), URI("p"), Literal("o"))
        assert triple.as_tuple() == (URI("s"), URI("p"), Literal("o"))
