"""The interning contract of the data model.

A term or triple exists once per value: constructing an equal value
returns the identical object, so equality and hashing are identity.
These tests pin that contract — identity per value, distinct kinds
stay distinct, pickling and copying re-intern, a rejected value leaves
nothing behind — and that the sort order is still ``(rank, value)``.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdf.terms import URI, Literal, Variable
from repro.rdf.triples import Triple
from strategies import STANDARD_SETTINGS

RANK = {URI: 0, Literal: 1, Variable: 2}

values = st.text(min_size=1, max_size=6)
terms = st.one_of(values.map(URI), values.map(Literal), values.map(Variable))
ground_objects = st.one_of(values.map(URI), values.map(Literal))
triples = st.builds(Triple, values.map(URI), values.map(URI), ground_objects)


def term_key(term):
    return (RANK[type(term)], term.value)


class TestIdentityPerValue:
    @STANDARD_SETTINGS
    @given(value=values)
    def test_equal_terms_are_one_object(self, value):
        for kind in (URI, Literal, Variable):
            # an equal but distinct string finds the same term
            assert kind(value) is kind("".join(list(value)))
            assert hash(kind(value)) == hash(kind(value))

    @STANDARD_SETTINGS
    @given(s=values, p=values, o=values)
    def test_equal_triples_are_one_object(self, s, p, o):
        first = Triple(URI(s), URI(p), Literal(o))
        assert Triple(URI(s), URI(p), Literal(o)) is first
        assert Triple(URI(s), URI(p), URI(o)) is not first

    def test_kinds_with_one_value_stay_distinct(self):
        assert URI("x") is not Literal("x")
        assert URI("x") != Literal("x")
        assert Literal("x") != Variable("x")
        assert len({URI("x"), Literal("x"), Variable("x")}) == 3


class TestRoundTripsReintern:
    CASES = [URI("EMBL#Organism"), Literal("Aspergillus niger"),
             Variable("x"),
             Triple(URI("EMBL:A1"), URI("EMBL#Organism"),
                    Literal("Aspergillus niger"))]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_the_interned_object(self, value, protocol):
        assert pickle.loads(pickle.dumps(value, protocol)) is value

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_copy_and_deepcopy_return_the_interned_object(self, value):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert copy.deepcopy([value, (value,)]) == [value, (value,)]


class TestRejectedValuesLeaveNoEntry:
    @pytest.mark.parametrize("kind", [URI, Literal, Variable])
    @pytest.mark.parametrize("bad, error", [
        (5, TypeError), (b"x", TypeError), (None, TypeError),
        ("", ValueError)])
    def test_bad_term_value(self, kind, bad, error):
        before = dict(kind._table)
        with pytest.raises(error):
            kind(bad)
        assert kind._table == before

    def test_unhashable_term_value(self):
        with pytest.raises(TypeError):
            URI(["x"])

    @pytest.mark.parametrize("args", [
        (Literal("s"), URI("p"), URI("o")),
        ("s", URI("p"), URI("o")),
        (URI("s"), Literal("p"), URI("o")),
        (URI("s"), URI("p"), Variable("o")),
        (URI("s"), URI("p"), "o"),
    ])
    def test_bad_triple(self, args):
        before = dict(Triple._table)
        with pytest.raises(TypeError):
            Triple(*args)
        assert Triple._table == before


class TestSortOrder:
    @STANDARD_SETTINGS
    @given(st.lists(terms, max_size=12))
    def test_terms_sort_by_rank_then_value(self, mixed):
        assert sorted(mixed) == sorted(mixed, key=term_key)

    @STANDARD_SETTINGS
    @given(st.lists(triples, max_size=12))
    def test_triples_sort_by_rank_then_value_per_position(self, mixed):
        assert sorted(mixed) == sorted(
            mixed, key=lambda t: tuple(map(term_key, t.as_tuple())))
