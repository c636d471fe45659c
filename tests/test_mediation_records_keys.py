"""Tests for mediation records and key derivation."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.mediation.keys import (
    domain_key,
    group_by_key,
    schema_key,
    term_key,
    triple_keys,
)
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.util.hashing import order_preserving_hash
from strategies import STANDARD_SETTINGS, corpora


#: a value prefix long enough that every value extending it by one
#: character hashes to the same 128-bit key
SHARED_19 = "x" * 19


def colliding_triples():
    """Triples every term of which is ``SHARED_19`` plus one letter:
    all of them hash to one key."""
    term = st.sampled_from("ab").map(lambda last: SHARED_19 + last)
    return st.lists(st.builds(
        Triple, term.map(URI), term.map(URI),
        st.one_of(term.map(URI), term.map(Literal))), max_size=4)


def sample_mapping():
    return SchemaMapping(
        "m", "A", "B",
        [PredicateCorrespondence(URI("A#x"), URI("B#y"))],
    )


class TestRecords:
    def test_mapping_and_incoming_are_distinct_types(self):
        m = sample_mapping()
        assert MappingRecord(m) != IncomingMappingRecord(m)

    def test_mapping_record_sees_deprecation_flag(self):
        m = sample_mapping()
        assert MappingRecord(m) != MappingRecord(m.with_deprecated(True))

    def test_connectivity_record(self):
        r = ConnectivityRecord("S", 2, 3, version=(1, "p"))
        assert r.degree_pair == (2, 3)
        assert r == ConnectivityRecord("S", 2, 3, version=(1, "p"))
        assert r != ConnectivityRecord("S", 2, 4, version=(1, "p"))
        assert r != ConnectivityRecord("S", 2, 3, version=(2, "p"))
        assert r != ConnectivityRecord("S", 2, 3, version=(1, "q"))
        assert len({r, ConnectivityRecord("S", 2, 3, version=(1, "p"))}) == 1
        assert pickle.loads(pickle.dumps(r)) == r

    def test_connectivity_rejects_negative(self):
        with pytest.raises(ValueError):
            ConnectivityRecord("S", -1, 0, version=(1, "p"))

    def test_records_hashable(self):
        m = sample_mapping()
        assert len({MappingRecord(m), MappingRecord(m)}) == 1

    def test_records_immutable(self):
        record = ConnectivityRecord("S", 1, 1, version=(1, "p"))
        with pytest.raises(AttributeError):
            record.in_degree = 5


class TestKeys:
    def test_triple_keys_order(self):
        t = Triple(URI("s"), URI("p"), Literal("o"))
        keys = triple_keys(t)
        assert keys == [order_preserving_hash("s"),
                        order_preserving_hash("p"),
                        order_preserving_hash("o")]

    def test_term_key_matches_value_hash(self):
        assert term_key(URI("EMBL#Organism")) == order_preserving_hash(
            "EMBL#Organism")
        assert term_key(Literal("value")) == order_preserving_hash("value")

    def test_schema_key(self):
        assert schema_key("EMBL") == order_preserving_hash("EMBL")

    def test_domain_key(self):
        assert domain_key("bio") == order_preserving_hash("bio")

    def test_values_sharing_nineteen_characters_share_a_key(self):
        """128 bits resolve ~19 characters of a value: two values
        equal in their first 19 characters collide, 18 do not."""
        assert (order_preserving_hash(SHARED_19 + "a")
                == order_preserving_hash(SHARED_19 + "b"))
        assert (order_preserving_hash(SHARED_19[1:] + "a")
                != order_preserving_hash(SHARED_19[1:] + "b"))

    @given(triples=st.tuples(corpora(), colliding_triples()).flatmap(
        lambda drawn: st.permutations(drawn[0] + drawn[1])))
    @STANDARD_SETTINGS
    def test_group_by_key_equals_per_triple_keys(self, triples):
        """Hashing each distinct term once changes nothing: the same
        keys in the same order, each with the same triples in the same
        order.  The planted triples' terms collide, so such a triple
        lands three times under one key."""
        reference = {}
        for triple in triples:
            for key in triple_keys(triple):
                reference.setdefault(key, []).append(triple)
        grouped = group_by_key(triples)
        assert list(grouped) == list(reference)
        assert [list(group) for group in grouped.values()] == list(
            reference.values())
