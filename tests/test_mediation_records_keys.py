"""Tests for mediation records and key derivation."""

import pytest

from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.mediation.keys import domain_key, schema_key, term_key, triple_keys
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.util.hashing import order_preserving_hash


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
        r = ConnectivityRecord("S", 2, 3)
        assert r.degree_pair == (2, 3)
        assert r == ConnectivityRecord("S", 2, 3)
        assert r != ConnectivityRecord("S", 2, 4)

    def test_connectivity_rejects_negative(self):
        with pytest.raises(ValueError):
            ConnectivityRecord("S", -1, 0)

    def test_records_hashable(self):
        m = sample_mapping()
        assert len({MappingRecord(m), MappingRecord(m)}) == 1

    def test_records_immutable(self):
        record = ConnectivityRecord("S", 1, 1)
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

    def test_key_width_parameter(self):
        assert len(schema_key("EMBL", bits=16)) == 16
