"""Hypothesis strategies for the overlay's value objects.

Schemas, predicate correspondences, schema mappings and the three
records the mediation layer stores (``MappingRecord``,
``IncomingMappingRecord``, ``ConnectivityRecord``), drawn from small
name pools so attributes repeat (``Schema`` dedups them) and mappings
mix equivalences with subsumptions (only the former reverse).
"""

from hypothesis import strategies as st

from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.rdf.terms import URI
from repro.schema.model import Schema

names = st.text(alphabet="ABxy_0", min_size=1, max_size=4)
unit_scores = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def schemas(draw) -> Schema:
    return Schema(draw(names), draw(st.lists(names, min_size=1, max_size=5)),
                  domain=draw(names))


@st.composite
def correspondences(draw, source: str, target: str
                    ) -> PredicateCorrespondence:
    """A correspondence from an attribute of schema ``source`` to one
    of schema ``target``."""
    return PredicateCorrespondence(
        URI(f"{source}#{draw(names)}"), URI(f"{target}#{draw(names)}"),
        draw(st.sampled_from(MappingKind)), draw(unit_scores))


@st.composite
def schema_mappings(draw) -> SchemaMapping:
    source, target = draw(st.lists(names, min_size=2, max_size=2,
                                   unique=True))
    return SchemaMapping(
        draw(names), source, target,
        draw(st.lists(correspondences(source, target), min_size=1,
                      max_size=4)),
        provenance=draw(st.sampled_from(["user", "auto"])),
        deprecated=draw(st.booleans()), confidence=draw(unit_scores))


@st.composite
def connectivity_records(draw) -> ConnectivityRecord:
    degree = st.integers(min_value=0, max_value=5)
    return ConnectivityRecord(draw(names), draw(degree), draw(degree),
                              (draw(degree), draw(names)))


def value_objects():
    """An instance of any of the six value classes."""
    return st.one_of(
        schemas(),
        schema_mappings().flatmap(
            lambda mapping: st.sampled_from(mapping.correspondences)),
        schema_mappings(),
        schema_mappings().map(MappingRecord),
        schema_mappings().map(IncomingMappingRecord),
        connectivity_records())
