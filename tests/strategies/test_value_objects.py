"""Property test: the overlay's value objects behave as values.

``Schema``, ``PredicateCorrespondence``, ``SchemaMapping`` and the
three mediation records are ``@dataclass(frozen=True, slots=True)``
classes.  Over generated instances of all six:

(i) pickling at every protocol, ``copy.copy`` and ``copy.deepcopy``
    return an equal object with an equal hash (forked shard workers
    ship schemas and mappings through pickles);
(ii) assigning any field raises ``AttributeError``;
(iii) ``reversed()`` and ``with_deprecated()`` derive the mappings
    their definitions give, field by field;
(iv) each invalid input raises the error, type and message, that the
    constructor has always raised for it.
"""

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given
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
from strategies import (
    STANDARD_SETTINGS,
    connectivity_records,
    schema_mappings,
    schemas,
    value_objects,
)

VALUE_CLASSES = (Schema, PredicateCorrespondence, SchemaMapping,
                 MappingRecord, IncomingMappingRecord, ConnectivityRecord)


def test_the_six_are_frozen_slotted_dataclasses():
    for cls in VALUE_CLASSES:
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" in cls.__dict__, cls


@STANDARD_SETTINGS
@given(value_objects())
def test_copies_are_equal_with_equal_hashes(value):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for twin in copies:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


@STANDARD_SETTINGS
@given(value_objects(), st.data())
def test_assigning_a_field_raises(value, data):
    field = data.draw(st.sampled_from(dataclasses.fields(value)))
    before = getattr(value, field.name)
    with pytest.raises(AttributeError):
        setattr(value, field.name, before)
    assert getattr(value, field.name) is before


@STANDARD_SETTINGS
@given(schema_mappings())
def test_records_of_one_mapping_differ_by_type(mapping):
    assert MappingRecord(mapping) == MappingRecord(mapping)
    assert MappingRecord(mapping) != IncomingMappingRecord(mapping)


@STANDARD_SETTINGS
@given(schema_mappings(), st.booleans(), st.none() | st.just("rid"))
def test_derived_mappings(mapping, deprecated, reverse_id):
    flipped = mapping.with_deprecated(deprecated)
    assert type(flipped) is SchemaMapping
    assert (flipped.mapping_id, flipped.source_schema, flipped.target_schema,
            flipped.correspondences, flipped.provenance, flipped.deprecated,
            flipped.confidence) == (
        mapping.mapping_id, mapping.source_schema, mapping.target_schema,
        mapping.correspondences, mapping.provenance, deprecated,
        mapping.confidence)

    for c in mapping.correspondences:
        if c.kind is MappingKind.EQUIVALENCE:
            assert c.reversed() == PredicateCorrespondence(
                c.target, c.source, c.kind, c.score)
        else:
            with pytest.raises(
                    ValueError,
                    match="^only equivalence correspondences reverse$"):
                c.reversed()
    reversible = tuple(
        PredicateCorrespondence(c.target, c.source, c.kind, c.score)
        for c in mapping.correspondences
        if c.kind is MappingKind.EQUIVALENCE)
    if not reversible:
        with pytest.raises(ValueError, match=re.escape(
                f"mapping {mapping.mapping_id} is not reversible")):
            mapping.reversed(reverse_id)
        return
    reverse = mapping.reversed(reverse_id)
    assert (reverse.mapping_id, reverse.source_schema, reverse.target_schema,
            reverse.correspondences, reverse.provenance, reverse.deprecated,
            reverse.confidence) == (
        reverse_id if reverse_id is not None
        else f"{mapping.mapping_id}~rev",
        mapping.target_schema, mapping.source_schema, reversible,
        mapping.provenance, mapping.deprecated, mapping.confidence)


def _raises(error, message, build, *args, **kwargs):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(*args, **kwargs)


@STANDARD_SETTINGS
@given(schemas(), st.data())
def test_an_invalid_schema_raises_as_before(schema, data):
    attrs = schema.attributes
    _raises(ValueError, "schema name must be non-empty", Schema, "", attrs)
    hashed = data.draw(st.sampled_from([f"#{schema.name}",
                                        f"{schema.name}#x"]))
    _raises(ValueError, "schema name must not contain '#'",
            Schema, hashed, attrs)
    _raises(ValueError, f"schema {schema.name!r} needs at least one "
            "attribute", Schema, schema.name, [])
    bad = data.draw(st.sampled_from(["", "a#b", "#"]))
    _raises(ValueError, f"bad attribute name {bad!r}",
            Schema, schema.name, [*attrs, bad])


@STANDARD_SETTINGS
@given(schema_mappings(),
       st.floats(allow_nan=False).filter(lambda x: not 0.0 <= x <= 1.0))
def test_an_invalid_mapping_raises_as_before(mapping, outside):
    c = mapping.correspondences[0]
    _raises(ValueError, "score must be in [0, 1]", PredicateCorrespondence,
            c.source, c.target, c.kind, outside)
    _raises(TypeError, "correspondence endpoints must be URIs",
            PredicateCorrespondence, c.source.value, c.target)
    _raises(TypeError, "correspondence endpoints must be URIs",
            PredicateCorrespondence, c.source, c.target.value)

    def build(**changes):
        fields = {f.name: getattr(mapping, f.name)
                  for f in dataclasses.fields(SchemaMapping)}
        return SchemaMapping(**{**fields, **changes})

    _raises(ValueError, "a mapping needs at least one correspondence",
            build, correspondences=[])
    _raises(ValueError, "mapping endpoints must be distinct schemas",
            build, target_schema=mapping.source_schema)
    _raises(ValueError, "unknown provenance 'manual'",
            build, provenance="manual")
    _raises(ValueError, "confidence must be in [0, 1]",
            build, confidence=outside)
    stray = PredicateCorrespondence(URI(f"{mapping.target_schema}#a"),
                                    c.target)
    _raises(ValueError, f"{stray.source} does not belong to source schema "
            f"{mapping.source_schema}",
            build, correspondences=[*mapping.correspondences, stray])
    stray = PredicateCorrespondence(c.source,
                                    URI(f"{mapping.source_schema}#a"))
    _raises(ValueError, f"{stray.target} does not belong to target schema "
            f"{mapping.target_schema}",
            build, correspondences=[*mapping.correspondences, stray])


@STANDARD_SETTINGS
@given(connectivity_records(), st.integers(max_value=-1), st.booleans())
def test_a_negative_degree_raises_as_before(record, negative, inbound):
    degrees = ((negative, record.out_degree) if inbound
               else (record.in_degree, negative))
    _raises(ValueError, "degrees must be non-negative", ConnectivityRecord,
            record.schema_name, *degrees, record.version)
