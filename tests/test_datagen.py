"""Tests for the synthetic bioinformatic corpus generator."""

import random

import pytest

from repro.datagen.concepts import CONCEPT_SYNONYMS, CORE_CONCEPTS
from repro.datagen.entities import generate_entities
from repro.datagen.generator import BioDatasetGenerator
from repro.datagen.workload import QueryWorkloadGenerator
from repro.rdf.terms import Variable
from repro.storage.triplestore import TripleStore


class TestEntities:
    def test_distinct_accessions(self):
        entities = generate_entities(50, random.Random(1))
        accessions = [e.accession for e in entities]
        assert len(set(accessions)) == 50

    def test_every_concept_has_a_value(self):
        entity = generate_entities(1, random.Random(2))[0]
        for concept in CONCEPT_SYNONYMS:
            assert entity.value(concept)

    def test_value_raises_on_unknown_concept(self):
        entity = generate_entities(1, random.Random(2))[0]
        with pytest.raises(KeyError):
            entity.value("nonexistent")

    def test_deterministic_under_seed(self):
        a = generate_entities(10, random.Random(3))
        b = generate_entities(10, random.Random(3))
        assert a == b

    def test_seq_length_consistent_with_description(self):
        entity = generate_entities(1, random.Random(4))[0]
        organism = entity.value("organism")
        assert organism in entity.value("description")


class TestGenerator:
    def test_schema_count(self, bio_dataset):
        assert len(bio_dataset.schemas) == 8

    def test_schema_names_unique(self, bio_dataset):
        names = [s.name for s in bio_dataset.schemas]
        assert len(set(names)) == len(names)

    def test_more_than_20_schemas_get_numbered_names(self):
        ds = BioDatasetGenerator(num_schemas=25, num_entities=30,
                                 entities_per_schema=5, seed=1).generate()
        names = [s.name for s in ds.schemas]
        assert len(set(names)) == 25

    def test_core_concepts_in_every_schema(self, bio_dataset):
        for schema in bio_dataset.schemas:
            concepts = set(
                bio_dataset.attribute_concepts[schema.name].values())
            for core in CORE_CONCEPTS:
                assert core in concepts

    def test_attribute_names_come_from_synonym_pools(self, bio_dataset):
        for schema in bio_dataset.schemas:
            for attr, concept in (
                    bio_dataset.attribute_concepts[schema.name].items()):
                assert attr in CONCEPT_SYNONYMS[concept]

    def test_triples_use_schema_predicates(self, bio_dataset):
        for schema in bio_dataset.schemas:
            for triple in bio_dataset.triples_by_schema[schema.name]:
                assert schema.owns_predicate(triple.predicate)

    def test_triple_count_matches_coverage(self, bio_dataset):
        for schema in bio_dataset.schemas:
            expected = (len(bio_dataset.coverage[schema.name])
                        * len(schema.attributes))
            assert len(bio_dataset.triples_by_schema[schema.name]) == expected

    def test_shared_entities_share_values(self, bio_dataset):
        # The same entity covered by two schemas carries identical
        # canonical values — the precondition for set-distance matching.
        a, b = bio_dataset.schemas[0], bio_dataset.schemas[1]
        shared = (set(bio_dataset.coverage[a.name])
                  & set(bio_dataset.coverage[b.name]))
        if not shared:
            pytest.skip("no shared entities in this draw")
        entity = next(iter(shared))
        acc_a = bio_dataset.concept_attribute(a.name, "accession")
        acc_b = bio_dataset.concept_attribute(b.name, "accession")
        store_a = TripleStore()
        for triple in bio_dataset.triples_by_schema[a.name]:
            store_a.add(triple)
        values_a = {
            t.object.value for t in store_a.all_triples()
            if t.predicate == a.predicate(acc_a)
        }
        assert entity.accession in values_a
        assert acc_b is not None

    def test_ground_truth_pairs_symmetric(self, bio_dataset):
        a, b = bio_dataset.schemas[0].name, bio_dataset.schemas[1].name
        ab = bio_dataset.ground_truth_pairs(a, b)
        ba = bio_dataset.ground_truth_pairs(b, a)
        assert {(y, x) for x, y in ab} == set(ba)

    def test_ground_truth_mapping_is_valid(self, bio_dataset):
        a, b = bio_dataset.schemas[0].name, bio_dataset.schemas[1].name
        mapping = bio_dataset.ground_truth_mapping(a, b)
        assert mapping.source_schema == a
        assert mapping.target_schema == b
        assert mapping.is_user_defined

    def test_corrupted_mapping_has_no_correct_pair(self, bio_dataset):
        a, b = bio_dataset.schemas[0].name, bio_dataset.schemas[1].name
        gt = set(bio_dataset.ground_truth_pairs(a, b))
        bad = bio_dataset.corrupted_mapping(a, b, random.Random(7))
        bad_pairs = {(c.source.local_name, c.target.local_name)
                     for c in bad.correspondences}
        assert not (bad_pairs & gt)

    def test_deterministic_under_seed(self):
        kwargs = dict(num_schemas=5, num_entities=40,
                      entities_per_schema=10, seed=11)
        a = BioDatasetGenerator(**kwargs).generate()
        b = BioDatasetGenerator(**kwargs).generate()
        assert a.triples == b.triples
        assert a.attribute_concepts == b.attribute_concepts

    def test_validates_args(self):
        with pytest.raises(ValueError):
            BioDatasetGenerator(num_schemas=0)
        with pytest.raises(ValueError):
            BioDatasetGenerator(num_entities=5, entities_per_schema=10)

    def test_default_scale_matches_paper(self):
        gen = BioDatasetGenerator()
        assert gen.num_schemas == 50  # "50 distinct schemas"


class TestWorkload:
    def test_queries_are_satisfiable(self, bio_dataset):
        store = TripleStore()
        for triple in bio_dataset.triples:
            store.add(triple)
        workload = QueryWorkloadGenerator(bio_dataset, seed=13)
        for query in workload.queries(50):
            pattern = query.patterns[0]
            assert store.match(pattern), f"unsatisfiable: {query}"

    def test_queries_are_routable(self, bio_dataset):
        workload = QueryWorkloadGenerator(bio_dataset, seed=14)
        for query in workload.queries(50):
            query.patterns[0].routing_position()  # must not raise

    def test_mix_of_query_shapes(self, bio_dataset):
        workload = QueryWorkloadGenerator(bio_dataset, seed=15)
        queries = workload.queries(200)
        like = sum(
            1 for q in queries
            if getattr(q.patterns[0].object, "is_like_pattern", False))
        subject_lookups = sum(
            1 for q in queries
            if not isinstance(q.patterns[0].subject, Variable))
        assert like > 20
        assert subject_lookups > 10

    def test_concept_query_targets_right_attribute(self, bio_dataset):
        schema = bio_dataset.schemas[0]
        workload = QueryWorkloadGenerator(bio_dataset, seed=16)
        query = workload.concept_query(schema.name, "organism", "Asp")
        predicate = query.patterns[0].predicate
        concept = bio_dataset.attribute_concepts[schema.name][
            predicate.local_name]
        assert concept == "organism"

    def test_concept_query_unknown_concept_raises(self, bio_dataset):
        workload = QueryWorkloadGenerator(bio_dataset, seed=17)
        missing = None
        for schema in bio_dataset.schemas:
            if bio_dataset.concept_attribute(schema.name, "host") is None:
                missing = schema.name
                break
        if missing is None:
            pytest.skip("every schema has 'host' in this draw")
        with pytest.raises(ValueError):
            workload.concept_query(missing, "host", "x")

    def test_fraction_validation(self, bio_dataset):
        with pytest.raises(ValueError):
            QueryWorkloadGenerator(bio_dataset, like_fraction=0.9,
                                   subject_fraction=0.9)
