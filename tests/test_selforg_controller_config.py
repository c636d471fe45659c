"""Tests for controller configuration paths and creator edge cases."""

import pytest

from repro.mapping.graph import MappingGraph
from repro.mediation.network import GridVineNetwork
from repro.selforg.controller import SelfOrganizationController
from repro.selforg.creator import CreationPolicy, propose_mappings
from repro.selforg.deprecation import PRIOR


@pytest.fixture(scope="module")
def hinted_deployment():
    from repro.datagen import BioDatasetGenerator
    dataset = BioDatasetGenerator(
        num_schemas=6, num_entities=60, entities_per_schema=20, seed=31,
    ).generate()
    net = GridVineNetwork.build(num_peers=24, seed=31)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    names = [s.name for s in dataset.schemas]
    net.insert_mapping(dataset.ground_truth_mapping(names[0], names[1]))
    net.settle()
    return net, dataset


class TestReferenceHint:
    def test_hint_restricts_reference_values(self, hinted_deployment):
        net, dataset = hinted_deployment
        unrestricted = SelfOrganizationController(net, domain=dataset.domain)
        hinted = SelfOrganizationController(
            net, domain=dataset.domain,
            # every generated schema realizes 'accession' through a
            # synonym containing "acc" (case-insensitive)
            reference_attribute_hint="acc",
        )
        schemas, _graph = unrestricted._fetch_schemas(
            net.connectivity_records(dataset.domain))
        _vals_u, refs_u = unrestricted._collect_instance_state(schemas)
        _vals_h, refs_h = hinted._collect_instance_state(schemas)
        for name in refs_h:
            assert refs_h[name] <= refs_u[name]
        # at least one schema has strictly fewer references when only
        # accession-like attributes count
        assert any(len(refs_h[n]) < len(refs_u[n]) for n in refs_h)

    def test_hinted_controller_still_connects(self, hinted_deployment):
        net, dataset = hinted_deployment
        controller = SelfOrganizationController(
            net, domain=dataset.domain,
            policy=CreationPolicy(mappings_per_round=4),
            reference_attribute_hint="acc",
        )
        reports = controller.run(max_rounds=8)
        assert reports[-1].ci_after >= 0


class TestCreationPolicyValidation:
    """A policy that would fail or silently stall mid-round is refused
    at construction."""

    @pytest.mark.parametrize("field, value", [
        ("mappings_per_round", 0), ("mappings_per_round", -1),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            CreationPolicy(**{field: value})

    def test_accepts_the_edges(self):
        CreationPolicy(mappings_per_round=1)


class TestProposeMappingsEdges:
    def test_no_candidates_proposes_nothing(self):
        proposals = propose_mappings(
            schemas={}, value_sets={}, references={},
            graph=MappingGraph(),
        )
        assert proposals == []

    def test_unknown_schema_in_references_skipped(self, bio_dataset):
        ds = bio_dataset
        a, b = ds.schemas[0].name, ds.schemas[1].name
        proposals = propose_mappings(
            schemas={a: ds.schema(a)},  # b's definition missing
            value_sets={a: {}, b: {}},
            references={a: {"shared"}, b: {"shared"}},
            graph=MappingGraph(),
        )
        assert proposals == []

    def test_proposal_ids_use_prefix(self, bio_dataset):
        ds = bio_dataset
        a, b = ds.schemas[0].name, ds.schemas[1].name

        def values(name):
            sets: dict = {attr: set() for attr in ds.schema(name).attributes}
            for t in ds.triples_by_schema[name]:
                sets[t.predicate.local_name].add(t.object.value)
            return sets

        proposals = propose_mappings(
            schemas={a: ds.schema(a), b: ds.schema(b)},
            value_sets={a: values(a), b: values(b)},
            references={a: {"r"}, b: {"r"}},
            graph=MappingGraph(),
            id_prefix="auto:r7",
        )
        assert proposals
        assert all(m.mapping_id.startswith("auto:r7:") for m in proposals)
        assert all(m.provenance == "auto" for m in proposals)
        # a created mapping starts at the analysis' prior belief
        assert all(m.confidence == PRIOR for m in proposals)

    def test_round_budget_respected(self, bio_dataset):
        ds = bio_dataset
        names = [s.name for s in ds.schemas]

        def values(name):
            sets: dict = {attr: set() for attr in ds.schema(name).attributes}
            for t in ds.triples_by_schema[name]:
                sets[t.predicate.local_name].add(t.object.value)
            return sets

        proposals = propose_mappings(
            schemas={n: ds.schema(n) for n in names},
            value_sets={n: values(n) for n in names},
            references={n: {"r"} for n in names},
            graph=MappingGraph(),
            policy=CreationPolicy(mappings_per_round=2),
        )
        assert len(proposals) <= 2
