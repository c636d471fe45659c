"""A self-organization round's computation equals its set definitions.

Candidate ranking counts shared references on bit masks; the oracle
here intersects the reference sets pair by pair (``len(a & b)``) and
skips a pair an active mapping joins, in either direction.  Bits are
assigned in set iteration order, which follows the hash seed, so the
ranking is also checked against the same sets built in another order.

The controller groups one instance read in one pass over each key
space; the oracle filters the read once per predicate, as the
controller did before: a predicate's values are the objects of its
triples among the items read under its own key.
"""

import random
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.mapping.graph import MappingGraph
from repro.rdf.triples import Triple
from repro.selforg import controller as controller_module
from repro.selforg.candidates import rank_candidate_pairs
from repro.selforg.controller import SelfOrganizationController

from strategies import STANDARD_SETTINGS, instance_cases, ranking_cases


def reference_ranking(references, graph, min_shared):
    connected = set()
    if graph is not None:
        connected = {frozenset((m.source_schema, m.target_schema))
                     for m in graph.mappings()}
    schemas = sorted(references)
    ranked = []
    for i, schema_a in enumerate(schemas):
        for schema_b in schemas[i + 1:]:
            if frozenset((schema_a, schema_b)) in connected:
                continue
            shared = len(references[schema_a] & references[schema_b])
            if shared >= min_shared:
                ranked.append((schema_a, schema_b, shared))
    ranked.sort(key=lambda t: (-t[2], t[0], t[1]))
    return ranked


@STANDARD_SETTINGS
@given(ranking_cases(), st.sampled_from((True, True, True, False)))
def test_ranking_equals_the_pairwise_intersection(case, with_graph):
    references = {name: set(refs) for name, refs in case.references.items()}
    graph = MappingGraph(case.mappings) if with_graph else None
    assert (rank_candidate_pairs(references, graph, case.min_shared)
            == reference_ranking(references, graph, case.min_shared))


@STANDARD_SETTINGS
@given(ranking_cases(), st.randoms(use_true_random=False))
def test_ranking_does_not_follow_bit_order(case, rng: random.Random):
    graph = MappingGraph(case.mappings)
    forward = {name: set(sorted(refs))
               for name, refs in case.references.items()}
    shuffled = {}
    for name in rng.sample(sorted(case.references),
                           len(case.references)):
        values = sorted(case.references[name])
        rng.shuffle(values)
        shuffled[name] = set(values)
    assert (rank_candidate_pairs(shuffled, graph, case.min_shared)
            == rank_candidate_pairs(forward, graph, case.min_shared))


class _ReadStub:
    """A network whose one instance read returns the drawn spaces."""

    def __init__(self, spaces) -> None:
        self.spaces = spaces

    def call(self, method, keys):
        assert method == "retrieve_many"
        return {key: self.spaces[key] for key in keys}, 0


def reference_instance_state(case):
    value_sets, references = {}, {}
    for name, schema in case.schemas.items():
        per_attr, refs = {}, set()
        for attribute in schema.attributes:
            predicate = schema.predicate(attribute)
            values = {item.object.value
                      for item in case.spaces[case.key_of[predicate]]
                      if isinstance(item, Triple)
                      and item.predicate == predicate}
            per_attr[attribute] = values
            if case.hint is None or case.hint.lower() in attribute.lower():
                refs |= values
        value_sets[name] = per_attr
        references[name] = refs
    return value_sets, references


@STANDARD_SETTINGS
@given(instance_cases())
def test_grouped_instance_state_equals_the_per_predicate_filter(case):
    controller = SelfOrganizationController(
        _ReadStub(case.spaces), reference_attribute_hint=case.hint)
    # Draw which predicates share a key instead of hashing them.
    with mock.patch.object(controller_module, "term_key",
                           case.key_of.__getitem__):
        state = controller._collect_instance_state(case.schemas)
    assert state == reference_instance_state(case)
