#!/usr/bin/env python3
"""Mapping deprecation: the Bayesian cycle analysis in action (§3.2).

Builds a small mediation layer where user mappings form a reliable
backbone, injects a deliberately *wrong* automatic mapping alongside a
correct one, and runs the quality assessment:

* cycles through the wrong mapping compose to non-identity
  correspondences → inconsistent evidence;
* the posterior of the wrong mapping collapses below the deprecation
  threshold while the correct automatic mapping's rises;
* after deprecation, query reformulation stops using the wrong edge —
  answers through the bad mapping disappear, answers through the good
  path remain.

Run:  python examples/selforganizing_deprecation.py
"""

import random

from repro import GridVineNetwork
from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.selforg import assess_mapping_quality
from repro.selforg.deprecation import THRESHOLD


def main() -> None:
    dataset = BioDatasetGenerator(
        num_schemas=4, num_entities=60, entities_per_schema=30, seed=9,
    ).generate()
    a, b, c, d = (s.name for s in dataset.schemas)
    net = GridVineNetwork.build(num_peers=48, seed=9)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    net.settle()

    # Backbone of user mappings: A <-> B <-> C <-> D (all correct).
    for x, y in ((a, b), (b, c), (c, d)):
        net.insert_mapping(dataset.ground_truth_mapping(x, y),
                           bidirectional=True)
    # Two automatic mappings closing the D -> A cycle: one correct,
    # one corrupted (attributes of different concepts related).
    good = dataset.ground_truth_mapping(d, a, mapping_id="auto:good:D->A",
                                        provenance="auto")
    bad = dataset.corrupted_mapping(d, a, random.Random(1),
                                    mapping_id="auto:bad:D->A")
    net.insert_mapping(good)
    net.insert_mapping(bad)
    net.settle()

    print("mapping graph:")
    graph = net.mapping_graph(dataset.domain)
    for mapping in graph.mappings():
        print(f"  {mapping.mapping_id:<24} [{mapping.provenance}]")

    posteriors = assess_mapping_quality(graph)
    print(f"\nposterior correctness (threshold {THRESHOLD}):")
    for mapping_id, posterior in sorted(posteriors.items()):
        verdict = "DEPRECATE" if posterior < THRESHOLD else "keep"
        print(f"  {mapping_id:<24} {posterior:.3f}  -> {verdict}")

    # Apply the deprecations through the overlay and show the effect
    # on reformulation.
    workload = QueryWorkloadGenerator(dataset, seed=2)
    query = workload.concept_query(d, "organism", "Aspergillus")
    before = net.search_for(query, strategy="iterative", max_hops=4)
    for mapping in graph.mappings():
        if (not mapping.is_user_defined
                and posteriors[mapping.mapping_id] < THRESHOLD):
            net.deprecate_mapping(mapping)
    net.settle()
    after = net.search_for(query, strategy="iterative", max_hops=4)

    print(f"\nquery {query}")
    print(f"  before deprecation: {before.result_count} results "
          f"({before.reformulations_explored} reformulations)")
    print(f"  after  deprecation: {after.result_count} results "
          f"({after.reformulations_explored} reformulations)")
    bogus = before.results - after.results
    print(f"  answers produced only through the bad mapping: {len(bogus)}")


if __name__ == "__main__":
    main()
