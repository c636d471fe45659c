#!/usr/bin/env python3
"""The §4 demonstration storyline on synthetic bioinformatic data.

Recreates the VLDB'07 demo script:

1. generate a corpus of bioinformatic schemas and protein records
   (substituting the EBI/SRS export — see ``repro.datagen`` in
   docs/ARCHITECTURE.md);
2. insert data, schemas and a few manually created mappings into a
   network of a few hundred peers;
3. monitor the connectivity indicator at the mediation layer while the
   self-organization loop creates mappings automatically;
4. issue the same semantic query throughout and watch recall grow as
   the mapping network densifies;
5. remove some mappings and watch replacements appear.

Run:  python examples/bioinformatics_demo.py  [--peers N] [--schemas N]
"""

import argparse

from repro import GridVineNetwork
from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.selforg import CreationPolicy, SelfOrganizationController


def relevant_entries(dataset, needle: str) -> set[str]:
    """Ground truth: subjects of every record whose organism matches."""
    return {
        f"{schema.name}:{entity.accession}"
        for schema in dataset.schemas
        for entity in dataset.coverage[schema.name]
        if needle in entity.value("organism")
    }


def measure_recall(net, query, truth) -> tuple[int, float]:
    """Run the query with reformulation; return (hits, recall)."""
    outcome = net.search_for(query, strategy="iterative", max_hops=8)
    hits = {str(row[0]).strip("<>") for row in outcome.results}
    found = len(hits & truth)
    return found, found / len(truth) if truth else 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=200)
    parser.add_argument("--schemas", type=int, default=20)
    parser.add_argument("--entities", type=int, default=150)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print("=== 1. generating the corpus ===")
    dataset = BioDatasetGenerator(
        num_schemas=args.schemas,
        num_entities=args.entities,
        entities_per_schema=max(10, args.entities // 5),
        seed=args.seed,
    ).generate()
    print(f"{len(dataset.schemas)} schemas, {len(dataset.triples)} triples, "
          f"{len(dataset.entities)} shared protein entities")

    print("\n=== 2. deploying the network ===")
    net = GridVineNetwork.build(num_peers=args.peers, seed=args.seed,
                                replication=2)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    net.settle()
    print(f"{args.peers} peers; "
          f"{net.total_triples_stored()} triple copies stored "
          f"(3 keys x replication)")

    # Manual mappings seed the graph (the demo starts from "a set of
    # manually created mappings"): the schemas are paired off, so
    # every schema touches a mapping but the graph is far from
    # strongly connected and the indicator starts negative.
    names = [s.name for s in dataset.schemas]
    for i in range(0, len(names) - 1, 2):
        net.insert_mapping(dataset.ground_truth_mapping(names[i],
                                                        names[i + 1]))
    net.settle()

    workload = QueryWorkloadGenerator(dataset, seed=args.seed)
    query = workload.concept_query(dataset.schemas[0].name, "organism",
                                   "Aspergillus")
    truth = relevant_entries(dataset, "Aspergillus")
    print(f"probe query: {query}")
    print(f"ground truth: {len(truth)} relevant entries across all schemas")

    print("\n=== 3./4. the self-organization loop ===")
    controller = SelfOrganizationController(
        net, domain=dataset.domain,
        policy=CreationPolicy(mappings_per_round=4),
    )
    found, recall = measure_recall(net, query, truth)
    ci = net.connectivity_indicator(dataset.domain)
    print(f"round -: ci {ci:+.3f}  recall {found}/{len(truth)} = {recall:.0%}")
    for report in controller.run(max_rounds=10):
        found, recall = measure_recall(net, query, truth)
        print(f"round {report.round_index}: "
              f"ci {report.ci_before:+.3f} -> {report.ci_after:+.3f}  "
              f"+{len(report.created)} mappings, "
              f"-{len(report.deprecated)} deprecated  "
              f"recall {found}/{len(truth)} = {recall:.0%}")

    print("\n=== 5. removing mappings fosters replacements ===")
    graph = net.mapping_graph(dataset.domain)
    # keep removing automatic mappings until the indicator notices the
    # damage (degree-based estimates are optimistic, so a single
    # removal rarely flips the sign)
    removable = []
    for mapping in [m for m in graph.mappings()
                    if m.provenance == "auto"]:
        net.remove_mapping(mapping)
        removable.append(mapping)
        net.settle()
        if net.connectivity_indicator(dataset.domain) < 0:
            break
    ci = net.connectivity_indicator(dataset.domain)
    found, recall = measure_recall(net, query, truth)
    print(f"removed {len(removable)} mappings: ci {ci:+.3f}, "
          f"recall {recall:.0%}")
    for report in controller.run(max_rounds=6):
        found, recall = measure_recall(net, query, truth)
        print(f"round {report.round_index}: "
              f"ci {report.ci_before:+.3f} -> {report.ci_after:+.3f}  "
              f"+{len(report.created)}  recall {recall:.0%}")

    print("\nnetwork totals:", net.metrics_snapshot())


if __name__ == "__main__":
    main()
