"""E5 — §3.2/§4: erroneous mappings get deprecated and replaced.

Paper claims: "A mapping detected as incorrect is marked as deprecated
in the system, and is from then on ignored"; "Removing some of the
existing mappings fosters the creation of additional mappings, some of
which get deprecated by the Bayesian analysis and are gradually
replaced by other mapping paths."

Reproduction, two parts:

1. *Detection quality*: inject a controlled mix of correct and
   corrupted automatic mappings into a user-mapping backbone; run the
   Bayesian cycle analysis; report precision/recall of deprecation
   across thresholds (the threshold ablation).
2. *Replacement dynamics*: deprecate mappings in a live network and
   count controller rounds until connectivity recovers through other
   paths.
"""

import random

from conftest import report, run_once
from record import record

from repro.mapping.graph import MappingGraph
from repro.selforg.deprecation import (
    DeprecationConfig,
    assess_mapping_quality,
)


def build_evaluation_graph(dataset, num_bad, num_good, rng):
    """A bidirectional user ring + automatic mappings, some corrupted.

    Auto mappings are injected between schemas at ring distance <= 3 so
    every injected edge closes at least one short cycle through the
    user backbone — without such cycles the analysis has no evidence
    and correctly leaves the mapping at its prior (tested separately in
    the unit suite).
    """
    names = [s.name for s in dataset.schemas]
    n = len(names)
    graph = MappingGraph()
    for i in range(n):
        mapping = dataset.ground_truth_mapping(
            names[i], names[(i + 1) % n],
            mapping_id=f"user:{i}", provenance="user")
        graph.add(mapping)
        graph.add(mapping.reversed(f"user:{i}~rev"))
    truth: dict[str, bool] = {}
    pairs = []
    for i in range(n):
        for distance in (2, 3):
            pairs.append((names[i], names[(i + distance) % n]))
    rng.shuffle(pairs)
    good_added = bad_added = 0
    for a, b in pairs:
        if len(dataset.ground_truth_pairs(a, b)) < 2:
            continue
        if good_added < num_good:
            mid = f"auto:good:{a}->{b}"
            graph.add(dataset.ground_truth_mapping(
                a, b, mapping_id=mid, provenance="auto"))
            truth[mid] = True
            good_added += 1
        elif bad_added < num_bad:
            mid = f"auto:bad:{a}->{b}"
            graph.add(dataset.corrupted_mapping(a, b, rng, mapping_id=mid))
            truth[mid] = False
            bad_added += 1
        if good_added >= num_good and bad_added >= num_bad:
            break
    return graph, truth


def test_e5_deprecation_precision_recall(benchmark, scale):
    from repro.datagen import BioDatasetGenerator
    dataset = BioDatasetGenerator(
        num_schemas=8, num_entities=100, entities_per_schema=30,
        concepts_per_schema=(8, 12), seed=17,
    ).generate()
    rng = random.Random(17)
    graph, truth = build_evaluation_graph(dataset, num_bad=5, num_good=5,
                                          rng=rng)

    def run():
        rows = []
        for threshold in (0.15, 0.35, 0.5, 0.65):
            config = DeprecationConfig(threshold=threshold)
            beliefs = assess_mapping_quality(graph, config)
            flagged = {mid for mid, correct in truth.items()
                       if beliefs[mid] < threshold}
            actually_bad = {mid for mid, ok in truth.items() if not ok}
            tp = len(flagged & actually_bad)
            precision = tp / len(flagged) if flagged else 1.0
            recall = tp / len(actually_bad) if actually_bad else 1.0
            rows.append((threshold, precision, recall, len(flagged)))
        return rows, assess_mapping_quality(graph)

    rows, beliefs = run_once(benchmark, run)
    report("E5", f"{sum(1 for ok in truth.values() if not ok)} corrupted + "
                 f"{sum(1 for ok in truth.values() if ok)} correct "
                 f"auto mappings on a user backbone")
    report("E5", f"{'threshold':>10} {'precision':>10} {'recall':>8} "
                 f"{'flagged':>8}")
    for threshold, precision, recall, flagged in rows:
        report("E5", f"{threshold:>10.2f} {precision:>10.1%} "
                     f"{recall:>8.1%} {flagged:>8}")
    mean_good = sum(beliefs[mid] for mid, ok in truth.items() if ok) / 5
    mean_bad = sum(beliefs[mid] for mid, ok in truth.items() if not ok) / 5
    report("E5", f"mean posterior: correct autos {mean_good:.2f}, "
                 f"corrupted autos {mean_bad:.2f}")
    record("E5", scale=scale,
           totals={"mean_posterior_correct": round(mean_good, 4),
                   "mean_posterior_corrupted": round(mean_bad, 4)},
           runs=[{"threshold": threshold,
                  "precision": round(precision, 4),
                  "recall": round(recall, 4), "flagged": flagged}
                 for threshold, precision, recall, flagged in rows])

    # Shape: at the default threshold, deprecation is near-perfect.
    _t, precision, recall, _f = rows[1]
    assert precision >= 0.8
    assert recall >= 0.8
    assert mean_good > mean_bad + 0.3


def test_e5_replacement_after_deprecation(benchmark):
    from repro.datagen import BioDatasetGenerator
    from repro.mediation.network import GridVineNetwork
    from repro.selforg import CreationPolicy, SelfOrganizationController

    dataset = BioDatasetGenerator(
        num_schemas=8, num_entities=80, entities_per_schema=25, seed=23,
    ).generate()
    net = GridVineNetwork.build(num_peers=48, seed=23)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    net.insert_mapping(
        dataset.ground_truth_mapping(dataset.schemas[0].name,
                                     dataset.schemas[1].name),
        bidirectional=True)
    net.settle()
    controller = SelfOrganizationController(
        net, domain=dataset.domain,
        policy=CreationPolicy(mappings_per_round=4))
    controller.run(max_rounds=8)

    def run():
        graph = net.mapping_graph(dataset.domain)
        autos = [m for m in graph.mappings()
                 if m.provenance == "auto"][:4]
        for mapping in autos:
            net.remove_mapping(mapping)
        net.settle()
        ci_after_removal = net.connectivity_indicator(dataset.domain)
        rounds_to_recover = 0
        for _ in range(10):
            round_report = controller.step()
            rounds_to_recover += 1
            if round_report.ci_after >= 0:
                break
        return len(autos), ci_after_removal, rounds_to_recover, \
            net.connectivity_indicator(dataset.domain)

    removed, ci_broken, rounds, ci_final = run_once(benchmark, run)
    report("E5", f"removed {removed} mappings -> ci {ci_broken:+.3f}; "
                 f"recovered to ci {ci_final:+.3f} "
                 f"in {rounds} round(s)")
    assert ci_final >= 0
