"""E9 (ablation) — §4: the automatic matcher's measure combination.

Paper claim: automatic mappings are created "using a combination of
lexicographical measures and set distance measures between the
predicates defined in both schemas".

The ablation quantifies why the *combination* is the right choice:
lexicographic-only matching misses synonym pairs with dissimilar names
(``OS`` vs ``SystematicName``); set-distance-only matching misses
key-like attributes whose value sets barely overlap across sources and
is confused by attributes sharing value domains (organism vs host).
The combined matcher dominates both on F1 against the generator's
ground truth.
"""

import random

from conftest import report, run_once
from record import record

from repro.datagen import BioDatasetGenerator
from repro.selforg.matcher import MatcherConfig, match_attributes


def value_sets(dataset, schema_name):
    schema = dataset.schema(schema_name)
    sets = {attr: set() for attr in schema.attributes}
    for triple in dataset.triples_by_schema[schema_name]:
        sets[triple.predicate.local_name].add(triple.object.value)
    return sets


CONFIGS = {
    "lexical-only": MatcherConfig(
        lexical_weight=1.0, extensional_weight=0.0,
        strong_extensional=1.1),
    "set-distance-only": MatcherConfig(
        lexical_weight=0.0, extensional_weight=1.0,
        strong_lexical=1.1, threshold=0.5),
    "combined": MatcherConfig(),
}


def test_e9_matcher_ablation(benchmark, scale):
    num_pairs = 15 if scale == "quick" else 60
    dataset = BioDatasetGenerator(
        num_schemas=20, num_entities=200, entities_per_schema=50, seed=29,
    ).generate()
    rng = random.Random(29)
    names = [s.name for s in dataset.schemas]
    pairs = [tuple(rng.sample(names, 2)) for _ in range(num_pairs)]

    def run():
        rows = []
        for label, config in CONFIGS.items():
            tp = fp = fn = 0
            for a, b in pairs:
                found = {
                    (c.source.local_name, c.target.local_name)
                    for c in match_attributes(
                        dataset.schema(a), dataset.schema(b),
                        value_sets(dataset, a), value_sets(dataset, b),
                        config)
                }
                truth = set(dataset.ground_truth_pairs(a, b))
                tp += len(found & truth)
                fp += len(found - truth)
                fn += len(truth - found)
            precision = tp / (tp + fp) if tp + fp else 1.0
            recall = tp / (tp + fn) if tp + fn else 1.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            rows.append((label, precision, recall, f1))
        return rows

    rows = run_once(benchmark, run)
    report("E9", f"{num_pairs} schema pairs, ground truth from the "
                 f"generator's concept map")
    report("E9", f"{'matcher':>18} {'precision':>10} {'recall':>8} "
                 f"{'F1':>6}")
    scores = {}
    for label, precision, recall, f1 in rows:
        scores[label] = f1
        report("E9", f"{label:>18} {precision:>10.1%} {recall:>8.1%} "
                     f"{f1:>6.2f}")
    record("E9", scale=scale, totals={"schema_pairs": num_pairs}, runs=[
        {"matcher": label, "precision": round(precision, 4),
         "recall": round(recall, 4), "f1": round(f1, 4)}
        for label, precision, recall, f1 in rows])

    assert scores["combined"] >= scores["lexical-only"]
    assert scores["combined"] >= scores["set-distance-only"]
    # combination must beat the best single measure, not just tie both
    assert scores["combined"] > min(scores["lexical-only"],
                                    scores["set-distance-only"])
