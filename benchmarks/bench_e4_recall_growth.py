"""E4 — §4: recall grows as mappings are created automatically.

Paper claim: "In a sparse network of mappings, few results get
returned initially (low recall), while more and more results are
retrieved as mappings get created automatically to ensure the global
interoperability of the system."

Reproduction: deploy the bioinformatic corpus with one seed mapping,
run self-organization rounds, and after each round measure recall of
a fixed panel of semantic queries (ground truth known from the
generator).  The series is (round, ci, #mappings, recall).
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork
from repro.datagen import BioDatasetGenerator
from repro.resilience.scenario import ground_truth_panel, recall_hits
from repro.selforg import CreationPolicy, SelfOrganizationController


def build(scale):
    num_schemas = 10 if scale == "quick" else 20
    dataset = BioDatasetGenerator(
        num_schemas=num_schemas,
        num_entities=120,
        entities_per_schema=30,
        seed=42,
    ).generate()
    net = GridVineNetwork.build(num_peers=100, seed=42, replication=2)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    # Manual seed mappings pair the schemas off (S0->S1, S2->S3, ...):
    # every schema touches a mapping (as the paper requires at schema
    # insertion) but the graph is far from strongly connected, so the
    # indicator starts negative and recall from S0's vocabulary is low.
    names = [s.name for s in dataset.schemas]
    for i in range(0, len(names) - 1, 2):
        net.insert_mapping(
            dataset.ground_truth_mapping(names[i], names[i + 1]))
    net.settle()
    return net, dataset


NEEDLES = ("Aspergillus", "Saccharomyces", "Escherichia")


def measure_recall(net, panel):
    found = total = 0
    for query, truth in panel:
        outcome = net.search_for(query, strategy="iterative", max_hops=10)
        hits = recall_hits(outcome)
        found += len(hits & truth)
        total += len(truth)
    return found / total if total else 1.0


def test_e4_recall_growth(benchmark, scale):
    net, dataset = build(scale)
    panel = ground_truth_panel(dataset, NEEDLES)
    controller = SelfOrganizationController(
        net, domain=dataset.domain,
        # directed creation: the graph densifies gradually, so the
        # recall series has several points before ci crosses zero
        policy=CreationPolicy(mappings_per_round=3, bidirectional=False),
    )

    def run():
        series = []
        ci = net.connectivity_indicator(dataset.domain)
        mappings = len(net.mapping_graph(dataset.domain).mappings())
        series.append((-1, ci, mappings, measure_recall(net, panel)))
        for round_index in range(12):
            report_round = controller.step()
            recall = measure_recall(net, panel)
            mappings = len(net.mapping_graph(dataset.domain).mappings())
            series.append((round_index, report_round.ci_after,
                           mappings, recall))
            if (report_round.ci_after >= 0 and not report_round.created
                    and not report_round.deprecated):
                break
        return series

    series = run_once(benchmark, run)
    report("E4", f"{len(dataset.schemas)} schemas, "
                 f"{len(dataset.triples)} triples, "
                 f"panel of {len(panel)} semantic queries")
    report("E4", f"{'round':>6} {'ci':>8} {'mappings':>9} {'recall':>8}")
    for round_index, ci, mappings, recall in series:
        label = "seed" if round_index < 0 else str(round_index)
        report("E4", f"{label:>6} {ci:>+8.3f} {mappings:>9} {recall:>7.1%}")
    record("E4", scale=scale,
           totals={"schemas": len(dataset.schemas),
                   "triples": len(dataset.triples)},
           runs=[{"round": round_index, "ci": round(ci, 6),
                  "mappings": mappings, "recall": round(recall, 4)}
                 for round_index, ci, mappings, recall in series])

    initial_recall = series[0][3]
    final_recall = series[-1][3]
    # Shape: recall starts low and grows substantially; ci ends >= 0.
    assert initial_recall < 0.5
    assert final_recall > initial_recall + 0.2
    assert series[-1][1] >= 0
