"""E2 — the §2.3 deployment measurement: query-latency distribution.

Paper claim: "A recent deployment of GridVine on 340 machines
scattered around the world sharing 17000 triples showed that 40% of
the 23000 triple pattern queries we submitted were answered within one
second only, and 75% within five seconds."

Reproduction: 340 simulated peers under the calibrated WAN latency
model (log-normal base RTT, per-message jitter, 15 % straggler hosts —
the PlanetLab-era profile, ``repro.simnet.LogNormalWANLatency``), a
50-schema corpus sized to ~17 000 triples, and a stream of
triple-pattern queries (no reformulation, matching the paper's
workload).  The series reported is the latency CDF at the paper's two
anchor points plus quartiles.

``REPRO_BENCH_SCALE=full`` runs all 23 000 queries; the default quick
scale runs 2 000 (the CDF is stable well below that).
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork
from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.simnet import LogNormalWANLatency
from repro.util.stats import empirical_cdf_at, percentile

#: WAN model calibrated so hop-count x per-hop delay lands near the
#: paper's anchor points (the measured anchors are recorded in
#: ``benchmarks/BENCH_E2.json``).
CALIBRATED_LATENCY = dict(median_ms=100.0, sigma=0.9,
                          jitter_ms=10.0, straggler_prob=0.15,
                          straggler_ms=3000.0)

NUM_PEERS = 340          # paper: 340 machines
TARGET_TRIPLES = 17_000  # paper: 17 000 triples
FULL_QUERIES = 23_000    # paper: 23 000 queries
QUICK_QUERIES = 2_000


def build_deployment():
    dataset = BioDatasetGenerator(
        num_schemas=50,            # paper: 50 distinct schemas
        num_entities=330,
        entities_per_schema=44,    # 50 * 44 * ~8 attrs ~= 17k triples
        seed=2,
    ).generate()
    net = GridVineNetwork.build(
        num_peers=NUM_PEERS, seed=4, replication=2,
        latency=LogNormalWANLatency(**CALIBRATED_LATENCY),
    )
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    net.settle()
    return net, dataset


def test_e2_latency_distribution(benchmark, scale):
    num_queries = FULL_QUERIES if scale == "full" else QUICK_QUERIES
    net, dataset = build_deployment()
    triple_count = len(dataset.triples)
    workload = QueryWorkloadGenerator(dataset, seed=9)
    queries = workload.queries(num_queries)

    def run():
        latencies = []
        answered = 0
        for query in queries:
            outcome = net.search_for(query, strategy="local")
            latencies.append(outcome.latency)
            if outcome.result_count:
                answered += 1
        return latencies, answered

    latencies, answered = run_once(benchmark, run)
    within_1s = empirical_cdf_at(latencies, 1.0)
    within_5s = empirical_cdf_at(latencies, 5.0)
    report("E2", f"peers={NUM_PEERS} triples={triple_count} "
                 f"queries={len(latencies)}")
    report("E2", f"answered within 1s: {within_1s:6.1%}   (paper: 40%)")
    report("E2", f"answered within 5s: {within_5s:6.1%}   (paper: 75%)")
    report("E2", f"median {percentile(latencies, 50):.2f}s  "
                 f"p90 {percentile(latencies, 90):.2f}s  "
                 f"p99 {percentile(latencies, 99):.2f}s (simulated)")
    report("E2", f"queries with >=1 result: {answered / len(latencies):.1%}")
    record("E2", scale=scale,
           totals={"peers": NUM_PEERS, "triples": triple_count,
                   "queries": len(latencies)},
           runs=[{
               "within_1s": round(within_1s, 4),
               "within_5s": round(within_5s, 4),
               "p50_s": round(percentile(latencies, 50), 4),
               "p90_s": round(percentile(latencies, 90), 4),
               "p99_s": round(percentile(latencies, 99), 4),
               "answered": answered,
           }])

    # Shape assertions: the anchors must land in the paper's ballpark.
    assert triple_count == TARGET_TRIPLES or abs(
        triple_count - TARGET_TRIPLES) / TARGET_TRIPLES < 0.1
    assert 0.25 <= within_1s <= 0.55
    assert 0.60 <= within_5s <= 0.90
    assert within_5s > within_1s
