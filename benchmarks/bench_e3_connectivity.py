"""E3 — §3.1: the connectivity indicator vs the real giant component.

Paper claim: ``ci = sum_jk (jk - k) p_jk >= 0`` "indicates the
emergence of a giant connected component in the graph of schemas and
mappings"; while ``ci < 0`` the mediation layer is not strongly
connected.

Reproduction: sweep the number of random mappings over a fixed schema
population; at each density compare the indicator's sign (computed
from degree records exactly as the domain peer would) against the
ground-truth largest-SCC fraction (Tarjan).  The series shows ci
crossing zero right where the giant component takes off.
"""

import random

from conftest import report, run_once
from record import record

from repro.connectivity.analysis import giant_scc_fraction
from repro.connectivity.indicator import indicator_from_degrees


def sample_graph(num_schemas, num_edges, rng):
    """A random directed mapping graph (no self-loops, no duplicates)."""
    edges = set()
    while len(edges) < num_edges:
        a = rng.randrange(num_schemas)
        b = rng.randrange(num_schemas)
        if a != b:
            edges.add((a, b))
    degrees = {i: [0, 0] for i in range(num_schemas)}
    adjacency = {str(i): [] for i in range(num_schemas)}
    for a, b in edges:
        degrees[a][1] += 1
        degrees[b][0] += 1
        adjacency[str(a)].append(str(b))
    return ([(j, k) for j, k in degrees.values()], adjacency)


def test_e3_indicator_tracks_giant_component(benchmark, scale):
    num_schemas = 200 if scale == "quick" else 1000
    trials = 5
    densities = [0.2, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0]

    def run():
        rows = []
        for density in densities:
            cis, giants = [], []
            for trial in range(trials):
                rng = random.Random(1000 * trial + int(density * 10))
                degrees, adjacency = sample_graph(
                    num_schemas, int(density * num_schemas), rng)
                cis.append(indicator_from_degrees(degrees))
                giants.append(giant_scc_fraction(adjacency))
            rows.append((density,
                         sum(cis) / trials,
                         sum(giants) / trials))
        return rows

    rows = run_once(benchmark, run)
    report("E3", f"{num_schemas} schemas, mean over {trials} trials")
    report("E3", f"{'edges/schema':>12} {'ci':>8} {'giant SCC':>10} "
                 f"{'verdict':>22}")
    for density, ci, giant in rows:
        verdict = "connected" if ci >= 0 else "needs mappings"
        report("E3", f"{density:>12.1f} {ci:>8.3f} {giant:>9.1%} "
                     f"{verdict:>22}")
    record("E3", scale=scale,
           totals={"schemas": num_schemas, "trials": trials},
           runs=[{"edges_per_schema": density, "ci": round(ci, 6),
                  "giant_scc": round(giant, 6)}
                 for density, ci, giant in rows])

    # Shape: ci < 0 with vanishing giant at low density; ci > 0 with a
    # large giant at high density; crossover near 1 edge/schema.
    sparse = [r for r in rows if r[0] <= 0.5]
    dense = [r for r in rows if r[0] >= 2.0]
    assert all(ci < 0 and giant < 0.05 for _d, ci, giant in sparse)
    assert all(ci > 0 and giant > 0.25 for _d, ci, giant in dense)


def test_e3_indicator_from_published_records(benchmark):
    """Same check, but through the full system: degree records
    published by schema peers and aggregated via ``Hash(Domain)``."""
    from repro.datagen import BioDatasetGenerator
    from repro.mediation.network import GridVineNetwork

    dataset = BioDatasetGenerator(
        num_schemas=10, num_entities=60, entities_per_schema=15, seed=5,
    ).generate()
    net = GridVineNetwork.build(num_peers=32, seed=5)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.settle()
    names = [s.name for s in dataset.schemas]

    def run():
        series = []
        # ring the schemas one mapping at a time; record ci + giant
        for i in range(len(names)):
            mapping = dataset.ground_truth_mapping(
                names[i], names[(i + 1) % len(names)],
                mapping_id=f"ring:{i}")
            net.insert_mapping(mapping)
            net.settle()
            ci = net.connectivity_indicator(dataset.domain)
            graph = net.mapping_graph(dataset.domain)
            adjacency = {s: [] for s in graph.schemas()}
            for m in graph.mappings():
                adjacency[m.source_schema].append(m.target_schema)
            series.append((i + 1, ci, giant_scc_fraction(adjacency)))
        return series

    series = run_once(benchmark, run)
    report("E3", "live system: ring construction, one mapping at a time")
    for count, ci, giant in series:
        report("E3", f"  {count:>2} mappings: ci={ci:+.3f} "
                     f"giant={giant:.1%}")
    # Before the ring closes the graph is a path: fragmented, ci < 0.
    assert all(ci < 0 for _c, ci, _g in series[:-1])
    # Closing the ring makes every schema reachable: ci hits 0, and
    # the real giant component jumps to 100%.
    final_count, final_ci, final_giant = series[-1]
    assert final_ci >= 0
    assert final_giant == 1.0
