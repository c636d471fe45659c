"""E8 (ablation) — §4: iterative vs recursive reformulation.

Paper claim: "In reformulating queries, we support two approaches:
iterative, where a peer iteratively looks for paths of mappings and
reformulates the query by itself, and recursive, where the successive
reformulations are delegated to intermediate peers."

The paper demonstrates both without comparing them quantitatively;
this ablation fills that in: along mapping chains of length 1..8,
both strategies return identical answers but spend messages and
virtual latency differently — the iterative origin pays a
schema-space retrieve round trip per discovered schema, while the
recursive chain pipelines reformulation with execution.
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.simnet import LogNormalWANLatency


def build_chain(length, seed=3):
    net = GridVineNetwork.build(
        num_peers=96, seed=seed,
        latency=LogNormalWANLatency(straggler_prob=0.0),
    )
    schemas = []
    for i in range(length + 1):
        schema = Schema(f"S{i}", [f"org{i}"], domain="chain")
        schemas.append(schema)
        net.insert_schema(schema)
        net.insert_triples([
            Triple(URI(f"S{i}:e"), URI(f"S{i}#org{i}"),
                   Literal("Aspergillus")),
        ])
    for i in range(length):
        net.create_mapping(schemas[i], schemas[i + 1],
                           [(f"org{i}", f"org{i + 1}")])
    net.settle()
    return net


def test_e8_strategy_cost_profile(benchmark, scale):
    lengths = [1, 2, 4, 6] if scale == "quick" else [1, 2, 3, 4, 5, 6, 7, 8]

    def run():
        rows = []
        for length in lengths:
            net = build_chain(length)
            row = {"length": length}
            for strategy in ("iterative", "recursive"):
                net.network.metrics.reset()
                outcome = net.search_for(
                    "SearchFor(x? : (x?, S0#org0, %Asp%))",
                    strategy=strategy, max_hops=length + 1)
                row[strategy] = (
                    outcome.result_count,
                    outcome.latency,
                    net.metrics_snapshot()["messages_sent"],
                )
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    report("E8", f"{'chain':>6} | {'iter results':>12} {'iter lat':>9} "
                 f"{'iter msgs':>9} | {'rec results':>11} {'rec lat':>8} "
                 f"{'rec msgs':>9}")
    for row in rows:
        it = row["iterative"]
        rec = row["recursive"]
        report("E8", f"{row['length']:>6} | {it[0]:>12} {it[1]:>8.2f}s "
                     f"{it[2]:>9} | {rec[0]:>11} {rec[1]:>7.2f}s "
                     f"{rec[2]:>9}")
    record("E8", scale=scale, runs=[
        {"chain": row["length"], "strategy": strategy,
         "results": row[strategy][0],
         "latency_s": round(row[strategy][1], 4),
         "messages": row[strategy][2]}
        for row in rows for strategy in ("iterative", "recursive")])

    for row in rows:
        # identical answers: every schema on the chain contributes one
        assert row["iterative"][0] == row["recursive"][0] \
            == row["length"] + 1
    # the pipelined recursive strategy wins on latency for long chains
    longest = rows[-1]
    assert longest["recursive"][1] < longest["iterative"][1]
