"""E11 (extension) — §2.2: what the *order-preserving* hash buys.

The paper specifies an order-preserving hash but its demo only
exercises exact-key lookups.  This extension benchmark completes the
picture: order preservation keeps all values with a shared string
prefix in one contiguous key interval, so ``prefix%`` searches resolve
with a handful of subtree range queries (the P-Grid "shower")
instead of flooding every peer.

Series: for growing corpora, messages and latency of a prefix search
via (a) the range protocol vs (b) the only alternative available to a
uniform hash — broadcasting the scan to all peers (modelled at its
theoretical best: one message per peer).
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Variable


def build_corpus(num_entries, seed=19):
    net = GridVineNetwork.build(num_peers=64, seed=seed)
    schema = Schema("S", ["organism"], domain="e11")
    net.insert_schema(schema)
    triples = []
    for i in range(num_entries):
        genus = "Aspergillus" if i % 3 == 0 else "Saccharomyces"
        triples.append(Triple(
            URI(f"S:e{i}"), URI("S#organism"),
            Literal(f"{genus} strain {i:04d}")))
    net.insert_triples(triples)
    net.settle()
    expected = sum(1 for i in range(num_entries) if i % 3 == 0)
    return net, expected


def test_e11_prefix_search_vs_broadcast(benchmark, scale):
    sizes = [60, 120] if scale == "quick" else [60, 120, 240, 480]

    def run():
        rows = []
        for num_entries in sizes:
            net, expected = build_corpus(num_entries)
            x = Variable("x")
            query = ConjunctiveQuery(
                [TriplePattern(x, Variable("p"), Literal("Aspergillus%"))],
                [x])
            net.network.metrics.reset()
            outcome = net.search_for(query, strategy="local")
            messages = net.metrics_snapshot()["messages_sent"]
            broadcast_floor = len(net.peers)  # >= 1 msg/peer, no replies
            rows.append((num_entries, expected, outcome.result_count,
                         messages, broadcast_floor, outcome.latency))
        return rows

    rows = run_once(benchmark, run)
    report("E11", f"{'entries':>8} {'expected':>9} {'found':>6} "
                  f"{'range msgs':>11} {'broadcast>=':>12} {'latency':>8}")
    for entries, expected, found, messages, floor, latency in rows:
        report("E11", f"{entries:>8} {expected:>9} {found:>6} "
                      f"{messages:>11} {floor:>12} {latency:>7.2f}s")
    record("E11", scale=scale, runs=[
        {"entries": entries, "expected": expected, "found": found,
         "range_messages": messages, "broadcast_floor": floor,
         "latency_s": round(latency, 4)}
        for entries, expected, found, messages, floor, latency in rows])

    for _entries, expected, found, messages, floor, _latency in rows:
        assert found == expected          # complete answers
        assert messages < 3 * floor       # far from full-network cost
