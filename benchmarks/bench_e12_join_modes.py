"""E12 (extension) — §2.3: conjunctive-query join strategies.

The paper resolves conjunctive queries "by iteratively resolving each
triple pattern contained in the query and aggregating the sets of
results retrieved" — our ``parallel`` mode.  The classic distributed-
query refinement is the *bound join*: resolve the most selective
pattern first and substitute its bindings into the next pattern, so
only matching tuples ever cross the network.

The bench sweeps the selectivity of the first pattern and reports,
for both modes, the result counts (always identical), messages, and
values shipped.  The crossover is the point of the ablation: parallel
wins on messages when everything is small; bound wins on shipped
volume as the unbound extent grows relative to the selective subset.
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI


def build_corpus(num_entries, num_selected, seed=33):
    net = GridVineNetwork.build(num_peers=48, seed=seed)
    schema = Schema("S", ["org", "len"], domain="e12")
    net.insert_schema(schema)
    triples = []
    for i in range(num_entries):
        organism = "Aspergillus" if i < num_selected else "Yeast"
        triples.append(Triple(URI(f"S:e{i}"), URI("S#org"),
                              Literal(organism)))
        triples.append(Triple(URI(f"S:e{i}"), URI("S#len"),
                              Literal(str(100 + i))))
    net.insert_triples(triples)
    net.settle()
    return net


QUERY = ('SearchFor(x?, y? : (x?, S#org, "Aspergillus") '
         'AND (x?, S#len, y?))')


def test_e12_parallel_vs_bound_join(benchmark, scale):
    num_entries = 120 if scale == "quick" else 400
    selectivities = [2, 8, 24]

    def run():
        rows = []
        for num_selected in selectivities:
            net = build_corpus(num_entries, num_selected)
            measurements = {}
            for mode in ("parallel", "bound"):
                for peer in net.peers.values():
                    peer.join_mode = mode
                net.network.metrics.reset()
                outcome = net.search_for(QUERY, strategy="local")
                snapshot = net.metrics_snapshot()
                measurements[mode] = (
                    outcome.result_count,
                    snapshot["messages_sent"],
                    snapshot["values_shipped"],
                )
            rows.append((num_selected, measurements))
        return rows

    rows = run_once(benchmark, run)
    report("E12", f"corpus of {num_entries} entries; query joins a "
                  f"selective pattern with the full S#len extent")
    report("E12", f"{'selected':>9} | {'par rows':>8} {'par msgs':>9} "
                  f"{'par shipped':>12} | {'bnd rows':>8} "
                  f"{'bnd msgs':>9} {'bnd shipped':>12}")
    for num_selected, m in rows:
        p = m["parallel"]
        b = m["bound"]
        report("E12", f"{num_selected:>9} | {p[0]:>8} {p[1]:>9} "
                      f"{p[2]:>12} | {b[0]:>8} {b[1]:>9} {b[2]:>12}")
    record("E12", scale=scale, totals={"entries": num_entries}, runs=[
        {"selected": num_selected, "mode": mode, "rows": m[mode][0],
         "messages": m[mode][1], "values_shipped": m[mode][2]}
        for num_selected, m in rows for mode in ("parallel", "bound")])

    for num_selected, m in rows:
        assert m["parallel"][0] == m["bound"][0] == num_selected
        # parallel always ships the full unbound extent (plus the
        # selective side); bound ships only the matching tuples
        assert m["bound"][2] < m["parallel"][2]
    # the gap widens as selectivity sharpens relative to the extent
    first_gap = rows[0][1]["parallel"][2] - rows[0][1]["bound"][2]
    last_gap = rows[-1][1]["parallel"][2] - rows[-1][1]["bound"][2]
    assert first_gap > last_gap
