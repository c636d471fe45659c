"""Regression pin: OperatorStats counters on the E13 workload.

The E13 corpus (a chain of four mapped schemas, engine execution with
wave-staged shared scans) exercises every operator of the columnar
runtime.  This test pins the *exact* per-operator counter snapshots —
rows in/out, batches, fetches issued/skipped, rows dropped — for the
unlimited query and the ``limit=6`` variant.  The counters are the
raw material of the fetches-saved accounting (E15) and the count
baselines; any change to operator wiring, batch granularity or
cancellation timing shows up here as a readable diff instead of a
mysterious benchmark drift.
"""

from repro import GridVineNetwork, Literal, Schema, Triple, URI

QUERY = "SearchFor(x? : (x?, S0#org, %Aspergillus%))"


def build_corpus(num_schemas=4, entries_per_schema=12, seed=29):
    """The E13 bench corpus (benchmarks/bench_e13_plan_cache.py)."""
    net = GridVineNetwork.build(num_peers=48, seed=seed)
    schemas = [Schema(f"S{i}", ["org", "len"], domain="e13")
               for i in range(num_schemas)]
    for schema in schemas:
        net.insert_schema(schema)
    triples = []
    for i, schema in enumerate(schemas):
        for j in range(entries_per_schema):
            organism = "Aspergillus" if j % 3 == 0 else "Yeast"
            subject = URI(f"{schema.name}:e{j}")
            triples.append(Triple(subject, URI(f"{schema.name}#org"),
                                  Literal(f"{organism}-{i}-{j}")))
            triples.append(Triple(subject, URI(f"{schema.name}#len"),
                                  Literal(str(100 + j))))
    net.insert_triples(triples)
    for a, b in zip(schemas, schemas[1:]):
        net.create_mapping(a, b, [("org", "org"), ("len", "len")])
    net.settle()
    return net


def snap(name, rows_in, rows_out, batches_out, fetches_issued,
         fetches_skipped, rows_dropped):
    return {
        "name": name,
        "rows_in": rows_in,
        "rows_out": rows_out,
        "batches_out": batches_out,
        "fetches_issued": fetches_issued,
        "fetches_skipped": fetches_skipped,
        "rows_dropped": rows_dropped,
    }


def _per_reformulation_tail(joins):
    """hash-join -> project -> dedup triples, one per reformulation."""
    out = []
    for rows, batches in joins:
        out.append(snap("hash-join", rows, rows, batches, 0, 0, 0))
        out.append(snap("project", rows, rows, batches, 0, 0, 0))
        out.append(snap("dedup", rows, rows, batches, 0, 0, 0))
    return out


def test_unlimited_operator_stats_pinned():
    engine = build_corpus().create_engine(domain="e13", max_hops=8)
    outcome = engine.search_for(QUERY)
    assert outcome.result_count == 16
    assert outcome.messages == 21
    assert outcome.operator_stats == [
        snap('scan(_c0?, <S0#org>, "%Aspergillus%")', 0, 4, 1, 1, 0, 0),
        snap('scan(_c0?, <S1#org>, "%Aspergillus%")', 0, 4, 1, 1, 0, 0),
        snap('scan(_c0?, <S2#org>, "%Aspergillus%")', 0, 4, 1, 1, 0, 0),
        snap('scan(_c0?, <S3#org>, "%Aspergillus%")', 0, 4, 1, 1, 0, 0),
        snap("union[q0]", 16, 16, 4, 0, 0, 0),
        snap("limit", 16, 16, 4, 0, 0, 0),
        snap("collect", 16, 0, 0, 0, 0, 0),
    ] + _per_reformulation_tail([(4, 1)] * 4)


def test_limited_operator_stats_pinned():
    engine = build_corpus().create_engine(domain="e13", max_hops=8)
    outcome = engine.search_for(QUERY, limit=6)
    assert outcome.result_count == 6
    assert outcome.messages == 11
    assert outcome.fetches_skipped == 2
    # The third wave's scans never ran: the satisfied limit cancelled
    # them, and the cancellation is visible in fetches_skipped while
    # the already-fetched waves keep their exact unlimited counters.
    assert outcome.operator_stats == [
        snap('scan(_c0?, <S0#org>, "%Aspergillus%")', 0, 4, 1, 1, 0, 0),
        snap('scan(_c0?, <S1#org>, "%Aspergillus%")', 0, 4, 1, 1, 0, 0),
        snap('scan(_c0?, <S2#org>, "%Aspergillus%")', 0, 0, 0, 0, 1, 0),
        snap('scan(_c0?, <S3#org>, "%Aspergillus%")', 0, 0, 0, 0, 1, 0),
        snap("union[q0]", 8, 8, 4, 0, 0, 0),
        snap("limit[6]", 8, 6, 2, 0, 0, 2),
        snap("collect", 6, 0, 0, 0, 0, 0),
    ] + _per_reformulation_tail([(4, 1), (4, 1), (0, 1), (0, 1)])
