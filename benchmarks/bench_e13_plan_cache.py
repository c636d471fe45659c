"""E13 (extension) — the query engine: plan cache + batched dedup.

The engine attacks the two per-query costs of the mediation layer:
reformulation planning (BFS over the mapping graph) and per-pattern
overlay lookups.  This bench measures both savings on a repeated-query
workload over a mapping chain S0 -> S1 -> S2 -> S3:

* **warm vs cold planning** — the same workload executed once with the
  plan cache disabled (``cache_capacity=0``: every query re-plans) and
  once enabled (each distinct query shape plans once).  The paper-
  grade claim is >= 5x fewer planner invocations warm than cold.
* **batched vs sequential messages** — the same workload executed
  query-by-query vs as one batch with pattern lookups deduplicated
  across the whole batch.

A second test runs the distinct query shapes with tracing on and pins
the trace shapes (spans, message spans, peers touched per query): the
tracer hooks sit at the same code gates as the metrics attribution
counters, so a drift means attribution or execution changed.
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.obs.analysis import connected_components, spans_of, trace_ids


def build_corpus(num_schemas=4, entries_per_schema=12, seed=29):
    """A chain of mapped schemas, each with its own data extent."""
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
            triples.append(Triple(subject,
                                  URI(f"{schema.name}#org"),
                                  Literal(f"{organism}-{i}-{j}")))
            triples.append(Triple(subject,
                                  URI(f"{schema.name}#len"),
                                  Literal(str(100 + j))))
    net.insert_triples(triples)
    for a, b in zip(schemas, schemas[1:]):
        net.create_mapping(a, b, [("org", "org"), ("len", "len")])
    net.settle()
    return net


def workload(repeats):
    """``repeats`` interleaved copies of four distinct query shapes."""
    distinct = [
        "SearchFor(x? : (x?, S0#org, %Aspergillus%))",
        "SearchFor(y? : (y?, S0#org, %Aspergillus%))",  # alpha-variant
        "SearchFor(x? : (x?, S1#org, %Yeast%))",
        'SearchFor(x?, y? : (x?, S0#org, %Aspergillus%) '
        'AND (x?, S0#len, y?))',
    ]
    return [q for _ in range(repeats) for q in distinct]


def test_e13_plan_cache_and_batching(benchmark, scale):
    repeats = 8 if scale == "quick" else 32
    queries = workload(repeats)

    def run():
        # -- cold: plan cache disabled, every query re-plans ----------
        cold = build_corpus().create_engine(domain="e13",
                                            cache_capacity=0)
        for query in queries:
            cold.search_for(query)

        # -- warm: plan cache on, same sequential workload ------------
        warm = build_corpus().create_engine(domain="e13")
        sequential_messages = 0
        for query in queries:
            sequential_messages += warm.search_for(query).messages

        # -- batched: same workload, one batch, shared lookups --------
        net = build_corpus()
        batched = net.create_engine(domain="e13")
        result = batched.execute_batch(queries)
        # Unified-registry snapshot of the batched deployment: network
        # counters + engine view, all deterministic simulation counts.
        metrics = net.registry.snapshot()
        return (cold.stats.snapshot(), warm.stats.snapshot(),
                batched.stats.snapshot(), sequential_messages, result,
                metrics)

    (cold, warm, batched, sequential_messages, result,
     metrics) = run_once(benchmark, run)
    report("E13", f"workload: {len(queries)} queries "
                  f"({len(workload(1))} distinct shapes x {repeats})")
    report("E13", f"{'engine':>8} | {'planner runs':>12} "
                  f"{'cache hits':>10} {'hit rate':>8}")
    for label, stats in (("cold", cold), ("warm", warm)):
        report("E13", f"{label:>8} | {stats['planner_invocations']:>12} "
                      f"{stats['cache']['hits']:>10} "
                      f"{stats['cache']['hit_rate']:>8.1%}")
    report("E13", f"messages: sequential {sequential_messages}, "
                  f"batched {batched['messages']}; pattern lookups "
                  f"{result.patterns_total} -> {result.patterns_fetched} "
                  f"({result.lookups_saved} saved by dedup)")
    record("E13", scale=scale, metrics=metrics, runs=[
        {"mode": "cold", "rows": len(queries),
         "planner_invocations": cold["planner_invocations"],
         "cache_hits": cold["cache"]["hits"]},
        {"mode": "warm", "rows": len(queries),
         "messages": sequential_messages,
         "planner_invocations": warm["planner_invocations"],
         "cache_hits": warm["cache"]["hits"]},
        {"mode": "batched", "rows": len(queries),
         "messages": batched["messages"],
         "patterns_total": result.patterns_total,
         "patterns_fetched": result.patterns_fetched},
    ], totals={"queries": len(queries), "seed": 29})

    # A repeated query plans once warm, every time cold: >= 5x fewer.
    assert cold["planner_invocations"] >= \
        5 * warm["planner_invocations"]
    # Warm planning still answers every query (hits fill the gap).
    assert (warm["cache"]["hits"] + warm["planner_invocations"]
            == len(queries))
    # Batching dedupes pattern lookups and saves network messages.
    assert result.patterns_fetched < result.patterns_total
    assert batched["messages"] < sequential_messages


def test_e13_trace_shapes(benchmark, scale):
    """Tracing on: one connected trace per query whose message spans
    number exactly the messages attributed to that query."""
    def run():
        net = build_corpus()
        # The engine's backfill crawl is traced operations too; the
        # tracer goes in after it so the file holds the queries only.
        engine = net.create_engine(domain="e13")
        tracer = net.install_tracer()
        outcomes = [engine.search_for(query) for query in workload(1)]
        return tracer, net.trace_records(), outcomes

    tracer, records, outcomes = run_once(benchmark, run)
    traces = trace_ids(records)
    assert not tracer.dropped
    assert len(traces) == len(outcomes)
    shapes = []
    for trace, outcome in zip(traces, outcomes):
        spans = spans_of(records, trace)
        message_spans = [s for s in spans if s["kind"] == "message"]
        assert connected_components(spans) == 1, trace
        assert len(message_spans) == outcome.messages, trace
        shapes.append({"trace": trace, "spans": len(spans),
                       "messages": len(message_spans),
                       "peers": len({s["peer"] for s in spans})})
        report("E13", f"{trace}: {len(spans)} spans, "
                      f"{len(message_spans)} message spans, "
                      f"{shapes[-1]['peers']} peers")
    record("E13-obs", scale=scale, runs=shapes,
           totals={"queries": len(outcomes), "records": len(records)})
