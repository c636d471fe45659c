"""E15 (extension) — limit pushdown: messages saved by early stop.

The streaming operator runtime pushes a query's result limit *into*
distributed execution: a satisfied ``Limit`` cooperatively cancels the
pipeline's remaining pattern fetches and reformulation fan-out
(``repro.exec``), instead of truncating rows after a full fan-out.
This bench quantifies the savings on the E13-style workload (a chain
of mapped schemas, each contributing matching rows): the *same* query
is run unlimited and with ``limit=10`` on identically seeded
deployments, for both the iterative strategy (overlay-driven
reformulation) and the engine (cached plans, wave-staged shared
scans).  The series is per-seed exact per-query messages (per-
operation attribution, invariant to background traffic).

Headline claim: ``limit=10`` costs >= 3x fewer messages than
unlimited on every seed, for both execution paths, while still
returning 10 correct rows.
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI

#: each schema holds this many matching rows, so the limit of 10 is
#: satisfiable from the first key space alone and every further
#: reformulation is avoidable work
MATCHES_PER_SCHEMA = 12

QUERY = "SearchFor(x? : (x?, S0#org, %Aspergillus%))"
LIMIT = 10


def build_corpus(num_schemas, entries_per_schema, seed):
    """A chain of mapped schemas, each with its own data extent."""
    net = GridVineNetwork.build(num_peers=48, seed=seed)
    schemas = [Schema(f"S{i}", ["org", "len"], domain="e15")
               for i in range(num_schemas)]
    for schema in schemas:
        net.insert_schema(schema)
    triples = []
    for i, schema in enumerate(schemas):
        for j in range(entries_per_schema):
            organism = ("Aspergillus" if j < MATCHES_PER_SCHEMA
                        else "Yeast")
            subject = URI(f"{schema.name}:e{j}")
            triples.append(Triple(subject, URI(f"{schema.name}#org"),
                                  Literal(f"{organism}-{i}-{j}")))
            triples.append(Triple(subject, URI(f"{schema.name}#len"),
                                  Literal(str(100 + j))))
    net.insert_triples(triples)
    for a, b in zip(schemas, schemas[1:]):
        net.create_mapping(a, b, [("org", "org"), ("len", "len")],
                           origin=net.peer_ids()[0])
    net.settle()
    return net


def run_pair(mode, num_schemas, entries_per_schema, seed):
    """(unlimited, limited, limited-run net) on twin deployments."""
    outcomes = []
    for limit in (None, LIMIT):
        net = build_corpus(num_schemas, entries_per_schema, seed)
        origin = net.peer_ids()[0]
        if mode == "engine":
            engine = net.create_engine(domain="e15", max_hops=8)
            outcomes.append(engine.search_for(QUERY, origin=origin,
                                              limit=limit))
        else:
            outcomes.append(net.search_for(QUERY, strategy=mode,
                                           max_hops=8, origin=origin,
                                           limit=limit))
    return outcomes[0], outcomes[1], net


def test_e15_limit_pushdown(benchmark, scale):
    seeds = (29, 31, 37) if scale == "quick" else (29, 31, 37, 41, 53)
    num_schemas = 5 if scale == "quick" else 8
    entries = 30 if scale == "quick" else 60

    def run():
        series = []
        metrics = None
        for seed in seeds:
            for mode in ("iterative", "engine"):
                unlimited, limited, net = run_pair(mode, num_schemas,
                                                   entries, seed)
                series.append((seed, mode, unlimited, limited))
                # Registry snapshot of the last limited deployment
                # (deterministic simulation counters; engine view on
                # engine-mode runs).
                metrics = net.registry.snapshot()
        return series, metrics

    series, metrics = run_once(benchmark, run)
    record("E15", scale=scale, metrics=metrics,
           runs=[
               {
                   "seed": seed,
                   "mode": mode,
                   "unlimited_messages": unlimited.messages,
                   "limited_messages": limited.messages,
                   "unlimited_rows": unlimited.result_count,
                   "limited_rows": limited.result_count,
                   "fetches_skipped": limited.fetches_skipped,
               }
               for seed, mode, unlimited, limited in series
           ])
    report("E15", f"{len(seeds)} seeds, chain of {num_schemas} mapped "
                  f"schemas, {MATCHES_PER_SCHEMA} matching rows per "
                  f"schema, limit {LIMIT}")
    report("E15", f"{'seed':>4} | {'mode':>9} {'rows':>9} "
                  f"{'messages':>14} {'ratio':>6} {'skipped':>8}")
    for seed, mode, unlimited, limited in series:
        ratio = unlimited.messages / max(1, limited.messages)
        report("E15",
               f"{seed:>4} | {mode:>9} "
               f"{unlimited.result_count:>3}->{limited.result_count:>3}  "
               f"{unlimited.messages:>5} -> {limited.messages:>5} "
               f"{ratio:>5.1f}x {limited.fetches_skipped:>8}")

    for seed, mode, unlimited, limited in series:
        # The limited run returns exactly the cap, flags the early
        # stop, and its rows are a subset of the unlimited answer.
        assert limited.result_count == LIMIT
        assert limited.limit_hit and not unlimited.limit_hit
        assert limited.results <= unlimited.results
        # Headline: >= 3x fewer messages through limit pushdown.
        assert unlimited.messages >= 3 * limited.messages, (
            f"seed {seed} ({mode}): {unlimited.messages} unlimited vs "
            f"{limited.messages} limited messages"
        )
