"""E19 — sharded mediation: GridVine queries through ShardedTransport.

E18 ported the raw P-Grid retrieve workload onto the sharded engine;
this experiment ports the *mediation layer*.  One GridVine deployment —
generated corpus, ground-truth mapping chain (both directions),
``SearchFor`` query waves plus one engine batch per wave — runs
unchanged on the single-loop transport and on the sharded transport at
1, 2 and 4 shards, inline and forked.

The headline claim is stronger than E18's: with ``refs_per_level=1``
and ``replication=1`` the query path makes no consequential rng draws,
so every engine configuration produces **bit-identical per-query
outcomes** — success flags, result rows, reformulation counts and the
*exact* attributed message count per query (attribution tags follow
causal chains across shard boundaries).  The assertions compare the
full outcome dicts, not just aggregates.

``REPRO_BENCH_E19_PEERS`` overrides the peer count (CI's scale-smoke
job runs 1 000).  Host time is perfbench's, not this bench's.
"""

from conftest import peers_and_scale, report, run_once
from record import record

from repro.pgrid.scaleout import (
    ScaleoutSpec,
    build_deployment,
    run_inprocess,
    run_sharded,
)

SHARD_COUNTS = (1, 2, 4)


def _spec(peers, num_shards=4, mode="inline"):
    quick = peers < 1_000
    return ScaleoutSpec(
        num_peers=peers,
        replication=1,
        refs_per_level=1,
        seed=3,
        num_shards=num_shards,
        mode=mode,
        workload="mediation",
        num_schemas=4 if quick else 6,
        num_entities=60 if quick else 120,
        entities_per_schema=20 if quick else 30,
        ops_per_wave=8 if quick else 20,
        num_waves=2 if quick else 3,
        batch_queries=3,
    )


def test_e19_sharded_mediation(benchmark, scale):
    peers, scale = peers_and_scale("REPRO_BENCH_E19_PEERS", scale,
                                   quick=300, full=2_000)

    def run():
        deployment = build_deployment(_spec(peers))
        rows = {"inprocess": run_inprocess(_spec(peers), deployment)}
        for shards in SHARD_COUNTS:
            rows[f"sharded{shards}"] = run_sharded(
                _spec(peers, num_shards=shards), deployment)
        # One forked-workers run: pipes, pickling and per-shard stats
        # merging on the full mediation stack.
        rows["forked2"] = run_sharded(
            _spec(peers, num_shards=2, mode="process"), deployment)
        return rows

    rows = run_once(benchmark, run)

    spec = _spec(peers)
    report("E19", f"{spec.num_peers} peers, {spec.num_waves} waves x "
                  f"{spec.ops_per_wave} SearchFor + {spec.batch_queries}"
                  f"-query engine batch")
    report("E19", f"{'engine':>10} {'success':>8} {'rows':>6} "
                  f"{'refos':>6} {'q msgs':>8}")
    for label, result in rows.items():
        report("E19",
               f"{label:>10} {result.successes:>8} "
               f"{result.rows_returned:>6} {result.reformulations:>6} "
               f"{result.query_messages:>8}")
    record("E19", scale=scale,
           runs=[{**result.summary(), "label": label}
                 for label, result in rows.items()],
           totals={"num_peers": spec.num_peers,
                   "shard_counts": list(SHARD_COUNTS)})

    # The acceptance bar: identical per-query outcomes — success flags,
    # result rows, reformulations and exact per-query message counts —
    # on every engine configuration, forked workers included.
    baseline = rows["inprocess"]
    assert baseline.ops_completed == baseline.ops_issued > 0
    assert baseline.successes > 0 and baseline.rows_returned > 0
    for label, result in rows.items():
        assert result.outcomes == baseline.outcomes, label
        assert result.query_messages == baseline.query_messages, label
