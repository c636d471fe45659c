"""E18 — scale-out: one P-Grid deployment on both transports.

The same deployment (trie assignment, sampled routing tables,
preloaded replica groups, query waves, churn trace) runs unchanged on
the single-loop ``SingleLoopEngine`` and on the windowed
``ShardedTransport``.  What this bench pins is **cross-engine
agreement**, not speed: every engine completes the workload, and the
recorded counts (successes, hops, messages, drops, virtual time) are
compared exactly against ``BENCH_E18.json``.

Two scenarios, each at every engine configuration (in-process
baseline, 2 shards, 4 shards):

* **routing** — all peers online, waves of retrieves; engines must
  agree *exactly* on success counts (the deployment fixes every
  outcome when nothing churns).
* **churn** — the same deployment under a precomputed exponential
  outage trace; engines agree statistically (close success rates).

The default run is 2 000 peers (10 000 at ``REPRO_BENCH_SCALE=full``);
``REPRO_BENCH_E18_PEERS`` overrides the peer count (CI's scale-smoke
job runs 5 000).  Host time is perfbench's: its ``route`` /
``route_sharded`` pair times this op stream like for like (12 250 vs
11 675 ops/s inline at the recorded baseline — sharding inside one
process does not pay for itself — and forked workers are 2.7x slower
than inline, ``simnet.shard_process_ratio``).
"""

from conftest import peers_and_scale, report, run_once
from record import record

from repro.pgrid.scaleout import (
    ScaleoutSpec,
    build_deployment,
    run_inprocess,
    run_sharded,
)

SHARD_COUNTS = (2, 4)


def _spec(peers, churn, num_shards=4):
    quick = peers < 5_000
    return ScaleoutSpec(
        num_peers=peers,
        num_shards=num_shards,
        churn=churn,
        num_keys=200 if quick else 1000,
        ops_per_wave=100 if quick else 200,
        num_waves=3 if quick else 5,
        duration=60.0 if quick else 120.0,
    )


def test_e18_scaleout(benchmark, scale):
    peers, scale = peers_and_scale("REPRO_BENCH_E18_PEERS", scale,
                                   quick=2_000, full=10_000)

    def run():
        results = {}
        for scenario in ("routing", "churn"):
            churn = scenario == "churn"
            deployment = build_deployment(_spec(peers, churn))
            rows = {"inprocess": run_inprocess(_spec(peers, churn),
                                               deployment)}
            for shards in SHARD_COUNTS:
                rows[f"sharded{shards}"] = run_sharded(
                    _spec(peers, churn, num_shards=shards), deployment)
            results[scenario] = rows
        return results

    results = run_once(benchmark, run)

    spec = _spec(peers, False)
    report("E18", f"{spec.num_peers} peers, "
                  f"{spec.num_waves}x{spec.ops_per_wave} retrieves")
    rows = []
    for scenario, engines in results.items():
        report("E18", f"{scenario:>8} | {'engine':>10} {'success':>8} "
                      f"{'hops':>6} {'msgs':>9} {'dropped':>8}")
        for label, result in engines.items():
            report("E18",
                   f"{'':>8} | {label:>10} {result.successes:>8} "
                   f"{result.mean_hops:>6.2f} "
                   f"{result.messages_sent:>9} "
                   f"{result.messages_dropped:>8}")
            rows.append({**result.summary(), "scenario": scenario,
                         "label": label})
    record("E18", scale=scale, runs=rows,
           totals={"num_peers": spec.num_peers,
                   "shard_counts": list(SHARD_COUNTS)})

    # Every engine completes the full workload.
    for engines in results.values():
        for result in engines.values():
            assert result.ops_completed == result.ops_issued
    # All-online, the deployment fixes every outcome: engines agree
    # exactly on the success count (and everything succeeds — the
    # tables were sampled with full per-level coverage).
    routing = results["routing"]
    baseline = routing["inprocess"]
    assert baseline.successes == baseline.ops_issued
    for result in routing.values():
        assert result.successes == baseline.successes
    # Under churn the engines interleave deliveries differently, so
    # recall matches statistically, not bit-for-bit.
    churned = results["churn"]
    for result in churned.values():
        assert abs(result.success_rate
                   - churned["inprocess"].success_rate) < 0.05
