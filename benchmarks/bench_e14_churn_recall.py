"""E14 (extension) — churn recall with replica failover on vs off.

The paper's P-Grid substrate promises "probabilistic guarantees for
data consistency ... even in highly unreliable, dynamic environments"
(§2.1).  This bench quantifies what the mediation layer gets out of
that under sustained churn: the *same* scripted scenario (same seed,
same churn timeline, same query workload) is run twice, once with
replica-aware failover enabled and once with the pre-failover
behaviour (messages to crashed references vanish; retries re-roll
blindly).  The series is (seed, recall, p50 latency, failovers,
gave-up operations) per mode.

Per-operation message attribution keeps the reported query messages
exact even though maintenance, replication and churn traffic run
concurrently — the delta-based accounting this replaced would have
billed all of it to the queries.
"""

from conftest import report, run_once
from record import record

from repro.resilience import ScenarioRunner, ScenarioSpec


def scenario_spec(seed, failover, scale):
    return ScenarioSpec(
        num_peers=48 if scale == "quick" else 96,
        replication=3,
        refs_per_level=3,
        seed=seed,
        failover=failover,
        num_schemas=5 if scale == "quick" else 8,
        num_entities=50 if scale == "quick" else 120,
        num_queries=18 if scale == "quick" else 36,
        mean_uptime=90.0,
        mean_downtime=45.0,
    )


def test_e14_churn_recall(benchmark, scale):
    seeds = (3, 11, 29) if scale == "quick" else (3, 11, 29, 47, 61)

    def run():
        series = []
        for seed in seeds:
            on, off = (
                ScenarioRunner.from_spec(
                    scenario_spec(seed, failover, scale)).run()
                for failover in (True, False))
            series.append((seed, on, off))
        return series

    series = run_once(benchmark, run)
    report("E14", f"{len(seeds)} seeds, "
                  f"{scenario_spec(0, True, scale).num_queries} queries "
                  f"each, churn up/down 90s/45s (1/3 offline at a time)")
    report("E14", f"{'seed':>4} | {'mode':>8} {'recall':>7} "
                  f"{'p50 lat':>8} {'failovers':>9} {'gave up':>7}")
    for seed, on, off in series:
        for label, r in (("failover", on), ("baseline", off)):
            report("E14", f"{seed:>4} | {label:>8} {r.recall:>7.3f} "
                          f"{r.latency_p50:>7.1f}s {r.failovers:>9} "
                          f"{r.ops_gave_up:>7}")
    record("E14", scale=scale, runs=[
        {"seed": seed, "mode": label,
         "recall": round(r.recall, 4),
         "rows": r.queries_complete,
         "query_messages": r.query_messages,
         "total_messages": r.total_messages,
         "failovers": r.failovers, "ops_gave_up": r.ops_gave_up}
        for seed, on, off in series
        for label, r in (("failover", on), ("baseline", off))
    ])

    # The headline claim: under the same churn timeline, failover-
    # enabled queries achieve strictly higher recall on every seed.
    for seed, on, off in series:
        assert on.recall > off.recall, (
            f"failover did not improve recall on seed {seed}: "
            f"{on.recall:.3f} vs {off.recall:.3f}"
        )
    # Failover actually engaged, and it converts timeout storms into
    # sub-timeout routing detours (lower median latency).
    assert all(on.failovers > 0 for _s, on, _off in series)
    assert sum(on.latency_p50 for _s, on, _off in series) < \
        sum(off.latency_p50 for _s, _on, off in series)
