"""Tests for the resilience subsystem: scenarios, failover, origins.

Small specs on purpose — the full-scale A/B comparison lives in
``benchmarks/bench_e14_churn_recall.py``; these tests pin down the
runner's contract (determinism, reporting invariants, engine
integration) and the origin-selection fixes.
"""

import pytest

from repro.obs.registry import FailoverCounters
from repro.resilience import ScenarioRunner, ScenarioSpec, ground_truth_panel
from repro.simnet.churn import ChurnProcess
from repro.simnet.events import SimulationError


def small_spec(**overrides):
    base = dict(
        num_peers=24,
        replication=2,
        refs_per_level=2,
        seed=17,
        num_schemas=4,
        num_entities=40,
        num_queries=6,
        warmup=30.0,
        query_interval=20.0,
        mean_uptime=100.0,
        mean_downtime=40.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioRunner:
    def test_report_shape_and_invariants(self):
        report = ScenarioRunner.from_spec(small_spec()).run()
        assert report.queries_issued == 6
        assert 0 <= report.queries_complete <= report.queries_issued
        assert len(report.per_query_recall) == report.queries_issued
        assert all(0.0 <= r <= 1.0 for r in report.per_query_recall)
        assert 0.0 <= report.recall <= 1.0
        assert report.latency_p50 <= report.latency_p90 <= report.latency_p99
        assert report.failures > 0
        assert 0 < report.query_messages < report.total_messages
        assert report.summary()  # printable

    def test_same_spec_same_report(self):
        spec = small_spec()
        a = ScenarioRunner.from_spec(spec).run()
        b = ScenarioRunner.from_spec(spec).run()
        assert a == b

    def test_healthy_scenario_full_recall(self):
        """Without churn the ground-truth mapping chain answers the
        whole panel: any recall loss in churned runs is attributable
        to churn, not to the corpus setup."""
        report = ScenarioRunner.from_spec(
            small_spec(churn=False, maintenance=False)).run()
        assert report.recall == 1.0
        assert report.queries_complete == report.queries_issued
        assert report.failures == 0
        assert report.failovers == 0

    def test_run_scenario_facade_on_existing_network(self):
        runner = ScenarioRunner.from_spec(small_spec())
        panel = ground_truth_panel(runner.dataset, ("Aspergillus",))
        report = ScenarioRunner(
            runner.network, panel, small_spec(num_queries=3),
            domain=runner.dataset.domain).run()
        assert report.queries_issued == 3

    def test_repeated_runs_report_per_run_deltas(self):
        """A second runner on the same deployment must not fold
        the first run's traffic into its report (the counters are
        per-run deltas, not lifetime totals)."""
        quiet = small_spec(churn=False, maintenance=False, warmup=0.0,
                           query_interval=5.0)
        runner = ScenarioRunner.from_spec(quiet)
        first = runner.run()
        second = ScenarioRunner(runner.network, runner.panel, quiet,
                                domain=runner.dataset.domain).run()
        # Cumulative accounting would report >= 2x on the second run
        # (first run's traffic plus its own); per-run deltas stay in
        # the same ballpark.
        assert 0 < second.total_messages < first.total_messages * 1.5
        assert second.failovers == 0
        assert second.queries_issued == first.queries_issued

    def test_empty_panel_rejected(self):
        runner = ScenarioRunner.from_spec(small_spec())
        with pytest.raises(ValueError):
            ScenarioRunner(runner.network, [], small_spec())

    def test_zero_completed_queries_reports_none_latencies(self):
        """Regression: a churn run that measures no latency samples
        must report ``None`` percentiles (util.stats.percentile raises
        on empty input) and still render its summary."""
        report = ScenarioRunner.from_spec(
            small_spec(num_queries=0, warmup=20.0)).run()
        assert report.queries_issued == 0
        assert report.latency_p50 is None
        assert report.latency_p90 is None
        assert report.latency_p99 is None
        assert report.first_result_p50 is None
        assert report.recall == 0.0
        lines = report.summary()
        assert any("n/a" in line for line in lines)

    def test_zero_queries_with_limit_summary_renders(self):
        report = ScenarioRunner.from_spec(
            small_spec(num_queries=0, warmup=20.0, limit=3)).run()
        assert report.first_result_p50 is None
        assert report.summary()


class TestAutoStrategyScenario:
    def test_auto_scenario_reports_optimizer_activity(self):
        report = ScenarioRunner.from_spec(
            small_spec(strategy="auto", num_queries=6)).run()
        assert report.queries_issued == 6
        # anti-entropy pulls are on by default for auto and feed the
        # origin's registry
        assert report.stats_pulls > 0
        assert report.synopses_known > 0
        assert sum(report.auto_strategies.values()) > 0
        assert any("optimizer" in line for line in report.summary())
        assert report.recall > 0.5

    def test_auto_scenario_deterministic(self):
        spec = small_spec(strategy="auto", num_queries=4)
        assert (ScenarioRunner.from_spec(spec).run()
                == ScenarioRunner.from_spec(spec).run())


class TestEngineAcrossChurn:
    def test_plan_cache_stays_valid_and_answers_under_churn(self):
        """Mapping records are replicated and churn mutates no
        mappings, so the engine's cached plans stay valid while peers
        fail and recover — repeated queries hit the cache and still
        produce answers through failover."""
        report = ScenarioRunner.from_spec(
            small_spec(strategy="engine", num_queries=9,
                       replication=3, refs_per_level=3)).run()
        stats = report.engine_stats
        assert stats is not None
        assert stats["queries_executed"] == 9
        # 3 distinct panel queries, 9 executions: plans computed once
        # each, the other lookups are cache hits despite the churn.
        assert stats["planner_invocations"] == 3
        assert stats["cache"]["hits"] == 6
        assert stats["cache"]["invalidations"] == 0
        assert report.recall > 0.5
        assert report.failures > 0


class TestOriginSelection:
    def test_random_peer_skips_offline(self):
        runner = ScenarioRunner.from_spec(small_spec(churn=False))
        net = runner.network
        online_id = net.peer_ids()[0]
        for node_id in net.peer_ids()[1:]:
            net.network.set_online(node_id, False)
        for _ in range(8):
            assert net.random_peer().node_id == online_id

    def test_random_peer_raises_when_all_offline(self):
        runner = ScenarioRunner.from_spec(small_spec(churn=False))
        net = runner.network
        for node_id in net.peer_ids():
            net.network.set_online(node_id, False)
        with pytest.raises(SimulationError):
            net.random_peer()

    def test_explicit_offline_origin_raises(self):
        runner = ScenarioRunner.from_spec(small_spec(churn=False))
        net = runner.network
        victim = net.peer_ids()[3]
        net.network.set_online(victim, False)
        with pytest.raises(SimulationError):
            net.search_for(
                "SearchFor(x? : (x?, EMBL#Organism, %a%))",
                origin=victim,
            )

    def test_scenario_origin_is_protected(self):
        runner = ScenarioRunner.from_spec(small_spec())
        report = runner.run()
        # Every query was issued from the protected origin; none can
        # have failed for lack of an online origin.
        assert report.queries_issued == runner.spec.num_queries
        assert runner.network.network.is_online(runner.origin)


class TestChurnOnDeployment:
    def test_queries_fail_softly_not_catastrophically(self):
        """Even with failover off, churned queries degrade (lower
        recall) rather than erroring out of the harness."""
        report = ScenarioRunner.from_spec(
            small_spec(failover=False)).run()
        assert report.queries_issued == 6
        assert report.ops_gave_up >= 0  # counted, not raised

    def test_churn_bookkeeping_checked_by_runner(self):
        # assert_consistent() runs inside ScenarioRunner.run(); also
        # exercise it directly on a live network.
        runner = ScenarioRunner.from_spec(small_spec(churn=False))
        net = runner.network
        churn = ChurnProcess(net.network, mean_uptime=10.0,
                             mean_downtime=10.0,
                             protected={net.peer_ids()[0]})
        churn.start()
        net.loop.run_until(net.loop.now + 100.0)
        churn.stop()
        churn.assert_consistent()


class TestDropAccounting:
    def test_churn_scenario_reports_offline_drops(self):
        """Regression: messages sent to peers that churn took offline
        were silently dropped with no cause attached; the reason-
        tagged breakdown must surface them on the report."""
        report = ScenarioRunner.from_spec(small_spec()).run()
        assert report.failures > 0
        assert report.drops_by_reason.get("offline", 0) > 0
        # every drop is accounted to exactly one reason
        assert sum(report.drops_by_reason.values()) == \
            report.messages_dropped

    def test_quiet_scenario_reports_no_drops(self):
        report = ScenarioRunner.from_spec(
            small_spec(churn=False, maintenance=False)).run()
        assert report.messages_dropped == 0
        assert report.drops_by_reason == {}


class TestPinnedChurnReport:
    def test_smoke_churn_scenario_matches_recorded_report(self):
        """perfbench's pinned ``churn`` scenario at smoke size: the
        counts recorded when every deployment began sampling its tables
        and keying its seed streams the way the scale-out deployment
        does (new paths, tables and peer streams, so the churn
        trajectory and the run's length shift).  Replica sync's digest
        gate may only skip merge work — one ``sync_push`` per tick, the
        same repairs, the same report."""
        runner = ScenarioRunner.from_spec(ScenarioSpec(
            seed=11, strategy="iterative", num_peers=32, replication=3,
            refs_per_level=3, num_schemas=4, num_entities=40,
            num_queries=5))
        report = runner.run()
        assert report.recall == 1.0
        assert report.queries_complete == 5
        assert report.query_messages == 111
        assert report.total_messages == 1509
        assert report.drops_by_reason == {"offline": 282}
        assert report.failovers == 38
        stats = [p.maintenance_stats for p in runner.network.peers.values()]
        assert sum(s.sync_pushes for s in stats) == 263
        assert sum(s.values_repaired for s in stats) == 0


class TestFailoverAccounting:
    def test_report_equals_the_field_wise_sum_of_the_peers_counters(self):
        """Regression: the report's failover numbers came from a hand
        sum that knew three of ``FailoverCounters``' four fields."""
        runner = ScenarioRunner.from_spec(small_spec(num_queries=6))
        report = runner.run()
        total = FailoverCounters.total(
            peer.failover_stats for peer in runner.network.peers.values())
        assert report.failovers == total.failovers > 0
        assert report.ops_gave_up == total.gave_up
        assert report.ops_cancelled == total.cancelled
        assert total.retries == sum(
            peer.failover_stats.retries
            for peer in runner.network.peers.values()) > 0


class TestSpecValidation:
    """A malformed script is rejected when the spec is made — before a
    corpus, a deployment or a warm-up is spent on it."""

    @pytest.mark.parametrize("field, value, accepted", [
        ("strategy", "itertive", "one of"),
        ("num_peers", -1, ">= 1"),
        ("num_peers", 0, ">= 1"),
        ("replication", -2, ">= 1"),
        ("replication", 0, ">= 1"),
        ("refs_per_level", 0, ">= 1"),
        ("num_schemas", -1, ">= 1"),
        ("num_schemas", 0, ">= 1"),
        ("num_entities", -5, ">= 5"),
        ("num_entities", 3, ">= 5"),
        ("num_entities", 4, ">= 5"),
        ("num_queries", -3, ">= 0"),
        ("selforg_rounds", -1, ">= 0"),
        ("max_hops", -1, ">= 0"),
        ("warmup", -0.5, ">= 0"),
        ("query_interval", -1.0, "> 0"),
        ("query_interval", 0.0, "> 0"),
        ("maintenance_interval", 0.0, "> 0"),
        ("mean_uptime", 0.0, "> 0"),
        ("mean_downtime", -45.0, "> 0"),
        ("limit", 0, "None or >= 1"),
        ("limit", -2, "None or >= 1"),
    ])
    def test_rejected_naming_the_field(self, field, value, accepted):
        with pytest.raises(ValueError) as error:
            ScenarioSpec(**{field: value})
        assert f"ScenarioSpec.{field} must be {accepted}" in str(error.value)
        assert repr(value) in str(error.value)

    def test_every_strategy_and_the_edge_values_are_accepted(self):
        for strategy in ("local", "iterative", "recursive", "engine", "auto"):
            assert ScenarioSpec(strategy=strategy).strategy == strategy
        ScenarioSpec(num_queries=0, warmup=0.0, selforg_rounds=0, limit=1,
                     max_hops=0)
        ScenarioSpec(num_peers=1, replication=1, refs_per_level=1,
                     num_schemas=1, num_entities=5)
        ScenarioSpec(limit=None)

    def test_cli_exits_2_with_the_message(self, capsys):
        from repro.cli import main

        # count flags are checked while parsing; a float the spec
        # rejects still reaches it
        assert main(["scenario", "--uptime", "0"]) == 2
        captured = capsys.readouterr()
        assert "ScenarioSpec.mean_uptime must be > 0, got 0.0" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestEngineExposure:
    def test_engine_strategy_exposes_engine(self):
        runner = ScenarioRunner.from_spec(
            small_spec(strategy="engine", churn=False, num_queries=2))
        assert runner.engine is None
        runner.run()
        assert runner.engine is not None
        assert runner.engine.stats.queries_executed == 2

    def test_other_strategies_leave_engine_none(self):
        runner = ScenarioRunner.from_spec(
            small_spec(churn=False, num_queries=2))
        runner.run()
        assert runner.engine is None
