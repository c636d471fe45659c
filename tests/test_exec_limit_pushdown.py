"""Integration tests: limit pushdown and cooperative cancellation.

Covers the streaming semantics end to end — every strategy honours a
pushed-down limit, cancellation stops in-flight retries without
spending further messages (even under churn with failover retries
pending), and the per-operation metrics scopes close cleanly after a
cancel.
"""

import random

import pytest

from repro.mediation.keys import term_key
from repro.mediation.network import GridVineNetwork
from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.churn import ChurnProcess
from repro.simnet.events import CancelToken

X, Y = Variable("x"), Variable("y")


def deploy_chain(num_schemas=4, matches_per_schema=6, seed=29,
                 **build_kwargs):
    """A chain of mapped schemas, each holding matching rows."""
    build_kwargs.setdefault("num_peers", 32)
    net = GridVineNetwork.build(seed=seed, **build_kwargs)
    schemas = [Schema(f"S{i}", ["org", "len"], domain="lp")
               for i in range(num_schemas)]
    for schema in schemas:
        net.insert_schema(schema)
    triples = []
    for i, schema in enumerate(schemas):
        for j in range(matches_per_schema):
            subject = URI(f"{schema.name}:e{j}")
            triples.append(Triple(subject, URI(f"{schema.name}#org"),
                                  Literal(f"Aspergillus-{i}-{j}")))
            triples.append(Triple(subject, URI(f"{schema.name}#len"),
                                  Literal(str(100 + j))))
    net.insert_triples(triples)
    for a, b in zip(schemas, schemas[1:]):
        net.create_mapping(a, b, [("org", "org"), ("len", "len")],
                           origin=net.peer_ids()[0])
    net.settle()
    return net


QUERY = "SearchFor(x? : (x?, S0#org, %Aspergillus%))"


class TestLimitPushdownStrategies:
    @pytest.mark.parametrize("strategy", ["local", "iterative",
                                          "recursive"])
    def test_limit_caps_results_and_flags_hit(self, strategy):
        net = deploy_chain()
        origin = net.peer_ids()[0]
        out = net.search_for(QUERY, strategy=strategy, max_hops=8,
                             origin=origin, limit=4)
        assert out.result_count == 4
        assert out.limit_hit
        assert out.limit == 4
        assert out.first_result_latency is not None
        assert out.first_result_latency <= out.latency

    def test_limited_results_subset_of_unlimited(self):
        net = deploy_chain()
        origin = net.peer_ids()[0]
        unlimited = net.search_for(QUERY, strategy="iterative",
                                   max_hops=8, origin=origin)
        net2 = deploy_chain()
        limited = net2.search_for(QUERY, strategy="iterative",
                                  max_hops=8, origin=origin, limit=4)
        assert limited.results <= unlimited.results
        assert not unlimited.limit_hit
        assert unlimited.result_count == 24

    def test_limit_saves_messages_iterative(self):
        origin = None
        nets = [deploy_chain(), deploy_chain()]
        origin = nets[0].peer_ids()[0]
        unlimited = nets[0].search_for(QUERY, strategy="iterative",
                                       max_hops=8, origin=origin)
        limited = nets[1].search_for(QUERY, strategy="iterative",
                                     max_hops=8, origin=origin, limit=4)
        assert limited.messages < unlimited.messages

    def test_unreached_limit_equals_unlimited(self):
        net = deploy_chain()
        origin = net.peer_ids()[0]
        unlimited = net.search_for(QUERY, strategy="iterative",
                                   max_hops=8, origin=origin)
        capped = net.search_for(QUERY, strategy="iterative",
                                max_hops=8, origin=origin, limit=10_000)
        assert capped.results == unlimited.results
        assert not capped.limit_hit

    def test_bound_join_mode_respects_limit(self):
        net = deploy_chain()
        for peer in net.peers.values():
            peer.join_mode = "bound"
        origin = net.peer_ids()[0]
        query = ("SearchFor(x?, y? : (x?, S0#org, %Aspergillus%) "
                 "AND (x?, S0#len, y?))")
        out = net.search_for(query, strategy="iterative", max_hops=8,
                             origin=origin, limit=3)
        assert out.result_count == 3
        assert out.limit_hit

    def test_metrics_scopes_closed_after_limited_queries(self):
        net = deploy_chain()
        origin = net.peer_ids()[0]
        for strategy in ("local", "iterative", "recursive"):
            net.search_for(QUERY, strategy=strategy, max_hops=8,
                           origin=origin, limit=2)
            assert net.network.metrics.operations == {}
        net.settle()
        assert net.network.metrics.operations == {}


class TestEngineLimitPushdown:
    def test_engine_limit_caps_and_skips_scans(self):
        net = deploy_chain()
        engine = net.create_engine(domain="lp", max_hops=8)
        origin = net.peer_ids()[0]
        unlimited = engine.search_for(QUERY, origin=origin)
        limited = engine.search_for(QUERY, origin=origin, limit=4)
        assert limited.result_count == 4
        assert limited.limit_hit
        assert limited.fetches_skipped > 0
        assert limited.messages < unlimited.messages
        assert engine.stats.limits_hit == 1
        assert engine.stats.scans_skipped == limited.fetches_skipped

    def test_engine_batch_per_query_limits(self):
        net = deploy_chain()
        engine = net.create_engine(domain="lp", max_hops=8)
        origin = net.peer_ids()[0]
        other = "SearchFor(y? : (y?, S1#org, %Aspergillus%))"
        result = engine.execute_batch([QUERY, other], origin=origin,
                                      limit=4)
        assert all(o.result_count == 4 for o in result.outcomes)
        assert all(o.limit_hit for o in result.outcomes)
        assert result.limits_hit == 2
        assert result.scans_issued + result.scans_skipped == \
            result.patterns_fetched

    def test_engine_stats_sum_every_fetch_counter_of_a_limited_batch(self):
        """Regression: the hand relay ``BatchFetchStats -> BatchResult ->
        EngineStats`` dropped ``scans_issued`` on its last leg."""
        from repro.engine import BatchFetchStats

        net = deploy_chain()
        engine = net.create_engine(domain="lp", max_hops=8)
        result = engine.execute_batch([QUERY], origin=net.peer_ids()[0],
                                      limit=4)
        assert result.scans_skipped > 0 and result.scans_issued > 0
        for name in BatchFetchStats._fields + BatchFetchStats._derived:
            assert getattr(engine.stats, name) == getattr(result, name) \
                == getattr(result.fetch_stats, name), name
        again = engine.execute_batch([QUERY], origin=net.peer_ids()[0],
                                     limit=4)
        assert engine.stats.scans_issued == (result.scans_issued
                                             + again.scans_issued)

    def test_engine_mixed_batch_skips_satisfied_queries_scans(self):
        """Scans consumed only by already-satisfied queries are never
        fetched, even while other queries in the batch keep running
        (and finish naturally without reaching their limit)."""
        net = deploy_chain()
        iso = Schema("Iso", ["org", "len"], domain="lp")
        net.insert_schema(iso)
        net.insert_triples([
            Triple(URI(f"Iso:e{j}"), URI("Iso#org"),
                   Literal(f"Aspergillus-x-{j}"))
            for j in range(2)
        ])
        net.settle()
        engine = net.create_engine(domain="lp", max_hops=8)
        origin = net.peer_ids()[0]
        # Query 1 satisfies its limit from wave 0; query 2 (isolated
        # schema, only 2 rows) never reaches the limit.
        result = engine.execute_batch(
            [QUERY, "SearchFor(y? : (y?, Iso#org, %Aspergillus%))"],
            origin=origin, limit=4)
        assert [o.result_count for o in result.outcomes] == [4, 2]
        assert [o.limit_hit for o in result.outcomes] == [True, False]
        # Query 1's deeper reformulation scans were all skipped, and
        # the accounting is complete in the returned result.
        assert result.scans_skipped > 0
        assert result.scans_issued + result.scans_skipped == \
            result.patterns_fetched

    def test_engine_unlimited_unchanged_by_limit_support(self):
        net = deploy_chain()
        engine = net.create_engine(domain="lp", max_hops=8)
        origin = net.peer_ids()[0]
        result = engine.execute_batch([QUERY], origin=origin)
        assert result.scans_skipped == 0
        assert result.limits_hit == 0
        assert result.scans_issued == result.patterns_fetched


class TestCancellationStopsInFlightRetries:
    """A fired token stops timeout/failover retries from spending
    messages — the satellite scenario: the limit is met while retries
    toward a dead key space are still pending."""

    def _setup_pending_fetch(self):
        net = GridVineNetwork.build(num_peers=24, seed=61,
                                    replication=2, timeout=10.0)
        schema = Schema("Alpha", ["organism"], domain="c")
        net.insert_schema(schema)
        net.insert_triples([
            Triple(URI("Alpha:1"), URI("Alpha#organism"),
                   Literal("Aspergillus niger")),
        ])
        net.settle()
        pattern = TriplePattern(X, URI("Alpha#organism"), Y)
        key = term_key(URI("Alpha#organism"))
        origin_id = next(
            n for n in net.peer_ids()
            if not net.peer(n).is_responsible_for(key))
        origin = net.peer(origin_id)
        token = CancelToken()
        future = origin._search_pattern(pattern, cancel=token)
        # Kill every owner *after* the fetch went out: the route (or
        # its reply) is lost in flight and the origin will retry on
        # timeout, steering toward replicas (failover).
        for node_id, peer in net.peers.items():
            if peer.is_responsible_for(key) and node_id != origin_id:
                net.network.set_online(node_id, False)
        return net, origin, token, future

    def test_retries_fire_without_cancel(self):
        net, origin, _token, future = self._setup_pending_fetch()
        net.loop.run_until(net.loop.now + 2.0)
        sent_before = net.network.metrics.messages_sent
        net.settle()
        # Control: the timeout retries really were in flight.
        assert origin.failover_stats.retries > 0
        assert net.network.metrics.messages_sent > sent_before
        assert future.done  # resolved (empty) after retries exhausted

    def test_cancel_stops_new_messages(self):
        net, origin, token, future = self._setup_pending_fetch()
        net.loop.run_until(net.loop.now + 2.0)
        token.cancel()
        assert future.done  # resolves immediately on cancel
        assert future.result() == []
        sent_at_cancel = net.network.metrics.messages_sent
        net.settle()
        # Not a single new message after the cancel: no retries fired.
        assert net.network.metrics.messages_sent == sent_at_cancel
        assert origin.failover_stats.retries == 0
        assert origin.failover_stats.cancelled == 1
        assert not origin._pending


class TestCancellationUnderChurn:
    def test_limited_queries_stop_spending_under_churn(self):
        net = deploy_chain(num_peers=32, seed=17, replication=2)
        origin = net.peer_ids()[0]
        churn = ChurnProcess(net.network, mean_uptime=60.0,
                             mean_downtime=30.0,
                             rng=random.Random(99),
                             protected={origin})
        churn.start()
        net.loop.run_until(net.loop.now + 45.0)
        outcomes = []
        for _ in range(4):
            out = net.search_for(QUERY, strategy="iterative",
                                 max_hops=8, origin=origin, limit=3)
            outcomes.append(out)
            # Operation scopes close cleanly right after each cancel.
            assert net.network.metrics.operations == {}
            net.loop.run_until(net.loop.now + 20.0)
        churn.stop()
        churn.assert_consistent()
        assert all(o.limit_hit for o in outcomes)
        assert all(o.result_count == 3 for o in outcomes)
        # The deployment stays healthy: everything outstanding drains.
        net.settle()
        assert net.network.metrics.operations == {}

    def test_scenario_runner_with_limit(self):
        from repro.resilience import ScenarioRunner, ScenarioSpec

        spec = ScenarioSpec(num_peers=32, replication=2, seed=5,
                            num_schemas=4, num_entities=40,
                            num_queries=6, warmup=30.0,
                            query_interval=20.0, limit=2)
        report = ScenarioRunner.from_spec(spec).run()
        assert report.queries_issued == 6
        assert report.limit_hits > 0
        assert report.first_result_p50 > 0.0
        # The limited workload is cheaper than the same spec unlimited.
        unlimited_spec = ScenarioSpec(num_peers=32, replication=2,
                                      seed=5, num_schemas=4,
                                      num_entities=40, num_queries=6,
                                      warmup=30.0, query_interval=20.0)
        unlimited = ScenarioRunner.from_spec(unlimited_spec).run()
        assert report.query_messages < unlimited.query_messages
