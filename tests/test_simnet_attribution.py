"""Per-operation message attribution: exact counts under background
traffic.

The headline regression: ``GridVineNetwork.search_for`` used to
compute ``QueryOutcome.messages`` as a delta of the *global*
``messages_sent`` counter, so any concurrent maintenance / churn /
replication traffic was billed to the query.  With per-operation
attribution the count follows the query's causal message chain and is
invariant to whatever else the network is doing.
"""

import random

import pytest

from repro.faultlab import FaultInjector, FaultPlan, MessageDuplicate
from repro.mediation.network import GridVineNetwork
from repro.obs.tracer import Tracer
from repro.pgrid.maintenance import MaintenanceProcess
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.network import Node, SimNetwork


class Echo(Node):
    """Replies to every ping, so chains inherit attribution."""

    def on_message(self, message):
        if message.kind == "ping":
            self.send(message.src, "pong")


class TestOperationScopes:
    def _net(self):
        net = SimNetwork(rng=random.Random(0))
        net.attach(Echo("a"))
        net.attach(Echo("b"))
        return net

    def test_scope_tags_sends_and_replies(self):
        net = self._net()
        net.metrics.begin_operation("op")
        with net.resume(("op", None)):
            net.node("a").send("b", "ping")
        net.loop.run_until_idle()
        # ping + the pong sent while handling the tagged delivery
        assert net.metrics.end_operation("op") == 2

    def test_untracked_tags_are_not_counted(self):
        net = self._net()
        with net.resume(("never-registered", None)):
            net.node("a").send("b", "ping")
        net.loop.run_until_idle()
        assert net.metrics.operations == {}

    def test_unscoped_traffic_is_unattributed(self):
        net = self._net()
        net.metrics.begin_operation("op")
        net.node("a").send("b", "ping")  # outside any scope
        net.loop.run_until_idle()
        assert net.metrics.end_operation("op") == 0

    def test_innermost_scope_wins(self):
        net = self._net()
        net.metrics.begin_operation("outer")
        net.metrics.begin_operation("inner")
        with net.resume(("outer", None)):
            with net.resume(("inner", None)):
                net.node("a").send("b", "ping")
        net.loop.run_until_idle()
        assert net.metrics.end_operation("inner") == 2
        assert net.metrics.end_operation("outer") == 0

    def test_concurrent_operations_stay_separate(self):
        net = self._net()
        net.metrics.begin_operation("one")
        net.metrics.begin_operation("two")
        with net.resume(("one", None)):
            net.node("a").send("b", "ping")
        with net.resume(("two", None)):
            net.node("b").send("a", "ping")
            net.node("b").send("a", "ping")
        net.loop.run_until_idle()
        assert net.metrics.end_operation("one") == 2
        assert net.metrics.end_operation("two") == 4

    # -- one stack carries the tag and the trace context ---------------

    def _traced_net(self):
        net = self._net()
        tracer = net.install_tracer(Tracer(seed=0))
        root = tracer.start_trace("t", "op", peer="a", start=0.0)
        net.metrics.begin_operation("op")
        return net, tracer, tracer.context_of(root)

    def _assert_ping_pong_billed_and_parented(self, net, tracer, ctx,
                                              pongs=1):
        net.loop.run_until_idle()
        assert net.scope() is None and tracer.current() is None
        assert net.metrics.end_operation("op") == 1 + pongs
        ping, *replies = [r for r in tracer.records
                          if r.get("kind") == "message"]
        assert (ping["name"], ping["trace"], ping["parent"]) == \
            ("msg:ping", *ctx)
        assert [(r["name"], r["parent"]) for r in replies] == \
            [("msg:pong", ping["span"])] * pongs

    def test_activate_inside_an_operation_keeps_the_tag(self):
        net, tracer, ctx = self._traced_net()
        with net.resume(("op", None)):
            with tracer.activate(ctx):
                assert net.scope() == ("op", ctx)
                assert tracer.current() == ctx
                net.node("a").send("b", "ping")
        self._assert_ping_pong_billed_and_parented(net, tracer, ctx)

    def test_resume_none_pushes_nothing(self):
        net = self._net()
        net.metrics.begin_operation("op")
        with net.resume(None):
            assert net.scope() is None
            net.node("a").send("b", "ping")
        net.loop.run_until_idle()
        assert net.metrics.end_operation("op") == 0

    def test_captured_scope_resumes_from_a_bare_timer(self):
        """A continuation outside any delivery (a retry timer) bills
        and parents exactly like the scope it was captured in."""
        net, tracer, ctx = self._traced_net()
        with net.resume(("op", ctx)):
            captured = net.scope()

        def retry():
            assert net.scope() is None
            with net.resume(captured):
                net.node("a").send("b", "ping")

        net.loop.schedule(1.0, retry)
        self._assert_ping_pong_billed_and_parented(net, tracer, ctx)

    def test_duplicate_clone_carries_the_scope(self):
        net, tracer, ctx = self._traced_net()
        plan = FaultPlan(seed=0, faults=(
            MessageDuplicate(kinds=("ping",), probability=1.0),))
        with FaultInjector(net, plan):
            with net.resume(("op", ctx)):
                net.node("a").send("b", "ping")
            # the clone is a fault, not a send; both deliveries answer
            self._assert_ping_pong_billed_and_parented(net, tracer, ctx,
                                                       pongs=2)


def deploy(seed=5):
    net = GridVineNetwork.build(num_peers=16, seed=seed, replication=2)
    embl = Schema("EMBL", ["Organism"], domain="d")
    emp = Schema("EMP", ["SystematicName"], domain="d")
    net.insert_schema(embl)
    net.insert_schema(emp)
    net.insert_triples([
        Triple(URI(f"EMBL:{i}"), URI("EMBL#Organism"),
               Literal(f"Aspergillus {i}"))
        for i in range(6)
    ] + [
        Triple(URI("EMP:9"), URI("EMP#SystematicName"),
               Literal("Aspergillus 9")),
    ])
    net.create_mapping(embl, emp, [("Organism", "SystematicName")],
                       origin=net.peer_ids()[0])
    net.settle()
    return net


QUERY = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"


class TestQueryMessageAttribution:
    def test_messages_invariant_to_background_traffic(self):
        """The same query reports the same message count whether or
        not maintenance traffic floods the network around it."""
        quiet = deploy()
        quiet_outcome = quiet.search_for(QUERY, strategy="iterative",
                                         origin=quiet.peer_ids()[1])

        busy = deploy()
        maintenance = MaintenanceProcess(busy.peers, interval=5.0,
                                         rng=random.Random(9))
        maintenance.start()
        busy.loop.run_until(busy.loop.now + 60.0)
        before = busy.network.metrics.messages_sent
        busy_outcome = busy.search_for(QUERY, strategy="iterative",
                                       origin=busy.peer_ids()[1])
        global_delta = busy.network.metrics.messages_sent - before
        maintenance.stop()

        assert quiet_outcome.messages > 0
        assert busy_outcome.messages == quiet_outcome.messages
        # The historical delta accounting would have billed the
        # background traffic to the query.
        assert global_delta > busy_outcome.messages

    def test_all_strategies_report_positive_counts(self):
        net = deploy()
        for strategy in ("local", "iterative", "recursive"):
            outcome = net.search_for(QUERY, strategy=strategy,
                                     origin=net.peer_ids()[1])
            assert outcome.messages > 0, strategy

    def test_engine_batch_messages_invariant_to_background_traffic(self):
        quiet = deploy()
        quiet_result = quiet.create_engine(domain="d").execute_batch(
            [QUERY], origin=quiet.peer_ids()[1])

        busy = deploy()
        maintenance = MaintenanceProcess(busy.peers, interval=5.0,
                                         rng=random.Random(9))
        maintenance.start()
        busy.loop.run_until(busy.loop.now + 60.0)
        busy_result = busy.create_engine(domain="d").execute_batch(
            [QUERY], origin=busy.peer_ids()[1])
        maintenance.stop()

        assert quiet_result.messages > 0
        assert busy_result.messages == quiet_result.messages

    def test_tracked_operation_counters_do_not_leak(self):
        net = deploy()
        net.search_for(QUERY, strategy="iterative",
                       origin=net.peer_ids()[1])
        net.create_engine(domain="d").search_for(
            QUERY, origin=net.peer_ids()[1])
        assert net.network.metrics.operations == {}

    def test_tracked_counters_do_not_leak_on_kickoff_error(self):
        """A query that raises during kickoff (unroutable pattern)
        must still pop its tracked counter."""
        net = deploy()
        with pytest.raises(Exception):
            net.search_for("SearchFor(x? : (x?, y?, z?))",
                           origin=net.peer_ids()[1])
        assert net.network.metrics.operations == {}
