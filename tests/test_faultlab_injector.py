"""Tests for the fault lab's plan and injector layers.

Message-level semantics are pinned down against a raw
:class:`SimNetwork` with toy nodes (precise, cheap); the
whole-deployment guarantees — the no-fault path staying bit-identical
and composition with churn — run against real GridVine networks.
"""

import random

import pytest

from repro.faultlab import (
    CrashRestart,
    FaultInjector,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    MessageReorder,
    Partition,
)
from repro.faultlab.plan import FOREVER, clause_seed
from repro.simnet.churn import ChurnProcess
from repro.simnet.events import EventLoop, SimulationError
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Message, Node, SimNetwork


class Recorder(Node):
    """Toy node logging every delivery as (kind, src, time)."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message):
        self.received.append((message.kind, message.src, self.loop.now))


def toy_network(num_nodes=3, latency=0.05):
    net = SimNetwork(loop=EventLoop(), latency=ConstantLatency(latency),
                     rng=random.Random(1))
    nodes = [Recorder(f"n{i}") for i in range(num_nodes)]
    for node in nodes:
        net.attach(node)
    return net, nodes


class TestDropAndPartition:
    def test_drop_probability_one_drops_everything(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(MessageDrop(probability=1.0),))
        with FaultInjector(net, plan) as injector:
            for _ in range(5):
                a.send("n1", "ping")
            net.loop.run_until_idle()
            assert b.received == []
            assert injector.injected["drop"] == 5
        assert net.metrics.drops_by_reason["fault"] == 5
        assert net.metrics.faults_by_kind["drop:ping"] == 5

    def test_drop_filters_by_kind_and_window(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            MessageDrop(kinds=("ping",), probability=1.0,
                        start=0.0, until=10.0),
        ))
        with FaultInjector(net, plan):
            a.send("n1", "ping")   # dropped (kind + window match)
            a.send("n1", "pong")   # other kind: delivered
            net.loop.run_until(20.0)
            a.send("n1", "ping")   # window over: delivered
            net.loop.run_until_idle()
        assert [kind for kind, _s, _t in b.received] == ["pong", "ping"]

    def test_symmetric_partition_blocks_both_ways_until_heal(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            Partition(side_a=("n0",), side_b=("n1",),
                      start=0.0, heal_at=10.0),
        ))
        with FaultInjector(net, plan):
            a.send("n1", "x")
            b.send("n0", "y")
            net.loop.run_until(10.0)
            assert a.received == [] and b.received == []
            a.send("n1", "x2")  # healed
            net.loop.run_until_idle()
        assert [k for k, _s, _t in b.received] == ["x2"]
        assert net.metrics.drops_by_reason["partition"] == 2

    def test_asymmetric_partition_blocks_one_direction(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            Partition(side_a=("n0",), side_b=("n1",), symmetric=False),
        ))
        with FaultInjector(net, plan):
            a.send("n1", "blocked")
            b.send("n0", "passes")
            net.loop.run_until_idle()
            assert b.received == []
            assert [k for k, _s, _t in a.received] == ["passes"]

    def test_partition_spares_uninvolved_nodes(self):
        net, (a, _b, c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            Partition(side_a=("n0",), side_b=("n1",)),
        ))
        with FaultInjector(net, plan):
            a.send("n2", "ok")
            net.loop.run_until_idle()
        assert [k for k, _s, _t in c.received] == ["ok"]


class TestDuplicateDelayReorder:
    def test_duplicate_delivers_extra_copies(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            MessageDuplicate(probability=1.0, copies=2),
        ))
        with FaultInjector(net, plan) as injector:
            a.send("n1", "dup")
            net.loop.run_until_idle()
            assert len(b.received) == 3  # original + 2 copies
            assert injector.injected["duplicate"] == 2
        # copies are accounted as faults, not as sent messages
        assert net.metrics.messages_sent == 1

    def test_duplicate_copies_do_not_alias_payload(self):
        net, nodes = toy_network()

        class Mutator(Node):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.seen = []

            def on_message(self, message):
                # A handler that consumes its payload must not affect
                # the fault-injected duplicate delivery.
                self.seen.append(message.payload.pop("value"))

        mutator = Mutator("m")
        net.attach(mutator)
        plan = FaultPlan(seed=0, faults=(
            MessageDuplicate(probability=1.0, copies=1),
        ))
        with FaultInjector(net, plan):
            nodes[0].send("m", "once", {"value": 7})
            net.loop.run_until_idle()
        assert mutator.seen == [7, 7]

    def test_delay_adds_jitter_within_bounds(self):
        net, (a, b, _c) = toy_network(latency=0.0)
        plan = FaultPlan(seed=0, faults=(
            MessageDelay(probability=1.0, jitter_min=2.0, jitter_max=3.0),
        ))
        with FaultInjector(net, plan):
            a.send("n1", "slow")
            net.loop.run_until_idle()
        (_k, _s, at) = b.received[0]
        assert 2.0 <= at <= 3.0

    def test_reorder_lets_later_message_overtake(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            MessageReorder(kinds=("first",), probability=1.0,
                           hold_max=60.0),
        ))
        with FaultInjector(net, plan):
            a.send("n1", "first")
            net.loop.run_until(1.0)
            a.send("n1", "second")
            net.loop.run_until_idle()
        assert [k for k, _s, _t in b.received] == ["second", "first"]

    def test_reorder_flushes_after_hold_max_on_quiet_link(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            MessageReorder(probability=1.0, hold_max=5.0),
        ))
        with FaultInjector(net, plan):
            a.send("n1", "held")
            net.loop.run_until_idle()
        assert [k for k, _s, _t in b.received] == ["held"]
        assert b.received[0][2] >= 5.0

    def test_duplicate_fires_on_reordered_messages(self):
        """Stacked clauses compose: a held (reordered) original still
        gets its duplicate copies delivered normally."""
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            MessageReorder(probability=1.0, hold_max=5.0),
            MessageDuplicate(probability=1.0, copies=1),
        ))
        with FaultInjector(net, plan) as injector:
            a.send("n1", "both")
            net.loop.run_until_idle()
            assert injector.injected["duplicate"] == 1
            assert injector.injected["reorder"] == 1
        # the copy travelled normally; the held original flushed later
        assert len(b.received) == 2

    def test_identical_clauses_draw_independently(self):
        """Two identical probabilistic clauses must compound, not fire
        in lockstep on the same messages."""
        def drops(clauses):
            net, (a, b, _c) = toy_network()
            with FaultInjector(net, FaultPlan(seed=2, faults=clauses)):
                for i in range(300):
                    a.send("n1", f"m{i}")
                net.loop.run_until_idle()
            return 300 - len(b.received)

        single = drops((MessageDrop(probability=0.5),))
        stacked = drops((MessageDrop(probability=0.5),
                         MessageDrop(probability=0.5)))
        # independent streams: ~75% compound drop rate vs ~50%
        assert stacked > single
        assert stacked > 0.6 * 300

    def test_uninstall_releases_held_messages(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            MessageReorder(probability=1.0, hold_max=500.0),
        ))
        injector = FaultInjector(net, plan).install()
        a.send("n1", "held")
        net.loop.run_until(1.0)
        assert b.received == []
        injector.uninstall()
        net.loop.run_until_idle()
        assert [k for k, _s, _t in b.received] == ["held"]


class TestCrashRestart:
    def test_crash_window_and_restart(self):
        net, (a, b, _c) = toy_network()
        plan = FaultPlan(seed=0, faults=(
            CrashRestart(node="n1", at=5.0, restart_at=15.0),
        ))
        with FaultInjector(net, plan) as injector:
            net.loop.run_until(6.0)
            assert not net.is_online("n1")
            assert injector.currently_down() == {"n1"}
            a.send("n1", "lost")
            net.loop.run_until(16.0)
            assert net.is_online("n1")
            a.send("n1", "found")
            net.loop.run_until_idle()
        assert [k for k, _s, _t in b.received] == ["found"]
        assert net.metrics.drops_by_reason["offline"] == 1

    def test_uninstall_restarts_still_down_nodes(self):
        net, _nodes = toy_network()
        plan = FaultPlan(seed=0, faults=(
            CrashRestart(node="n2", at=0.0, restart_at=FOREVER),
        ))
        injector = FaultInjector(net, plan).install()
        net.loop.run_until(1.0)
        assert not net.is_online("n2")
        injector.uninstall()
        assert net.is_online("n2")

    def test_composes_with_churn_idempotently(self):
        """Neither process recovers (or double-fails) the other's
        nodes; churn bookkeeping stays consistent throughout."""
        net, _nodes = toy_network(num_nodes=6)
        churn = ChurnProcess(net, mean_uptime=5.0, mean_downtime=5.0,
                             rng=random.Random(3))
        plan = FaultPlan(seed=1, faults=(
            CrashRestart(node="n0", at=2.0, restart_at=40.0),
            CrashRestart(node="n1", at=3.0, restart_at=50.0),
        ))
        churn.start()
        injector = FaultInjector(net, plan).install()
        net.loop.run_until(100.0)
        churn.stop()
        injector.uninstall()
        net.loop.run_until(200.0)
        churn.assert_consistent()

    def test_second_injector_rejected(self):
        net, _nodes = toy_network()
        first = FaultInjector(net, FaultPlan()).install()
        with pytest.raises(SimulationError):
            FaultInjector(net, FaultPlan()).install()
        first.uninstall()


class TestDeterminism:
    def test_clause_seed_stable_under_sibling_removal(self):
        drop = MessageDrop(probability=0.5)
        plan_a = FaultPlan(seed=9, faults=(drop,))
        plan_b = FaultPlan(seed=9, faults=(MessageDelay(), drop)).without(0)
        assert plan_b.faults == plan_a.faults
        assert clause_seed(9, plan_a.faults[0]) == \
            clause_seed(9, plan_b.faults[0])

    def test_same_plan_same_decisions(self):
        def run():
            net, (a, b, _c) = toy_network()
            plan = FaultPlan(seed=4, faults=(
                MessageDrop(probability=0.5),
                MessageDelay(probability=0.5),
            ))
            with FaultInjector(net, plan):
                for i in range(30):
                    a.send("n1", f"m{i}")
                net.loop.run_until_idle()
            return ([(k, round(t, 9)) for k, _s, t in b.received],
                    dict(net.metrics.faults_by_kind))

        assert run() == run()

    def test_empty_plan_is_bit_identical_to_no_injector(self):
        """Hook-point guarantee: an installed injector whose clauses
        never fire leaves delivery order, timing and metrics exactly
        as without any injector."""
        def run(with_injector):
            net, (a, b, _c) = toy_network()
            injector = None
            if with_injector:
                plan = FaultPlan(seed=0, faults=(
                    MessageDrop(probability=0.0),
                    MessageDelay(probability=0.0),
                    Partition(side_a=("n0",), side_b=("n1",),
                              start=50.0, heal_at=60.0),
                ))
                injector = FaultInjector(net, plan).install()
            for i in range(20):
                a.send("n1", f"m{i}")
                b.send("n0", f"r{i}")
            net.loop.run_until_idle()
            if injector is not None:
                injector.uninstall()
            return (a.received, b.received, net.metrics.snapshot())

        plain = run(False)
        faulted = run(True)
        assert plain[0] == faulted[0]
        assert plain[1] == faulted[1]
        # snapshots match except the (empty) fault bookkeeping
        assert plain[2] == faulted[2]


class TestPlanDescribe:
    def test_describe_covers_every_clause(self):
        plan = FaultPlan(seed=0, faults=(
            MessageDrop(kinds=("reply",), probability=0.5, until=60.0),
            MessageDuplicate(copies=2),
            MessageDelay(),
            MessageReorder(),
            Partition(side_a=("n0",), side_b=("n1", "n2")),
            CrashRestart(node="n1", at=5.0),
        ))
        text = "\n".join(plan.describe())
        for token in ("drop", "duplicate", "delay", "reorder",
                      "partition", "crash"):
            assert token in text
        assert len(plan.describe()) == len(plan)

    def test_without_removes_exactly_one_clause(self):
        plan = FaultPlan(seed=0, faults=(
            MessageDrop(), MessageDelay(), MessageReorder(),
        ))
        smaller = plan.without(1)
        assert len(smaller) == 2
        assert isinstance(smaller.faults[0], MessageDrop)
        assert isinstance(smaller.faults[1], MessageReorder)
        assert smaller.seed == plan.seed


class TestClauseValidation:
    @pytest.mark.parametrize("build, field", [
        (lambda: MessageDrop(probability=1.5), "MessageDrop.probability"),
        (lambda: MessageReorder(probability=-0.1),
         "MessageReorder.probability"),
        (lambda: MessageDrop(start=30.0, until=10.0), "MessageDrop.start"),
        (lambda: MessageDelay(jitter_min=5.0, jitter_max=1.0),
         "MessageDelay.jitter_min"),
        (lambda: MessageDuplicate(copies=0), "MessageDuplicate.copies"),
        (lambda: MessageDuplicate(probability=2.0),
         "MessageDuplicate.probability"),
        (lambda: Partition(side_a=(), side_b=("n1",)), "Partition.side_a"),
        (lambda: Partition(side_a=("n0",), side_b=()), "Partition.side_b"),
        (lambda: Partition(side_a=("n0", "n1"), side_b=("n1", "n2")),
         "Partition.side_b"),
        (lambda: Partition(side_a=("n0",), side_b=("n1",), start=9.0,
                           heal_at=3.0), "Partition.start"),
        (lambda: CrashRestart(node="n0", at=10.0, restart_at=5.0),
         "CrashRestart.restart_at"),
    ])
    def test_bad_clause_is_rejected_naming_the_field(self, build, field):
        """A clause that could never fire (or never stop) is refused
        at construction, not discovered mid-run."""
        with pytest.raises(ValueError, match=field.replace(".", r"\.")
                           + " must be "):
            build()

    def test_boundary_values_are_accepted(self):
        MessageDrop(probability=0.0, start=5.0, until=5.0)
        MessageDelay(jitter_min=2.0, jitter_max=2.0)
        Partition(side_a=("n0",), side_b=("n1",), start=4.0, heal_at=4.0)
        CrashRestart(node="n0", at=3.0, restart_at=3.0)
