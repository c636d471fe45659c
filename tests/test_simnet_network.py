"""Tests for the simulated network, latency models and churn."""

import random

import pytest

from repro.simnet.churn import ChurnProcess
from repro.simnet.events import SimulationError
from repro.simnet.latency import (
    ConstantLatency,
    LogNormalWANLatency,
    UniformLatency,
)
from repro.simnet.network import Node, SimNetwork


class Recorder(Node):
    """Test node that records delivered messages."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_net(latency=None, seed=0):
    return SimNetwork(latency=latency, rng=random.Random(seed))


class TestSimNetwork:
    def test_send_and_deliver(self):
        net = make_net()
        a, b = Recorder("a"), Recorder("b")
        net.attach(a)
        net.attach(b)
        a.send("b", "ping", {"n": 1})
        net.loop.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0].payload == {"n": 1}
        assert b.received[0].src == "a"

    def test_duplicate_attach_rejected(self):
        net = make_net()
        net.attach(Recorder("a"))
        with pytest.raises(SimulationError):
            net.attach(Recorder("a"))

    def test_unattached_node_cannot_send(self):
        node = Recorder("lonely")
        with pytest.raises(SimulationError):
            node.send("x", "ping")

    def test_send_to_unknown_is_dropped(self):
        net = make_net()
        a = Recorder("a")
        net.attach(a)
        a.send("ghost", "ping")
        net.loop.run_until_idle()
        assert net.metrics.messages_dropped == 1

    def test_send_to_offline_is_dropped(self):
        net = make_net()
        a, b = Recorder("a"), Recorder("b")
        net.attach(a)
        net.attach(b)
        net.set_online("b", False)
        a.send("b", "ping")
        net.loop.run_until_idle()
        assert b.received == []
        assert net.metrics.messages_dropped == 1

    def test_offline_mid_flight_is_dropped(self):
        net = make_net(latency=ConstantLatency(1.0))
        a, b = Recorder("a"), Recorder("b")
        net.attach(a)
        net.attach(b)
        a.send("b", "ping")
        net.loop.schedule(0.5, net.set_online, "b", False)
        net.loop.run_until_idle()
        assert b.received == []
        assert net.metrics.messages_dropped == 1

    def test_detach_removes_node(self):
        net = make_net()
        a = Recorder("a")
        net.attach(a)
        net.detach("a")
        assert "a" not in net
        assert a.network is None

    def test_metrics_accumulate(self):
        net = make_net(latency=ConstantLatency(0.1))
        a, b = Recorder("a"), Recorder("b")
        net.attach(a)
        net.attach(b)
        for _ in range(3):
            a.send("b", "data")
        net.loop.run_until_idle()
        assert net.metrics.messages_sent == 3
        assert net.metrics.messages_by_kind == {"data": 3}
        assert net.metrics.mean_latency == pytest.approx(0.1)

    def test_metrics_reset(self):
        net = make_net()
        a, b = Recorder("a"), Recorder("b")
        net.attach(a)
        net.attach(b)
        a.send("b", "data")
        net.loop.run_until_idle()
        net.metrics.reset()
        assert net.metrics.messages_sent == 0

    def test_node_ids(self):
        net = make_net()
        for name in ("c", "a", "b"):
            net.attach(Recorder(name))
        assert sorted(net.node_ids()) == ["a", "b", "c"]


class TestLatencyModels:
    def test_constant(self):
        m = ConstantLatency(0.2)
        assert m.sample("a", "b", random.Random(0)) == 0.2

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_in_range(self):
        m = UniformLatency(0.1, 0.5)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.1 <= m.sample("a", "b", rng) <= 0.5

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_lognormal_positive(self):
        m = LogNormalWANLatency()
        rng = random.Random(1)
        samples = [m.sample(f"h{i}", f"h{i + 1}", rng) for i in range(200)]
        assert all(s > 0 for s in samples)

    def test_lognormal_base_delay_is_sticky_per_pair(self):
        m = LogNormalWANLatency(jitter_ms=0.0, straggler_prob=0.0)
        rng = random.Random(2)
        first = m.sample("a", "b", rng)
        second = m.sample("a", "b", rng)
        reverse = m.sample("b", "a", rng)
        assert first == second == reverse

    def test_lognormal_stragglers_add_tail(self):
        slow = LogNormalWANLatency(straggler_prob=1.0, straggler_ms=5000.0)
        fast = LogNormalWANLatency(straggler_prob=0.0)
        rng1, rng2 = random.Random(3), random.Random(3)
        slow_mean = sum(slow.sample("a", f"b{i}", rng1)
                        for i in range(100)) / 100
        fast_mean = sum(fast.sample("a", f"b{i}", rng2)
                        for i in range(100)) / 100
        assert slow_mean > fast_mean + 1.0

    def test_lognormal_validates_params(self):
        with pytest.raises(ValueError):
            LogNormalWANLatency(median_ms=0)
        with pytest.raises(ValueError):
            LogNormalWANLatency(straggler_prob=1.5)


class TestChurn:
    def test_failures_and_recoveries_happen(self):
        net = make_net()
        for i in range(10):
            net.attach(Recorder(f"n{i}"))
        churn = ChurnProcess(net, mean_uptime=10.0, mean_downtime=5.0,
                             rng=random.Random(4))
        churn.start()
        net.loop.run_until(200.0)
        churn.stop()
        assert churn.failures > 0
        assert churn.recoveries > 0

    def test_protected_nodes_never_fail(self):
        net = make_net()
        for i in range(5):
            net.attach(Recorder(f"n{i}"))
        churn = ChurnProcess(net, mean_uptime=1.0, mean_downtime=1000.0,
                             rng=random.Random(5), protected={"n0"})
        churn.start()
        net.loop.run_until(50.0)
        assert net.is_online("n0")

    def test_rejects_bad_params(self):
        net = make_net()
        with pytest.raises(ValueError):
            ChurnProcess(net, mean_uptime=0.0)

    def test_stop_halts_new_failures(self):
        net = make_net()
        net.attach(Recorder("a"))
        churn = ChurnProcess(net, mean_uptime=1.0, mean_downtime=0.5,
                             rng=random.Random(6))
        churn.start()
        net.loop.run_until(20.0)
        churn.stop()
        count = churn.failures
        net.loop.run_until(40.0)
        # one in-flight failure may land; no sustained churn after stop
        assert churn.failures <= count + 1


class TestChurnRestart:
    """stop()/start() cycles and fail/recover idempotency."""

    def _churned_net(self, nodes=8, seed=13):
        net = make_net()
        for i in range(nodes):
            net.attach(Recorder(f"n{i}"))
        churn = ChurnProcess(net, mean_uptime=5.0, mean_downtime=10.0,
                             rng=random.Random(seed))
        return net, churn

    def test_restart_does_not_refail_offline_nodes(self):
        """A stop()/start() cycle must not schedule failures for nodes
        that are still offline (the historical double-failure bug)."""
        net, churn = self._churned_net()
        churn.start()
        net.loop.run_until(30.0)
        churn.stop()
        down_at_restart = churn.currently_down()
        assert down_at_restart  # long downtimes: someone is offline
        churn.start()
        net.loop.run_until(200.0)
        churn.stop()
        churn.assert_consistent()

    def test_bookkeeping_consistent_under_restart_storm(self):
        net, churn = self._churned_net()
        for cycle in range(6):
            churn.start()
            net.loop.run_until(net.loop.now + 17.0)
            churn.stop()
            net.loop.run_until(net.loop.now + 3.0)
            churn.assert_consistent()
        # drain pending recoveries: every failure is eventually paired
        net.loop.run_until(net.loop.now + 500.0)
        churn.assert_consistent()
        assert churn.failures == churn.recoveries
        assert all(net.is_online(n) for n in net.node_ids())

    def test_fail_is_idempotent_on_already_offline_node(self):
        net, churn = self._churned_net(nodes=1)
        net.set_online("n0", False)  # external failure
        churn._running = True
        churn._fail("n0", churn._epoch)
        assert churn.failures == 0  # no double-counted failure
        assert churn.currently_down() == set()

    def test_recover_is_idempotent(self):
        net, churn = self._churned_net(nodes=1)
        churn._running = True
        churn._fail("n0", churn._epoch)
        assert churn.failures == 1
        churn._recover("n0")
        churn._recover("n0")  # duplicate event
        assert churn.recoveries == 1
        assert net.is_online("n0")
        churn.assert_consistent()

    def test_stale_epoch_failure_never_fires(self):
        net, churn = self._churned_net(nodes=1)
        churn.start()
        stale_epoch = churn._epoch
        churn.stop()
        churn.start()  # bumps the epoch
        churn._fail("n0", stale_epoch)
        assert churn.failures == 0

    def test_recovery_survives_stop(self):
        """Nodes taken offline are never stranded: pending recoveries
        fire even after stop()."""
        net, churn = self._churned_net()
        churn.start()
        net.loop.run_until(30.0)
        churn.stop()
        assert churn.currently_down()
        net.loop.run_until(500.0)
        assert not churn.currently_down()
        assert all(net.is_online(n) for n in net.node_ids())
